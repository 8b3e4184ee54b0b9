"""Exact integer and residue-ring arithmetic.

Primality, factorization, discrete logs in the p-power subgroups of prime
fields, and canonical linear algebra (Howell / Smith forms) over Z/p^N.
Everything here is deterministic and pure; the rest of the library builds
on it.
"""

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .errors import NotAGenerator, NotPrime, Overflow

# Deterministic Miller-Rabin witness set, valid for all n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SIEVE_BOUND = 1 << 16
_small_primes = None


def _sieve_primes():
    global _small_primes
    if _small_primes is None:
        flags = bytearray([1]) * _SIEVE_BOUND
        flags[0] = flags[1] = 0
        for i in range(2, isqrt(_SIEVE_BOUND) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
        _small_primes = [i for i in range(_SIEVE_BOUND) if flags[i]]
    return _small_primes


def p_valuation(x: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer x."""
    if x == 0:
        raise ValueError("0 has no finite valuation")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    r = p_valuation(n - 1, 2)
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    value: int
    factors: tuple  # ((prime, exponent), ...) with primes strictly increasing

    def primes(self):
        return [p for p, _ in self.factors]


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite n, deterministic (seeded cycling)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factor(m: int) -> Factorization:
    """Exact factorization of m >= 1 (intended for m below 2^64)."""
    if m < 1:
        raise ValueError("factor requires a positive integer")
    value = m
    fac = {}
    for p in _sieve_primes():
        if p * p > m:
            break
        if m % p == 0:
            fac[p] = p_valuation(m, p)
            m //= p ** fac[p]
    stack = [m] if m > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            fac[n] = fac.get(n, 0) + 1
            continue
        d = _brent_rho(n)
        stack.append(d)
        stack.append(n // d)
    return Factorization(value, tuple(sorted(fac.items())))


def primitive_root(q: int) -> int:
    """Least primitive root modulo prime q."""
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if q == 2:
        return 1
    phi = q - 1
    ps = factor(phi).primes()
    g = 2
    while True:
        if all(pow(g, phi // p, q) != 1 for p in ps):
            return g
        g += 1


def p_power_dlogs(values, g, q, p, e):
    """dlog_g of each value mod the prime q, as integers in [0, p^e), for g
    of order p^e and values (residues in [0, q)) in the subgroup it
    generates.

    Pohlig-Hellman in base p^h (Pohlig and Hellman, IEEE Trans. Inf. Theory
    24, 1978): x = x0 + p^h*x1 with both digits read from one table of the
    p^h powers of gamma = g^(p^(e-h)): y^(p^(e-h)) = gamma^x0, and
    y*g^-x0 = gamma^(x1*p^(2h-e)).  h = e, one lookup per value, while the
    p^e-entry table is at most 8 entries per value; otherwise h = ceil(e/2)
    bounds the table by p^h.  Raises NotAGenerator if g does not have order
    p^e or a value lies outside <g>.
    """
    h = e if p**e <= 8 * len(values) else (e + 1) // 2
    gamma = pow(g, p ** (e - h), q)
    table = {}
    t = 1
    for i in range(p**h):
        table[t] = i
        t = t * gamma % q
    if t != 1 or len(table) != p**h:
        raise NotAGenerator(f"{g} does not have order {p}^{e} mod {q}")
    try:
        if h == e:
            return [table[y] for y in values]
        g_inv, top, shift = pow(g, -1, q), p ** (e - h), p ** (2 * h - e)
        out = []
        for y in values:
            x0 = table[pow(y, top, q)]
            x1 = table[y * pow(g_inv, x0, q) % q] // shift
            out.append(x0 + p**h * x1)
        return out
    except KeyError:
        raise NotAGenerator(f"a value lies outside <{g}> mod {q}") from None


# ---------------------------------------------------------------------------
# Linear algebra over Z/p^N


def _echelon(M, p, N):
    """In-place row echelon over Z/p^N with normalized p-power pivots.

    Returns (matrix of pivot rows, list of (row, col, val))."""
    mod = p**N
    if mod >= 1 << 31:
        raise ValueError("modulus too large for int64 arithmetic")
    M = M % mod
    nrows, ncols = M.shape
    r = 0
    pivots = []
    for col in range(ncols):
        if r == nrows:
            break
        # gcd(x, p^N) = p^v(x), and p^N for x = 0: its argmin is the
        # first entry of least valuation
        powers = np.gcd(M[r:, col], mod)
        i = int(powers.argmin())
        pk = int(powers[i])
        if pk == mod:
            continue
        k = p_valuation(pk, p)
        i += r
        if i != r:
            M[[r, i]] = M[[i, r]]
        unit = int(M[r, col]) // pk
        M[r] = M[r] * pow(unit, -1, mod) % mod
        if r + 1 < nrows:
            c = M[r + 1 :, col] // pk
            M[r + 1 :] = (M[r + 1 :] - c[:, None] * M[r]) % mod
        pivots.append((r, col, k))
        r += 1
    return M[:r], pivots


def howell_array(A, p, N):
    """Howell form as (array, pivots) with pivots = [(row, col, val), ...]."""
    mod = p**N
    A = np.asarray(A, dtype=np.int64) % mod
    A = A.reshape(-1, A.shape[-1])
    A = A[np.any(A != 0, axis=1)]
    if A.shape[0] == 0:
        return A, []
    while True:
        H, pivots = _echelon(A, p, N)
        extra = []
        for r, col, k in pivots:
            if k == 0:
                continue
            cand = H[r] * p ** (N - k) % mod
            cand = howell_reduce(cand, H, pivots, p, N)
            if cand.any():
                extra.append(cand)
        if not extra:
            break
        A = np.vstack([H] + extra)
    # normalize entries above each pivot modulo the pivot
    for r, col, k in pivots:
        if r == 0:
            continue
        pk = p**k
        c = H[:r, col] // pk
        H[:r] = (H[:r] - c[:, None] * H[r]) % mod
    return H, pivots


def howell_reduce(v, H, pivots, p, N):
    """The remainder of row vector v against the echelon rows H: canonical
    modulo their span when H is a Howell form."""
    mod = p**N
    v = v % mod
    for r, col, k in pivots:
        c = int(v[col]) // p**k
        if c:
            v = (v - c * H[r]) % mod
    return v


def howell_contains(H, pivots, v, p, N):
    """Membership of row vector v in the Howell-spanned module."""
    mod = p**N
    v = np.asarray(v, dtype=np.int64) % mod
    for r, col, k in pivots:
        pk = p**k
        e = int(v[col])
        if e % pk:
            return False
        v = (v - (e // pk) * H[r]) % mod
    return not v.any()


def check_int64_sums(mod, dim):
    """Raise Overflow unless a sum of dim products of residues mod `mod`,
    as in a matrix product with inner dimension dim, fits in int64."""
    if mod * mod * dim >= 1 << 63:
        raise Overflow(f"{dim} products of residues mod {mod} overflow int64")


def smith_diagonalize(A, p, N, want_u=True):
    """Diagonalize A over Z/p^N by invertible row/column operations.

    Returns (diag, U): for some invertible V, U A V = diag(p^a_i) (mod p^N),
    so row i of U A is p^a_i times a row with a unit entry, and the rows of
    U A past len(diag) are zero.  U is None unless wanted.  diag lists the
    valuations a_i.
    """
    mod = p**N
    if mod >= 1 << 31:
        raise ValueError("modulus too large for int64 arithmetic")
    M = np.array(A, dtype=np.int64) % mod
    nr, nc = M.shape
    U = np.eye(nr, dtype=np.int64) if want_u else None
    diag = []
    t = 0
    while t < min(nr, nc):
        sub = M[t:, t:]
        if not sub.any():
            break
        powers = np.gcd(sub, mod)  # p^valuation, as in _echelon
        i, j = np.unravel_index(int(powers.argmin()), powers.shape)
        pk = int(powers[i, j])
        k = p_valuation(pk, p)
        i += t
        j += t
        if i != t:
            M[[t, i]] = M[[i, t]]
            if want_u:
                U[[t, i]] = U[[i, t]]
        if j != t:
            M[:, [t, j]] = M[:, [j, t]]
        unit = int(M[t, t]) // pk
        inv = pow(unit, -1, mod)
        M[t] = M[t] * inv % mod
        if want_u:
            U[t] = U[t] * inv % mod
        c = M[:, t] // pk
        c[t] = 0
        M = (M - c[:, None] * M[t]) % mod
        if want_u:
            U = (U - c[:, None] * U[t]) % mod
        c2 = M[t] // pk
        c2[t] = 0
        M = (M - np.outer(M[:, t], c2)) % mod
        diag.append(k)
        t += 1
    return diag, U


def left_kernel(A, p, N):
    """Generators of {x : x A = 0 mod p^N} as rows of an array."""
    mod = p**N
    A = np.asarray(A, dtype=np.int64)
    nr = A.shape[0]
    if nr == 0:
        return np.zeros((0, 0), dtype=np.int64)
    diag, U = smith_diagonalize(A, p, N)
    gens = []
    for i, a in enumerate(diag):
        if a > 0:
            gens.append(U[i] * p ** (N - a) % mod)
    for i in range(len(diag), nr):
        gens.append(U[i])
    if not gens:
        return np.zeros((0, nr), dtype=np.int64)
    return np.vstack(gens)


def quotient_invariants(A, p, N):
    """Cyclic invariants of (Z/p^N)^cols / rowspan(A), as p-power orders.

    Returned ascending, trivial factors dropped."""
    A = np.asarray(A, dtype=np.int64)
    nc = A.shape[1]
    diag, _ = smith_diagonalize(A, p, N, want_u=False)
    exps = list(diag) + [N] * (nc - len(diag))
    return sorted(p**a for a in exps if a > 0)
