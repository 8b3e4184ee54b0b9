"""Exact integer and residue-ring arithmetic.

Primality, factorization, discrete logs in prime fields, and canonical
linear algebra (Howell / Smith forms) over Z/p^N.  Everything here is
deterministic and pure; the rest of the library builds on it.
"""

from dataclasses import dataclass
from math import gcd, isqrt, prod

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

    def reconstruct(self):
        return prod(p**e for p, e in self.factors)


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


def squarefree_part(m: int) -> int:
    """The squarefree kernel of m (sign preserved)."""
    sign = -1 if m < 0 else 1
    out = sign
    for p, e in factor(abs(m)).factors:
        if e % 2:
            out *= p
    return out


def jacobi(a: int, n: int) -> int:
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def _bsgs(g: int, y: int, q: int, order: int) -> int:
    """x with g^x = y mod q, g of given order; raises if no solution."""
    m = isqrt(order) + 1
    table = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = e * g % q
    factor_ = pow(g, (order - m) % order, q)  # g^-m
    gamma = y % q
    for i in range(m):
        if gamma in table:
            return (i * m + table[gamma]) % order
        gamma = gamma * factor_ % q
    raise NotAGenerator("no discrete log exists")


def discrete_log(q: int, g: int, y: int) -> int:
    """x in [0, q-1) with g^x = y mod q; g must generate F_q^x."""
    if not is_prime(q):
        raise NotPrime(f"{q} is not prime")
    if y % q == 0:
        raise ValueError("y must be a unit mod q")
    n = q - 1
    fac = factor(n).factors
    for p, _ in fac:
        if pow(g, n // p, q) == 1:
            raise NotAGenerator(f"{g} does not generate F_{q}^x")
    # Pohlig-Hellman over the factorization of q-1.
    residues, moduli = [], []
    for p, e in fac:
        pe = p**e
        gp = pow(g, n // pe, q)
        yp = pow(y, n // pe, q)
        x = _dlog_prime_power(gp, yp, q, p, e)
        residues.append(x)
        moduli.append(pe)
    return _crt(residues, moduli)


def _dlog_prime_power(g: int, y: int, q: int, p: int, e: int) -> int:
    """Discrete log in the cyclic group of order p^e generated by g mod q."""
    x = 0
    gamma = pow(g, p ** (e - 1), q)  # order p
    for k in range(e):
        h = pow(pow(g, -x, q) * y % q, p ** (e - 1 - k), q)
        d = _bsgs(gamma, h, q, p)
        x += d * p**k
    return x


def dlog_mod_prime_power(q: int, w: int, u: int, p: int, e: int) -> int:
    """dlog_w(u) mod p^e, for a generator w of F_q^x with p^e | q-1."""
    pe = p**e
    g = pow(w, (q - 1) // pe, q)
    y = pow(u, (q - 1) // pe, q)
    return _dlog_prime_power(g, y, q, p, e)


def _crt(residues, moduli):
    x, m = 0, 1
    for r, mi in zip(residues, moduli):
        t = (r - x) * pow(m, -1, mi) % mi
        x += m * t
        m *= mi
    return x


# ---------------------------------------------------------------------------
# Linear algebra over Z/p^N


@dataclass(frozen=True)
class ResidueMatrix:
    p: int
    N: int
    rows: int
    cols: int
    entries: tuple  # row-major tuple of tuples, reduced mod p^N

    @property
    def modulus(self):
        return self.p**self.N

    def to_array(self):
        if self.rows == 0:
            return np.zeros((0, self.cols), dtype=np.int64)
        return np.array(self.entries, dtype=np.int64)

    @classmethod
    def from_array(cls, a, p, N):
        a = np.asarray(a, dtype=np.int64) % (p**N)
        return cls(p, N, a.shape[0], a.shape[1], tuple(map(tuple, a.tolist())))


def _valuations(col, p, N):
    """Per-entry p-adic valuation of a 1-d int64 array (0 -> N)."""
    v = np.full(col.shape, N, dtype=np.int64)
    rem = col.copy()
    nz = rem != 0
    v[nz] = 0
    for _ in range(N):
        nz = (rem != 0) & (rem % p == 0)
        if not nz.any():
            break
        rem[nz] //= p
        v[nz] += 1
    return v


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
        sub = M[r:, col]
        vals = _valuations(sub, p, N)
        k = int(vals.min())
        if k == N:
            continue
        i = r + int(vals.argmin())
        if i != r:
            M[[r, i]] = M[[i, r]]
        pk = p**k
        unit = int(M[r, col]) // pk
        M[r] = M[r] * pow(unit, -1, mod) % mod
        if r + 1 < nrows:
            c = M[r + 1 :, col] // pk
            M[r + 1 :] = (M[r + 1 :] - c[:, None] * M[r]) % mod
        pivots.append((r, col, k))
        r += 1
    return M[:r], pivots


def howell_form(M: ResidueMatrix) -> ResidueMatrix:
    """Canonical Howell normal form of the row module of M over Z/p^N."""
    H, pivots = howell_array(M.to_array(), M.p, M.N)
    return ResidueMatrix.from_array(
        H if H.shape[0] else np.zeros((0, M.cols), dtype=np.int64), M.p, M.N
    )


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
        vals = _valuations(sub.ravel(), p, N).reshape(sub.shape)
        k = int(vals.min())
        i, j = np.unravel_index(int(vals.argmin()), vals.shape)
        i += t
        j += t
        if i != t:
            M[[t, i]] = M[[i, t]]
            if want_u:
                U[[t, i]] = U[[i, t]]
        if j != t:
            M[:, [t, j]] = M[:, [j, t]]
        pk = p**k
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
