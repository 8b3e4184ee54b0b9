"""Exact integer and residue-ring arithmetic.

Primality, factorization, discrete logs in the p-power subgroups of prime
fields, and linear algebra over Z/p^N.  That has one elimination, the
one-pass Howell form: membership, canonical residues and left kernels are
read off it.  Smith forms return only the valuations of their invariants.
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


def _clear_column(M, lo, hi, col, row, pk, mod):
    """Reduce column col of the rows M[lo:hi] below pk by subtracting
    multiples of row, whose entry there is pk.  Earlier columns are zero in
    row, and rows whose multiple is zero are not touched."""
    c = M[lo:hi, col] // pk
    nz = c.nonzero()[0]
    if nz.size:
        # a slice, cheaper than gathering rows, when no multiple is zero
        rows = slice(lo, hi) if nz.size == c.size else lo + nz
        M[rows, col:] = (M[rows, col:] - c[nz, None] * row) % mod


def howell_array(A, p, N):
    """Howell form of the row span of A over Z/p^N, as (H, pivots) with
    pivots = [(row, col, k), ...] and H[row, col] = p^k.

    One pass over the columns (Howell, Linear Multilinear Algebra 19, 1986;
    Storjohann, Algorithms for Matrix Canonical Forms, 2000, ch. 4).  The
    rows below the pivots found so far form a pool that spans exactly the
    elements of the span vanishing before the current column: clearing a
    column with a pivot p^k keeps this true once p^(N-k) times the pivot
    row, which is zero in that column, joins the pool.  That adds at most
    one row per column.
    """
    mod = p**N
    if mod >= 1 << 31:
        raise ValueError("modulus too large for int64 arithmetic")
    A = np.asarray(A, dtype=np.int64)
    A = A.reshape(-1, A.shape[-1])
    nrows, ncols = A.shape
    M = np.zeros((nrows + ncols, ncols), dtype=np.int64)
    M[:nrows] = A % mod
    r, m = 0, nrows  # pivot rows M[:r], pool M[r:m]
    pivots = []
    for col in range(ncols):
        if r == m:
            break
        # gcd(x, p^N) = p^v(x), and p^N for x = 0: its argmin is the
        # first entry of least valuation
        powers = np.gcd(M[r:m, col], mod)
        i = r + int(powers.argmin())
        pk = int(powers[i - r])
        if pk == mod:
            continue
        # pool rows vanish before col, so only columns col: change
        if i != r:
            M[[r, i], col:] = M[[i, r], col:]
        row = M[r, col:]
        unit = int(row[0]) // pk
        if unit != 1:
            row[:] = row * pow(unit, -1, mod) % mod
        _clear_column(M, r + 1, m, col, row, pk, mod)
        if pk > 1:
            M[m, col:] = row * (mod // pk) % mod
            m += 1
        pivots.append((r, col, p_valuation(pk, p)))
        r += 1
    H = M[:r].copy()
    # reduce the entries above each pivot modulo the pivot
    for r, col, k in pivots:
        _clear_column(H, 0, r, col, H[r, col:], p**k, mod)
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
    """Membership of row vector v in the Howell-spanned module: an entry
    that the pivot p^k does not divide stays in the remainder, since later
    rows are zero in its column."""
    return not howell_reduce(v, H, pivots, p, N).any()


def check_int64_sums(mod, dim):
    """Raise Overflow unless a sum of dim products of residues mod `mod`,
    as in a matrix product with inner dimension dim, fits in int64."""
    if mod * mod * dim >= 1 << 63:
        raise Overflow(f"{dim} products of residues mod {mod} overflow int64")


def smith_diagonalize(A, p, N):
    """The valuations a_i, ascending, of the nonzero entries p^a_i of the
    Smith form of A over Z/p^N.

    An entry p^k * unit of least valuation divides every other entry, so
    clearing its column with its row, scaled to make it p^k, zeroes that
    row and column and leaves the Smith form of the rest."""
    mod = p**N
    if mod >= 1 << 31:
        raise ValueError("modulus too large for int64 arithmetic")
    M = np.asarray(A, dtype=np.int64) % mod
    diag = []
    while M.any():
        powers = np.gcd(M, mod)  # p^valuation, as in howell_array
        i, j = divmod(int(powers.argmin()), M.shape[1])
        pk = int(powers[i, j])
        row = M[i] * pow(int(M[i, j]) // pk, -1, mod) % mod
        M = (M - np.outer(M[:, j] // pk, row)) % mod
        diag.append(p_valuation(pk, p))
    return diag


def left_kernel(A, p, N):
    """Generators of {x : x A = 0 mod p^N} as rows of an array: the Howell
    form of [A | 1] spans every (0, x) of its span in its rows that vanish
    on A's columns."""
    A = np.asarray(A, dtype=np.int64)
    nr, nc = A.shape
    if nr == 0:
        return np.zeros((0, 0), dtype=np.int64)
    H, pivots = howell_array(np.hstack([A, np.eye(nr, dtype=np.int64)]), p, N)
    return H[sum(col < nc for _, col, _ in pivots):, nc:]


def quotient_invariants(A, p, N):
    """Cyclic invariants of (Z/p^N)^cols / rowspan(A), as p-power orders.

    Returned ascending, trivial factors dropped."""
    A = np.asarray(A, dtype=np.int64)
    diag = smith_diagonalize(A, p, N)
    exps = diag + [N] * (A.shape[1] - len(diag))
    return sorted(p**a for a in exps if a > 0)
