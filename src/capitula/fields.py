"""Defining polynomials for subfields of prime cyclotomic fields.

period_polynomial computes the minimal polynomial of the Gaussian periods
spanning the degree-m subfield of Q(zeta_l), exactly: the symmetric
functions of the periods are expanded in the group ring Z[x]/(x^l - 1) and
reduced to integers via sum(zeta^k) = -1.
"""

from dataclasses import dataclass

from .arith import is_prime, primitive_root
from .errors import DegreeTooLarge, NotDividing, NotPrime
from .iwasawa import _factor_mod_p, _poly_gcdext, _poly_trim

MAX_DEGREE = 16


@dataclass(frozen=True)
class PeriodPolynomial:
    ell: int
    m: int
    coefficients: tuple  # ascending, constant term first, monic


def _zeta_mul(u, v, ell):
    """Product in Z[x]/(x^ell - 1)."""
    out = [0] * ell
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                if b:
                    out[(i + j) % ell] += a * b
    return out


def _zeta_to_int(u):
    """The rational integer represented by u, using sum_k zeta^k = -1."""
    if any(c != u[1] for c in u[2:]):
        raise AssertionError("coefficient is not rational")
    return u[0] - u[1]


def _irreducible_mod_some_prime(coeffs, ell, tries=200):
    """True if the monic integer polynomial is irreducible mod one of the
    first `tries` primes distinct from ell (enough for cyclic fields, which
    always have inert primes)."""
    q = 2
    for _ in range(tries):
        while not is_prime(q) or q == ell:
            q += 1
        red = [c % q for c in coeffs]
        deriv = _poly_trim([i * c % q for i, c in enumerate(red)][1:])
        if red[-1] and deriv and len(_poly_gcdext(red, deriv, q)[0]) == 1:
            # squarefree mod q, so the factorization is meaningful
            factors = _factor_mod_p(red, q)
            if len(factors) == 1:
                return True
        q += 1
    return False


def _discriminant(coeffs):
    """Discriminant of a monic integer polynomial via the resultant of f
    and f' (Sylvester determinant, exact integer arithmetic)."""
    from fractions import Fraction

    f = list(coeffs)
    n = len(f) - 1
    fp = [i * f[i] for i in range(1, n + 1)]
    # Sylvester matrix of f (degree n) and f' (degree n-1)
    size = 2 * n - 1
    M = [[Fraction(0)] * size for _ in range(size)]
    for r in range(n - 1):
        for i, c in enumerate(reversed(f)):
            M[r][r + i] = Fraction(c)
    for r in range(n):
        for i, c in enumerate(reversed(fp)):
            M[n - 1 + r][r + i] = Fraction(c)
    # fraction-free enough via exact Fractions + Gaussian elimination
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if M[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, size):
            if M[r][col]:
                factor = M[r][col] * inv
                for c in range(col, size):
                    M[r][c] -= factor * M[col][c]
    res = det
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    disc = sign * res  # leading coefficient is 1
    assert disc.denominator == 1
    return int(disc)


def period_polynomial(ell, m) -> PeriodPolynomial:
    """Minimal polynomial of the Gaussian periods of the degree-m subfield
    of Q(zeta_ell): eta_i = sum_j zeta^(g^(i + m*j))."""
    if not is_prime(ell):
        raise NotPrime(f"{ell} is not prime")
    if m < 1 or (ell - 1) % m:
        raise NotDividing(f"{m} does not divide {ell - 1}")
    if m > MAX_DEGREE:
        raise DegreeTooLarge(f"degree {m} exceeds the supported {MAX_DEGREE}")
    if m == 1:
        # the full period sums to -1
        return PeriodPolynomial(ell, 1, (1, 1))
    g = primitive_root(ell)
    f = (ell - 1) // m
    periods = []
    for i in range(m):
        vec = [0] * ell
        e = pow(g, i, ell)
        step = pow(g, m, ell)
        for _ in range(f):
            vec[e] += 1
            e = e * step % ell
        periods.append(vec)
    # expand prod (x - eta_i) with coefficients in the group ring
    one = [0] * ell
    one[0] = 1
    poly = [one]  # ascending in x
    for eta in periods:
        neg = [-c for c in eta]
        new = [[0] * ell for _ in range(len(poly) + 1)]
        for j, c in enumerate(poly):
            prod = _zeta_mul(c, neg, ell)
            for k in range(ell):
                new[j][k] += prod[k]
                new[j + 1][k] += c[k]
        poly = new
    coeffs = tuple(_zeta_to_int(c) for c in poly)
    assert coeffs[-1] == 1 and len(coeffs) == m + 1
    if not _irreducible_mod_some_prime(coeffs, ell):
        raise AssertionError("period polynomial failed irreducibility check")
    # the field discriminant is supported at ell only; the polynomial
    # discriminant is that times the square of the index of Z[eta]
    disc = _discriminant(coeffs)
    d = abs(disc)
    while d % ell == 0:
        d //= ell
    from math import isqrt

    assert isqrt(d) ** 2 == d, "field discriminant must be supported at ell"
    return PeriodPolynomial(ell, m, coeffs)
