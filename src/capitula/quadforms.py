"""Binary quadratic forms: class groups of quadratic fields, fundamental
units, prime-discriminant factorizations, and the visible (capitulating)
class attached to a fundamental unit of norm +1.

Definite class groups come from the reduced primitive forms under Gauss
composition; indefinite ones from cycles of reduced forms, i.e. the form
(= narrow) class group.  For prime discriminants ell = 1 mod 4 the narrow
and wide groups agree, which is the regime the survey code relies on.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt, prod

from .arith import factor, p_valuation
from .errors import NoFormFound, NormMinusOne, NotFundamental, Overflow

_DISC_BOUND = 10**7


def is_fundamental(d: int) -> bool:
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _squarefree(n: int) -> bool:
    n = abs(n)
    return all(e == 1 for _, e in factor(n).factors)


def _check_disc(d):
    if abs(d) > _DISC_BOUND:
        raise Overflow(f"|d| = {abs(d)} exceeds the supported bound")
    if not is_fundamental(d):
        raise NotFundamental(f"{d} is not a fundamental discriminant")


@dataclass(frozen=True, order=True)
class BinaryQuadraticForm:
    a: int
    b: int
    c: int

    @property
    def discriminant(self):
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self):
        return gcd(gcd(self.a, self.b), self.c) == 1

    def inverse(self):
        return BinaryQuadraticForm(self.a, -self.b, self.c)

    def __repr__(self):
        return f"({self.a},{self.b},{self.c})"


def _normalize_definite(f):
    a, b, c = f.a, f.b, f.c
    if not (-a < b <= a):
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    return BinaryQuadraticForm(a, b, c)


def reduce_definite(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    f = _normalize_definite(f)
    a, b, c = f.a, f.b, f.c
    while a > c or (a == c and b < 0):
        s = (c + b) // (2 * c)
        a, b, c = c, -b + 2 * s * c, c * s * s - b * s + a
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b, c = b + 2 * r * a, a * r * r + b * r + c
    return BinaryQuadraticForm(a, b, c)


def _is_reduced_indefinite(a, b, d):
    # |sqrt(d) - 2|a|| < b < sqrt(d), all exact
    if b <= 0 or b * b >= d:
        return False
    t = 2 * abs(a) - b
    if t >= 0 and t * t >= d:
        return False
    u = 2 * abs(a) + b
    return u * u > d


def _rho(b, c, d, s):
    """One reduction/cycle step for indefinite forms."""
    cc = 2 * abs(c)
    if abs(c) > s:
        # normalization window -|c| < b' <= |c|
        bp = (-b) % cc
        if bp > abs(c):
            bp -= cc
    else:
        # sqrt(d) - 2|c| < b' <= s
        bp = (-b) % cc
        bp += ((s - bp) // cc) * cc
    return c, bp, (bp * bp - d) // (4 * c)


def reduce_indefinite(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    d = f.discriminant
    s = isqrt(d)
    a, b, c = f.a, f.b, f.c
    while not _is_reduced_indefinite(a, b, d):
        a, b, c = _rho(b, c, d, s)
    return BinaryQuadraticForm(a, b, c)


def _cycle(f, d):
    """The full rho-cycle through the reduced indefinite form f = (a, b, c)
    of discriminant d, as (a, b, c) tuples."""
    s = isqrt(d)
    out = [f]
    g = _rho(f[1], f[2], d, s)
    while g != f:
        out.append(g)
        g = _rho(g[1], g[2], d, s)
    return out


def canonical(f: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Deterministic representative of the equivalence class of f."""
    if f.discriminant < 0:
        return reduce_definite(f)
    g = reduce_indefinite(f)
    return BinaryQuadraticForm(*min(_cycle((g.a, g.b, g.c), g.discriminant)))


def _ext_gcd(a, b):
    if b == 0:
        return (1, 0, a)
    u, v, g = _ext_gcd(b, a % b)
    return (v, u - (a // b) * v, g)


def compose(f1: BinaryQuadraticForm, f2: BinaryQuadraticForm) -> BinaryQuadraticForm:
    """Gauss composition of primitive forms of equal discriminant."""
    if f1.a > f2.a:
        f1, f2 = f2, f1
    a1, b1, c1 = f1.a, f1.b, f1.c
    a2, b2, c2 = f2.a, f2.b, f2.c
    s = (b1 + b2) // 2
    n = b2 - s
    if a2 % a1 == 0:
        y1, d = 0, a1
    else:
        u, _, d = _ext_gcd(a2, a1)
        y1 = u
    if s % d == 0:
        y2, x2, d1 = -1, 0, d
    else:
        u, v, d1 = _ext_gcd(s, d)
        x2, y2 = u, -v
    v1 = a1 // d1
    v2 = a2 // d1
    r = (y1 * y2 * n - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    c3 = (c2 * d1 + r * (b2 + v2 * r)) // v1
    return canonical(BinaryQuadraticForm(a3, b3, c3))


def principal_form(d: int) -> BinaryQuadraticForm:
    b0 = d % 2
    return canonical(BinaryQuadraticForm(1, b0, (b0 * b0 - d) // 4))


def form_pow(f: BinaryQuadraticForm, n: int) -> BinaryQuadraticForm:
    d = f.discriminant
    if n < 0:
        return form_pow(f.inverse(), -n)
    out = principal_form(d)
    g = canonical(f)
    while n:
        if n & 1:
            out = compose(out, g)
        g = compose(g, g)
        n >>= 1
    return out


def _reduced_definite_forms(d):
    forms = []
    bound = isqrt(-d // 3)
    for a in range(1, bound + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            f = BinaryQuadraticForm(a, b, c)
            if f.is_primitive():
                forms.append(f)
    return forms


def _reduced_indefinite_forms(d):
    """The reduced primitive forms (a, b, c) of discriminant d > 0, as
    tuples: 0 < b < sqrt(d) and sqrt(d) - b < 2|a| < sqrt(d) + b (Cohen, A
    Course in Computational Algebraic Number Theory, 5.6).  A fundamental d
    is no square, so s = isqrt(d) < sqrt(d) < s + 1, and for integers the
    window reads b <= s and s - b < 2|a| <= s + b: |a| runs from
    (s - b)//2 + 1 to (s + b)//2, and each a is tested by division of
    (d - b^2)/4, with no factoring."""
    s = isqrt(d)
    for b in range(2 - d % 2, s + 1, 2):
        n = (d - b * b) // 4
        for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if n % a == 0 and gcd(gcd(a, b), n // a) == 1:
                yield a, b, -(n // a)
                yield -a, b, n // a


@dataclass(frozen=True)
class FormClassGroup:
    discriminant: int
    h: int
    invariants: tuple  # d1 | d2 | ... ascending
    elements: tuple = field(repr=False, default=())

    def identity(self):
        return principal_form(self.discriminant)


def _element_order(f, h_factors, h, d):
    e = principal_form(d)
    order = h
    for p, k in h_factors:
        while order % p == 0 and form_pow(f, order // p) == e:
            order //= p
    return order


def _abelian_invariants(elements, d, h):
    """Cyclic invariants d1|d2|... from p^k-torsion counts."""
    if h == 1:
        return ()
    hf = factor(h).factors
    per_prime = {}
    for p, vmax in hf:
        e = principal_form(d)
        counts = [1]
        for k in range(1, vmax + 1):
            pk = p**k
            counts.append(sum(1 for x in elements if form_pow(x, pk) == e))
        # log_p(counts[k]/counts[k-1]) cyclic factors reach order p^k, so
        # the i-th largest factor has exponent #{k : parts[k] > i}
        parts = [p_valuation(counts[k] // counts[k - 1], p)
                 for k in range(1, vmax + 1)]
        per_prime[p] = [p ** sum(1 for nk in parts if nk > i)
                        for i in range(parts[0])]
    rank = max(len(v) for v in per_prime.values())
    invs = [prod(lst[i] for lst in per_prime.values() if i < len(lst))
            for i in range(rank)]
    return tuple(sorted(invs))


@lru_cache(maxsize=4096)
def class_group(d: int) -> FormClassGroup:
    """The form class group of fundamental discriminant d."""
    _check_disc(d)
    if d < 0:
        elements = sorted(_reduced_definite_forms(d))
    else:
        seen = set()
        minima = []
        for f in _reduced_indefinite_forms(d):
            if f not in seen:
                cyc = _cycle(f, d)
                seen.update(cyc)
                minima.append(min(cyc))
        elements = [BinaryQuadraticForm(*f) for f in sorted(minima)]
    h = len(elements)
    invariants = _abelian_invariants(elements, d, h)
    return FormClassGroup(d, h, invariants, tuple(elements))


def p_part(g: FormClassGroup, p: int):
    """Cyclic invariants of the p-primary component, ascending."""
    parts = (p ** p_valuation(inv, p) for inv in g.invariants)
    return [v for v in parts if v > 1]


# ---------------------------------------------------------------------------
# Fundamental units


@dataclass(frozen=True)
class FundamentalUnit:
    d1: int
    x: int
    y: int
    norm: int  # +1 or -1; x^2 - d1*y^2 = 4*norm


def _pell_fundamental(D):
    """Minimal (u, v, n) with u^2 - D v^2 = n, n = +-1, for nonsquare D."""
    a0 = isqrt(D)
    m, q, a = 0, 1, a0
    num1, num = 1, a0
    den1, den = 0, 1
    while num * num - D * den * den not in (1, -1):
        m = q * a - m
        q = (D - m * m) // q
        a = (a0 + m) // q
        num1, num = num, a * num + num1
        den1, den = den, a * den + den1
    return num, den, num * num - D * den * den


def _icbrt(n):
    if n < 0:
        return -_icbrt(-n)
    x = round(n ** (1 / 3)) if n < 2**50 else 1 << ((n.bit_length() + 2) // 3)
    while x * x * x > n:
        x = (2 * x + n // (x * x)) // 3
    while (x + 1) ** 3 <= n:
        x += 1
    return x


@lru_cache(maxsize=4096)
def fundamental_unit(d1: int) -> FundamentalUnit:
    """Minimal unit > 1 of the real quadratic field of discriminant d1."""
    if d1 <= 0:
        raise NotFundamental("fundamental_unit needs a positive discriminant")
    _check_disc(d1)
    if d1 % 4 == 0:
        u, v, n = _pell_fundamental(d1 // 4)
        return FundamentalUnit(d1, 2 * u, v, n)
    u, v, n = _pell_fundamental(d1)
    # eps1 = u + v*sqrt(d1) generates the units of Z[sqrt(d1)]; the ring of
    # integers may contain its cube root (x0 + y0*sqrt(d1))/2, in which case
    # trace doubling gives 2u = x0^3 - 3*n*x0 with the same norm n.
    x0 = _icbrt(2 * u)
    for cand in range(max(1, x0 - 2), x0 + 3):
        if cand**3 - 3 * n * cand == 2 * u:
            num = cand * cand - 4 * n
            if num % d1 == 0:
                y0 = isqrt(num // d1)
                if y0 * y0 * d1 == num and y0 > 0:
                    return FundamentalUnit(d1, cand, y0, n)
    return FundamentalUnit(d1, 2 * u, 2 * v, n)


@dataclass(frozen=True)
class Lemma1Decomposition:
    r: int
    w: int


def _odd_square_split(value, d1):
    """value = r * w^2 with r squarefree supported on primes of 2*d1."""
    r, w = 1, 1
    rest = value
    for p in sorted(set(factor(2 * abs(d1)).primes())):
        v = p_valuation(rest, p)
        rest //= p**v
        r *= p ** (v % 2)
        w *= p ** (v // 2)
    s = isqrt(rest)
    if s * s != rest:
        return None
    return r, w * s


def lemma1_decompose(u: FundamentalUnit) -> Lemma1Decomposition:
    """Write x+2 = r*w^2 with r | 2*d1 and r, 4*d1/r nonsquare."""
    if u.norm != 1:
        raise NormMinusOne("decomposition requires a norm +1 unit")
    split = _odd_square_split(u.x + 2, u.d1)
    if split is None:
        raise ArithmeticError("x+2 is not of the form r*w^2 over primes of 2*d1")
    r, w = split
    assert (2 * u.d1) % r == 0
    assert isqrt(r) ** 2 != r
    q = 4 * u.d1 // r
    assert isqrt(q) ** 2 != q
    return Lemma1Decomposition(r, w)


def visible_class(d: int, d1: int):
    """The class of the ideal that capitulates in K(sqrt(d1)), plus its order.

    Returns (form, order) where form represents r from the unit decomposition.
    """
    _check_disc(d)
    _check_disc(d1)
    if d % d1 != 0 or not (1 < d1 < abs(d)):
        raise NotFundamental("d1 must be a proper fundamental divisor of d")
    u = fundamental_unit(d1)
    dec = lemma1_decompose(u)  # raises NormMinusOne when norm is -1
    r = dec.r
    g = class_group(d)
    form = None
    for b in range(d % 2, 2 * r, 2):
        if (b * b - d) % (4 * r):
            continue
        cand = BinaryQuadraticForm(r, b, (b * b - d) // (4 * r))
        if cand.is_primitive():
            form = cand
            break
    if form is None:
        raise NoFormFound(f"no primitive form of discriminant {d} with a = {r}")
    cls = canonical(form)
    order = _element_order(cls, factor(g.h).factors, g.h, d)
    return cls, order


# ---------------------------------------------------------------------------
# Genus theory


def prime_discriminant_factors(d: int):
    """The prime discriminants whose product is d."""
    _check_disc(d)
    parts = []
    m = d
    for p in factor(abs(d)).primes():
        if p == 2:
            continue
        pstar = p if p % 4 == 1 else -p
        parts.append(pstar)
        m //= pstar
    if m != 1:
        parts.append(m)  # the 2-part: one of -4, 8, -8
    return sorted(parts, key=abs)
