"""Finite-precision arithmetic in R = O[[T]]/(omega_n(T), p^N), where O is
the local ring Z_p[zeta_m] for an order-m character, omega_n(T) =
(1+T)^(p^n) - 1, and ideals are handled through Howell normal forms of
their Z/p^N-module closures.

R is a free Z/p^N-module on the monomials zeta^i T^j (0 <= i < f,
0 <= j < p^n), f the residue degree of p in Q(zeta_m).  All quotient and
membership questions reduce to exact linear algebra over Z/p^N.

Multiplication by zeta and by T are the two shift-and-reduce steps, and
every product in R reads one walk of the multiples zeta^i T^j b (_multiples):
the orbit rows that an ideal's Howell form stacks, the product a*b as the
sum of a[j, i] zeta^i T^j b, and the rows of x acting on a quotient R/I.

An ideal carries its ring (RingIdeal.ring), so the ideal functions below
take the ideal alone.
"""

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, prod

import numpy as np

from .arith import howell_array, howell_contains, howell_reduce, is_prime, \
    left_kernel, p_valuation, quotient_invariants
from .errors import ChiOrderNotCoprime, NotPrime, ParseError, PrecisionTooLow, \
    RingMismatch

# ---------------------------------------------------------------------------
# polynomial helpers (little-endian coefficient lists over Z/mod)


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, mod):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % mod
    return _poly_trim(out)


def _poly_add(a, b, mod):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % mod
    return _poly_trim(out)


def _poly_scale(a, c, mod):
    return _poly_trim([(x * c) % mod for x in a])


def _poly_divmod(a, g, mod):
    """Divide by a monic polynomial g."""
    a = list(a)
    q = [0] * max(0, len(a) - len(g) + 1)
    while len(a) >= len(g) and _poly_trim(a):
        d = len(a) - len(g)
        c = a[-1] % mod
        if c == 0:
            a.pop()
            continue
        q[d] = c
        for i, x in enumerate(g):
            a[d + i] = (a[d + i] - c * x) % mod
        _poly_trim(a)
    return _poly_trim(q), _poly_trim(a)


def _poly_gcdext(a, b, p):
    """Extended gcd over GF(p); returns (g, v) with v*b = g (mod a), g
    monic."""
    r0, r1 = [x % p for x in a], [x % p for x in b]
    t0, t1 = [], [1]
    while _poly_trim(list(r1)):
        q, r = _poly_divmod(r0, _poly_scale(r1, pow(r1[-1], -1, p), p), p)
        q = _poly_scale(q, pow(r1[-1], -1, p), p)
        r0, r1 = r1, _poly_add(r0, _poly_scale(_poly_mul(q, r1, p), -1, p), p)
        t0, t1 = t1, _poly_add(t0, _poly_scale(_poly_mul(q, t1, p), -1, p), p)
    lc = pow(r0[-1], -1, p)
    return _poly_scale(r0, lc, p), _poly_scale(t0, lc, p)


def _cyclotomic_poly(m, mod):
    """Coefficients of the m-th cyclotomic polynomial mod mod
    (little-endian)."""
    # x^m - 1 divided by the monic cyclotomic polynomials of the proper
    # divisors; division by a monic polynomial commutes with reduction
    num = [mod - 1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, r = _poly_divmod(num, _cyclotomic_poly(d, mod), mod)
            assert not r
    return num


def _poly_pow_mod(a, e, g, p):
    out = [1]
    a = _poly_divmod(a, g, p)[1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, a, p), g, p)[1]
        a = _poly_divmod(_poly_mul(a, a, p), g, p)[1]
        e >>= 1
    return out


def _factor_mod_p(poly, p):
    """Monic irreducible factors of a squarefree monic polynomial mod p:
    distinct-degree splitting followed by deterministic equal-degree trials.
    """
    f = _poly_scale(poly, pow(poly[-1], -1, p), p)
    factors = []
    d = 0
    xq = [0, 1]
    while len(f) - 1 > 0:
        d += 1
        if 2 * d > len(f) - 1:
            factors.append(f)
            break
        xq = _poly_pow_mod(xq, p, f, p)
        diff = _poly_add(xq, [0, -1 % p], p)
        g = _poly_gcdext(f, diff, p)[0]
        if len(g) > 1:
            factors.extend(_equal_degree_split(g, d, p))
            f = _poly_divmod(f, g, p)[0]
            xq = _poly_divmod(xq, f, p)[1]
    return factors


def _equal_degree_split(f, d, p):
    """Split a product of distinct degree-d irreducibles mod p."""
    if len(f) - 1 == d:
        return [f]
    n = len(f) - 1
    for trial in range(1, 8 * p * n + 40):
        # deterministic sweep of test elements a = x + c, then x^2 + c, ...
        deg = 1 + trial // p
        c = trial % p
        a = [0] * deg + [1]
        a[0] = c
        if p == 2:
            h = list(a)
            cand = list(a)
            for _ in range(d - 1):
                h = _poly_pow_mod(h, 2, f, p)
                cand = _poly_add(cand, h, p)
        else:
            cand = _poly_add(_poly_pow_mod(a, (p**d - 1) // 2, f, p), [-1 % p], p)
        if not cand:
            continue
        g = _poly_gcdext(f, cand, p)[0]
        if 0 < len(g) - 1 < len(f) - 1:
            return _equal_degree_split(g, d, p) + _equal_degree_split(
                _poly_divmod(f, g, p)[0], d, p
            )
    raise ArithmeticError("equal-degree splitting stalled")


def _hensel_lift(phi, g, p, N):
    """Lift a factor g of phi from mod p to mod p^N (linear steps)."""
    g = [x % p for x in g]
    h, rem = _poly_divmod(phi, g, p)
    assert not rem
    _, b = _poly_gcdext(g, h, p)  # b*h = 1 mod (g, p)
    mod = p
    for _ in range(N - 1):
        newmod = mod * p
        gh = _poly_mul(g, h, newmod)
        e = _poly_add([x % newmod for x in phi], _poly_scale(gh, -1, newmod), newmod)
        assert all(x % mod == 0 for x in e)
        ered = [x // mod % p for x in e]
        s = _poly_divmod(_poly_mul(b, ered, p), g, p)[1]
        # the quotient over Z, reduced mod p: g is monic
        t = _poly_divmod(
            _poly_add(ered, _poly_scale(_poly_mul(s, h, p), -1, p), p), g, p
        )[0]
        g = _poly_add(g, _poly_scale(s, mod, newmod), newmod)
        h = _poly_add(h, _poly_scale(t, mod, newmod), newmod)
        mod = newmod
    return g


def _chi_minimal_poly(m, p, N):
    """The fixed irreducible factor of the m-th cyclotomic polynomial used to
    present Z_p[zeta_m] mod p^N: lexicographically least mod p, Hensel lifted.
    """
    phi = _cyclotomic_poly(m, p**N)
    factors = _factor_mod_p([x % p for x in phi], p)
    factors.sort(key=lambda f: tuple(f))
    g0 = factors[0]
    if len(g0) == len(phi):
        return phi
    return _hensel_lift(phi, g0, p, N)


# ---------------------------------------------------------------------------
# the ring


class EigenRing:
    """O[[T]]/(omega_n(T), p^N) with O = Z_p[zeta_m] at precision p^N."""

    def __init__(self, p, n, chi_order, N):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if chi_order < 1 or gcd(chi_order, p) != 1:
            raise ChiOrderNotCoprime(f"chi order {chi_order} not coprime to {p}")
        if N < 1:
            raise ValueError("N must be >= 1")
        self.p = p
        self.n = n
        self.chi_order = chi_order
        self.N = N
        self.mod = p**N
        if self.mod >= 1 << 31:
            raise ValueError("p^N too large for int64 linear algebra")
        self.pn = p**n
        g = _chi_minimal_poly(chi_order, p, N)
        self.g = tuple(g)
        self.f = len(g) - 1
        self.rank = self.f * self.pn
        # x^f = sum_i zred[i] x^i mod g
        zred = -np.array(g[:self.f], dtype=np.int64) % self.mod
        zred.setflags(write=False)
        self.zred = zred
        self._binomials = None
        self._zeta = self.one().mul_zeta()

    def __eq__(self, other):
        return isinstance(other, EigenRing) and (
            (self.p, self.n, self.chi_order, self.N)
            == (other.p, other.n, other.chi_order, other.N)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.chi_order, self.N))

    def __repr__(self):
        return (f"EigenRing(p={self.p}, n={self.n}, chi_order={self.chi_order}, "
                f"N={self.N})")

    # -- element constructors

    def zero(self):
        return RingElement(self, np.zeros((self.pn, self.f), dtype=np.int64))

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        arr = np.zeros((self.pn, self.f), dtype=np.int64)
        arr[0, 0] = c % self.mod
        return RingElement(self, arr)

    def T(self):
        return self.one().mul_t()  # omega_0 = T, so T = 0 when n = 0

    def zeta(self):
        return self._zeta

    def from_vector(self, vec):
        arr = np.asarray(vec, dtype=np.int64).reshape(self.pn, self.f) % self.mod
        return RingElement(self, arr)

    def _scalar_poly(self, coeffs):
        """The element sum_j coeffs[j] T^j with coefficients in Z."""
        arr = np.zeros((self.pn, self.f), dtype=np.int64)
        arr[:, 0] = coeffs
        return RingElement(self, arr)

    def omega(self, m):
        """omega_m(T) = (1+T)^(p^m) - 1 as a ring element, for m <= n."""
        pm = self.p**m
        if pm == self.pn:
            return self.zero()  # omega_n = 0 in R
        coeffs = self.binomials()[pm, :self.pn].copy()
        coeffs[0] = 0
        return self._scalar_poly(coeffs)

    def omega_over_t(self):
        """omega_n(T)/T = sum_{k=1}^{p^n} C(p^n,k) T^(k-1); top term reduces
        to nothing extra since the T^(p^n) coefficient is 1 and k-1 < p^n."""
        return self._scalar_poly(self.binomials()[self.pn, 1:])

    def binomials(self):
        """(p^n+1) x (p^n+1) table of C(x, k) mod p^N (zero for k > x),
        built by Pascal's rule on first use.  Read-only."""
        if self._binomials is None:
            B = np.zeros((self.pn + 1, self.pn + 1), dtype=np.int64)
            B[:, 0] = 1
            for x in range(1, self.pn + 1):
                B[x, 1:] = (B[x - 1, 1:] + B[x - 1, :-1]) % self.mod
            B.setflags(write=False)
            self._binomials = B
        return self._binomials

    @cached_property
    def tred(self):
        """T^(p^n) = sum_k tred[k] T^k = -sum_{k=1}^{p^n-1} C(p^n,k) T^k
        (the constant term vanishes).  Read-only."""
        tred = -self.binomials()[self.pn, :self.pn] % self.mod
        tred[0] = 0
        tred.setflags(write=False)
        return tred


class RingElement:
    """An element of an EigenRing; coordinates arr[j, i] on zeta^i T^j."""

    __slots__ = ("ring", "arr", "_hash")

    def __init__(self, ring, arr):
        self.ring = ring
        a = np.asarray(arr, dtype=np.int64) % ring.mod
        a.setflags(write=False)
        self.arr = a
        self._hash = None

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("elements live in different rings")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.arr + other.arr)

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.arr - other.arr)

    def __neg__(self):
        return RingElement(self.ring, -self.arr)

    def scale(self, c):
        return RingElement(self.ring, (self.arr * (c % self.ring.mod)))

    def mul_t(self):
        """Shift up one T-row; T^(p^n) reduces by tred."""
        R = self.ring
        out = np.zeros_like(self.arr)
        out[1:] = self.arr[:-1]
        top = self.arr[-1]
        # tred builds the (p^n+1)^2 binomial table: 4 MB at p^n = 729,
        # which most walks never need
        if top.any():
            out += R.tred[:, None] * top[None, :] % R.mod
        return RingElement(R, out)

    def mul_zeta(self):
        """Multiply by zeta, the class of x: shift up one x-column; x^f
        reduces by zred."""
        R = self.ring
        out = self.arr[:, -1:] * R.zred % R.mod
        out[:, 1:] += self.arr[:, :-1]
        return RingElement(R, out)

    def __mul__(self, other):
        """The sum of a[j, i] zeta^i T^j other over the walk of other's
        multiples, up to the last nonzero T-row of a = self.arr."""
        self._check(other)
        R = self.ring
        a = self.arr
        rows = np.flatnonzero(a.any(axis=1))
        degree = int(rows[-1]) + 1 if rows.size else 0
        out = np.zeros_like(a)
        for k, multiple in enumerate(_multiples(other, degree)):
            c = a[k % degree, k // degree]
            if c:
                # c and each coordinate are below p^N, so c*x < 2^62
                out = (out + c * multiple.arr) % R.mod
        return RingElement(R, out)

    def __pow__(self, e):
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def flat(self):
        return self.arr.reshape(-1)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and (self.arr == other.arr).all()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.arr.tobytes()))
        return self._hash

    def __repr__(self):
        return render_element(self)


# ---------------------------------------------------------------------------
# element text grammar: integer-coefficient polynomials in T and z

_TOKEN = re.compile(r"\s*(\d+|[Tz^*+()-])")


def _tokenize(text, line=None):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character {text[pos]!r} in element", line)
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_element(ring, text, line=None):
    """Parse strings like "T+2+4*z" or "T^2-3*z*T+27" into a RingElement."""
    toks = _tokenize(text, line)
    if not toks:
        raise ParseError("empty element", line)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def parse_sum():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        acc = parse_term().scale(sign)
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            acc = acc + parse_term().scale(sign)
        return acc

    def parse_term():
        acc = parse_factor()
        while True:
            if peek() == "*":
                take()
                acc = acc * parse_factor()
            elif peek() in ("T", "z", "("):
                acc = acc * parse_factor()
            else:
                return acc

    def parse_factor():
        t = take()
        if t is None:
            raise ParseError("unexpected end of element", line)
        if t == "(":
            inner = parse_sum()
            if take() != ")":
                raise ParseError("missing ')'", line)
            base = inner
        elif t == "T":
            base = ring.T()
        elif t == "z":
            base = ring.zeta()
        elif t.isdigit():
            base = ring.scalar(int(t))
        else:
            raise ParseError(f"unexpected token {t!r}", line)
        if peek() == "^":
            take()
            e = take()
            if e is None or not e.isdigit():
                raise ParseError("exponent must be a nonnegative integer", line)
            base = base**int(e)
        return base

    out = parse_sum()
    if pos[0] != len(toks):
        raise ParseError(f"trailing tokens near {toks[pos[0]]!r}", line)
    return out


def render_element(elt):
    """Canonical text form, inverse to parse_element up to normalization."""
    R = elt.ring
    half = R.mod // 2
    terms = []
    for j in range(R.pn):
        for i in range(R.f):
            c = int(elt.arr[j, i])
            if c == 0:
                continue
            if c > half:
                c -= R.mod  # balanced form reads better: T-3 not T+24
            parts = []
            mono = []
            if i == 1:
                mono.append("z")
            elif i > 1:
                mono.append(f"z^{i}")
            if j == 1:
                mono.append("T")
            elif j > 1:
                mono.append(f"T^{j}")
            if abs(c) != 1 or not mono:
                parts.append(str(abs(c)))
            parts.extend(mono)
            term = "*".join(parts)
            terms.append(("-" if c < 0 else "+", term))
    if not terms:
        return "0"
    sign0, t0 = terms[0]
    out = ("-" if sign0 == "-" else "") + t0
    for sign, t in terms[1:]:
        out += sign + t
    return out


# ---------------------------------------------------------------------------
# ideals


class RingIdeal:
    """An ideal of an EigenRing as the Howell form of its Z/p^N span."""

    def __init__(self, ring, howell, pivots, scalar_level):
        self.ring = ring
        self.howell = howell
        self.pivots = pivots
        self.scalar_level = scalar_level  # min M certified with p^M in I, or None
        howell.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, RingIdeal)
            and self.ring == other.ring
            and self.howell.shape == other.howell.shape
            and (self.howell == other.howell).all()
        )

    def __hash__(self):
        return hash((self.ring, self.howell.tobytes()))

    def __repr__(self):
        return (f"RingIdeal({self.ring!r}, rows={self.howell.shape[0]}, "
                f"scalar_level={self.scalar_level})")

    def grow(self, gens) -> "RingIdeal":
        """The ideal generated by this one and gens: the Howell form of its
        Howell rows stacked on the orbit rows of gens.  Each gen may be a
        RingElement, an int, or a string in the element grammar.  Integer
        (and pure-integer string) generators certify that a p-power scalar
        lies in the ideal even when it reduces to 0 at precision N.
        """
        R = self.ring
        elements = []
        level = self.scalar_level
        for g in gens:
            if isinstance(g, str):
                if re.fullmatch(r"\s*-?\d+\s*", g):
                    g = int(g)
                else:
                    g = parse_element(R, g)
            if isinstance(g, int):
                if g:
                    v = p_valuation(g, R.p)
                    level = v if level is None else min(level, v)
                g = R.scalar(g)
            if g.ring != R:
                raise RingMismatch("generator from a different ring")
            elements.append(g)
        rows = [self.howell] + [_orbit_rows(g) for g in elements]
        H, piv = howell_array(np.vstack(rows), R.p, R.N)
        # the least p-power scalar inside the span certifies the precision
        # policy
        vis = _min_scalar_level(H, piv, R)
        if vis is not None:
            level = vis if level is None else min(level, vis)
        if level is not None:
            level = min(level, R.N)
        return RingIdeal(R, H, piv, level)

    def contains(self, elt):
        if elt.ring != self.ring:
            raise RingMismatch("element not in the ideal's ring")
        return howell_contains(
            self.howell, self.pivots, elt.flat(), self.ring.p, self.ring.N
        )

    def reduce(self, elt):
        """Canonical residue of elt modulo the ideal."""
        if elt.ring != self.ring:
            raise RingMismatch("element not in the ideal's ring")
        return self.ring.from_vector(howell_reduce(
            elt.flat(), self.howell, self.pivots, self.ring.p, self.ring.N))


def _multiples(elt, degree):
    """The walk zeta^i T^j elt for i < f and j < degree, i-major: multiple
    i*degree + j is elt times the basis monomial at flat index j*f + i."""
    for i in range(elt.ring.f):
        if i:
            elt = elt.mul_zeta()
        cur = elt
        for j in range(degree):
            if j:
                cur = cur.mul_t()
            yield cur


def _orbit_rows(elt):
    """Flattened coordinates of elt * zeta^i * T^j over the whole basis."""
    return [m.flat() for m in _multiples(elt, elt.ring.pn)]


@lru_cache(maxsize=None)
def ring_make(p, n, chi_order, N) -> EigenRing:
    """The one EigenRing for these parameters in this process: building a
    ring factors Phi_m mod p and Hensel lifts, so every caller shares it.
    Its arrays are read-only."""
    return EigenRing(p, n, chi_order, N)


def ideal_make(R, gens) -> RingIdeal:
    """Ideal generated by gens (see RingIdeal.grow), grown from zero."""
    if not gens:
        raise ValueError("gens must be nonempty")
    zero = RingIdeal(R, np.zeros((0, R.rank), dtype=np.int64), [], None)
    return zero.grow(gens)


def _min_scalar_level(H, piv, R):
    """Least M < N with p^M (as a scalar) in the row span, or None."""
    e0 = np.zeros(R.rank, dtype=np.int64)
    for M in range(R.N):
        e0[0] = R.p**M % R.mod
        if howell_contains(H, piv, e0, R.p, R.N):
            return M
    return None


def _require_precision(I):
    if I.scalar_level is None:
        raise PrecisionTooLow(
            "no p-power scalar certified inside the ideal at this precision"
        )


def _quotient(I):
    """Q = R/I presented from the Howell form of I.  A unit-pivot row is zero
    in every other unit-pivot column, so it only eliminates its own
    coordinate: Q = (Z/p^N)^C / rel, with C the c columns without a unit
    pivot and rel the non-unit-pivot rows restricted to C.  on_q(x) has the
    rows x*e_j for j in C, reduced modulo I and restricted to C; with rel
    they span xQ."""
    R = I.ring
    p, N = R.p, R.N
    free = np.ones(R.rank, dtype=bool)
    free[[col for _, col, k in I.pivots if k == 0]] = False
    C = np.flatnonzero(free)
    rel = I.howell[[r for r, _, k in I.pivots if k > 0]][:, C]

    def on_q(x):
        # x*e_c for the columns c in C, read off the walk of x's multiples
        # up to the T-degree of the last column
        f = R.f
        degree = int(C[-1]) // f + 1 if C.size else 0
        walk = [m.flat() for m in _multiples(x, degree)]
        rows = [howell_reduce(walk[c % f * degree + c // f], I.howell,
                              I.pivots, p, N)[C] for c in C]
        return np.array(rows, dtype=np.int64).reshape(C.size, C.size)

    return C.size, rel, on_q


def eigenspace_class_invariants(I) -> tuple:
    """Cyclic invariants of R/(I + (T)) — the chi-part of the class group
    as an abelian group.  R/(T) = O/p^N is the constant coefficient."""
    _require_precision(I)
    R = I.ring
    return tuple(quotient_invariants(I.howell[:, :R.f], R.p, R.N))


def eigenspace_class_order(I) -> int:
    """|R/(I + (T))| — the order of the chi-part of the class group."""
    return prod(eigenspace_class_invariants(I))


def level_class_order(I, m) -> int:
    """|R/(I + (omega_m(T)))| = |Q/omega_m Q|; m = 0 recovers
    eigenspace_class_order."""
    R = I.ring
    if not 0 <= m <= R.n:
        raise ValueError("level m out of range")
    _require_precision(I)
    _, rel, on_q = _quotient(I)
    return prod(quotient_invariants(np.vstack([on_q(R.omega(m)), rel]),
                                    R.p, R.N))


def maximal_capitulation(I) -> bool:
    """Whether omega_n(T)/T lies in I."""
    _require_precision(I)
    return I.contains(I.ring.omega_over_t())


@dataclass(frozen=True)
class CapitulationModule:
    order: int
    invariants: tuple


def _t_kernel(R, c, rel, on_q):
    """The T-kernel K = {f : Tf in I} as a Howell form and its pivots, in
    the presentation c, rel, on_q of Q = R/I by _quotient (c > 0)."""
    p, N = R.p, R.N
    # x is in K exactly when x on_q(T) lies in the span of rel
    kernel = left_kernel(np.vstack([on_q(R.T()), rel]), p, N)[:, :c]
    return howell_array(np.vstack([kernel, rel]), p, N)


def _relative_invariants(K, W, p, N):
    """Cyclic invariants of K/W for row modules W <= K over Z/p^N: the rows
    of K generate it, subject to the relations {c : cK in W}, which are the
    K-parts of the left kernel of [K; W]."""
    rel = left_kernel(np.vstack([K, W]), p, N)[:, :K.shape[0]]
    return quotient_invariants(rel, p, N)


def t_kernel_order(I) -> int:
    """|{f : Tf in I}/I|; equals |R/(I+(T))| (kernel/cokernel duality)."""
    _require_precision(I)
    R = I.ring
    c, rel, on_q = _quotient(I)
    if not c:
        return 1
    K, _ = _t_kernel(R, c, rel, on_q)
    return prod(_relative_invariants(K, rel, R.p, R.N))


def capitulation_module(I) -> CapitulationModule:
    """The module {f : Tf in I}/(I + (omega_n(T)/T)) — trivial exactly when
    there is no capitulation, and of full class order for maximal
    capitulation.

    In Q = R/I the module is K/W, with K the kernel of T and W the image of
    nu = omega_n(T)/T.  An endomorphism of a finite module has a kernel as
    large as its cokernel, so |K/W| = |Q/TQ| |Q/nu Q| / |Q|: two Smith
    forms give the first two orders, and |Q| is read off the Howell form of
    I, whose span has order p^(N - k) per pivot p^k.  The Howell forms of K
    and W are built only when that order leaves K/W open: it is trivial at
    order 1, and it is Q itself when T and nu both kill Q."""
    _require_precision(I)
    R = I.ring
    p, N = R.p, R.N
    c, rel, on_q = _quotient(I)
    nu = on_q(R.omega_over_t())
    q_order = p ** (N * (R.rank - len(I.pivots))
                    + sum(k for _, _, k in I.pivots))
    t_order = eigenspace_class_order(I)
    nu_order = prod(quotient_invariants(np.vstack([nu, rel]), p, N))
    order = t_order * nu_order // q_order
    if order == 1:
        return CapitulationModule(1, ())
    if t_order == nu_order == q_order:
        return CapitulationModule(order,
                                  tuple(quotient_invariants(rel, p, N)))
    K, kpiv = _t_kernel(R, c, rel, on_q)
    W, _ = howell_array(np.vstack([nu, rel]), p, N)
    if not all(howell_contains(K, kpiv, row, p, N) for row in W):
        raise AssertionError("omega_n/T multiples must lie in the T-kernel")
    invariants = tuple(_relative_invariants(K, W, p, N))
    if prod(invariants) != order:
        raise AssertionError("|K/W| must be |Q/TQ| |Q/nu Q| / |Q|")
    return CapitulationModule(order, invariants)
