"""Survey verdicts recomputed apart from capitula.

Nothing here imports capitula.  A Fitting-table line names an ideal I of
R = O[T]/(omega_n(T), p^N), O = Z_p[zeta_m]; every question the checks ask
reduces to the order of a quotient of R by an ideal, which this module
computes with its own parser, its own ring model and its own elimination
over Z/p^N:

- the class part R/(I+(T)) = O/(p^N, g(0) for g in gens), from constant
  terms alone;
- the capitulation kernel {f : Tf in I}/(I + (omega_n/T)), whose order is
  |R/(I+(T))| * |R/(I+(omega_n/T))| / |R/I| (kernel and cokernel of T on
  the finite module R/I have equal order);
- ideal equality, J1 = J2 iff |R/J1| = |R/J2| = |R/(J1+J2)|.

The verdict rules (potential capitulation, the parity obstruction at p = 2,
maximal capitulation) are restated from the paper's definitions.
"""

import re
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

LINE = re.compile(r"ell=(\d+)\s+p=(\d+)\s+chi=(\d+)\s+n=(\d+)\s+prec=(\d+)"
                  r"\s+gens=\[([^\]]*)\]\s*$")


@dataclass(frozen=True)
class TableRecord:
    ell: int
    p: int
    chi: int
    n: int
    N: int
    gens: tuple


def parse_table(text):
    """Records of one Fitting-table file, in file order."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = LINE.match(line)
        if not m:
            raise ValueError(f"unrecognized table line: {line!r}")
        ell, p, chi, n, prec = (int(m.group(i)) for i in range(1, 6))
        gens = tuple(g.strip() for g in m.group(6).split(",") if g.strip())
        out.append(TableRecord(ell, p, chi, n, prec, gens))
    return out


def table_name(p, chi, chi_id):
    return f"fitting_p{p}_chi{chi}{'' if chi_id == 1 else f'_id{chi_id}'}.txt"


def primes_below(bound):
    sieve = bytearray([1]) * max(bound, 2)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(bound) if sieve[i]]


def conductors(kind, bound):
    """Primes the survey walks: ell = 1 (mod 12) for the quadratic scans,
    ell = 1 (mod 3) for the cubic ones."""
    if kind == "quad":
        return [ell for ell in primes_below(bound) if ell % 12 == 1]
    return [ell for ell in primes_below(bound) if ell % 3 == 1]


def _vp(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# element grammar: integer polynomials in T and z, as {(T-degree, z-degree):
# coefficient}


def _poly_mul(a, b):
    out = {}
    for (j1, i1), c1 in a.items():
        for (j2, i2), c2 in b.items():
            key = (j1 + j2, i1 + i2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _poly_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def parse_poly(text):
    toks = re.findall(r"\d+|[Tz^*+()-]", text)
    if "".join(toks) != re.sub(r"\s+", "", text):
        raise ValueError(f"bad element {text!r}")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def total():
        acc = {}
        sign = 1
        while True:
            while peek() in ("+", "-"):
                sign = -sign if take() == "-" else sign
            acc = _poly_add(acc, term(), sign)
            if peek() not in ("+", "-"):
                return acc
            sign = 1

    def term():
        acc = factor()
        while peek() in ("*", "T", "z", "("):
            if peek() == "*":
                take()
            acc = _poly_mul(acc, factor())
        return acc

    def factor():
        t = take() if peek() is not None else None
        if t == "(":
            base = total()
            if take() != ")":
                raise ValueError(f"missing ')' in {text!r}")
        elif t == "T":
            base = {(1, 0): 1}
        elif t == "z":
            base = {(0, 1): 1}
        elif t is not None and t.isdigit():
            base = {(0, 0): int(t)} if int(t) else {}
        else:
            raise ValueError(f"unexpected {t!r} in {text!r}")
        if peek() == "^":
            take()
            out = {(0, 0): 1}
            for _ in range(int(take())):
                out = _poly_mul(out, base)
            base = out
        return base

    out = total()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {text!r}")
    return out


# ---------------------------------------------------------------------------
# the ring R = O[T]/(omega_n, p^N) as (Z/p^N)^(p^n * f)


class Ring:
    def __init__(self, p, n, chi, N):
        self.p, self.n, self.N = p, n, N
        self.mod = p**N
        self.pn = p**n
        if chi == 2:
            self.f, self.zeta = 1, self.mod - 1  # O = Z_p, zeta = -1
        elif chi == 3 and p % 3 == 1:
            # O = Z_p: zeta is a cube root of unity in Z_p.  Either root
            # will do, since conjugate ideals have the same quotient orders.
            r = next(a for a in range(2, p) if (a * a + a + 1) % p == 0)
            self.f, self.zeta = 1, pow(r, p ** (N - 1), self.mod)
            assert (self.zeta**2 + self.zeta + 1) % self.mod == 0
        elif chi == 3 and p % 3 == 2:
            self.f, self.zeta = 2, None  # O = Z_p[z]/(z^2 + z + 1)
        else:
            raise ValueError(f"no model for chi order {chi} at p = {p}")
        self.rank = self.pn * self.f
        # T^(p^n) = -sum_{0<k<p^n} C(p^n, k) T^k in R
        self.tred = np.array([0] + [-comb(self.pn, k) % self.mod
                                    for k in range(1, self.pn)],
                             dtype=np.int64)

    def _reduce_z(self, coeffs):
        """{z-degree: c} to a length-f list of residues."""
        if self.f == 1:
            return [sum(c * pow(self.zeta, i, self.mod)
                        for i, c in coeffs.items()) % self.mod]
        out = [0] * (max(coeffs, default=0) + 2)
        for i, c in coeffs.items():
            out[i] += c
        for i in range(len(out) - 1, 1, -1):  # z^i = -z^(i-1) - z^(i-2)
            out[i - 1] -= out[i]
            out[i - 2] -= out[i]
        return [out[0] % self.mod, out[1] % self.mod]

    def constant_term(self, poly):
        return self._reduce_z({i: c for (j, i), c in poly.items() if j == 0})

    def element(self, poly):
        """Coordinates arr[j, i] on T^j zeta^i, T-degree reduced."""
        top = max((j for j, _ in poly), default=0)
        arr = np.zeros((max(top + 1, self.pn), self.f), dtype=np.int64)
        by_t = {}
        for (j, i), c in poly.items():
            by_t.setdefault(j, {})[i] = c
        for j, zc in by_t.items():
            arr[j] = self._reduce_z(zc)
        for j in range(arr.shape[0] - 1, self.pn - 1, -1):
            arr[j - self.pn:j] = (arr[j - self.pn:j]
                                  + self.tred[:, None] * arr[j]) % self.mod
        return arr[:self.pn] % self.mod

    def mul_t(self, arr):
        out = np.zeros_like(arr)
        out[1:] = arr[:-1]
        return (out + self.tred[:, None] * arr[-1]) % self.mod

    def mul_zeta(self, arr):
        if self.f == 1:
            return arr * self.zeta % self.mod
        a, b = arr[:, 0], arr[:, 1]  # (a + bz)z = -b + (a - b)z
        return np.stack([-b, a - b], axis=1) % self.mod

    def orbit(self, arr):
        """Rows spanning the ideal generated by one element."""
        rows = []
        for _ in range(self.f):
            cur = arr
            for _ in range(self.pn):
                rows.append(cur.reshape(-1))
                cur = self.mul_t(cur)
            arr = self.mul_zeta(arr)
        return rows

    def omega_over_t(self):
        """omega_n(T)/T = sum_{k=1}^{p^n} C(p^n, k) T^(k-1)."""
        return self.element({(k - 1, 0): comb(self.pn, k)
                             for k in range(1, self.pn + 1)})


def quotient_exponents(rows, width, p, N):
    """Exponents e_i of (Z/p^N)^width / span(rows) = sum Z/p^(e_i), by full
    pivoting on the entry of least valuation; zero exponents dropped."""
    mod = p**N
    M = (np.array(rows, dtype=np.int64).reshape(-1, width) % mod
         if len(rows) else np.zeros((0, width), dtype=np.int64))
    exps = []
    t = 0
    while t < min(M.shape):
        sub = np.gcd(M[t:, t:], mod)  # p^valuation, mod for zero entries
        idx = int(sub.argmin())
        pk = int(sub.flat[idx])
        if pk == mod:
            break
        i, j = divmod(idx, sub.shape[1])
        M[[t, t + i]] = M[[t + i, t]]
        M[:, [t, t + j]] = M[:, [t + j, t]]
        M[t] = M[t] * pow(int(M[t, t]) // pk, -1, mod) % mod
        c = M[t + 1:, t] // pk
        M[t + 1:] = (M[t + 1:] - c[:, None] * M[t]) % mod
        exps.append(_vp(pk, p))
        t += 1
    return sorted(e for e in exps + [N] * (width - t) if e)


# ---------------------------------------------------------------------------
# per-record quantities


class Ideal:
    """One table record's ideal, with the quotient orders the checks use."""

    def __init__(self, rec):
        self.rec = rec
        self.R = Ring(rec.p, rec.n, rec.chi, rec.N)
        self.polys = [parse_poly(g) for g in rec.gens]
        self._rows = None

    def rows(self):
        if self._rows is None:
            self._rows = [r for g in self.polys
                          for r in self.R.orbit(self.R.element(g))]
        return self._rows

    def log_order(self, extra=()):
        """log_p |R/(I + extra)|, extra a list of spanning rows."""
        R = self.R
        return sum(quotient_exponents(self.rows() + list(extra), R.rank,
                                      R.p, R.N))

    def class_invariants(self):
        """Invariants of R/(I+(T)), ascending, trivial ones dropped."""
        R = self.R
        rows = []
        for g in self.polys:
            c = np.array(R.constant_term(g), dtype=np.int64).reshape(1, R.f)
            for _ in range(R.f):
                rows.append(c.reshape(-1).copy())
                c = R.mul_zeta(c)
        return tuple(R.p**e for e in quotient_exponents(rows, R.f, R.p, R.N))

    def kernel_order(self):
        """|{f : Tf in I}/(I + (omega_n/T))|."""
        cls = 1
        for d in self.class_invariants():
            cls *= d
        if cls == 1:
            return 1
        R = self.R
        log_w = self.log_order(R.orbit(R.omega_over_t()))
        return cls * R.p**log_w // R.p**self.log_order()

    def same_ideal(self, other):
        if (self.R.p, self.R.n, self.R.N, self.rec.chi) != (
                other.R.p, other.R.n, other.R.N, other.rec.chi):
            return False
        a, b = self.log_order(), other.log_order()
        return a == b == self.log_order(other.rows())


# ---------------------------------------------------------------------------
# verdicts


def _order(invs):
    out = 1
    for d in invs:
        out *= d
    return out


@dataclass(frozen=True)
class Verdict:
    ell: int
    class_part: tuple
    status: str
    kernel: int
    maximal: bool
    parity: bool


def expected_verdict(ell, p, degree, parts):
    """The verdict for a field of prime conductor ell and the given degree,
    from its eigenspaces: parts lists (class invariants, kernel order) for
    each chi-eigenspace with a nontrivial class part."""
    invs = tuple(sorted(d for inv, _ in parts for d in inv))
    order = _order(invs)
    rel = (ell - 1) // degree  # [Q(zeta_ell) : K]
    if rel % p:  # no class of order p can capitulate
        return Verdict(ell, invs, "no-potential", 1, False, False)
    if p == 2 and (rel // 2) % 2:  # odd degree of Q(zeta_ell)+ over K
        return Verdict(ell, invs, "none", 1, False, True)
    v = _vp(rel, p)
    kernel, maximal = 1, True
    for inv, k in parts:
        kernel *= k
        potential = _order(gcd(d, p**v) for d in inv)
        maximal = maximal and k == potential and k > 1
    status = ("none" if kernel == 1
              else "full" if kernel == order else "partial")
    return Verdict(ell, invs, status, kernel, maximal, False)


def observed_verdict(rec):
    """The same fields read off one survey record (a dict)."""
    certs = rec["certificates"]
    return Verdict(rec["ell"], tuple(rec["class_part"]), rec["status"],
                   rec["kernel"], "maximal_capitulation" in certs,
                   "parity_obstruction" in certs)
