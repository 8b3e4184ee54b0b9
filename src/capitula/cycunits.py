"""Cyclotomic units of Q(zeta_l)+ and the sampled computation of the ideal
I with B(chi^-1) = O[[T]]/I, via discrete-log images modulo auxiliary
primes q = 1 (mod l*p^N).

For each auxiliary prime q the fixed Galois generator
u = (zeta^g - zeta^-g)/(zeta - zeta^-1) (g the least primitive root mod l)
is mapped through F_q: its Galois orbit of discrete logs, projected to the
chi-eigenspace, is one element of the target ideal.  The ideal generated by
these images grows with q and is declared computed once its Howell form is
unchanged for 5 consecutive batches of 4 primes.  Correctness is anchored
to fixtures and to the quadratic class-group cross-check, not to a proof;
records carry a Monte-Carlo-stabilized provenance flag.
"""

import os
import re
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import (check_int64_sums, howell_array, is_prime, p_power_dlogs,
                    p_valuation, primitive_root)
from .errors import (BadAuxPrime, ChiOrderNotCoprime, ParseError,
                     PrecisionTooLow, RingMismatch, StabilizationFailure)
from .iwasawa import (EigenRing, RingIdeal, _min_scalar_level, _orbit_rows,
                      ideal_make, parse_element, render_element, ring_make)

# Convention pinned by the worked-example fixtures: with the group-algebra
# element carrying dlog(sigma^e u) on [sigma^-e], the eigenspace projection
# sends sigma^e itself to chi^-1(delta0)^y (1+T)^x (sigma^e = pi0^x delta0^y).
# chi_id = k computes the ideal for the character with chi(delta0) = zeta^k;
# conjugate characters give conjugate ideals.
_SIGMA_SIGN = 1
_CHI_SIGN = -1


@dataclass(frozen=True)
class CyclotomicUnitSymbol:
    """A product prod_a ((zeta^a - zeta^-a)/(zeta - zeta^-1))^e_a."""

    ell: int
    exps: tuple  # sorted tuple of (a, e), 1 <= a <= (ell-1)/2, e != 0

    @staticmethod
    def make(ell, exps):
        merged = {}
        for a, e in dict(exps).items():
            a %= ell
            if a == 0 or e == 0:
                if a == 0:
                    raise ValueError("a must be prime to ell")
                continue
            a = min(a, ell - a)
            if a == 1:
                continue  # (zeta - zeta^-1)/(zeta - zeta^-1) = 1
            merged[a] = merged.get(a, 0) + e
        return CyclotomicUnitSymbol(
            ell, tuple(sorted((a, e) for a, e in merged.items() if e))
        )

    @staticmethod
    def generator(ell):
        """The standard Galois generator: a = least primitive root mod ell,
        divided by the a = 1 base element."""
        g = primitive_root(ell)
        return CyclotomicUnitSymbol.make(ell, {g: 1})

    def apply(self, b):
        """The Galois action of sigma_b (zeta -> zeta^b): each base element
        (zeta^a - zeta^-a)/(zeta - zeta^-1) maps to the quotient of the base
        elements for ab and b."""
        exps = {}
        total = 0
        for a, e in self.exps:
            key = (a * b) % self.ell
            exps[key] = exps.get(key, 0) + e
            total += e
        exps[b % self.ell] = exps.get(b % self.ell, 0) - total
        return CyclotomicUnitSymbol.make(self.ell, exps)


def _aux_prime_stream(ell, p, n_prec):
    """Primes q = 1 (mod ell * p^n_prec), ascending; for p = 2 also
    q = 1 (mod 2^(n_prec+1)) so that -1 is a p^n_prec-th power and the
    discrete logs are well defined on units modulo +-1."""
    step = ell * p**n_prec
    if p == 2:
        step *= 2
    q = 1
    while True:
        q += step
        if is_prime(q):
            yield q


def _s_table(ell, p, N, q):
    """s[a] = dlog_w of (rho^a - rho^-a)/(rho - rho^-1) mod p^N for
    1 <= a <= (l-1)/2, w the least primitive root mod q, rho = w^((q-1)/l).

    Raising to (q-1)/p^N maps each value into the order-p^N subgroup that
    g = w^((q-1)/p^N) generates, where arith.p_power_dlogs reads its dlog
    to base g: that is the dlog_w mod p^N.  Well defined on a mod +-1 by
    the choice of q (for p = 2 the sign contributes (q-1)/2 = 0 mod p^N)."""
    pe = p**N
    if (q - 1) % (ell * pe):
        raise BadAuxPrime(f"q = {q} is not 1 mod ell*p^{N}")
    w = primitive_root(q)
    exp = (q - 1) // pe
    rho = pow(w, (q - 1) // ell, q)
    half = (ell - 1) // 2
    rpow = [1] * ell
    for i in range(1, ell):
        rpow[i] = rpow[i - 1] * rho % q
    den_inv = pow(rpow[1] - rpow[ell - 1], q - 2, q)
    values = [pow((rpow[a] - rpow[ell - a]) * den_inv % q, exp, q)
              for a in range(1, half + 1)]
    out = p_power_dlogs(values, pow(w, exp, q), q, p, N)
    out.insert(0, 0)
    return out


def unit_image_mod_q(u: CyclotomicUnitSymbol, q, p, N):
    """The group-algebra image of u: the vector v with v[e] the coefficient
    of sigma^(-e) = dlog_q of sigma^e(u) mod p^N, sigma the fixed generator
    of Gal(Q(zeta_l)+/Q).  Deterministic given (q, least primitive roots).
    """
    ell = u.ell
    if p == 2 and (q - 1) % (ell * 2 ** (N + 1)):
        raise BadAuxPrime(f"q = {q} leaves the sign of units visible at p=2")
    s = np.array(_s_table(ell, p, N, q), dtype=np.int64)
    half = (ell - 1) // 2
    g0 = primitive_root(ell)
    orbit = [1] * half  # b = g0^e mod ell
    for e in range(1, half):
        orbit[e] = orbit[e - 1] * g0 % ell
    b = np.array(orbit, dtype=np.int64)

    def s_of(a):
        a = a % ell
        return s[np.minimum(a, ell - a)]

    # sigma_b(u) expands into base elements via apply(); its dlog is
    # sum_a e_a * (s(ab) - s(b)), and it sits at index -e
    t = -sum(exp for _, exp in u.exps) * s_of(b)
    for a, exp in u.exps:
        t += exp * s_of(a * b)
    return t[-np.arange(half) % half] % p**N


def _chi_projector(ring, half, chi_id):
    """The projection of group-algebra vectors (index e over the half powers
    of sigma) into the eigenring, as a function of the vector: sigma^e ->
    chi(delta0)^(s*y) (1+T)^(s*x) with s the pinned sign, sigma^e =
    pi0^x delta0^y.  It depends only on l, the ring and chi_id, so a
    conductor builds it once for all its auxiliary primes."""
    pn, m, mod = ring.pn, ring.chi_order, ring.mod
    D = half // pn
    check_int64_sums(mod, max(pn, m))
    # the (x, zeta power) cell of each sigma^e in the pn x m grid
    es = _SIGMA_SIGN * np.arange(half, dtype=np.int64) % half
    x = es * pow(D, -1, pn) % pn
    y = es * pow(pn, -1, D) % D
    cell = x * m + _CHI_SIGN * chi_id * y % m
    # expand (1+T)^x via binomials, then zeta powers in the O-basis
    binomials_t = ring.binomials()[:pn, :pn].T
    zpow = np.zeros((m, ring.f), dtype=np.int64)
    cur = ring.one()
    for zi in range(m):
        zpow[zi] = cur.arr[0]
        cur = cur.mul_zeta()

    def project(vec):
        c = np.zeros(pn * m, dtype=np.int64)
        np.add.at(c, cell, vec)
        c = c.reshape(pn, m) % mod
        arr = (binomials_t @ c % mod) @ zpow % mod
        return ring.from_vector(arr.reshape(-1))

    return project


@dataclass(frozen=True)
class FittingIdealRecord:
    ell: int
    p: int
    chi_order: int
    chi_id: int
    n: int
    N: int
    generators: tuple  # element strings in the T/z grammar
    provenance: str = "computed"  # computed | ingested
    aux_primes_used: tuple = ()
    stabilization_count: int = 0
    choices: tuple = ()  # recorded fixed choices, as (key, value) pairs

    def ring(self) -> EigenRing:
        return ring_make(self.p, self.n, self.chi_order, self.N)

    def ideal(self, ring=None) -> RingIdeal:
        R = ring if ring is not None else self.ring()
        if (R.p, R.n, R.chi_order, R.N) != (self.p, self.n, self.chi_order,
                                            self.N):
            raise RingMismatch("record parameters do not match the ring")
        return ideal_make(R, list(self.generators))


def tower_exponent(ell, p):
    """n with p^n exactly dividing (ell-1)/2."""
    return p_valuation((ell - 1) // 2, p)


def _extract_generators(R, howell_rows, pivots, scalar_val):
    """A small generating set reproducing the ideal: greedy over Howell rows
    (fewest-terms first), plus the certified p-power scalar."""
    # Howell order: earlier pivot columns mean lower T-degree, which
    # generates the most under multiplication by T and zeta
    rows = [R.from_vector(r) for r in howell_rows]
    # the incoming rows already span the ideal as a module (they are the
    # Howell form of orbit-closed generators), so the target Howell form
    # comes straight from them -- no need to re-expand every row's orbit
    scal = np.zeros((1, R.rank), dtype=np.int64)
    scal[0, 0] = R.p**scalar_val % R.mod
    stacked = np.vstack(
        [np.asarray(howell_rows, dtype=np.int64).reshape(-1, R.rank), scal]
    )
    target_H, _ = howell_array(stacked, R.p, R.N)
    gens = []
    current = ideal_make(R, [int(R.p**scalar_val)])
    for r in rows:
        if r.is_zero() or current.contains(r):
            continue
        gens.append(r)
        current = ideal_make(R, gens + [int(R.p**scalar_val)])
        if (current.howell.shape == target_H.shape
                and (current.howell == target_H).all()):
            break
    out = [render_element(g) for g in gens]
    out.append(str(R.p**scalar_val))
    return tuple(out), current


_MAX_BATCHES = 60  # batches of 4 auxiliary primes before giving up


def compute_fitting_ideal(ell, p, chi_order, chi_id=1,
                          N=None) -> FittingIdealRecord:
    """Sample the ideal I with B(chi^-1) = O[[T]]/(I, p^N) for the degree-
    chi_order character of conductor ell.

    The run succeeds once the Howell form is unchanged for 5 consecutive
    batches of 4 auxiliary primes (or the ideal becomes the unit ideal,
    which is definitive since sampling only grows it).  Without N, the
    precision starts at n + 3 and doubles, up to the cap, while the
    certified scalar exceeds it.
    """
    if not is_prime(ell):
        raise ValueError(f"{ell} must be prime")
    if gcd(chi_order, p) != 1:
        raise ChiOrderNotCoprime(f"chi order {chi_order} not coprime to {p}")
    half = (ell - 1) // 2
    if half % chi_order:
        raise ValueError("chi_order must divide (ell-1)/2")
    n = tower_exponent(ell, p)
    if N is None:
        precisions = [n + 3]
        while 2 * precisions[-1] <= _max_precision(p):
            precisions.append(2 * precisions[-1])
    else:
        precisions = [N]
    u = CyclotomicUnitSymbol.generator(ell)
    for N in precisions:
        n_work = max(N, min(N + 2, _max_precision(p)))
        R_work = ring_make(p, n, chi_order, n_work)
        project = _chi_projector(R_work, half, chi_id)
        stream = _aux_prime_stream(ell, p, n_work)
        rows = np.zeros((0, R_work.rank), dtype=np.int64)
        H = None
        stable = 0
        used = []
        for _ in range(_MAX_BATCHES):
            new_rows = []
            for _ in range(4):
                q = next(stream)
                used.append(q)
                lam = project(unit_image_mod_q(u, q, p, n_work))
                new_rows.extend(_orbit_rows(lam))
            rows = np.vstack([rows, np.array(new_rows, dtype=np.int64)])
            H_new, piv = howell_array(rows, p, n_work)
            rows = H_new  # accumulate compactly
            if H is not None and H.shape == H_new.shape and (H == H_new).all():
                stable += 1
            else:
                stable = 0
            H = H_new
            unit = any(c == 0 and k == 0 for _, c, k in piv)
            if stable >= 5 or unit:
                break
        else:
            raise StabilizationFailure(
                f"ideal not stabilized within {_MAX_BATCHES} batches for "
                f"ell={ell}"
            )
        # certified p-power scalar level, read off the working-precision
        # span (at precision N the scalar p^N itself reduces to zero)
        scalar_val = _min_scalar_level(H, piv, R_work)
        if scalar_val is not None and scalar_val <= N:
            break
    else:
        raise PrecisionTooLow(
            f"smallest certified scalar exceeds requested precision p^{N}"
        )
    R_out = ring_make(p, n, chi_order, N)
    H_out, piv_out = howell_array(H % R_out.mod, p, N)
    gens, _ = _extract_generators(R_out, H_out, piv_out, scalar_val)
    choices = (
        ("unit", "least primitive root mod ell"),
        ("root_of_unity", "w^((q-1)/ell), w least primitive root mod q"),
        ("sigma_sign", _SIGMA_SIGN),
        ("chi_sign", _CHI_SIGN),
        ("work_precision", n_work),
    )
    return FittingIdealRecord(
        ell=ell, p=p, chi_order=chi_order, chi_id=chi_id, n=n, N=N,
        generators=gens, provenance="computed", aux_primes_used=tuple(used),
        stabilization_count=stable, choices=choices,
    )


def _max_precision(p):
    """Largest N with p^N comfortably inside int64 linear algebra."""
    N = 1
    while p ** (N + 1) < 1 << 30:
        N += 1
    return N


# ---------------------------------------------------------------------------
# table files: "ell=<int> p=<int> chi=<int> n=<int> prec=<int> gens=[...]"

_LINE = re.compile(
    r"ell=(\d+)\s+p=(\d+)\s+chi=(\d+)\s+n=(\d+)\s+prec=(\d+)\s+gens=\[([^\]]*)\]\s*$"
)


def table_line(rec):
    """rec as one newline-terminated table line, the form _LINE reads."""
    return (f"ell={rec.ell} p={rec.p} chi={rec.chi_order} n={rec.n} "
            f"prec={rec.N} gens=[{','.join(rec.generators)}]\n")


def ingest_table(path, chi_id=1):
    """The records of one table file, each parsed against its ring; chi_id
    names the character of the file, which its lines do not record."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _LINE.match(line)
            if not m:
                raise ParseError(f"unrecognized table line: {line!r}", lineno)
            ell, p, chi, n, prec = (int(m.group(i)) for i in range(1, 6))
            gens = tuple(g.strip() for g in m.group(6).split(",") if g.strip())
            if not gens:
                raise ParseError("empty generator list", lineno)
            rec = FittingIdealRecord(
                ell=ell, p=p, chi_order=chi, chi_id=chi_id, n=n, N=prec,
                generators=gens, provenance="ingested",
            )
            try:
                ring = rec.ring()
                for g in gens:
                    if not re.fullmatch(r"\s*-?\d+\s*", g):
                        parse_element(ring, g, lineno)
            except ParseError:
                raise
            except (ChiOrderNotCoprime, ValueError) as exc:
                raise RingMismatch(str(exc)) from exc
            records.append(rec)
    return records


def export_table(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(table_line(rec) for rec in records)


def cache_dir(default=None):
    return os.environ.get("CAPITULA_CACHE", default)
