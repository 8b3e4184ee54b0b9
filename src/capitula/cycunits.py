"""The cyclotomic unit u = (zeta^g - zeta^-g)/(zeta - zeta^-1) of
Q(zeta_l)+ (g the least primitive root mod l), whose Galois orbit generates
the cyclotomic units modulo +-1 for prime l (Washington, Introduction to
Cyclotomic Fields, Lemma 8.1), and the sampled computation of the ideal I
with B(chi^-1) = O[[T]]/I, via discrete-log images modulo auxiliary primes
q = 1 (mod l*p^N, doubled at p = 2).

For each auxiliary prime q, u is mapped through F_q: its Galois orbit of
discrete logs, projected to the chi-eigenspace, is one element lambda of
the target ideal I.  I grows with q, one batch of 4 primes at a time, and
is declared computed once 5 consecutive batches add nothing: every new
lambda already lies in I, which a membership test decides without an
echelon.  Correctness is anchored to fixtures and to the quadratic
class-group cross-check, not to a proof; records carry a
Monte-Carlo-stabilized provenance flag.

The unit ideal needs no stopping rule.  O is unramified and omega_n =
T^(p^n) mod p, so R is local with maximal ideal (p, T), and I = R exactly
when some sampled lambda lies outside (p, T) (Washington, Section 7.1).
Until I first grows, that is decided mod p from the orbit of u in F_q,
with one power per O/p-coordinate, and only a batch whose lambdas all lie
in (p, T) computes full dlogs, projections and the growth of I; later
batches compute their images anyway and read the decision off the lambdas.
The chi ids of one conductor share one walk of the auxiliary primes, in
lockstep batches, so each q maps u through F_q once for all of them.
"""

import os
import re
from array import array
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import (check_int64_sums, howell_array, is_prime, p_power_dlogs,
                    p_valuation, primitive_root)
from .errors import (BadAuxPrime, ChiOrderNotCoprime, ParseError,
                     PrecisionTooLow, RingMismatch, StabilizationFailure)
from .iwasawa import (EigenRing, RingIdeal, ideal_make, parse_element,
                      render_element, ring_make)

# Convention pinned by the worked-example fixtures: with the group-algebra
# element carrying dlog(sigma^e u) on [sigma^-e], the eigenspace projection
# sends sigma^e itself to chi^-1(delta0)^y (1+T)^x (sigma^e = pi0^x delta0^y).
# chi_id = k computes the ideal for the character with chi(delta0) = zeta^k;
# conjugate characters give conjugate ideals.
_SIGMA_SIGN = 1
_CHI_SIGN = -1


def _aux_modulus(ell, p, N):
    """The modulus m of the auxiliary primes q = 1 (mod m): ell * p^N,
    doubled at p = 2 so that -1 is a p^N-th power mod q and the discrete
    logs are well defined on units modulo +-1."""
    return ell * p**N * (2 if p == 2 else 1)


def _aux_prime_stream(ell, p, n_prec):
    """The primes q = 1 (mod _aux_modulus(ell, p, n_prec)), ascending."""
    step = _aux_modulus(ell, p, n_prec)
    q = 1
    while True:
        q += step
        if is_prime(q):
            yield q


def _orbit(ell):
    """The orbit b = g^e mod ell, e < (ell-1)/2, of the least primitive
    root g mod ell: one exponent of rho per element of Gal(Q(zeta_l)+/Q)."""
    g = primitive_root(ell)
    orbit = [1]
    for _ in range((ell - 1) // 2 - 1):
        orbit.append(orbit[-1] * g % ell)
    return orbit


def _orbit_values(ell, q, orbit):
    """(w, d) with w the least primitive root mod q and d[e] = rho^b -
    rho^-b at b = orbit[e], rho = w^((q-1)/ell), an integer in (-q, q) read
    off a table of the ell powers of rho."""
    w = primitive_root(q)
    rho = pow(w, (q - 1) // ell, q)
    powers = [1] * ell
    x = 1
    for k in range(1, ell):
        x = x * rho % q
        powers[k] = x
    return w, [powers[b] - powers[ell - b] for b in orbit]


def _image(w, d, q, p, N):
    """The unit image (see unit_image_mod_q) from the orbit values d."""
    half = len(d)
    exp = (q - 1) // p**N
    dl = np.array(p_power_dlogs([pow(x, exp, q) for x in d], pow(w, exp, q),
                                q, p, N), dtype=np.int64)
    return (np.roll(dl, -1) - dl)[-np.arange(half) % half] % p**N


def unit_image_mod_q(ell, q, p, N):
    """The group-algebra image of u = (zeta^g - zeta^-g)/(zeta - zeta^-1),
    g the least primitive root mod ell: the vector v with v[e] the
    coefficient of sigma^(-e) = dlog_q of sigma^e(u) mod p^N, sigma = sigma_g
    the fixed generator of Gal(Q(zeta_l)+/Q).  Deterministic given (q,
    least primitive roots).

    With rho = w^((q-1)/ell) (w the least primitive root mod q) and
    d(b) = rho^b - rho^-b, sigma^e(u) = d(g^(e+1)) / d(g^e): its dlog is
    the difference of the dlogs of d along the orbit b = g^e.  Raising to
    (q-1)/p^N maps each d(b) into the order-p^N subgroup that
    w^((q-1)/p^N) generates, where arith.p_power_dlogs reads its dlog_w mod
    p^N.  (q-1)/p^N is even, so the sign of d(b), and d(g^half) = -d(1),
    cost nothing."""
    m = _aux_modulus(ell, p, N)
    if (q - 1) % m:
        raise BadAuxPrime(f"q = {q} is not 1 mod {m}")
    w, d = _orbit_values(ell, q, _orbit(ell))
    return _image(w, d, q, p, N)


class _ChiProjector:
    """The projection of group-algebra vectors (index e over the half powers
    of sigma) into the eigenring: sigma^e -> chi(delta0)^(s*y) (1+T)^(s*x)
    with s the pinned sign, sigma^e = pi0^x delta0^y.  It depends only on
    l, the ring and chi_id, so a conductor builds it once per precision."""

    def __init__(self, ring, half, chi_id):
        pn, m, mod, p = ring.pn, ring.chi_order, ring.mod, ring.p
        D = half // pn
        check_int64_sums(mod, max(pn, m))
        self.ring = ring
        # the (x, zeta power) cell of each sigma^e in the pn x m grid
        es = _SIGMA_SIGN * np.arange(half, dtype=np.int64) % half
        x = es * pow(D, -1, pn) % pn
        y = es * pow(pn, -1, D) % D
        self.cell = x * m + _CHI_SIGN * chi_id * y % m
        # expand (1+T)^x via binomials, then zeta powers in the O-basis
        self.binomials_t = ring.binomials()[:pn, :pn].T
        self.zpow = np.zeros((m, ring.f), dtype=np.int64)
        cur = ring.one()
        for zi in range(m):
            self.zpow[zi] = cur.arr[0]
            cur = cur.mul_zeta()
        # The constant row of the projected image is sum_i dl[i] * wt[i]
        # over the dlogs dl[i] of d(g^i) (unit_image_mod_q), with wt[i] =
        # z((1-i) mod half) - z(-i mod half) and z(e) the O-coordinates of
        # the zeta power of cell e.  For each coordinate, the indices i of
        # each weight p-1, ..., 1 (mod p).
        z = self.zpow[self.cell % m] % p
        i = np.arange(half)
        wt = (z[(1 - i) % half] - z[-i % half]) % p
        self.unit_weights = [[np.flatnonzero(col == r).tolist()
                              for r in range(p - 1, 0, -1)] for col in wt.T]

    def __call__(self, vec):
        ring, mod = self.ring, self.ring.mod
        c = np.zeros(ring.pn * ring.chi_order, dtype=np.int64)
        np.add.at(c, self.cell, vec)
        c = c.reshape(ring.pn, ring.chi_order) % mod
        arr = (self.binomials_t @ c % mod) @ self.zpow % mod
        return ring.from_vector(arr.reshape(-1))

    def is_unit(self, d, q):
        """Whether lambda, the projected image of the orbit values d mod q,
        lies outside (p, T), i.e. is a unit of the local ring R.  Its
        constant row mod p is the dlog of (prod_i d[i]^wt[i])^((q-1)/p) in
        the order-p subgroup, so lambda is a unit exactly when one of these
        f powers is not 1; (q-1)/p is even, so the signs of d cancel."""
        e = (q - 1) // self.ring.p
        for groups in self.unit_weights:
            # prod over r of (prod of d[i] with wt[i] = r)^r, as a product
            # of the running products from the top weight down
            run = acc = 1
            for idx in groups:
                for i in idx:
                    run = run * d[i] % q
                acc = acc * run % q
            if pow(acc, e, q) != 1:
                return True
        return False


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


def _extract_generators(R, howell_rows, scalar_val):
    """A small generating set of the ideal with Howell form howell_rows,
    which holds p^scalar_val: that scalar, and greedily each Howell row
    that the ideal grown so far misses, until it is the whole ideal."""
    # Howell order: earlier pivot columns mean lower T-degree, which
    # generates the most under multiplication by T and zeta
    scalar = R.p**scalar_val
    current = ideal_make(R, [scalar])
    gens = []
    for row in howell_rows:
        r = R.from_vector(row)
        if current.contains(r):
            continue
        gens.append(render_element(r))
        current = current.grow([r])
        if np.array_equal(current.howell, howell_rows):
            break
    return (*gens, str(scalar))


_MAX_BATCHES = 60  # batches of 4 auxiliary primes before giving up


def check_characters(ell, p, chi_order, chi_ids):
    """Raise unless ell is prime, chi_order is prime to p and divides
    (ell-1)/2, and each chi id names a character of exact order chi_order,
    i.e. is prime to it."""
    if not is_prime(ell):
        raise ValueError(f"{ell} must be prime")
    if gcd(chi_order, p) != 1:
        raise ChiOrderNotCoprime(f"chi order {chi_order} not coprime to {p}")
    if ((ell - 1) // 2) % chi_order:
        raise ValueError("chi_order must divide (ell-1)/2")
    for chi_id in chi_ids:
        if gcd(chi_id, chi_order) != 1:
            raise ValueError(f"chi id {chi_id} is not prime to the chi order "
                             f"{chi_order}: not a character of that order")


class _Sampling:
    """One chi id's ideal at one precision, grown batch by batch."""

    def __init__(self, project):
        self.project = project
        self.I = None
        self.stable = 0
        self.aux = 0  # aux primes drawn
        self.unit = False


def compute_fitting_ideals(ell, p, chi_order, chi_ids,
                           N=None) -> list:
    """Sample the ideals I with B(chi^-1) = O[[T]]/(I, p^N) for the degree-
    chi_order characters chi_ids of conductor ell: one record per chi id.

    The chi ids share one walk of the auxiliary primes: at each precision,
    every batch of 4 primes maps u through F_q once, for all chi ids still
    sampling.  R is local with maximal ideal (p, T) (O is unramified and
    omega_n = T^(p^n) mod p), so I is the unit ideal exactly when some
    lambda lies outside (p, T).  Until a chi id first grows I, that is
    decided mod p from the orbit values, and only a batch without such a
    lambda computes full dlogs, the projection and the growth of I; after
    that, the images are computed anyway and the lambdas show it.  A chi
    id's run succeeds once 5 consecutive batches add nothing, meaning every
    new unit image already lies in I (or once I is the unit ideal, which is
    definitive since sampling only grows it).  Without N, the precision
    starts at n + 3 and doubles, up to the cap, while the certified scalar
    exceeds it.
    """
    check_characters(ell, p, chi_order, chi_ids)
    half = (ell - 1) // 2
    n = tower_exponent(ell, p)
    if N is None:
        precisions = [n + 3]
        while 2 * precisions[-1] <= _max_precision(p):
            precisions.append(2 * precisions[-1])
    else:
        precisions = [N]
    orbit = _orbit(ell)
    records = {}
    todo = list(dict.fromkeys(chi_ids))
    for N in precisions:
        n_work = max(N, min(N + 2, _max_precision(p)))
        R_work = ring_make(p, n, chi_order, n_work)
        runs = {cid: _Sampling(_ChiProjector(R_work, half, cid))
                for cid in todo}
        sampling = list(todo)
        stream = _aux_prime_stream(ell, p, n_work)
        used = []
        for _ in range(_MAX_BATCHES):
            batch = [next(stream) for _ in range(4)]
            used += batch
            for cid in sampling:
                runs[cid].aux = len(used)
            # decide each chi id's unit mod (p, T), q by q, and keep the
            # orbit values (as int64) for the images the others need.  Once
            # a chi id has grown I, it computes every image anyway, and its
            # lambdas show a unit themselves
            held = []
            for q in batch:
                w, d = _orbit_values(ell, q, orbit)
                for cid in sampling:
                    run = runs[cid]
                    if run.I is None and not run.unit:
                        run.unit = run.project.is_unit(d, q)
                held.append((w, array("q", d), q))
            sampling = [cid for cid in sampling if not runs[cid].unit]
            images = ([_image(w, d, q, p, n_work) for w, d, q in held]
                      if sampling else [])
            for cid in list(sampling):
                run = runs[cid]
                lams = [run.project(v) for v in images]
                if any((lam.arr[0] % p).any() for lam in lams):
                    run.unit = True
                    sampling.remove(cid)
                    continue
                # I is an R-ideal, so it holds the orbit of each lambda
                # exactly when it holds lambda: a batch inside I leaves it
                # unchanged
                if run.I is not None and all(run.I.contains(lam)
                                             for lam in lams):
                    run.stable += 1
                    if run.stable >= 5:
                        sampling.remove(cid)
                else:
                    run.I = (ideal_make(R_work, lams) if run.I is None
                             else run.I.grow(lams))
                    run.stable = 0
            if not sampling:
                break
        else:
            raise StabilizationFailure(
                f"ideal not stabilized within {_MAX_BATCHES} batches for "
                f"ell={ell}"
            )
        choices = (
            ("unit", "least primitive root mod ell"),
            ("root_of_unity", "w^((q-1)/ell), w least primitive root mod q"),
            ("sigma_sign", _SIGMA_SIGN),
            ("chi_sign", _CHI_SIGN),
            ("work_precision", n_work),
        )
        for cid, run in runs.items():
            if run.unit:
                gens = ("1",)
            else:
                # certified p-power scalar level, read off the working-
                # precision span (at precision N the scalar p^N itself
                # reduces to zero); no sampled lambda is an integer, so grow
                # read it off the Howell form
                scalar_val = run.I.scalar_level
                if scalar_val is None or scalar_val > N:
                    continue
                H_out, _ = howell_array(run.I.howell, p, N)
                gens = _extract_generators(ring_make(p, n, chi_order, N),
                                           H_out, scalar_val)
            records[cid] = FittingIdealRecord(
                ell=ell, p=p, chi_order=chi_order, chi_id=cid, n=n, N=N,
                generators=gens, provenance="computed",
                aux_primes_used=tuple(used[:run.aux]),
                stabilization_count=0 if run.unit else run.stable,
                choices=choices,
            )
            todo.remove(cid)
        if not todo:
            break
    else:
        raise PrecisionTooLow(
            f"smallest certified scalar exceeds requested precision p^{N}"
        )
    return [records[cid] for cid in chi_ids]


def compute_fitting_ideal(ell, p, chi_order, chi_id=1,
                          N=None) -> FittingIdealRecord:
    """The record of compute_fitting_ideals for the one chi id chi_id."""
    return compute_fitting_ideals(ell, p, chi_order, (chi_id,), N)[0]


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
                if n != tower_exponent(ell, p):
                    raise RingMismatch(
                        f"line {lineno}: n={n}, but the tower exponent of "
                        f"ell={ell} at p={p} is {tower_exponent(ell, p)}")
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
