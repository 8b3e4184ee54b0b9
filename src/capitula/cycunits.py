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
    w = primitive_root(q)
    exp = (q - 1) // p**N
    g = primitive_root(ell)
    half = (ell - 1) // 2
    x = pow(w, (q - 1) // ell, q)  # rho^b and rho^-b along b = g^e
    y = pow(x, -1, q)
    values = []
    for _ in range(half):
        values.append(pow(x - y, exp, q))
        x, y = pow(x, g, q), pow(y, g, q)
    dl = np.array(p_power_dlogs(values, pow(w, exp, q), q, p, N),
                  dtype=np.int64)
    return (np.roll(dl, -1) - dl)[-np.arange(half) % half] % p**N


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


def compute_fitting_ideal(ell, p, chi_order, chi_id=1,
                          N=None) -> FittingIdealRecord:
    """Sample the ideal I with B(chi^-1) = O[[T]]/(I, p^N) for the degree-
    chi_order character of conductor ell.

    The run succeeds once 5 consecutive batches of 4 auxiliary primes add
    nothing, meaning every new unit image already lies in I (or once I is
    the unit ideal, which is definitive since sampling only grows it).  Without N, the
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
    for N in precisions:
        n_work = max(N, min(N + 2, _max_precision(p)))
        R_work = ring_make(p, n, chi_order, n_work)
        project = _chi_projector(R_work, half, chi_id)
        stream = _aux_prime_stream(ell, p, n_work)
        I = None
        stable = 0
        used = []
        for _ in range(_MAX_BATCHES):
            lams = []
            for _ in range(4):
                q = next(stream)
                used.append(q)
                lams.append(project(unit_image_mod_q(ell, q, p, n_work)))
            # I is an R-ideal, so it holds the orbit of each lambda exactly
            # when it holds lambda: a batch inside I leaves it unchanged
            if I is not None and all(I.contains(lam) for lam in lams):
                stable += 1
            else:
                I = ideal_make(R_work, lams) if I is None else I.grow(lams)
                stable = 0
            unit = any(c == 0 and k == 0 for _, c, k in I.pivots)
            if stable >= 5 or unit:
                break
        else:
            raise StabilizationFailure(
                f"ideal not stabilized within {_MAX_BATCHES} batches for "
                f"ell={ell}"
            )
        # certified p-power scalar level, read off the working-precision
        # span (at precision N the scalar p^N itself reduces to zero); no
        # sampled lambda is an integer, so grow read it off the Howell form
        scalar_val = I.scalar_level
        if scalar_val is not None and scalar_val <= N:
            break
    else:
        raise PrecisionTooLow(
            f"smallest certified scalar exceeds requested precision p^{N}"
        )
    H_out, _ = howell_array(I.howell, p, N)
    gens = _extract_generators(ring_make(p, n, chi_order, N), H_out,
                               scalar_val)
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
