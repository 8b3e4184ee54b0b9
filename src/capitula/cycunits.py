"""The cyclotomic unit u = (zeta^g - zeta^-g)/(zeta - zeta^-1) of
Q(zeta_l)+ (g the least primitive root mod l), whose Galois orbit generates
the cyclotomic units modulo +-1 for prime l (Washington, Introduction to
Cyclotomic Fields, Lemma 8.1), and the sampled computation of the ideal I
with B(chi^-1) = O[[T]]/I, via discrete-log images modulo auxiliary primes
q = 1 (mod l*p^N, doubled at p = 2).

For each auxiliary prime q, u is mapped through F_q: the chi-projection of
its Galois orbit of discrete logs is one element lambda of the target ideal
I.  A dlog turns products into sums, so the orbit values are multiplied
into the cells of the projection in F_q first, and one power and one dlog
per cell follow (_ChiProjector).  I grows with q, one batch of 4 primes at
a time, and is declared computed once 5 consecutive batches add nothing:
every new lambda already lies in I, which a membership test decides
without an echelon.  Correctness is anchored to fixtures and to the
quadratic class-group cross-check, not to a proof; records carry a
Monte-Carlo-stabilized provenance flag.

The unit ideal needs no stopping rule.  O is unramified and omega_n =
T^(p^n) mod p, so R is local with maximal ideal (p, T), and I = R exactly
when some sampled lambda lies outside (p, T) (Washington, Section 7.1).
Every batch decides that mod p from the cell products in F_q, with one
power per O/p-coordinate, and only a batch whose lambdas all lie in
(p, T) takes the dlogs of the cells and grows I.  The chi ids of one
conductor share one walk of the auxiliary primes, in lockstep batches,
and the cell products and dlogs of each q: a chi id only picks the zeta
power of each cell.
"""

import os
import re
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .arith import (check_int64_sums, howell_array, is_prime, mulmod,
                    p_power_dlogs, p_valuation, primitive_root)
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

# Below this many orbit elements the per-q stage runs in Python ints: there
# a few dozen products cost less than the numpy calls of the array path
_ARRAY_HALF = 100


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
    root g mod ell, as an index array: one exponent of rho per element of
    Gal(Q(zeta_l)+/Q)."""
    g = primitive_root(ell)
    orbit = [1]
    for _ in range((ell - 1) // 2 - 1):
        orbit.append(orbit[-1] * g % ell)
    return np.array(orbit, dtype=np.int64)


def _orbit_values(ell, q, orbit):
    """(w, d) with w the least primitive root mod q and d[e] = rho^b -
    rho^-b mod q at b = orbit[e], rho = w^((q-1)/ell): residues in [0, q),
    read off the ell powers of rho.  Below _ARRAY_HALF orbit elements d is
    a list and the powers are taken one by one.  Otherwise d is an array of
    arith.mulmod's dtype, and the powers are one outer product of the s =
    ceil(sqrt(ell)) baby steps rho^j and the giant steps rho^(s*i), i <
    ceil(ell/s)."""
    w = primitive_root(q)
    rho = pow(w, (q - 1) // ell, q)
    if len(orbit) < _ARRAY_HALF:
        powers = [1] * ell
        for k in range(1, ell):
            powers[k] = powers[k - 1] * rho % q
        return w, [(powers[b] - powers[ell - b]) % q for b in orbit.tolist()]
    s = isqrt(ell - 1) + 1
    baby = [1] * s
    for j in range(1, s):
        baby[j] = baby[j - 1] * rho % q
    step = baby[-1] * rho % q
    giant = [[1]]
    for _ in range((ell - 1) // s):
        giant.append([giant[-1][0] * step % q])
    powers = mulmod(giant, baby, q).reshape(-1)
    return w, (powers[orbit] - powers[ell - orbit]) % q


def _cell_rows(num, den, K):
    """The indices i of the cell maps num and den (arrays of cells in [0,
    K), one per i) grouped by cell: 2K rows, those of num first.  The
    cells of a character's projection are equal, of len(num)/K indices
    each, as chi_order divides the prime-to-p part of (ell-1)/2, and the
    rows are the sorted indices cut in 2K.  Unequal cells raise ValueError:
    cut in 2K rows, they would mix indices of different cells."""
    cells = np.concatenate([num, K + den])
    counts = np.bincount(cells, minlength=2 * K)
    if counts.min() != counts.max():
        raise ValueError("the cells of a projection must be of one size")
    return (np.argsort(cells, kind="stable") % len(num)).reshape(2 * K, -1)


class _ChiProjector:
    """The chi-projection lambda of the image of u mod q, for every
    character chi of order m = ring.chi_order at once, taken in F_q before
    any discrete log.  It depends only on l and the ring, so a conductor
    builds it once per precision.

    The image of u carries dlog(sigma^-e u) = dl[(1-e) mod half] -
    dl[-e mod half] on [sigma^e], dl[i] the dlog of the orbit value d[i] =
    d(g^i) of _orbit_values: sigma^e(u) = d(g^(e+1)) / d(g^e), and
    d(g^half) = -d(1) has the same dlog once raised into the order-p^N
    subgroup, as (q-1)/p^N is even.  The projection sends sigma^e =
    pi0^x delta0^y (signs pinned by _SIGMA_SIGN) to chi^-1(delta0)^y
    (1+T)^x, which depends on e only through its cell x*m + (y mod m) of
    the pn x m grid, and on chi only through the zeta power of each column
    y mod m.  A dlog turns products into sums, so the sum over cell k is
    the dlog of N_k/D_k: N_k the product of the d[i] with (1-i) mod half in
    cell k, D_k that of the d[i] with -i mod half in it.  self.cells lists
    the indices i of each cell in a row, the N_k rows first (_cell_rows).
    Per q that takes one gather of d into those rows and a product tree
    along them (2*half multiplications in log2(half/K) array products, K =
    pn*m the number of cells), one inversion for all the D_k
    (Montgomery's batch inversion, Math. Comp. 48, 1987), and K powers into
    the order-p^N subgroup with their dlogs, shared by all chi; each chi
    then expands its cell sums with the binomials of (1+T)^x and its zeta
    powers."""

    def __init__(self, ring, half):
        pn, m = ring.pn, ring.chi_order
        D = half // pn
        check_int64_sums(ring.mod, max(pn, m))
        self.ring = ring
        self.modulus = _aux_modulus(2 * half + 1, ring.p, ring.N)
        es = _SIGMA_SIGN * np.arange(half, dtype=np.int64) % half
        cell = es * pow(D, -1, pn) % pn * m + es * pow(pn, -1, D) % D % m
        i = np.arange(half)
        self.cells = _cell_rows(cell[(1 - i) % half], cell[-i % half], pn * m)
        self.binomials_t = ring.binomials()[:pn, :pn].T
        # zeta^0, ..., zeta^(m-1) in the O-basis
        self.zpow = np.zeros((m, ring.f), dtype=np.int64)
        cur = ring.one()
        for zi in range(m):
            self.zpow[zi] = cur.arr[0]
            cur = cur.mul_zeta()

    def zeta_table(self, chi_id):
        """The O-coordinates of the zeta power that chi_id puts on each
        column y mod m: chi(delta0)^(s*y) = zeta^(s*chi_id*y), s the pinned
        _CHI_SIGN."""
        m = self.ring.chi_order
        return self.zpow[[_CHI_SIGN * chi_id * y % m for y in range(m)]]

    def cell_quotients(self, d, q):
        """N_k/D_k mod q for each cell k, from the orbit values d of
        _orbit_values: the product of each row of self.cells read from d,
        one by one below _ARRAY_HALF values, and otherwise by gathering the
        rows and multiplying them pairwise down to one column."""
        if (q - 1) % self.modulus:
            raise BadAuxPrime(f"q = {q} is not 1 mod {self.modulus}")
        if len(d) < _ARRAY_HALF:
            prods = []
            for row in self.cells.tolist():
                x = 1
                for i in row:
                    x = x * d[i] % q
                prods.append(x)
        else:
            v = d[self.cells]
            while v.shape[1] > 1:
                h = v.shape[1] // 2
                if v.shape[1] % 2:
                    v[:, 0] = mulmod(v[:, 0], v[:, -1], q)
                v = mulmod(v[:, :h], v[:, h:2 * h], q)
            prods = v[:, 0].tolist()
        K = self.ring.pn * self.ring.chi_order
        num, den = prods[:K], prods[K:]
        # one inverse of the product of all D_k, peeled back cell by cell
        # with the prefix products
        prefix, acc = [], 1
        for y in den:
            prefix.append(acc)
            acc = acc * y % q
        inv = pow(acc, -1, q)
        for k in range(K - 1, -1, -1):
            num[k] = num[k] * prefix[k] % q * inv % q
            inv = inv * den[k] % q
        return num

    def cell_dlogs(self, w, r, q):
        """The cell sums, as a pn x m array mod p^N: the dlogs of the cell
        quotients r raised into the order-p^N subgroup, to the base
        w^((q-1)/p^N)."""
        ring = self.ring
        exp = (q - 1) // ring.mod
        c = p_power_dlogs([pow(x, exp, q) for x in r], pow(w, exp, q), q,
                          ring.p, ring.N)
        return np.array(c, dtype=np.int64).reshape(ring.pn, ring.chi_order)

    def __call__(self, c, zeta):
        """lambda from the cell sums c, for the chi of zeta_table zeta."""
        mod = self.ring.mod
        arr = (self.binomials_t @ c % mod) @ zeta % mod
        return self.ring.from_vector(arr.reshape(-1))

    def is_unit(self, r, q, zeta):
        """Whether lambda, for the cell quotients r mod q and the chi of
        zeta_table zeta, lies outside (p, T), i.e. is a unit of the local
        ring R.  Its constant row is sum_y C_y zeta[y], C_y the cell sum
        over column y, the dlog of the product P_y of that column's
        quotients.  Mod p, each of its f coordinates is the dlog of
        (prod_y P_y^(zeta[y] mod p))^((q-1)/p) in the order-p subgroup, so
        lambda is a unit exactly when one of these f powers is not 1; (q-1)/p
        is even, so the signs of d cancel."""
        p, m = self.ring.p, self.ring.chi_order
        cols = [1] * m
        for k, x in enumerate(r):
            cols[k % m] = cols[k % m] * x % q
        e = (q - 1) // p
        for weights in (zeta % p).T.tolist():
            acc = 1
            for c, wt in zip(cols, weights):
                acc = acc * pow(c, wt, q) % q
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

    def ideal(self) -> RingIdeal:
        return ideal_make(self.ring(), list(self.generators))


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
    """Raise unless ell is an odd prime, p is prime, chi_order > 1 is prime
    to p and divides (ell-1)/2, and each chi id names a character of exact
    order chi_order, i.e. is prime to it.  The trivial character is left
    out: the norm of u to Q is +-1, so every lambda vanishes at T = 0, I
    lies in (T), and no p-power scalar is ever certified."""
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"{ell} must be an odd prime")
    if not is_prime(p):
        raise ValueError(f"p = {p} must be prime")
    if chi_order < 2:
        raise ValueError("chi order must be at least 2: the trivial "
                         "character has no Fitting ideal to sample")
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

    def __init__(self, zeta):
        self.zeta = zeta  # the chi id's _ChiProjector.zeta_table
        self.I = None
        self.stable = 0
        self.aux = 0  # aux primes drawn
        self.unit = False


def compute_fitting_ideals(ell, p, chi_order, chi_ids,
                           N=None) -> list:
    """Sample the ideals I with B(chi^-1) = O[[T]]/(I, p^N) for the degree-
    chi_order characters chi_ids of conductor ell: one record per chi id.

    The chi ids share one walk of the auxiliary primes: at each precision,
    every batch of 4 primes maps u through F_q once, into the cells of the
    projection, for all chi ids still sampling.  R is local with maximal
    ideal (p, T) (O is unramified and omega_n = T^(p^n) mod p), so I is the
    unit ideal exactly when some lambda lies outside (p, T).  Each batch
    decides that mod p from the cell quotients, and only a batch without
    such a lambda takes the dlogs of the cells, the lambdas and the growth
    of I.  A chi id's run succeeds once 5 consecutive batches
    add nothing, meaning every new lambda already lies in I (or once I is
    the unit ideal, which is definitive since sampling only grows it).
    Without N, the precision starts at n + 3 and doubles, up to the cap,
    while the certified scalar exceeds it.
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
        project = _ChiProjector(R_work, half)
        runs = {cid: _Sampling(project.zeta_table(cid)) for cid in todo}
        sampling = list(todo)
        stream = _aux_prime_stream(ell, p, n_work)
        used = []
        for _ in range(_MAX_BATCHES):
            batch = [next(stream) for _ in range(4)]
            used += batch
            for cid in sampling:
                runs[cid].aux = len(used)
            # decide each chi id's unit mod (p, T), q by q, from the cell
            # quotients, before any dlog
            held = []
            for q in batch:
                w, d = _orbit_values(ell, q, orbit)
                r = project.cell_quotients(d, q)
                for cid in sampling:
                    run = runs[cid]
                    run.unit = run.unit or project.is_unit(r, q, run.zeta)
                held.append((w, r, q))
            sampling = [cid for cid in sampling if not runs[cid].unit]
            sums = ([project.cell_dlogs(w, r, q) for w, r, q in held]
                    if sampling else [])
            for cid in list(sampling):
                run = runs[cid]
                lams = [project(c, run.zeta) for c in sums]
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
