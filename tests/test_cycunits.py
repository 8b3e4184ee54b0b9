import copy
import functools
import math

import numpy as np
import pytest

from capitula import cycunits as cu
from capitula import iwasawa as iw
from capitula import quadforms as qf
from capitula.arith import howell_array, is_prime, primitive_root
from capitula.errors import (BadAuxPrime, ChiOrderNotCoprime, Overflow,
                             ParseError, PrecisionTooLow, RingMismatch)


def aux_primes(ell, p, N, count):
    stream = cu._aux_prime_stream(ell, p, N)
    return [next(stream) for _ in range(count)]


@functools.cache
def binomials_by_comb(pn, mod):
    """C(x, k) mod `mod` for x, k < pn, from math.comb."""
    B = np.zeros((pn, pn), dtype=np.int64)
    for x in range(pn):
        for k in range(x + 1):
            B[x, k] = math.comb(x, k) % mod
    return B


def projection_by_entries(ring, vec, chi_id):
    """Reference chi-projection: sigma^e = pi0^x delta0^y goes to
    chi(delta0)^(-y) (1+T)^x one entry at a time, with binomials from
    math.comb."""
    pn, f, m, mod = ring.pn, ring.f, ring.chi_order, ring.mod
    half = len(vec)
    D = half // pn
    Dinv = pow(D, -1, pn) if pn > 1 else 0
    Pinv = pow(pn, -1, D) if D > 1 else 0
    c = np.zeros((pn, m), dtype=np.int64)
    for e in range(half):
        t = int(vec[e])
        if not t:
            continue
        x = (e * Dinv) % pn
        zi = (-chi_id * ((e * Pinv) % D)) % m
        c[x, zi] = (c[x, zi] + t) % mod
    B = binomials_by_comb(pn, mod)
    zpow = np.zeros((m, f), dtype=np.int64)
    cur = ring.one()
    for zi in range(m):
        zpow[zi] = cur.arr[0]
        cur = cur.mul_zeta()
    arr = (B.T @ c % mod) @ zpow % mod
    return ring.from_vector(arr.reshape(-1))


def unit_image_by_dict(ell, p, N, q):
    """Reference unit image from the definition: for each e, sigma^e(u) =
    d(g^(e+1)) * d(g^e)^-1 in F_q with d(b) = rho^b - rho^-b, raised into
    <w^((q-1)/p^N)> and looked up in a dict of all p^N of its powers; it
    sits at index -e."""
    exp = (q - 1) // p**N
    w = primitive_root(q)
    gen = pow(w, exp, q)
    dlog = {}
    x = 1
    for i in range(p**N):
        dlog[x] = i
        x = x * gen % q
    rho = pow(w, (q - 1) // ell, q)
    g = primitive_root(ell)
    half = (ell - 1) // 2

    def d(b):
        return pow(rho, b, q) - pow(rho, -b, q)

    out = [0] * half
    for e in range(half):
        b = pow(g, e, ell)
        unit = d(b * g) * pow(d(b), -1, q) % q
        out[-e % half] = dlog[pow(unit, exp, q)]
    return out


def cell_lambdas(project, ell, q, chi_id):
    """lambda at q through the cell products of project."""
    w, d = cu._orbit_values(ell, q, cu._orbit(ell))
    r = project.cell_quotients(d, q)
    return project(project.cell_dlogs(w, r, q), project.zeta_table(chi_id))


def working_ring(ell, p, chi_order):
    """The ring of the first precision that sampling works at."""
    n = cu.tower_exponent(ell, p)
    return iw.ring_make(p, n, chi_order, min(n + 5, cu._max_precision(p)))


class TestUnitImage:
    def test_bad_aux_prime(self):
        project = cu._ChiProjector(iw.ring_make(3, 1, 2, 2), 6)
        _, d = cu._orbit_values(13, 11, cu._orbit(13))
        with pytest.raises(BadAuxPrime):
            project.cell_quotients(d, 11)

    def test_bad_aux_prime_sign_at_two(self):
        # q = 1 mod 13*4 but not mod 13*8: sign of units still visible
        q = 157  # 157 - 1 = 12*13, divisible by 13*4 but not 13*8
        assert (q - 1) % (13 * 4) == 0 and (q - 1) % (13 * 8) != 0
        project = cu._ChiProjector(iw.ring_make(2, 1, 3, 2), 6)
        _, d = cu._orbit_values(13, q, cu._orbit(13))
        with pytest.raises(BadAuxPrime):
            project.cell_quotients(d, q)

    def test_projection_int64_guard(self):
        # p^N = 2^30 and D = 1: the binomial expansion sums p^n products,
        # which fit in int64 for p^n = 4 and overflow it for p^n = 8
        R = iw.ring_make(2, 2, 1, 30)
        project = cu._ChiProjector(R, 4)
        ones = np.ones((4, 1), dtype=np.int64)
        # cell sums of 1 at every (1+T)^x, for the trivial character
        want = sum(((R.one() + R.T()) ** e for e in range(4)), R.zero())
        assert project(ones, project.zeta_table(1)) == want
        with pytest.raises(Overflow):
            cu._ChiProjector(iw.ring_make(2, 3, 1, 30), 8)

    @pytest.mark.parametrize("ell, p, chi_order, chi_id", [
        (2917, 3, 2, 1), (2857, 3, 2, 1), (401, 5, 2, 1), (257, 2, 3, 1),
        (7681, 2, 3, 1), (7681, 2, 3, 2), (211, 7, 3, 1), (211, 7, 3, 2)])
    def test_projection_matches_entry_loop(self, ell, p, chi_order, chi_id):
        # lambda from the cell products against the projection, entry by
        # entry, of the unit image from the definition, at the first aux
        # primes: p^n*m = half at 2917, one dlog digit at 2857 and 7681
        # (f = 2), two at 401 and 211.  A cell map rotated by one index
        # gives another lambda on the same inputs
        R = working_ring(ell, p, chi_order)
        half = (ell - 1) // 2
        project = cu._ChiProjector(R, half)
        rotated = copy.copy(project)
        rotated.num = project.num[1:] + project.num[:1]
        rotated.den = project.den[1:] + project.den[:1]
        differs = False
        for q in aux_primes(ell, p, R.N, 4):
            want = projection_by_entries(
                R, unit_image_by_dict(ell, p, R.N, q), chi_id)
            assert cell_lambdas(project, ell, q, chi_id) == want
            differs |= cell_lambdas(rotated, ell, q, chi_id) != want
        assert differs

    @pytest.mark.parametrize("ell, p, chi_order, chi_id, unit", [
        (2857, 3, 2, 1, False), (7681, 2, 3, 2, True), (211, 7, 3, 1, True),
        (211, 7, 3, 2, True), (313, 7, 3, 1, True), (313, 7, 3, 2, False),
        (2089, 3, 2, 1, False), (13, 3, 2, 1, True), (9337, 2, 3, 2, False),
        (163, 2, 3, 1, False)])
    def test_unit_decision_matches_projection(self, ell, p, chi_order,
                                              chi_id, unit):
        # lambda lies outside (p, T) exactly when the constant row of its
        # projection is nonzero mod p; f = 1 and f = 2 (p = 2), for unit
        # ideals and others, whose lambdas all lie inside (p, T)
        R = working_ring(ell, p, chi_order)
        project = cu._ChiProjector(R, (ell - 1) // 2)
        zeta = project.zeta_table(chi_id)
        orbit = cu._orbit(ell)
        decided = []
        for q in aux_primes(ell, p, R.N, 8):
            _, d = cu._orbit_values(ell, q, orbit)
            lam = projection_by_entries(
                R, unit_image_by_dict(ell, p, R.N, q), chi_id)
            decided.append(project.is_unit(project.cell_quotients(d, q), q,
                                           zeta))
            assert decided[-1] == bool((lam.arr[0] % p).any())
        assert any(decided) == unit

    @pytest.mark.parametrize("ell, p, count", [
        (2917, 3, 4), (2857, 3, 4), (211, 7, 4), (7351, 7, 1), (7681, 2, 4),
        (401, 5, 4)])
    def test_image_matches_dict(self, ell, p, count):
        # each cell sum is the sum of the unit image from the definition
        # over the sigma^e of its cell, sigma^e = pi0^x delta0^y in cell
        # x*m + (y mod m); 2857 and 7681 read one dlog digit, the others two
        m = 2 if p in (3, 5) else 3
        R = working_ring(ell, p, m)
        half = (ell - 1) // 2
        D = half // R.pn
        project = cu._ChiProjector(R, half)
        for q in aux_primes(ell, p, R.N, count):
            want = np.zeros((R.pn, m), dtype=np.int64)
            for e, t in enumerate(unit_image_by_dict(ell, p, R.N, q)):
                x = e * pow(D, -1, R.pn) % R.pn
                y = e * pow(R.pn, -1, D) % D
                want[x, y % m] = (want[x, y % m] + t) % R.mod
            w, d = cu._orbit_values(ell, q, cu._orbit(ell))
            got = project.cell_dlogs(w, project.cell_quotients(d, q), q)
            assert (got == want).all()

    def test_image_is_deterministic(self):
        # two projectors built apart give the same lambda
        R = iw.ring_make(3, 1, 2, 2)
        q = aux_primes(13, 3, 2, 1)[0]
        a = cell_lambdas(cu._ChiProjector(R, 6), 13, q, 1)
        b = cell_lambdas(cu._ChiProjector(R, 6), 13, q, 1)
        assert a == b


# Whole records at the default precision: (ell, p, chi order, chi id, n,
# N, generators, stabilization count, aux primes).  A change to the
# sampling that keeps every ideal keeps these bit for bit.
PINNED_RECORDS = [
    (2089, 3, 2, 1, 2, 5, ('3+2*T+2*T^2', '27'), 5, (9137287, 27411859,
     91372861, 137059291, 164471149, 210157579, 228432151, 283255867,
     438589729, 456864301, 466001587, 484276159, 603060877, 612198163,
     639610021, 657884593, 703571023, 712708309, 758394739, 804081169,
     922865887, 1032513319, 1105611607, 1206121753,)),
    (401, 5, 2, 1, 2, 5, ('T', '5'), 5, (187968751, 1253125001,
     2192968751, 2631562501, 2756875001, 3383437501, 4323281251,
     4511250001, 5451093751, 5952343751, 6766875001, 7894687501,
     8458593751, 8959843751, 9022500001, 9586406251, 10338281251,
     10651562501, 11403437501, 11779375001, 12155312501, 13909687501,
     14849531251, 15037500001,)),
    (7351, 7, 3, 1, 2, 5, ('1',), 0, (60538645931, 72646375117,
     278477771279, 387447333953,)),
    (7351, 7, 3, 2, 2, 5, ('T', '49'), 5, (60538645931, 72646375117,
     278477771279, 387447333953, 569063271743, 823325584649,
     980726064067, 1452927502321, 1658758898483, 1670866627669,
     1852482565459, 1876698023831, 1997775315691, 2058313961621,
     2070421690807, 2385222649643, 2433653566387, 2542623129061,
     2566838587433, 2687915879293, 2724239066851, 2905855004641,
     2978501379757, 3051147754873,)),
    (7489, 2, 3, 1, 5, 8, ('2+T+T^2+z*T^2', '8'), 5, (506136577,
     690186241, 828223489, 858898433, 1012273153, 1150310401,
     1196322817, 1242335233, 1273010177, 1380372481, 1779146753,
     1917184001, 2193258497, 2699395073, 2852769793, 3727005697,
     3849705473, 3987742721, 4079767553, 4125779969, 4739278849,
     4831303681, 4877316097, 5000015873,)),
    (7489, 2, 3, 2, 5, 8, ('2+T+z*T^2', '8'), 5, (506136577, 690186241,
     828223489, 858898433, 1012273153, 1150310401, 1196322817,
     1242335233, 1273010177, 1380372481, 1779146753, 1917184001,
     2193258497, 2699395073, 2852769793, 3727005697, 3849705473,
     3987742721, 4079767553, 4125779969, 4739278849, 4831303681,
     4877316097, 5000015873,)),
    (9337, 2, 3, 1, 2, 5, ('2+T+z*T+T^2', '8'), 5, (23902721, 35854081,
     66927617, 78878977, 93220609, 107562241, 143416321, 164928769,
     179270401, 186441217, 203173121, 217514753, 224685569, 265320193,
     282052097, 301174273, 337028353, 358540801, 368101889, 380053249,
     408736513, 437419777, 468493313, 516298753,)),
    (9337, 2, 3, 2, 2, 5, ('2+z*T+z*T^2', '8'), 5, (23902721, 35854081,
     66927617, 78878977, 93220609, 107562241, 143416321, 164928769,
     179270401, 186441217, 203173121, 217514753, 224685569, 265320193,
     282052097, 301174273, 337028353, 358540801, 368101889, 380053249,
     408736513, 437419777, 468493313, 516298753,))]



class TestComputeFittingIdeal:
    def test_example_quadratic(self):
        rec = cu.compute_fitting_ideal(2089, 3, 2, N=3)
        R = rec.ring()
        assert (rec.n, rec.N) == (2, 3)
        assert rec.ideal() == iw.ideal_make(R, ["T-3", "27"])
        assert rec.provenance == "computed"
        assert rec.stabilization_count >= 5
        assert len(rec.aux_primes_used) >= 4

    def test_example_cubic_7489(self):
        rec = cu.compute_fitting_ideal(7489, 2, 3, chi_id=2, N=3)
        R = rec.ring()
        assert rec.ideal() == iw.ideal_make(R, ["T+2+4*z", "8"])

    def test_example_cubic_9337(self):
        rec = cu.compute_fitting_ideal(9337, 2, 3, chi_id=1, N=3)
        R = rec.ring()
        assert rec.ideal() == iw.ideal_make(R, ["T+4-2*z", "8"])

    def test_conjugate_character_gives_conjugate_ideal(self):
        # z -> -1-z on O = Z2[z]/(z^2+z+1) swaps the two cubic characters
        rec1 = cu.compute_fitting_ideal(9337, 2, 3, chi_id=1, N=3)
        rec2 = cu.compute_fitting_ideal(9337, 2, 3, chi_id=2, N=3)
        R = rec1.ring()
        conj = []
        for g in rec1.generators:
            e = iw.parse_element(R, g)
            arr = e.arr
            new = np.zeros_like(arr)
            new[:, 0] = (arr[:, 0] - arr[:, 1]) % R.mod
            new[:, 1] = (-arr[:, 1]) % R.mod
            conj.append(iw.RingElement(R, new))
        assert rec2.ideal() == iw.ideal_make(R, conj)

    def test_determinism(self):
        a = cu.compute_fitting_ideal(229, 3, 2, N=3)
        b = cu.compute_fitting_ideal(229, 3, 2, N=3)
        assert a == b

    def test_default_precision(self):
        rec = cu.compute_fitting_ideal(13, 3, 2)
        assert rec.N == rec.n + 3
        assert rec.n == cu.tower_exponent(13, 3) == 1

    @pytest.mark.parametrize("threshold, tried_want, N_want", [
        (10, [6, 10], 8), (18, [6, 10, 18], 16)],
        ids=["threshold10", "threshold18"])
    def test_precision_doubles_until_certified(self, monkeypatch, threshold,
                                               tried_want, N_want):
        # 229 at p = 3 (n = 1) is not the unit ideal, so every precision
        # grows I and asks for its scalar level.  No scalar is certified
        # below working precision `threshold`: each lower N fails and is
        # doubled, up to the cap (working precision 18 = _max_precision(3));
        # a requested N is never doubled.  Extraction then grows at the
        # final N
        certify = iw._min_scalar_level
        tried = []

        def late(H, piv, R):
            tried.append(R.N)
            return certify(H, piv, R) if R.N >= threshold else None

        monkeypatch.setattr(iw, "_min_scalar_level", late)
        rec = cu.compute_fitting_ideal(229, 3, 2)
        assert list(dict.fromkeys(tried)) == tried_want + [N_want]
        assert rec.N == N_want
        with pytest.raises(PrecisionTooLow):
            cu.compute_fitting_ideal(229, 3, 2, N=4)
        monkeypatch.setattr(iw, "_min_scalar_level", certify)
        assert rec == cu.compute_fitting_ideal(229, 3, 2, N=N_want)

    @pytest.mark.parametrize(
        "ell, p, chi_order, chi_id, N, aux, stable, gens", [
            (2089, 3, 2, 1, 3, 24, 5, ("3+2*T+2*T^2", "27")),
            (13, 3, 2, 1, None, 4, 0, ("1",)),
            (7351, 7, 3, 2, None, 24, 5, ("T", "49")),
            (9337, 2, 3, 2, 3, 24, 5, ("2+z*T+z*T^2", "8"))])
    def test_provenance(self, ell, p, chi_order, chi_id, N, aux, stable,
                        gens):
        # aux primes, stabilization count and generators of records
        rec = cu.compute_fitting_ideal(ell, p, chi_order, chi_id=chi_id, N=N)
        assert len(rec.aux_primes_used) == aux
        assert rec.stabilization_count == stable
        assert rec.generators == gens

    @pytest.mark.parametrize("ell, p, chi_order, chi_ids", [
        (2089, 3, 2, (1,)), (401, 5, 2, (1,)), (7351, 7, 3, (1, 2)),
        (7489, 2, 3, (1, 2)), (9337, 2, 3, (1, 2))])
    def test_records_pinned(self, ell, p, chi_order, chi_ids):
        want = [pin[4:] for pin in PINNED_RECORDS
                if pin[:3] == (ell, p, chi_order)]
        recs = cu.compute_fitting_ideals(ell, p, chi_order, chi_ids)
        assert [rec.chi_id for rec in recs] == list(chi_ids)
        assert [(rec.n, rec.N, rec.generators, rec.stabilization_count,
                 rec.aux_primes_used) for rec in recs] == want
        for rec in recs:
            assert rec.provenance == "computed"
            assert dict(rec.choices)["work_precision"] == rec.N + 2

    def test_batches_inside_the_ideal_run_no_echelon(self, monkeypatch):
        # a batch whose unit images all lie in I leaves I unchanged, so only
        # the batches that grew I echelon, plus extraction: the reduction
        # to precision N, the scalar's ideal and one growth per further
        # generator
        calls = []

        def counting(*args):
            calls.append(args)
            return howell_array(*args)

        monkeypatch.setattr(cu, "howell_array", counting)
        monkeypatch.setattr(iw, "howell_array", counting)
        rec = cu.compute_fitting_ideal(2089, 3, 2, N=3)
        grew = len(rec.aux_primes_used) // 4 - rec.stabilization_count
        assert len(calls) <= grew + 1 + len(rec.generators)

    def test_unit_ideal_runs_no_echelon(self, monkeypatch):
        # ell = 7 has gens=[1] in the shipped p = 7 table: its first batch
        # holds a lambda outside (p, T), which is decided mod p, so no
        # Howell form is computed at all
        calls = []

        def counting(*args):
            calls.append(args)
            return howell_array(*args)

        monkeypatch.setattr(cu, "howell_array", counting)
        monkeypatch.setattr(iw, "howell_array", counting)
        rec = cu.compute_fitting_ideal(7, 7, 3)
        assert calls == []
        assert (rec.generators, rec.stabilization_count) == (("1",), 0)
        assert len(rec.aux_primes_used) == 4

    @pytest.mark.parametrize("ell, p, chi_order, chi_ids", [
        (13, 3, 2, (1,)), (313, 7, 3, (1, 2)), (7681, 2, 3, (1, 2))])
    def test_lambdas_show_the_unit_ideal(self, monkeypatch, ell, p,
                                         chi_order, chi_ids):
        # once I has grown, a unit is read off the lambdas instead of
        # decided mod (p, T) from the orbit; with the orbit test switched
        # off, the first batch takes that path and gives the same records
        want = cu.compute_fitting_ideals(ell, p, chi_order, chi_ids)
        monkeypatch.setattr(cu._ChiProjector, "is_unit",
                            lambda self, *args: False)
        assert cu.compute_fitting_ideals(ell, p, chi_order, chi_ids) == want
        assert want[0].generators == ("1",)

    @pytest.mark.parametrize("ell", [313, 7351])
    def test_chi_ids_share_each_orbit(self, monkeypatch, ell):
        # one run for both cubic characters at p = 7 maps u through each
        # F_q once, and gives the records of two separate runs
        walked = []

        def counting(ell_, q, orbit):
            walked.append(q)
            return orbit_values(ell_, q, orbit)

        orbit_values = cu._orbit_values
        monkeypatch.setattr(cu, "_orbit_values", counting)
        recs = cu.compute_fitting_ideals(ell, 7, 3, (1, 2))
        assert len(walked) == len(set(walked))
        assert set(walked) == set().union(
            *(rec.aux_primes_used for rec in recs))
        monkeypatch.setattr(cu, "_orbit_values", orbit_values)
        assert recs == [cu.compute_fitting_ideal(ell, 7, 3, chi_id=cid)
                        for cid in (1, 2)]

    @pytest.mark.parametrize("ell, p, chi_order, chi_id", [
        (2089, 3, 2, 2), (2089, 3, 2, 0), (7489, 2, 3, 3), (313, 7, 3, 6)])
    def test_rejects_chi_id_not_prime_to_the_order(self, monkeypatch, ell, p,
                                                   chi_order, chi_id):
        # such a chi id names a character of smaller order (chi_id = 0 mod
        # the order: the trivial one); it fails before any aux prime is
        # drawn, also next to a valid chi id
        def no_stream(*args):
            raise AssertionError("an aux prime was drawn")

        monkeypatch.setattr(cu, "_aux_prime_stream", no_stream)
        with pytest.raises(ValueError, match="chi id"):
            cu.compute_fitting_ideal(ell, p, chi_order, chi_id=chi_id)
        with pytest.raises(ValueError, match="chi id"):
            cu.compute_fitting_ideals(ell, p, chi_order, (1, chi_id))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            cu.compute_fitting_ideal(15, 3, 2)

    def test_rejects_chi_order_sharing_p(self):
        with pytest.raises(ChiOrderNotCoprime):
            cu.compute_fitting_ideal(13, 3, 3)

    def test_rejects_chi_order_not_dividing(self):
        with pytest.raises(ValueError):
            cu.compute_fitting_ideal(13, 3, 5)

    def test_cross_check_small(self):
        # eigenspace order from the sampled ideal vs the 3-part of the
        # narrow class group computed from binary quadratic forms
        for ell in range(13, 600, 12):
            if not is_prime(ell):
                continue
            rec = cu.compute_fitting_ideal(ell, 3, 2)
            order = iw.eigenspace_class_order(rec.ring(), rec.ideal())
            part = 1
            for v in qf.p_part(qf.class_group(ell), 3):
                part *= v
            assert order == part, ell

    def test_choices_recorded(self):
        rec = cu.compute_fitting_ideal(229, 3, 2, N=3)
        keys = dict(rec.choices)
        assert "unit" in keys and "work_precision" in keys


class TestTowerExponent:
    def test_values(self):
        assert cu.tower_exponent(2089, 3) == 2
        assert cu.tower_exponent(7489, 2) == 5
        assert cu.tower_exponent(9337, 2) == 2
        assert cu.tower_exponent(13, 3) == 1

    def test_aux_prime_stream(self):
        qs = aux_primes(13, 3, 2, 5)
        assert qs == sorted(qs)
        for q in qs:
            assert is_prime(q) and (q - 1) % (13 * 9) == 0

    def test_aux_prime_stream_p2_sign(self):
        for q in aux_primes(13, 2, 3, 5):
            assert (q - 1) % (13 * 16) == 0


class TestTables:
    def test_roundtrip(self, tmp_path):
        rec = cu.compute_fitting_ideal(2089, 3, 2, N=3)
        path = tmp_path / "table.txt"
        cu.export_table([rec], path)
        back = cu.ingest_table(path)
        assert len(back) == 1
        got = back[0]
        assert got.provenance == "ingested"
        assert (got.ell, got.p, got.chi_order, got.n, got.N) == (2089, 3, 2, 2, 3)
        assert got.ideal() == rec.ideal()
        assert got.ideal().scalar_level == 3

    def test_ingest_example_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "# published ideals\n"
            "ell=2089 p=3 chi=2 n=2 prec=3 gens=[T-3,27]\n"
            "\n"
            "ell=9337 p=2 chi=3 n=2 prec=3 gens=[T+4-2*z,8]\n"
        )
        recs = cu.ingest_table(path)
        assert [r.ell for r in recs] == [2089, 9337]
        R = recs[0].ring()
        assert iw.eigenspace_class_order(R, recs[0].ideal()) == 3

    def test_ingest_level_zero_line(self, tmp_path):
        # n = 0 (7 does not divide (37-1)/2): T = omega_0 vanishes in R,
        # so T+1 generates the unit ideal
        path = tmp_path / "t.txt"
        path.write_text("ell=37 p=7 chi=3 n=0 prec=3 gens=[T+1,7]\n")
        (rec,) = cu.ingest_table(path)
        R = rec.ring()
        assert rec.ideal(R) == iw.ideal_make(R, ["1"])
        assert iw.eigenspace_class_order(R, rec.ideal(R)) == 1

    def test_ingest_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert cu.ingest_table(path) == []

    def test_parse_error_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ell=2089 p=3 chi=2 n=2 prec=3 gens=[T-3,27]\ngens=[T-3\n")
        with pytest.raises(ParseError) as exc:
            cu.ingest_table(path)
        assert exc.value.line == 2

    def test_parse_error_bad_element(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ell=2089 p=3 chi=2 n=2 prec=3 gens=[T-3, T**]\n")
        with pytest.raises(ParseError):
            cu.ingest_table(path)

    @pytest.mark.parametrize("line", [
        "ell=229 p=3 chi=2 n=0 prec=4 gens=[T,3]",
        "ell=1129 p=3 chi=2 n=2 prec=4 gens=[T,9]"], ids=["229n0", "1129n2"])
    def test_ingest_rejects_wrong_tower_exponent(self, tmp_path, line):
        # the shipped lines have n = 1: a line in another ring would change
        # the verdict (229: full with n = 1, none with n = 0)
        path = tmp_path / "bad.txt"
        path.write_text("ell=2089 p=3 chi=2 n=2 prec=5 gens=[T-3,27]\n"
                        + line + "\n")
        with pytest.raises(RingMismatch, match="line 2"):
            cu.ingest_table(path)

    def test_ring_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        # chi order shares a factor with p: no such ring
        path.write_text("ell=2089 p=3 chi=3 n=2 prec=3 gens=[T-3,27]\n")
        with pytest.raises(RingMismatch):
            cu.ingest_table(path)

    def test_cache_dir_env(self, monkeypatch):
        monkeypatch.setenv("CAPITULA_CACHE", "/tmp/somewhere")
        assert cu.cache_dir() == "/tmp/somewhere"
        monkeypatch.delenv("CAPITULA_CACHE")
        assert cu.cache_dir("fallback") == "fallback"
