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
    B = np.zeros((pn, pn), dtype=np.int64)
    for x in range(pn):
        for k in range(x + 1):
            B[x, k] = math.comb(x, k) % mod
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


class TestUnitImage:
    def test_bad_aux_prime(self):
        with pytest.raises(BadAuxPrime):
            cu.unit_image_mod_q(13, 11, 3, 2)

    def test_bad_aux_prime_sign_at_two(self):
        # q = 1 mod 13*4 but not mod 13*8: sign of units still visible
        q = 157  # 157 - 1 = 12*13, divisible by 13*4 but not 13*8
        assert (q - 1) % (13 * 4) == 0 and (q - 1) % (13 * 8) != 0
        with pytest.raises(BadAuxPrime):
            cu.unit_image_mod_q(13, q, 2, 2)

    def test_projection_int64_guard(self):
        # p^N = 2^30 and D = 1: the binomial expansion sums p^n products,
        # which fit in int64 for p^n = 4 and overflow it for p^n = 8
        R = iw.ring_make(2, 2, 1, 30)
        ones = np.ones(4, dtype=np.int64)
        # sigma^e -> (1+T)^e for the trivial character
        want = sum(((R.one() + R.T()) ** e for e in range(4)), R.zero())
        assert cu._ChiProjector(R, 4, 1)(ones) == want
        with pytest.raises(Overflow):
            cu._ChiProjector(iw.ring_make(2, 3, 1, 30), 8, 1)

    @pytest.mark.parametrize("ell, p, chi_order, chi_id", [
        (2857, 3, 2, 1), (257, 2, 3, 1), (7681, 2, 3, 2),
        (211, 7, 3, 1), (211, 7, 3, 2)])
    def test_projection_matches_entry_loop(self, ell, p, chi_order, chi_id):
        # the unit images of the first aux primes at the working precision
        n = cu.tower_exponent(ell, p)
        n_work = min(n + 5, cu._max_precision(p))
        R = iw.ring_make(p, n, chi_order, n_work)
        half = (ell - 1) // 2
        project = cu._ChiProjector(R, half, chi_id)
        for q in aux_primes(ell, p, n_work, 4):
            vec = cu.unit_image_mod_q(ell, q, p, n_work)
            assert project(vec) == projection_by_entries(R, vec, chi_id)

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
        n = cu.tower_exponent(ell, p)
        n_work = min(n + 5, cu._max_precision(p))
        R = iw.ring_make(p, n, chi_order, n_work)
        project = cu._ChiProjector(R, (ell - 1) // 2, chi_id)
        orbit = cu._orbit(ell)
        decided = []
        for q in aux_primes(ell, p, n_work, 8):
            _, d = cu._orbit_values(ell, q, orbit)
            lam = project(cu.unit_image_mod_q(ell, q, p, n_work))
            decided.append(project.is_unit(d, q))
            assert decided[-1] == bool((lam.arr[0] % p).any())
        assert any(decided) == unit

    @pytest.mark.parametrize("ell, p, count", [
        (2917, 3, 4), (2857, 3, 4), (211, 7, 4), (7351, 7, 1), (7681, 2, 4),
        (401, 5, 4)])
    def test_image_matches_dict(self, ell, p, count):
        # at the working precision; 2857 and 7681 read one dlog digit, the
        # others two
        n_work = min(cu.tower_exponent(ell, p) + 5, cu._max_precision(p))
        for q in aux_primes(ell, p, n_work, count):
            assert (cu.unit_image_mod_q(ell, q, p, n_work).tolist()
                    == unit_image_by_dict(ell, p, n_work, q))

    def test_image_is_deterministic(self):
        q = aux_primes(13, 3, 2, 1)[0]
        a = cu.unit_image_mod_q(13, q, 3, 2)
        b = cu.unit_image_mod_q(13, q, 3, 2)
        assert (a == b).all()


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
                            lambda self, d, q: False)
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
