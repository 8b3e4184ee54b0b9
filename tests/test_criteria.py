import json

import pytest

from capitula import criteria as cr
from capitula import cycunits as cu
from capitula import iwasawa as iw
from capitula import quadforms as qf
from capitula.errors import HypothesisNotMet, InsufficientData


def quad_verdict(ell, rec=None):
    rec = rec or cu.compute_fitting_ideal(ell, 3, 2)
    inv = tuple(qf.p_part(qf.class_group(ell), 3))
    return cr.classify(cr.quadratic_real_field(ell), 3,
                       class_invariants=inv, ideals=lambda: [rec.ideal()])


def cert_names(v):
    return [c[0] for c in v.certificates]


class TestRules:
    def test_potential_capitulation(self):
        assert cr.potential_capitulation(3, 229, 2)
        assert not cr.potential_capitulation(3, 257, 2)  # 257 = 5 mod 12
        assert cr.potential_capitulation(2, 163, 3)
        with pytest.raises(ValueError):
            cr.potential_capitulation(3, 229, 7)

    def test_lemma4_i(self):
        frag = cr.lemma4_i(3, 3, 3, 1, True)
        assert frag["kernel_order"] == 3
        assert frag["kernel_invariants"] == (3,)
        frag = cr.lemma4_i((2, 2), (2, 2), 2, 1, True)
        assert frag["kernel_invariants"] == (2, 2)
        frag = cr.lemma4_i((9,), (9,), 3, 1, True)
        assert frag["kernel_invariants"] == (3,)
        with pytest.raises(HypothesisNotMet):
            cr.lemma4_i(3, 9, 3, 1, True)
        with pytest.raises(HypothesisNotMet):
            cr.lemma4_i(3, 3, 3, 1, False)

    def test_lemma4_ii(self):
        assert cr.lemma4_ii(1, 2, 3)["kernel_order"] == 1
        assert cr.lemma4_ii(0, 1, 3)["kernel_order"] == 1
        with pytest.raises(HypothesisNotMet):
            cr.lemma4_ii(2, 2, 3)
        with pytest.raises(HypothesisNotMet):
            cr.lemma4_ii(1, 2, 2)

    def test_lemma4_iii(self):
        frag = cr.lemma4_iii(3, (3, 3))
        assert frag["capitulates_order"] == 3
        with pytest.raises(HypothesisNotMet):
            cr.lemma4_iii(2, (2, 2))
        with pytest.raises(HypothesisNotMet):
            cr.lemma4_iii(3, (9,))

    def test_imaginary_bound(self):
        frag = cr.imaginary_bound((4,))
        assert frag["status"] == "undetermined"
        assert frag["kernel_order"] == (1, 4)
        frag = cr.imaginary_bound((8,))
        assert frag["status"] == "undetermined"
        assert frag.get("non_capitulating")
        assert frag["kernel_order"] == (1, 4)
        frag = cr.imaginary_bound((2, 2))
        assert frag["status"] == "full"
        assert frag["kernel_order"] == 4

    def test_parity_obstruction(self):
        frag = cr.parity_obstruction(2, 27)
        assert frag["status"] == "none"
        assert cr.parity_obstruction(2, 4) is None
        assert cr.parity_obstruction(3, 27) is None


class TestClassifyQuadratic:
    def test_2089_no_capitulation(self):
        v = quad_verdict(2089)
        assert (v.status, v.kernel_order) == ("none", 1)
        assert "maximal_capitulation" not in cert_names(v)

    def test_4933_full(self):
        v = quad_verdict(4933)
        assert (v.status, v.kernel_order) == ("full", 3)
        assert "maximal_capitulation" in cert_names(v)
        assert "cor3_full" in cert_names(v)

    def test_7873_maximal_partial(self):
        v = quad_verdict(7873)
        assert (v.status, v.kernel_order) == ("partial", 3)
        assert v.kernel_invariants == (3,)
        assert "maximal_capitulation" in cert_names(v)

    def test_8761_maximal_partial(self):
        v = quad_verdict(8761)
        assert (v.status, v.kernel_order) == ("partial", 3)
        assert "maximal_capitulation" in cert_names(v)

    def test_114889_partial_not_maximal(self, fitting_114889):
        v = quad_verdict(114889, fitting_114889)
        assert (v.status, v.kernel_order) == ("partial", 3)
        assert v.kernel_invariants == (3,)
        assert "maximal_capitulation" not in cert_names(v)

    def test_no_potential(self):
        inv = tuple(qf.p_part(qf.class_group(257), 3))
        assert inv == (3,)
        v = cr.classify(cr.quadratic_real_field(257), 3, class_invariants=inv)
        assert v.status == "no-potential"
        assert v.kernel_order == 1

    def test_trivial_part(self):
        v = cr.classify(cr.quadratic_real_field(13), 3, class_invariants=())
        assert v.status == "none"
        assert cert_names(v) == ["trivial_class_part"]

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            cr.classify(cr.quadratic_real_field(229), 3)
        with pytest.raises(InsufficientData):
            cr.classify(cr.quadratic_real_field(229), 3, class_invariants=(3,))

    def test_lemma4_consistency_with_eigenspace(self):
        # primes where the first-layer class number certifies the exact
        # kernel: both routes must agree
        for ell in (229, 733, 1129, 1489):
            rec = cu.compute_fitting_ideal(ell, 3, 2)
            I = rec.ideal()
            hF = iw.eigenspace_class_order(I)
            hL = iw.level_class_order(I, 1)
            frag = cr.lemma4_i(
                tuple(qf.p_part(qf.class_group(ell), 3)), hL, 3, 1, True)
            assert frag["kernel_order"] == iw.capitulation_module(I).order


class TestIdealsOnDemand:
    # classify reads the Fitting ideals at most once, and only when no rule
    # decides: ell = 257 is no-potential, ell = 2089 needs its eigenspace
    @pytest.mark.parametrize("ell, class_part, reads", [
        (257, True, 0), (2089, True, 1), (2089, False, 1)])
    def test_ideals_read_at_most_once(self, ell, class_part, reads):
        read = []

        def ideals():
            read.append(ell)
            return [cu.compute_fitting_ideal(ell, 3, 2).ideal()]

        inv = tuple(qf.p_part(qf.class_group(ell), 3)) if class_part else None
        v = cr.classify(cr.quadratic_real_field(ell), 3,
                        class_invariants=inv, ideals=ideals)
        assert len(read) == reads
        assert v.status == ("no-potential" if ell == 257 else "none")


class TestClassifyDirectSum:
    # at p = 7 a cyclic cubic field's class part is the direct sum of its
    # chi- and chi^-1-eigenspaces: the kernels multiply, and
    # maximal_capitulation and cor3_full must hold on the whole sum
    @pytest.mark.parametrize("gens, want", [
        ((("T", "7"), ("T-7", "49")), ("partial", 7, (7,), False, False)),
        ((("T", "7"), ("T^2", "7")), ("full", 49, (7, 7), True, True)),
        ((("T", "49"), ("T", "7")), ("partial", 49, (7, 7), True, False)),
        ((("T", "49"), ("T-7", "49")), ("partial", 7, (7,), False, False)),
        ((("T-7", "49"), ("1",)), ("none", 1, (), False, False)),
        ((("T", "7"), ("1",)), ("full", 7, (7,), True, True)),
    ])
    def test_cubic_p7(self, gens, want):
        R = iw.ring_make(7, 1, 3, 3)
        ideals = [iw.ideal_make(R, list(g)) for g in gens]
        v = cr.classify(cr.cyclic_cubic_field(43), 7, ideals=lambda: ideals)
        names = cert_names(v)
        assert (v.status, v.kernel_order, v.kernel_invariants,
                "maximal_capitulation" in names, "cor3_full" in names) == want
        assert len(names) == len(set(names))
        part = sorted(d for I in ideals
                      for d in iw.eigenspace_class_invariants(I))
        assert dict(v.certificates)["eigenspace_class_part"] == (
            ("invariants", tuple(part)),)


class TestClassifyCubicAndImaginary:
    def test_163_parity_with_both_certificates(self):
        rec = cu.compute_fitting_ideal(163, 2, 3)
        v = cr.classify(cr.cyclic_cubic_field(163), 2,
                        ideals=lambda: [rec.ideal()])
        assert v.status == "none"
        names = cert_names(v)
        assert "potential_capitulation" in names
        assert "parity_obstruction" in names
        assert dict(v.certificates)["eigenspace_class_part"] == (
            ("invariants", (2, 2)),
        )

    def test_imaginary_genus_full(self):
        g = qf.class_group(-84)
        v = cr.classify(cr.quadratic_imaginary_field(-84), "all",
                        class_invariants=g.invariants)
        assert (v.status, v.kernel_order) == ("full", 4)

    def test_imaginary_fixture_minus_39(self):
        v = cr.classify(cr.quadratic_imaginary_field(-39), "all",
                        class_invariants=(4,))
        assert (v.status, v.kernel_order) == ("full", 4)
        assert "fixture" in cert_names(v)

    def test_imaginary_large_exponent_undetermined(self):
        v = cr.classify(cr.quadratic_imaginary_field(-95), "all",
                        class_invariants=(8,))
        assert v.status == "undetermined"
        assert v.kernel_order == (1, 4)

    def test_imaginary_trivial(self):
        v = cr.classify(cr.quadratic_imaginary_field(-3), "all",
                        class_invariants=())
        assert v.status == "none"


class TestVerdictSerialization:
    def test_json_key_order(self):
        v = cr.classify(cr.quadratic_real_field(257), 3, class_invariants=(3,))
        doc = v.to_json()
        assert list(json.loads(doc)) == [
            "field", "p", "status", "kernel", "certificates"]
        assert doc.index('"field"') < doc.index('"p"') < doc.index(
            '"status"') < doc.index('"kernel"') < doc.index('"certificates"')

    def test_json_interval_kernel(self):
        v = cr.classify(cr.quadratic_imaginary_field(-95), "all",
                        class_invariants=(8,))
        doc = json.loads(v.to_json())
        assert doc["kernel"]["order"] == [1, 4]
        assert doc["kernel"]["invariants"] is None

    def test_replay_determinism(self):
        a = quad_verdict(7873)
        b = quad_verdict(7873)
        assert a == b and a.to_json() == b.to_json()

    def test_monotonicity_of_information(self):
        # a rules-only verdict must not be weakened by adding a record
        inv = (3,)
        base = cr.classify(cr.quadratic_real_field(257), 3,
                           class_invariants=inv)
        rec = cu.compute_fitting_ideal(257, 3, 2)
        more = cr.classify(cr.quadratic_real_field(257), 3,
                           class_invariants=inv, ideals=lambda: [rec.ideal()])
        assert base.status == more.status == "no-potential"

    def test_kernel_divides_class_part(self):
        for ell in (2089, 4933, 7873, 8761):
            v = quad_verdict(ell)
            inv = tuple(qf.p_part(qf.class_group(ell), 3))
            order = 1
            for d in inv:
                order *= d
            assert order % v.kernel_order == 0
