import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula import quadforms as qf
from capitula.errors import NormMinusOne, NotFundamental, Overflow


def ambiguous_classes(d):
    """Brute force: one canonical representative per class of order
    dividing 2."""
    g = qf.class_group(d)
    ident = g.identity()
    return [x for x in g.elements if qf.compose(x, x) == ident]


# class numbers from standard tables
DEFINITE_H = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -19: 1, -20: 2, -23: 3,
    -24: 2, -31: 3, -39: 4, -40: 2, -43: 1, -47: 5, -52: 2, -55: 4,
    -56: 4, -67: 1, -68: 4, -71: 7, -79: 5, -83: 3, -84: 4, -87: 6,
    -88: 2, -95: 8, -104: 6, -163: 1,
}

# narrow (form) class numbers for real fields
INDEFINITE_H = {5: 1, 8: 1, 12: 2, 13: 1, 24: 2, 40: 2, 60: 4, 229: 3, 257: 3, 2089: 3}


def fundamental_discs(lo, hi):
    return [d for d in range(lo, hi) if qf.is_fundamental(d)]


class TestClassGroup:
    @pytest.mark.parametrize("d,h", sorted(DEFINITE_H.items()))
    def test_definite_class_numbers(self, d, h):
        assert qf.class_group(d).h == h

    @pytest.mark.parametrize("d,h", sorted(INDEFINITE_H.items()))
    def test_indefinite_class_numbers(self, d, h):
        assert qf.class_group(d).h == h

    def test_invariants_structure(self):
        assert qf.class_group(-39).invariants == (4,)
        assert qf.class_group(-84).invariants == (2, 2)
        assert qf.class_group(114889).invariants == (3, 3)
        assert qf.class_group(8761).invariants == (27,)

    def test_not_fundamental(self):
        for d in (0, 1, 9, 16, -12, 45, -27):
            with pytest.raises(NotFundamental):
                qf.class_group(d)

    def test_overflow(self):
        with pytest.raises(Overflow):
            qf.class_group(10**7 + 9)  # fundamental but over the bound

    def test_invariants_divide(self):
        for d in fundamental_discs(-200, -3):
            invs = qf.class_group(d).invariants
            for a, b in zip(invs, invs[1:]):
                assert b % a == 0

    def test_group_axioms_random(self):
        rng = random.Random(2)
        for d in (-95, -84, 60, 229):
            g = qf.class_group(d)
            els = g.elements
            for _ in range(15):
                x, y, z = (rng.choice(els) for _ in range(3))
                assert qf.compose(x, y) == qf.compose(y, x)
                assert qf.compose(qf.compose(x, y), z) == qf.compose(x, qf.compose(y, z))
                assert qf.compose(x, qf.canonical(x.inverse())) == g.identity()
                assert qf.compose(x, g.identity()) == x

    def test_composition_preserves_discriminant(self):
        g = qf.class_group(-95)
        for x in g.elements:
            for y in g.elements:
                assert qf.compose(x, y).discriminant == -95

    def test_p_part(self):
        g = qf.class_group(-84)
        assert qf.p_part(g, 2) == [2, 2]
        assert qf.p_part(g, 3) == []
        assert qf.p_part(qf.class_group(7873), 3) == [9]

    def test_ambiguous_count_genus_theory(self):
        # number of ambiguous classes is 2^(s-1), s = number of prime divisors of d
        for d in fundamental_discs(-300, -3):
            s = len(qf.prime_discriminant_factors(d))
            assert len(ambiguous_classes(d)) == 2 ** (s - 1)


class TestReduction:
    @given(
        st.integers(min_value=-400, max_value=-3),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_canonical_is_class_invariant(self, d, p, q, r, s):
        # an SL2(Z) change of variable must not change the canonical form
        if not qf.is_fundamental(d):
            return
        if p * s - q * r != 1:
            return
        g = qf.class_group(d)
        for f in g.elements[:3]:
            a2 = f.a * p * p + f.b * p * r + f.c * r * r
            b2 = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
            c2 = f.a * q * q + f.b * q * s + f.c * s * s
            assert qf.canonical(qf.BinaryQuadraticForm(a2, b2, c2)) == f

    def test_indefinite_cycle_closes(self):
        for d in (60, 229, 1093, 2089):
            g = qf.class_group(d)
            for f in g.elements:
                assert f == qf.canonical(f)


class TestFundamentalUnit:
    def test_known_units(self):
        assert qf.fundamental_unit(5) == qf.FundamentalUnit(5, 1, 1, -1)
        assert qf.fundamental_unit(8) == qf.FundamentalUnit(8, 2, 1, -1)
        assert qf.fundamental_unit(12) == qf.FundamentalUnit(12, 4, 1, 1)
        assert qf.fundamental_unit(13) == qf.FundamentalUnit(13, 3, 1, -1)
        assert qf.fundamental_unit(60) == qf.FundamentalUnit(60, 8, 1, 1)

    def test_unit_relation(self):
        for d in fundamental_discs(5, 500):
            u = qf.fundamental_unit(d)
            assert u.x * u.x - d * u.y * u.y == 4 * u.norm
            assert u.x > 0 and u.y > 0
            assert u.norm in (1, -1)

    def test_minimality(self):
        # no smaller unit: brute force over small y
        for d in fundamental_discs(5, 120):
            u = qf.fundamental_unit(d)
            for y in range(1, u.y):
                for n in (4, -4):
                    sq = d * y * y + n
                    if sq > 0:
                        x = isqrt(sq)
                        ok = x * x == sq and (d % 2 == x % 2 == y % 2 or (x % 2 == 0 and y % 2 == 0 and d % 4 == 0))
                        assert not (ok and x > 0), (d, x, y)

    def test_norm_minus_one_for_prime_1_mod_4(self):
        for d in (5, 13, 17, 29, 2089, 7873):
            assert qf.fundamental_unit(d).norm == -1

    def test_requires_positive(self):
        with pytest.raises(NotFundamental):
            qf.fundamental_unit(-7)


class TestLemma1:
    def test_example(self):
        u = qf.fundamental_unit(12)
        dec = qf.lemma1_decompose(u)
        assert (dec.r, dec.w) == (6, 1)

    def test_norm_minus_one_rejected(self):
        with pytest.raises(NormMinusOne):
            qf.lemma1_decompose(qf.fundamental_unit(5))

    def test_decomposition_properties(self):
        for d in fundamental_discs(5, 1200):
            u = qf.fundamental_unit(d)
            if u.norm != 1:
                continue
            dec = qf.lemma1_decompose(u)
            assert dec.r * dec.w * dec.w == u.x + 2
            assert (2 * d) % dec.r == 0
            assert isqrt(dec.r) ** 2 != dec.r
            q = 4 * d // dec.r
            assert isqrt(q) ** 2 != q


class TestVisibleClass:
    def test_example(self):
        cls, order = qf.visible_class(60, 12)
        assert order == 2
        assert cls == qf.canonical(qf.BinaryQuadraticForm(6, 6, -1))

    def test_class_squares_to_identity_factor(self):
        # the r-form squared is equivalent to a form coming from d1 alone,
        # so its square lies in the genus kernel; here we just check the
        # order divides the class number
        for d, d1 in ((60, 12), (120, 24), (235 * 4, 235 * 4 // 5)):
            try:
                cls, order = qf.visible_class(d, d1)
            except (NormMinusOne, NotFundamental):
                continue
            g = qf.class_group(d)
            assert g.h % order == 0
            assert cls in g.elements

    def test_rejects_norm_minus_one(self):
        with pytest.raises(NormMinusOne):
            qf.visible_class(40, 5)

    def test_rejects_non_divisor(self):
        with pytest.raises(NotFundamental):
            qf.visible_class(60, 7)


class TestSelmer:
    def test_prime_discriminant_factorization(self):
        assert qf.prime_discriminant_factors(-39) == [-3, 13]
        assert qf.prime_discriminant_factors(60) == [-3, -4, 5]
        assert qf.prime_discriminant_factors(-4) == [-4]
        for d in fundamental_discs(-150, 150):
            if not qf.is_fundamental(d):
                continue
            parts = qf.prime_discriminant_factors(d)
            prod = 1
            for q in parts:
                assert qf.is_fundamental(q)
                assert len(qf.prime_discriminant_factors(q)) == 1
                prod *= q
            assert prod == d
