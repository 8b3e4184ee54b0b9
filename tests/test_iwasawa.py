import itertools
import math
import random

import numpy as np
import pytest

from capitula import iwasawa as iw
from capitula.arith import howell_array
from capitula.errors import ChiOrderNotCoprime, ParseError, PrecisionTooLow, \
    RingMismatch


def ring_ex1():
    return iw.ring_make(3, 2, 2, 3)


def ring_ex2():
    return iw.ring_make(2, 5, 3, 3)


def ring_ex3():
    return iw.ring_make(2, 2, 3, 3)


class TestRingMake:
    def test_example1_ring(self):
        R = ring_ex1()
        assert R.f == 1 and R.rank == 9 and R.mod == 27
        # chi quadratic: zeta = -1
        assert R.zeta() == R.scalar(-1)

    def test_example2_ring(self):
        R = ring_ex2()
        assert R.f == 2 and R.rank == 64 and R.mod == 8
        z = R.zeta()
        assert z * z * z == R.one()
        assert z * z + z + R.one() == R.zero()

    def test_chi_order_not_coprime(self):
        with pytest.raises(ChiOrderNotCoprime):
            iw.ring_make(3, 1, 3, 2)

    def test_omega_vanishes(self):
        for R in (ring_ex1(), ring_ex3(), iw.ring_make(5, 1, 2, 2)):
            one_plus_t = R.one() + R.T()
            assert one_plus_t**R.pn == R.one()
            assert R.T() * R.omega_over_t() == R.zero()

    def test_ring_shared(self):
        assert iw.ring_make(3, 2, 2, 3) is iw.ring_make(3, 2, 2, 3)

    def test_ring_arrays_read_only(self):
        R = ring_ex2()
        with pytest.raises(ValueError):
            R.zred[0] = 1
        with pytest.raises(ValueError):
            R.tred[1] = 0

    def test_binomials_built_on_first_use(self):
        # a fresh ring, not the shared one other tests may have used
        R = iw.EigenRing(3, 3, 2, 5)
        assert R._binomials is None
        B = R.binomials()
        assert B is R.binomials()
        assert B.shape == (28, 28)
        assert all(B[x, k] == math.comb(x, k) % 3**5
                   for x in range(28) for k in range(28))
        with pytest.raises(ValueError):
            B[1, 1] = 0

    def test_t_vanishes_at_level_zero(self):
        # omega_0 = T, so T = 0 in R when n = 0
        R = iw.ring_make(7, 0, 3, 3)
        assert R.T() == R.zero()
        assert iw.parse_element(R, "T+1") == R.one()

    def test_split_zeta(self):
        # p = 7 is 1 mod 3: zeta_3 lives in Z_7 itself
        R = iw.ring_make(7, 1, 3, 2)
        assert R.f == 1
        z = R.zeta()
        assert z * z * z == R.one()
        assert z != R.one()


class TestElementArithmetic:
    def test_ring_axioms_random(self):
        rng = random.Random(4)
        for R in (ring_ex3(), ring_ex1()):  # f = 2 and f = 1
            els = [
                R.from_vector([rng.randrange(R.mod) for _ in range(R.rank)])
                for _ in range(6)
            ]
            for a, b, c in itertools.combinations(els, 3):
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            ring_ex1().one() + ring_ex3().one()

    def test_mul_t_agrees_with_mul(self):
        rng = random.Random(5)
        for R in (ring_ex1(), ring_ex3()):
            for _ in range(10):
                v = R.from_vector([rng.randrange(R.mod) for _ in range(R.rank)])
                assert v.mul_t() == v * R.T()
                assert v.mul_zeta() == v * R.zeta()

    @pytest.mark.parametrize("params", [
        (7, 1, 3, 2), (3, 2, 2, 3), (2, 2, 3, 3), (2, 2, 1, 30)])
    def test_mul_matches_polynomial_product(self, params):
        # f = 1 (zeta = -1 and a split cube root of unity), f = 2, and
        # p^N = 2^30; random T-degrees reach the truncated walks and zero
        R = iw.ring_make(*params)
        rng = random.Random(sum(params))
        for _ in range(20):
            a, b = (random_element(R, rng, rng.randrange(R.pn + 1))
                    for _ in range(2))
            assert (a * b).arr.tolist() == polynomial_product(R, a, b)

    def test_pow_counts_products(self, monkeypatch):
        # square and multiply: one product per set bit of e, and one
        # squaring per bit below the top one
        R = ring_ex3()
        mul = iw.RingElement.__mul__
        count = 0

        def counted(a, b):
            nonlocal count
            count += 1
            return mul(a, b)

        monkeypatch.setattr(iw.RingElement, "__mul__", counted)
        want = R.one()
        for e in range(1, 10):
            want = want.mul_t()
            count = 0
            assert R.T() ** e == want
            assert count == bin(e).count("1") + e.bit_length() - 1


def random_element(R, rng, degree):
    """A random element whose T-rows at and above degree are zero."""
    arr = np.zeros((R.pn, R.f), dtype=np.int64)
    for j in range(degree):
        arr[j] = [rng.randrange(R.mod) for _ in range(R.f)]
    return R.from_vector(arr.reshape(-1))


def polynomial_product(R, a, b):
    """a*b from the definition: the product of sum a[j, i] x^i T^j and b
    as Python-int polynomials in x and T, reduced by the monic g in x and
    by omega_n(T) = (1+T)^(p^n) - 1 in T, mod p^N."""
    f, pn = R.f, R.pn
    c = [[0] * (2 * f - 1) for _ in range(2 * pn - 1)]
    for (j, i), u in np.ndenumerate(a.arr):
        for (k, h), v in np.ndenumerate(b.arr):
            c[j + k][i + h] += int(u) * int(v)
    for row in c:
        for d in range(2 * f - 2, f - 1, -1):  # x^f = -sum g[i] x^i
            for i in range(f):
                row[d - f + i] -= row[d] * R.g[i]
    omega = [math.comb(pn, k) for k in range(pn)]  # (1+T)^(p^n) - T^(p^n)
    omega[0] = 0
    for d in range(2 * pn - 2, pn - 1, -1):  # T^(p^n) = -sum omega[k] T^k
        for k in range(1, pn):
            for i in range(f):
                c[d - pn + k][i] -= c[d][i] * omega[k]
    return [[x % R.mod for x in row[:f]] for row in c[:pn]]


class TestGrammar:
    def test_parse_examples(self):
        R = ring_ex2()
        e = iw.parse_element(R, "T+2+4*z")
        assert e == R.T() + R.scalar(2) + R.zeta().scale(4)
        e3 = iw.parse_element(ring_ex3(), "T+4-2*z")
        R3 = ring_ex3()
        assert e3 == R3.T() + R3.scalar(4) - R3.zeta().scale(2)

    def test_parse_powers_and_products(self):
        R = ring_ex3()
        assert iw.parse_element(R, "T^2") == R.T() * R.T()
        assert iw.parse_element(R, "3*z*T") == R.zeta().scale(3) * R.T()
        assert iw.parse_element(R, "(1+T)^2") == (R.one() + R.T()) ** 2
        assert iw.parse_element(R, "-T+1") == R.one() - R.T()

    def test_parse_errors(self):
        R = ring_ex3()
        for bad in ("", "T+", "T^z", "((T)", "T~3"):
            with pytest.raises(ParseError):
                iw.parse_element(R, bad)

    def test_render_roundtrip(self):
        rng = random.Random(7)
        for R in (ring_ex1(), ring_ex3()):
            for _ in range(25):
                v = R.from_vector([rng.randrange(R.mod) for _ in range(R.rank)])
                assert iw.parse_element(R, iw.render_element(v)) == v
        assert iw.render_element(ring_ex1().zero()) == "0"


def brute_ideal_span(R, gens):
    """Additive closure of {g * zeta^i * T^j} — the full ideal as a set."""
    rows = []
    for g in gens:
        rows.extend(tuple(int(x) for x in r) for r in iw._orbit_rows(g))
    zero = tuple([0] * R.rank)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for r in rows:
                w = tuple((a + b) % R.mod for a, b in zip(v, r))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def small_rings():
    """Rings small enough to enumerate; the first four have n > 0, the last
    two n = 0, where T = omega_0 = 0."""
    return [iw.ring_make(2, 1, 1, 2), iw.ring_make(2, 2, 1, 2),
            iw.ring_make(3, 1, 1, 2), iw.ring_make(2, 1, 3, 2),
            iw.ring_make(7, 0, 3, 2), iw.ring_make(2, 0, 3, 2)]


def random_gens(R, rng, k=2):
    return [R.from_vector([rng.randrange(R.mod) for _ in range(R.rank)])
            for _ in range(k)]


def brute_t_kernel(R, span):
    """{f : Tf in span}, by running over every element of R."""
    return {v for v in itertools.product(range(R.mod), repeat=R.rank)
            if tuple(R.from_vector(v).mul_t().flat()) in span}


def assert_invariants_by_torsion(R, cm, kernel, span_w):
    """The orders |(K/W)[p^k]| = prod gcd(d, p^k) fix the invariants d."""
    for k in range(1, R.N + 1):
        pk = R.p**k
        torsion = sum(1 for v in kernel
                      if tuple(pk * x % R.mod for x in v) in span_w)
        assert torsion // len(span_w) == math.prod(
            math.gcd(d, pk) for d in cm.invariants)


class TestIdealBruteForce:
    """Exhaustive oracles on rings small enough to enumerate fully."""

    def test_membership_matches_enumeration(self):
        rng = random.Random(11)
        for R in small_rings():
            for _ in range(4):
                gens = random_gens(R, rng) + [R.scalar(R.p)]
                I = iw.ideal_make(R, gens)
                span = brute_ideal_span(R, gens)
                for _ in range(30):
                    v = tuple(rng.randrange(R.mod) for _ in range(R.rank))
                    assert I.contains(R.from_vector(v)) == (v in span)

    def test_quotient_orders_match_enumeration(self):
        rng = random.Random(13)
        for R in small_rings():
            total = R.mod**R.rank
            for _ in range(4):
                gens = random_gens(R, rng) + [R.scalar(R.p)]
                I = iw.ideal_make(R, gens)
                span_it = brute_ideal_span(R, gens + [R.T()])
                assert iw.eigenspace_class_order(I) == total // len(span_it)

    def test_tkernel_and_module_match_enumeration(self):
        rng = random.Random(17)
        for R in small_rings():
            for _ in range(3):
                gens = random_gens(R, rng) + [R.scalar(R.p)]
                I = iw.ideal_make(R, gens)
                span = brute_ideal_span(R, gens)
                kernel = {
                    v
                    for v in map(
                        tuple,
                        itertools.product(range(R.mod), repeat=R.rank),
                    )
                    if tuple(R.from_vector(v).mul_t().flat()) in span
                }
                assert iw.t_kernel_order(I) == len(kernel) // len(span)
                span_w = brute_ideal_span(R, gens + [R.omega_over_t()])
                expected = len(kernel) // len(span_w)
                cm = iw.capitulation_module(I)
                assert cm.order == expected
                assert_invariants_by_torsion(R, cm, kernel, span_w)

    def test_module_invariants_on_proper_ideals(self):
        # generators in (p, T) keep the ideal proper, so that K/W is mostly
        # nontrivial; this sample meets (2), (3), (4) and (2, 2)
        rng = random.Random(45)
        for R in small_rings() + [iw.ring_make(2, 2, 1, 3)]:
            for _ in range(3):
                gens = [g.mul_t() + h.scale(R.p) for g, h in
                        zip(random_gens(R, rng), random_gens(R, rng))]
                gens.append(R.scalar(R.p ** (R.N - 1)))
                I = iw.ideal_make(R, gens)
                span = brute_ideal_span(R, gens)
                kernel = brute_t_kernel(R, span)
                span_w = brute_ideal_span(R, gens + [R.omega_over_t()])
                cm = iw.capitulation_module(I)
                assert cm.order == len(kernel) // len(span_w)
                assert iw.t_kernel_order(I) == len(kernel) // len(span)
                assert_invariants_by_torsion(R, cm, kernel, span_w)

    def test_duality_identity(self):
        # |{f : Tf in I}/I| = |R/(I+(T))| on random ideals
        rng = random.Random(19)
        count = 0
        while count < 200:
            R = small_rings()[rng.randrange(4)]
            gens = random_gens(R, rng, k=rng.randrange(1, 3))
            gens.append(R.scalar(R.p ** rng.randrange(R.N)))
            I = iw.ideal_make(R, gens)
            assert iw.t_kernel_order(I) == iw.eigenspace_class_order(I)
            count += 1

    def test_module_order_divides_class_order(self):
        rng = random.Random(23)
        for _ in range(60):
            R = small_rings()[rng.randrange(4)]
            gens = random_gens(R, rng) + [R.scalar(R.p)]
            I = iw.ideal_make(R, gens)
            h = iw.eigenspace_class_order(I)
            cm = iw.capitulation_module(I)
            assert h % cm.order == 0
            order = 1
            for d in cm.invariants:
                order *= d
            assert order == cm.order
            assert iw.maximal_capitulation(I) == (cm.order == h)

    def test_module_agrees_with_howell_forms(self):
        # capitulation_module builds the Howell forms of K and W only when
        # the orders leave K/W open; on a sample meeting K = W, K = Q with
        # W = 0, and neither, its invariants are those that K and W give
        rng = random.Random(53)
        seen = set()
        for R in small_rings() + [iw.ring_make(2, 1, 3, 4)]:
            p, N = R.p, R.N
            for _ in range(8):
                pk = p ** rng.randrange(1, N + 1)  # an int certifies p^N
                gens = rng.choice([
                    [pk],
                    [R.T(), pk],
                    [g.mul_t() + h.scale(p) for g, h in
                     zip(random_gens(R, rng), random_gens(R, rng))] + [pk],
                ])
                I = iw.ideal_make(R, gens)
                c, rel, on_q = iw._quotient(I)
                expected = ()
                if c:
                    K, _ = iw._t_kernel(R, c, rel, on_q)
                    W, _ = howell_array(
                        np.vstack([on_q(R.omega_over_t()), rel]), p, N)
                    expected = tuple(iw._relative_invariants(K, W, p, N))
                cm = iw.capitulation_module(I)
                assert cm.invariants == expected
                assert cm.order == math.prod(expected)
                seen.add("K = W" if cm.order == 1 else
                         "K = Q, W = 0" if I.contains(R.T())
                         and iw.maximal_capitulation(I) else "open")
        assert seen == {"K = W", "K = Q, W = 0", "open"}


class TestIdealMake:
    def test_unit_ideal(self):
        for R in (ring_ex1(), ring_ex3()):
            I = iw.ideal_make(R, ["1"])
            assert iw.eigenspace_class_order(I) == 1
            assert iw.maximal_capitulation(I)
            assert I.scalar_level == 0

    def test_canonical_under_shuffle(self):
        rng = random.Random(29)
        R = ring_ex3()
        gens = ["T+4-2*z", "8", "2*T^2", "z+1"]
        ref = iw.ideal_make(R, gens)
        for _ in range(10):
            sh = gens[:]
            rng.shuffle(sh)
            assert iw.ideal_make(R, sh) == ref

    def test_precision_too_low(self):
        R = ring_ex1()
        bare = iw.ideal_make(R, ["T-3"])  # no certified p-power scalar
        assert bare.scalar_level is None
        for op in (iw.eigenspace_class_order, iw.maximal_capitulation,
                   iw.capitulation_module):
            with pytest.raises(PrecisionTooLow):
                op(bare)
        with pytest.raises(PrecisionTooLow):
            iw.level_class_order(bare, 0)

    def test_scalar_certification_from_howell(self):
        # a visible p-power scalar row certifies precision without a literal
        R = iw.ring_make(3, 1, 1, 2)
        I = iw.ideal_make(R, [R.scalar(3), R.T()])
        assert I.scalar_level == 1

    def test_grow_matches_ideal_make(self):
        # growing an ideal by a few generators at a time gives the ideal of
        # all of them, Howell form and certified scalar level alike; the
        # integer generator p^k certifies its level even when p^k = 0
        rng = random.Random(37)
        for R in small_rings():
            for _ in range(6):
                gens = random_gens(R, rng, k=3)
                gens.insert(rng.randrange(4), R.p ** rng.randrange(R.N + 1))
                cut = rng.randrange(1, len(gens))
                I = iw.ideal_make(R, gens[:cut])
                for g in gens[cut:]:
                    I = I.grow([g])
                J = iw.ideal_make(R, gens)
                assert np.array_equal(I.howell, J.howell)
                assert I.pivots == J.pivots
                assert I.scalar_level == J.scalar_level

    def test_closure_under_t_and_zeta(self):
        rng = random.Random(31)
        for R in (ring_ex1(), ring_ex3()):
            I = iw.ideal_make(R, random_gens(R, rng) + [R.scalar(R.p)])
            for r, c, k in I.pivots:
                v = R.from_vector(I.howell[r])
                assert I.contains(v.mul_t())
                assert I.contains(v.mul_zeta())


class TestWorkedExamples:
    def test_example1(self):
        R = ring_ex1()
        I = iw.ideal_make(R, ["T-3", "27"])
        assert iw.eigenspace_class_order(I) == 3
        assert iw.capitulation_module(I).order == 1
        assert not iw.maximal_capitulation(I)
        # omega_2(T)/T is congruent to omega_2(3)/3 = (4^9-1)/3 mod I
        assert I.reduce(R.omega_over_t()) == I.reduce(R.scalar((4**9 - 1) // 3))
        assert not I.contains(R.omega_over_t())
        assert iw.t_kernel_order(I) == 3

    def test_example2(self):
        R = ring_ex2()
        I = iw.ideal_make(R, ["T+2+4*z", "8"])
        assert iw.eigenspace_class_order(I) == 4
        assert iw.maximal_capitulation(I)
        assert I.contains(R.omega_over_t())
        cm = iw.capitulation_module(I)
        assert cm.order == 4

    def test_example3(self):
        R = ring_ex3()
        I = iw.ideal_make(R, ["T+4-2*z", "8"])
        assert iw.eigenspace_class_order(I) == 4
        assert not iw.maximal_capitulation(I)
        assert iw.capitulation_module(I).order == 1
        # residue of omega_2(T)/T is 4*conj(z) in this embedding; with the
        # conjugate generator it is literally 4z
        conj = iw.ideal_make(R, ["T+6+2*z", "8"])
        assert conj.reduce(R.omega_over_t()) == conj.reduce(R.zeta().scale(4))
        zbar = -(R.one() + R.zeta())  # the other cube root of unity
        assert I.reduce(R.omega_over_t()) == I.reduce(zbar.scale(4))

    def test_kernel_beyond_enumeration(self):
        # |K/I| = 2^23: far too many elements to list one by one
        R = iw.ring_make(2, 1, 1, 30)
        I = iw.ideal_make(R, [2**23])
        assert iw.t_kernel_order(I) == iw.eigenspace_class_order(I) \
            == 2**23
        assert iw.capitulation_module(I).order == 1

    def test_large_modulus_is_exact(self):
        # p^N = 2^30 on rings of rank 8 and 32, where a rank-sized sum of
        # products of residues would overflow int64: the quotient is read
        # off the Howell form, and no such product is formed
        for n in (3, 5):
            R = iw.ring_make(2, n, 1, 30)
            I = iw.ideal_make(R, [2**5])
            assert iw.t_kernel_order(I) == iw.eigenspace_class_order(I) \
                == 2**5

    def test_example3_index_16(self):
        # {f : Tf in I} has index 16 in R: |R/I| = 64 and |K| = 4
        R = ring_ex3()
        I = iw.ideal_make(R, ["T+4-2*z", "8"])
        from capitula.arith import quotient_invariants
        total = 1
        for d in quotient_invariants(I.howell, 2, 3):
            total *= d
        assert total == 64
        assert iw.t_kernel_order(I) == 4


class TestLevelClassOrder:
    def test_m0_matches_eigenspace(self):
        rng = random.Random(37)
        for R in small_rings():
            for _ in range(5):
                I = iw.ideal_make(R, random_gens(R, rng) + [R.scalar(R.p)])
                assert iw.level_class_order(I, 0) == iw.eigenspace_class_order(I)

    def test_mn_gives_full_quotient(self):
        R = ring_ex1()
        I = iw.ideal_make(R, ["T-3", "27"])
        from capitula.arith import quotient_invariants
        total = 1
        for d in quotient_invariants(I.howell, 3, 3):
            total *= d
        assert iw.level_class_order(I, R.n) == total == 27

    def test_example1_level1(self):
        # I = (T-3, 27) is T-principal, so evaluation T -> 3 identifies
        # R/(I + (omega_1)) with Z/27 modulo omega_1(3) = 4^3-1 = 63; gcd
        # with 27 is 9
        R = ring_ex1()
        I = iw.ideal_make(R, ["T-3", "27"])
        assert iw.level_class_order(I, 1) == 9

    def test_level1_brute_force_small(self):
        # exhaustive check on an enumerable analogue
        R = iw.ring_make(3, 1, 1, 2)
        gens = [R.T() - R.scalar(3), R.scalar(9)]
        I = iw.ideal_make(R, [gens[0], 9])
        span = brute_ideal_span(R, gens + [R.omega(1)])
        assert iw.level_class_order(I, 1) == R.mod**R.rank // len(span)

    def test_monotone_in_level(self):
        rng = random.Random(41)
        R = iw.ring_make(2, 2, 1, 2)
        for _ in range(10):
            I = iw.ideal_make(R, random_gens(R, rng) + [R.scalar(2)])
            orders = [iw.level_class_order(I, m) for m in range(R.n + 1)]
            for a, b in zip(orders, orders[1:]):
                assert b % a == 0
