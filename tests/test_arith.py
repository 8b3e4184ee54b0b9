import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula import arith
from capitula.errors import NotAGenerator, NotPrime, Overflow


class TestFactor:
    def test_one(self):
        assert arith.factor(1).factors == ()

    def test_sixty(self):
        assert arith.factor(60).factors == ((2, 2), (3, 1), (5, 1))

    def test_prime(self):
        assert arith.factor(7489).factors == ((7489, 1),)

    @given(st.integers(min_value=1, max_value=10**5))
    def test_roundtrip_small(self, m):
        prod = 1
        for p, e in arith.factor(m).factors:
            assert arith.is_prime(p)
            prod *= p**e
        assert prod == m

    @given(st.integers(min_value=1, max_value=2**64))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_large(self, m):
        prod = 1
        last = 0
        for p, e in arith.factor(m).factors:
            assert arith.is_prime(p)
            assert p > last
            last = p
            prod *= p**e
        assert prod == m

    def test_squarefree_part(self):
        assert arith.squarefree_part(12) == 3
        assert arith.squarefree_part(-4) == -1
        assert arith.squarefree_part(360) == 10


class TestPrimality:
    def test_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for n in range(2, 50):
            assert arith.is_prime(n) == (n in primes)

    def test_carmichael(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not arith.is_prime(n)

    def test_fixture_conductors_prime(self):
        for n in (2089, 7489, 9337, 114889):
            assert arith.is_prime(n)


class TestDiscreteLog:
    def test_example(self):
        assert arith.discrete_log(7, 3, 6) == 3

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            arith.discrete_log(8, 3, 6)

    def test_not_generator(self):
        with pytest.raises(NotAGenerator):
            arith.discrete_log(7, 2, 6)  # 2 has order 3 mod 7

    def test_roundtrip(self):
        rng = random.Random(11)
        for q in (101, 1009, 7489, 65537):
            g = arith.primitive_root(q)
            for _ in range(25):
                e = rng.randrange(q - 1)
                assert arith.discrete_log(q, g, pow(g, e, q)) == e

    def test_dlog_mod_prime_power(self):
        # logarithm of u to base w, reduced mod p^e, for u in the image
        q = 7489  # q - 1 = 2^5 * 3 * 0x... ; 2^5 || q-1
        w = arith.primitive_root(q)
        rng = random.Random(5)
        for _ in range(20):
            e = rng.randrange(q - 1)
            t = arith.dlog_mod_prime_power(q, w, pow(w, e, q), 2, 5)
            assert t == e % 32

    def test_jacobi(self):
        assert arith.jacobi(2, 7) == 1
        assert arith.jacobi(3, 7) == -1
        assert arith.jacobi(7, 7) == 0
        # quadratic reciprocity spot check against Euler criterion
        for a in range(1, 30):
            for p in (11, 13, 101):
                euler = pow(a, (p - 1) // 2, p)
                expect = 0 if a % p == 0 else (1 if euler == 1 else -1)
                assert arith.jacobi(a, p) == expect


def random_matrix(rng, rows, cols, mod):
    return [[rng.randrange(mod) for _ in range(cols)] for _ in range(rows)]


def span(mat, p, N):
    """Brute-force row span over Z/p^N (matrices kept tiny)."""
    mod = p**N
    vecs = {tuple([0] * len(mat[0]))}
    for row in mat:
        new = set()
        for v in vecs:
            for k in range(mod):
                new.add(tuple((x + k * r) % mod for x, r in zip(v, row)))
        vecs = new
    return vecs


class TestHowell:
    def test_example(self):
        h, piv = arith.howell_array([[2], [3]], 2, 3)
        assert h.tolist() == [[1]]

    def test_fixed_point(self):
        h, piv = arith.howell_array([[4, 0], [0, 2]], 2, 3)
        assert h.tolist() == [[4, 0], [0, 2]]

    def test_span_preserved(self):
        rng = random.Random(3)
        for _ in range(40):
            p, N = rng.choice([(2, 2), (2, 3), (3, 2)])
            m = random_matrix(rng, rng.randrange(1, 4), 2, p**N)
            h, piv = arith.howell_array(m, p, N)
            assert span(m, p, N) == span(h.tolist() or [[0, 0]], p, N)

    def test_canonical(self):
        # equal spans => identical Howell forms
        rng = random.Random(7)
        for _ in range(30):
            p, N = rng.choice([(2, 3), (3, 2)])
            mod = p**N
            m = random_matrix(rng, 2, 2, mod)
            # random unimodular-ish row mix plus a redundant row
            m2 = [
                [(a + b) % mod for a, b in zip(m[0], m[1])],
                m[1],
                [(3 * a) % mod for a in m[0]],
                m[0],
            ]
            h1, _ = arith.howell_array(m, p, N)
            h2, _ = arith.howell_array(m2, p, N)
            if span(m, p, N) == span(m2, p, N):
                assert h1.tolist() == h2.tolist()

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(40):
            p, N = rng.choice([(2, 3), (3, 2), (5, 2)])
            m = random_matrix(rng, 3, 3, p**N)
            h, piv = arith.howell_array(m, p, N)
            h2, _ = arith.howell_array(h, p, N)
            assert h.tolist() == h2.tolist()

    def test_membership(self):
        rng = random.Random(13)
        for _ in range(40):
            p, N = rng.choice([(2, 3), (3, 2)])
            mod = p**N
            m = random_matrix(rng, 2, 2, mod)
            sp = span(m, p, N)
            h, piv = arith.howell_array(m, p, N)
            for _ in range(10):
                v = [rng.randrange(mod) for _ in range(2)]
                got = arith.howell_contains(h, piv, np.array(v), p, N)
                assert got == (tuple(v) in sp)

    def test_residue_matrix_roundtrip(self):
        m = arith.ResidueMatrix(2, 3, 2, 2, ((1, 2), (3, 4)))
        h = arith.howell_form(m)
        assert isinstance(h, arith.ResidueMatrix)
        assert h.p == 2 and h.N == 3


class TestSmith:
    def test_transforms(self):
        # U A = diag(p^a_i) V^-1 for an invertible V: row i of U A is p^a_i
        # times a row with a unit entry, and the later rows are zero
        rng = random.Random(21)
        for _ in range(40):
            p, N = rng.choice([(2, 3), (3, 3), (5, 2)])
            mod = p**N
            r, c = rng.randrange(1, 4), rng.randrange(1, 4)
            A = np.array(random_matrix(rng, r, c, mod))
            diag, U = arith.smith_diagonalize(A, p, N)
            UA = (U @ A) % mod
            for i, a in enumerate(diag):
                assert (UA[i] % p**a == 0).all()
                assert ((UA[i] // p**a) % p != 0).any()
            assert not UA[len(diag):].any()
            # U invertible: determinant a unit mod p
            assert round(np.linalg.det(U % mod)) % p != 0

    def test_int64_guard_at_boundary(self):
        # dim products below 2^60 sum below 2^63 for dim = 7, not for 8
        arith.check_int64_sums(2**30, 7)
        with pytest.raises(Overflow):
            arith.check_int64_sums(2**30, 8)
        # the elimination itself forms no such sums
        A = np.eye(8, dtype=np.int64)
        assert arith.smith_diagonalize(A, 2, 30, False) == ([0] * 8, None)

    def test_kernel(self):
        # left kernel rows annihilate A; kernel has the right size
        A = np.array([[2, 0], [0, 4], [1, 1]])
        K = arith.left_kernel(A, 2, 3)
        for row in K:
            assert (np.array(row) @ A % 8 == 0).all()

    def test_quotient_invariants(self):
        assert arith.quotient_invariants(np.array([[2, 0], [0, 4]]), 2, 3) == [2, 4]
        assert arith.quotient_invariants(np.array([[1, 0], [0, 1]]), 2, 3) == []
        assert arith.quotient_invariants(np.array([[0, 0]]), 3, 2) == [9, 9]

    def test_quotient_invariants_random(self):
        # |quotient| * |span| = |ambient module|
        rng = random.Random(33)
        for _ in range(25):
            p, N = rng.choice([(2, 2), (3, 2)])
            m = random_matrix(rng, 2, 2, p**N)
            invs = arith.quotient_invariants(np.array(m), p, N)
            size = 1
            for d in invs:
                size *= d
            assert size * len(span(m, p, N)) == (p**N) ** 2
