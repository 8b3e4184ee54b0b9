import random
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capitula import arith
from capitula.cycunits import _max_precision
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

    def test_matches_sieve(self):
        assert [n for n in range(1 << 16)
                if arith.is_prime(n)] == arith._sieve_primes()


MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, bases):
    """Whether the odd n > 37 passes the strong test to every base."""
    r, d = 0, n - 1
    while d % 2 == 0:
        r, d = r + 1, d // 2
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestMillerRabinTiers:
    # the least strong pseudoprimes to the first 4, 6, 7 and 8, and 9
    # prime bases, with their factors: each passes the bases of the tier
    # below it, so a tier that takes fewer bases, or is used at its bound
    # itself, calls it prime
    @pytest.mark.parametrize("n, factors, bases", [
        (3215031751, (151, 751, 28351), 4),
        (3474749660383, (1303, 16927, 157543), 6),
        (341550071728321, (10670053, 32010157), 8),
        (3825123056546413051, (149491, 747451, 34233211), 9)])
    def test_rejects_least_strong_pseudoprimes(self, n, factors, bases):
        assert prod(factors) == n and min(factors) > 1
        assert strong_probable_prime(n, MR_BASES[:bases])
        assert not arith.is_prime(n)

    @pytest.mark.parametrize("lo, hi", [
        (41, 3215031751), (3215031751, 3474749660383),
        (3474749660383, 3825123056546413051),
        (3825123056546413051, 1 << 64), (1 << 64, 1 << 80)])
    def test_matches_all_twelve_bases(self, lo, hi):
        # random odd n of each tier, the odd n next to its ends and the next
        # primes after random starts, against the test with all 12 bases
        # after trial division by them
        rng = random.Random(lo)
        ns = [rng.randrange(lo, hi) | 1 for _ in range(400)]
        ns += [n for n in range(lo - 40, lo + 40) if n % 2 and n > 37]
        ns += [n for n in range(hi - 40, hi + 40) if n % 2]
        for _ in range(20):
            n = rng.randrange(lo, hi) | 1
            while not strong_probable_prime(n, MR_BASES):
                n += 2
            ns.append(n)
        for n in ns:
            want = (all(n % a for a in MR_BASES)
                    and strong_probable_prime(n, MR_BASES))
            assert arith.is_prime(n) == want, n


class TestMulmod:
    # on each side of the switch from the int64 product to Python ints
    # (3037000500), near 2^39 and above 2^47
    @pytest.mark.parametrize("q, dtype", [
        (3037000499, np.int64), (3037000500, np.int64),
        (3037000501, object),
        ((1 << 39) - 7, object), ((1 << 47) + 5, object)])
    def test_matches_python_ints(self, q, dtype):
        rng = random.Random(q)
        xs = [0, 1, q - 2, q - 1] + [rng.randrange(q) for _ in range(60)]
        got = arith.mulmod([[x] for x in xs], xs, q)
        assert got.dtype == dtype
        assert got.tolist() == [[x * y % q for y in xs] for x in xs]


def subgroup_generator(p, e):
    """The least prime q = 1 (mod p^e), a primitive root w mod q, and the
    generator w^((q-1)/p^e) of its order-p^e subgroup."""
    q = 1 + p**e
    while not arith.is_prime(q):
        q += p**e
    w = arith.primitive_root(q)
    return q, w, pow(w, (q - 1) // p**e, q)


class TestDiscreteLog:
    def test_example(self):
        # 5 has order 4 mod 13: 5^0, 5^1, 5^2, 5^3 = 1, 5, 12, 8
        assert arith.p_power_dlogs([1, 5, 12, 8], 5, 13, 2, 2) == [0, 1, 2, 3]

    def test_not_prime(self):
        # the dlog base is read off the least primitive root
        with pytest.raises(NotPrime):
            arith.primitive_root(8)

    def test_roundtrip(self):
        # e = 1, even e, odd e and e = _max_precision(p).  Three values
        # read two digits once p^e > 24; all p^e values (e <= 3) read one
        # (h = e), which at e = _max_precision(p) would need p^e / 8 values
        for p in (2, 3, 5, 7):
            for e in (1, 2, 3, _max_precision(p)):
                q, _, g = subgroup_generator(p, e)
                rng = random.Random(100 * p + e)
                batches = [[rng.randrange(p**e) for _ in range(3)]]
                if e <= 3:
                    batches.append(list(range(p**e)))
                for xs in batches:
                    ys = [pow(g, x, q) for x in xs]
                    got = arith.p_power_dlogs(ys, g, q, p, e)
                    assert got == xs, (p, e)
                    assert [pow(g, x, q) for x in got] == ys

    def test_dlog_mod_prime_power(self):
        # dlog_w(u) mod 2^5, for a primitive root w mod q = 7489
        q = 7489
        w = arith.primitive_root(q)
        g = pow(w, (q - 1) // 32, q)
        rng = random.Random(5)
        xs = [rng.randrange(q - 1) for _ in range(20)]
        ys = [pow(pow(w, x, q), (q - 1) // 32, q) for x in xs]
        assert arith.p_power_dlogs(ys, g, q, 2, 5) == [x % 32 for x in xs]

    def test_not_generator(self):
        # a value outside <g> raises in either regime, as does a g whose
        # order is not p^e; no number comes back
        for p, e in ((2, 3), (3, 2), (5, 2), (7, 10)):
            q, w, g = subgroup_generator(p, e)
            for values in ([w], [g] * min(p**e, 64) + [w]):
                with pytest.raises(NotAGenerator):
                    arith.p_power_dlogs(values, g, q, p, e)
            with pytest.raises(NotAGenerator):
                arith.p_power_dlogs([1], pow(g, p, q), q, p, e)
            with pytest.raises(NotAGenerator):
                arith.p_power_dlogs([1], w, q, p, e)


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


def kernel_by_enumeration(A, p, N):
    """{x : x A = 0 mod p^N} by brute force."""
    mod = p**N
    return {x for x in product(range(mod), repeat=A.shape[0])
            if not (np.array(x, dtype=np.int64) @ A % mod).any()}


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

    def test_howell_property(self):
        # for every column j, the rows with pivot column >= j span exactly
        # the elements of span(A) that vanish before column j
        rng = random.Random(17)
        for _ in range(90):
            p, N = rng.choice([(2, 2), (2, 3), (3, 2)])
            r, c = rng.randrange(1, 4), rng.randrange(1, 4)
            m = random_matrix(rng, r, c, p**N)
            sp = span(m, p, N)
            h, piv = arith.howell_array(m, p, N)
            for j in range(c + 1):
                tail = [h[row].tolist() for row, col, _ in piv if col >= j]
                want = {v for v in sp if not any(v[:j])}
                assert span(tail or [[0] * c], p, N) == want

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


class TestSmith:
    def test_int64_guard_at_boundary(self):
        # dim products below 2^60 sum below 2^63 for dim = 7, not for 8
        arith.check_int64_sums(2**30, 7)
        with pytest.raises(Overflow):
            arith.check_int64_sums(2**30, 8)
        # the elimination itself forms no such sums
        A = np.eye(8, dtype=np.int64)
        assert arith.smith_diagonalize(A, 2, 30) == [0] * 8

    def test_kernel(self):
        # the rows span all of {x : x A = 0}, not only a part of it
        cases = [(np.array([[2, 0], [0, 4], [1, 1]]), 2, 3)]
        rng = random.Random(27)
        for _ in range(60):
            p, N = rng.choice([(2, 2), (2, 3), (3, 2)])
            r, c = rng.randrange(1, 4), rng.randrange(0, 4)
            A = np.array(random_matrix(rng, r, c, p**N), dtype=np.int64)
            cases.append((A.reshape(r, c), p, N))
        for A, p, N in cases:
            r = A.shape[0]
            K = arith.left_kernel(A, p, N)
            assert K.shape[1] == r
            assert not (K @ A % p**N).any()
            got = span(K.tolist() or [[0] * r], p, N)
            assert got == kernel_by_enumeration(A, p, N)

    def test_kernel_empty(self):
        # no rows: the (0, 0) array; no columns: every x
        assert arith.left_kernel(np.zeros((0, 3)), 2, 3).shape == (0, 0)
        K = arith.left_kernel(np.zeros((2, 0)), 3, 2)
        assert span(K.tolist(), 3, 2) == set(product(range(9), repeat=2))

    def test_invariants_count_quotients(self):
        # with Q = (Z/p^N)^c / span A, |Q / p^k Q| = prod min(p^k, d) over
        # the invariants d, for each k; this fixes the invariants
        rng = random.Random(35)
        for _ in range(60):
            p, N = rng.choice([(2, 2), (2, 3), (3, 2), (5, 1)])
            r, c = rng.randrange(1, 4), rng.randrange(1, 4)
            m = random_matrix(rng, r, c, p**N)
            invs = arith.quotient_invariants(np.array(m), p, N)
            sp = span(m, p, N)
            for k in range(1, N + 1):
                image = {tuple(x % p**k for x in v) for v in sp}
                assert prod(min(p**k, d) for d in invs) == p**(k * c) // len(image)

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
