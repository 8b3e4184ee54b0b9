import cmath
from math import isqrt

import pytest

from capitula import fields as fl
from capitula.arith import is_prime, primitive_root
from capitula.errors import DegreeTooLarge, NotDividing, NotPrime


def numeric_period_polynomial(ell, m):
    """Floating-point oracle: expand prod (x - eta_i) from numeric periods
    and round the coefficients."""
    g = primitive_root(ell)
    f = (ell - 1) // m
    zeta = [cmath.exp(2j * cmath.pi * k / ell) for k in range(ell)]
    etas = []
    for i in range(m):
        s = 0.0
        for j in range(f):
            s += zeta[pow(g, i + m * j, ell)]
        etas.append(s)
    coeffs = [1.0]
    for e in etas:
        coeffs = [0.0] + coeffs
        coeffs = [c - e * coeffs[k + 1] if k + 1 < len(coeffs) else c
                  for k, c in enumerate(coeffs)]
    out = []
    for c in coeffs:
        assert abs(c.imag) < 1e-6 and abs(c.real - round(c.real)) < 1e-6
        out.append(round(c.real))
    return tuple(out)


class TestPeriodPolynomial:
    def test_7_3(self):
        p = fl.period_polynomial(7, 3)
        # x^3 + x^2 - 2x - 1
        assert p.coefficients == (-1, -2, 1, 1)

    def test_5_2(self):
        assert fl.period_polynomial(5, 2).coefficients == (-1, 1, 1)

    def test_degree_one(self):
        assert fl.period_polynomial(7, 1).coefficients == (1, 1)

    def test_numeric_oracle(self):
        for ell, m in ((7, 3), (13, 3), (13, 4), (31, 5), (61, 6), (29, 7)):
            p = fl.period_polynomial(ell, m)
            assert p.coefficients == numeric_period_polynomial(ell, m)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            fl.period_polynomial(15, 2)

    def test_not_dividing(self):
        with pytest.raises(NotDividing):
            fl.period_polynomial(13, 5)

    def test_degree_too_large(self):
        with pytest.raises(DegreeTooLarge):
            fl.period_polynomial(103, 17)

    def test_monic_and_degree(self):
        for ell, m in ((13, 2), (13, 3), (13, 6), (31, 3), (163, 3)):
            p = fl.period_polynomial(ell, m)
            assert len(p.coefficients) == m + 1
            assert p.coefficients[-1] == 1

    def test_complete_splitting_mod_split_primes(self):
        # q = 1 mod ell splits completely in Q(zeta_ell), so the period
        # polynomial has m roots mod q
        ell, m = 13, 3
        p = fl.period_polynomial(ell, m)
        qs = [q for q in range(ell + 1, 3000, ell) if is_prime(q)][:5]
        assert len(qs) == 5
        for q in qs:
            roots = sum(1 for x in range(q)
                        if sum(c * pow(x, i, q)
                               for i, c in enumerate(p.coefficients)) % q == 0)
            assert roots == m

    def test_field_discriminant_supported_at_ell(self):
        for ell, m in ((7, 3), (13, 4), (31, 5), (163, 3)):
            d = abs(fl._discriminant(fl.period_polynomial(ell, m).coefficients))
            while d % ell == 0:
                d //= ell
            assert isqrt(d) ** 2 == d

    def test_conductor_163_cubic(self):
        assert fl.period_polynomial(163, 3).coefficients == (-169, -54, 1, 1)
