import random
from fractions import Fraction as F
from math import gcd

import pytest

from circleinv.cyclotomic import (
    CyclotomicElement,
    RootConstraint,
    constrained_unity_sum,
    cyclotomic_poly,
    full_cycle_sum,
    gessel_harmonic,
    trace_sum,
)
from circleinv.errors import NonInvertibleDenominator
from circleinv.exact import Polynomial, _divisors

ONE = Polynomial.one()


def one_minus_x(e):
    return Polynomial({0: 1, e: -1})


class TestCyclotomicPoly:
    def test_small_values(self):
        assert cyclotomic_poly(1) == Polynomial({0: -1, 1: 1})
        assert cyclotomic_poly(4) == Polynomial({0: 1, 2: 1})
        assert cyclotomic_poly(6) == Polynomial({0: 1, 1: -1, 2: 1})

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert cyclotomic_poly(p) == Polynomial({i: 1 for i in range(p)})

    def test_twice_an_odd_prime(self):
        # Phi_2p(t) = Phi_p(-t)
        for p in (3, 5, 7, 11, 13, 97):
            assert cyclotomic_poly(2 * p) == Polynomial({i: (-1) ** i for i in range(p)})

    def test_divisor_product(self):
        for d in range(1, 61):
            product = Polynomial.one()
            for e in _divisors(d):
                product = product * cyclotomic_poly(e)
            assert product == Polynomial({0: -1, d: 1})


class TestTraceSum:
    def test_examples(self):
        assert trace_sum(ONE, one_minus_x(1), 4) == 1
        assert trace_sum(Polynomial.monomial(1), ONE, 6) == 1  # Moebius mu(6)
        assert trace_sum(ONE, ONE, 5) == 4  # phi(5)

    def test_results_are_rational(self):
        for d in (3, 8, 12):
            value = trace_sum(Polynomial.monomial(2), one_minus_x(1), d)
            assert isinstance(value, F)

    def test_invertible_even_power(self):
        # 1 - x^2 equals 2 at the primitive 4th roots
        assert trace_sum(ONE, one_minus_x(2), 4) == 1

    def test_non_invertible(self):
        # x^d = 1 on the primitive d-th roots, so 1 - x^d is not invertible
        with pytest.raises(NonInvertibleDenominator):
            trace_sum(ONE, one_minus_x(4), 4)
        with pytest.raises(NonInvertibleDenominator):
            trace_sum(ONE, one_minus_x(3), 3)



class TestConstrainedSum:
    def test_single_root(self):
        c = RootConstraint(2, frozenset({1}))
        assert constrained_unity_sum(ONE, one_minus_x(1), c) == F(1, 2)

    def test_primitive_sixth_roots(self):
        c = RootConstraint(6, frozenset({2, 3}))
        den = one_minus_x(1) * one_minus_x(5)
        assert constrained_unity_sum(ONE, den, c) == 2

    def test_gessel_identity(self):
        c = RootConstraint(12, frozenset({1}))
        assert constrained_unity_sum(ONE, one_minus_x(1), c) == F(11, 2)

    def test_excluded_must_divide(self):
        with pytest.raises(ValueError):
            RootConstraint(6, frozenset({4}))

    def test_full_cycle_decomposition(self):
        # no exclusions: sum over divisors of trace sums == fast path
        rng = random.Random(4)
        for n in range(1, 61):
            # F = x^2 / (2 - x): denominator invertible at every root of unity
            num = Polynomial.monomial(2 % max(n, 1))
            den = Polynomial({0: 2, 1: -1})
            total = constrained_unity_sum(num, den, RootConstraint(n, frozenset()))
            assert total == full_cycle_sum(num, den, n)
            assert total == sum(trace_sum(num, den, e) for e in _divisors(n))

    def test_galois_invariance(self):
        # replacing x by x^s for s coprime to N permutes the constrained set
        for n, excluded in ((12, {1}), (18, {2, 3}), (30, {5})):
            c = RootConstraint(n, frozenset(excluded))
            den = Polynomial({0: 3, 1: -1, 2: -1})
            base = constrained_unity_sum(ONE, den, c)
            for s in range(2, n):
                if gcd(s, n) != 1:
                    continue
                den_s = Polynomial({0: 3, s % n: -1, (2 * s) % n: -1})
                assert constrained_unity_sum(ONE, den_s, c) == base


class TestGesselHarmonic:
    def test_examples(self):
        assert gessel_harmonic(1) == 0
        assert gessel_harmonic(3) == 1
        assert gessel_harmonic(100) == F(99, 2)

    def test_cross_check_constrained(self):
        for n in range(1, 61):
            c = RootConstraint(n, frozenset({1}))
            assert gessel_harmonic(n) == constrained_unity_sum(ONE, one_minus_x(1), c)


class TestCyclotomicElement:
    def test_inverse_roundtrip(self):
        elem = CyclotomicElement("phi", 12, {0: F(2), 1: F(1)})
        inv = elem.inverse()
        assert (elem * inv).to_polynomial() == Polynomial.one()

    def test_full_cycle_reduction(self):
        elem = CyclotomicElement("full", 4, {5: F(1)})
        assert elem.rep == {1: F(1)}

    def test_trace_of_one(self):
        elem = CyclotomicElement("phi", 7, {0: F(1)})
        assert elem.trace() == 6
