import random
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from circleinv.cyclotomic import (
    RootConstraint,
    constrained_unity_sum,
    cyclotomic_poly,
    dedekind_6k,
    dedekind_sum,
    gessel_harmonic,
    invert_mod,
    pair_sum_12,
    pair_unity_sum,
    trace_sum,
    triple_sum_24,
    triple_unity_sum,
    weighted_sum_24,
    weighted_unity_sum,
)
from circleinv.errors import NonInvertibleDenominator
from circleinv.exact import Polynomial, _divisors
from circleinv.laurent import _reduced, _roots
from circleinv.weights import validate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import sweep_family  # noqa: E402

ONE = Polynomial.one()


def one_minus_x(e):
    return Polynomial({0: 1, e: -1})


def trace_route(a, b, c, roots, weighted=False):
    """The oracle: constrained_unity_sum of 1/((1-x^a)(1-x^b)(1-x^c)) (no
    third factor when c is None), or of x^a/((1-x^a)^2 (1-x^b)) when
    weighted, with exponents reduced mod the ambient order."""
    n = roots.ambient_order
    num, den = ONE, one_minus_x(a % n) * one_minus_x(b % n)
    if weighted:
        num, den = Polynomial.monomial(a % n), den * one_minus_x(a % n)
    elif c is not None:
        den = den * one_minus_x(c % n)
    return constrained_unity_sum(num, den, roots)


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
        # every nontrivial N-th root: the trace sums over the divisors e > 1
        # of N add up to the Dedekind-sum route
        rng = random.Random(4)
        for n in range(2, 41):
            units = [a for a in range(1, n) if gcd(a, n) == 1]
            a, b, c = (rng.choice(units) for _ in range(3))
            roots = RootConstraint(n, frozenset({1}))
            orders = _divisors(n)[1:]
            den = one_minus_x(a) * one_minus_x(b)
            assert pair_unity_sum(a, b, roots) == sum(trace_sum(ONE, den, e) for e in orders)
            weighted = sum(
                trace_sum(Polynomial.monomial(a), den * one_minus_x(a), e) for e in orders
            )
            assert weighted_unity_sum(a, roots) == weighted
            den = den * one_minus_x(c)
            assert triple_unity_sum(a, b, c, roots) == sum(trace_sum(ONE, den, e) for e in orders)

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
    """Field arithmetic of the trace oracle: residues modulo Phi_d."""

    def test_inverse_roundtrip(self):
        phi = cyclotomic_poly(12)
        elem = Polynomial({0: F(2), 1: F(1)})
        inv = invert_mod(elem, phi)
        assert (elem * inv).divmod(phi)[1] == Polynomial.one()

    def test_trace_of_one(self):
        assert trace_sum(ONE, ONE, 7) == 6


def sawtooth(x):
    return F(0) if x.denominator == 1 else x - (x.numerator // x.denominator) - F(1, 2)


class TestDedekindSum:
    def test_matches_sawtooth_definition(self):
        for k in range(1, 61):
            for h in range(k):
                if gcd(h, k) != 1:
                    continue
                expected = sum(sawtooth(F(r, k)) * sawtooth(F(h * r, k)) for r in range(k))
                assert dedekind_sum(h, k) == expected, (h, k)
                # the integer the gamma pass works with: 6k s(h, k)
                assert type(dedekind_6k(h, k)) is int
                assert dedekind_6k(h, k) == 6 * k * expected, (h, k)

    def test_symmetries(self):
        for k in range(1, 40):
            assert dedekind_sum(1, k) == F((k - 1) * (k - 2), 12 * k)
            for h in range(1, 3 * k):
                if gcd(h, k) == 1:
                    assert dedekind_sum(-h, k) == -dedekind_sum(h, k)
                    assert dedekind_sum(h + k, k) == dedekind_sum(h, k)


def constrained_sums(v):
    """(J, roots) for every pair and triple J of v with a nonempty remainder,
    the root sets the closed-form gammas sum over."""
    reduced = _reduced(v, 3)
    return [(J, _roots(reduced, J)) for J in reduced if len(J) > 1 and reduced[J][0]]


def assert_sums_match_trace_route(v, label):
    """Over every pair and triple of v: the sums exactly as the gamma pass
    calls them are ints equal to 12 (pair) or 24 (weighted, triple) times
    the trace route, and their rational wrappers equal the trace route."""
    ws = v.weights
    for J, roots in constrained_sums(v):
        a, b = ws[J[0]], ws[J[1]]
        if len(J) == 2:
            want = [
                trace_route(a, b, None, roots),
                trace_route(a, b, None, roots, True),
                trace_route(b, a, None, roots, True),
            ]
            scales = [12, 24, 24]
            scaled = [
                pair_sum_12(a, b, roots),
                weighted_sum_24(a, roots),
                weighted_sum_24(b, roots),
            ]
            rational = [
                pair_unity_sum(a, b, roots),
                weighted_unity_sum(a, roots),
                weighted_unity_sum(b, roots),
            ]
        else:
            c = ws[J[2]]
            want, scales = [trace_route(a, b, c, roots)], [24]
            scaled = [triple_sum_24(a, b, c, roots)]
            rational = [triple_unity_sum(a, b, c, roots)]
        assert all(type(x) is int for x in scaled), (label, J, scaled)
        assert scaled == [k * w for k, w in zip(scales, want)], (label, J)
        assert rational == want, (label, J)


class TestDedekindRoute:
    def test_random_vectors_match_trace_route(self):
        rng = random.Random(11)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 5)
            raw = [rng.choice([w for w in range(-12, 13) if w]) for _ in range(n)]
            if min(raw) > 0 or max(raw) < 0:
                continue
            assert_sums_match_trace_route(validate(raw), raw)
            checked += 1

    def test_gamma_sums_match_trace_route_on_sweep(self):
        # every pair and triple of the benchmark's sweep family
        for raw in sweep_family():
            assert_sums_match_trace_route(validate(raw), raw)
