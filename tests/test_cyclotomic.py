import itertools
import random
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from circleinv.cyclotomic import (
    RootConstraint,
    _conjugate_product,
    _cycle,
    constrained_unity_sum,
    dedekind_6k,
    pair_sum_12,
    subgroup_weights,
    trace_sum,
    triple_sum_24,
    weighted_sum_24,
)
from circleinv.cli import _scan_candidates
from circleinv.errors import NonInvertibleDenominator
from circleinv.exact import (
    Polynomial,
    _divisors,
    _expand_view,
    _factor_exponents,
    _fold,
    _phi_divides_fold,
    _phi_factors,
)
from circleinv.laurent import _reduced, _roots
from circleinv.weights import validate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import engine_pool, sweep_family  # noqa: E402
from helpers import add, assert_round_trips, mul  # noqa: E402

ONE = Polynomial.one()


def one_minus_x(e):
    return Polynomial({0: 1, e: -1}).to_dense()


def poly(*factors):
    """The Polynomial of the product of dense lists."""
    return Polynomial(enumerate(mul(*factors)))


def trace_route(a, b, c, roots, weighted=False):
    """The oracle: constrained_unity_sum of 1/((1-x^a)(1-x^b)(1-x^c)) (no
    third factor when c is None), or of x^a/((1-x^a)^2 (1-x^b)) when
    weighted, with exponents reduced mod the ambient order."""
    n = roots.ambient_order
    num, den = ONE, [one_minus_x(a % n), one_minus_x(b % n)]
    if weighted:
        num, den = Polynomial({a % n: 1}), den + [one_minus_x(a % n)]
    elif c is not None:
        den.append(one_minus_x(c % n))
    return constrained_unity_sum(num, poly(*den), roots)


def cyclotomic(d):
    """Phi_d as the kernel expands it, Phi_1 = 1 - t."""
    return _expand_view(_factor_exponents({d: 1})).to_dense()


class TestCyclotomicPoly:
    def test_small_values(self):
        assert cyclotomic(1) == [1, -1]
        assert cyclotomic(4) == [1, 0, 1]
        assert cyclotomic(6) == [1, -1, 1]

    def test_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97):
            assert cyclotomic(p) == [1] * p

    def test_twice_an_odd_prime(self):
        # Phi_2p(t) = Phi_p(-t)
        for p in (3, 5, 7, 11, 13, 97):
            assert cyclotomic(2 * p) == [(-1) ** i for i in range(p)]

    def test_divisor_product(self):
        # 1 - t^d = prod_{e | d} Phi_e
        for d in range(1, 61):
            assert _factor_exponents(dict.fromkeys(_divisors(d), 1)) == {d: 1}
            assert poly(*map(cyclotomic, _divisors(d))) == Polynomial({0: 1, d: -1})


class TestTraceSum:
    def test_examples(self):
        assert trace_sum(ONE, poly(one_minus_x(1)), 4) == 1
        assert trace_sum(Polynomial({1: 1}), ONE, 6) == 1  # Moebius mu(6)
        assert trace_sum(ONE, ONE, 5) == 4  # phi(5)

    def test_results_are_rational(self):
        for d in (3, 8, 12):
            value = trace_sum(Polynomial({2: 1}), poly(one_minus_x(1)), d)
            assert isinstance(value, F)

    def test_invertible_even_power(self):
        # 1 - x^2 equals 2 at the primitive 4th roots
        assert trace_sum(ONE, poly(one_minus_x(2)), 4) == 1

    def test_non_invertible(self):
        # x^d = 1 on the primitive d-th roots, so 1 - x^d is not invertible
        with pytest.raises(NonInvertibleDenominator):
            trace_sum(ONE, poly(one_minus_x(4)), 4)
        with pytest.raises(NonInvertibleDenominator):
            trace_sum(ONE, poly(one_minus_x(3)), 3)



class TestConstrainedSum:
    def test_single_root(self):
        c = RootConstraint(2, frozenset({1}))
        assert constrained_unity_sum(ONE, poly(one_minus_x(1)), c) == F(1, 2)

    def test_primitive_sixth_roots(self):
        c = RootConstraint(6, frozenset({2, 3}))
        assert constrained_unity_sum(ONE, poly(one_minus_x(1), one_minus_x(5)), c) == 2

    def test_gessel_identity(self):
        c = RootConstraint(12, frozenset({1}))
        assert constrained_unity_sum(ONE, poly(one_minus_x(1)), c) == F(11, 2)

    def test_constraint_record(self):
        c = RootConstraint(6, frozenset({2, 3}))
        assert c.admissible_orders() == [6]
        assert_round_trips(c)

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
            roots = subgroup_weights(n, (1,))
            orders = _divisors(n)[1:]
            den = poly(one_minus_x(a), one_minus_x(b))
            assert pair_sum_12(a, b, roots) == 12 * sum(trace_sum(ONE, den, e) for e in orders)
            den = poly(one_minus_x(a), one_minus_x(b), one_minus_x(a))
            weighted = sum(trace_sum(Polynomial({a: 1}), den, e) for e in orders)
            assert weighted_sum_24(a, roots) == 24 * weighted
            den = poly(one_minus_x(a), one_minus_x(b), one_minus_x(c))
            assert triple_sum_24(a, b, c, roots) == 24 * sum(
                trace_sum(ONE, den, e) for e in orders
            )

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
    # the sum of 1/(1 - z) over the nontrivial n-th roots z is (n - 1)/2
    def test_examples(self):
        for n, expected in [(1, 0), (3, 1), (100, F(99, 2)), (360, F(359, 2))]:
            c = RootConstraint(n, frozenset({1}))
            assert constrained_unity_sum(ONE, poly(one_minus_x(1)), c) == expected

    def test_cross_check_constrained(self):
        for n in range(1, 61):
            c = RootConstraint(n, frozenset({1}))
            assert constrained_unity_sum(ONE, poly(one_minus_x(1)), c) == F(n - 1, 2)


class TestCyclotomicElement:
    """Field arithmetic of the trace oracle: residues modulo x^d - 1."""

    def test_inverse_roundtrip(self):
        # elem times the product of its other conjugates is its norm mod
        # Phi_d: N(2 + zeta_12) = Phi_12(-2) = 13, and Phi_12 divides
        # elem adj - 13, decided on its fold mod x^12 - 1
        for d, elem, norm in ((12, [2, 1], 13), (5, [1, -1], 5), (1, [3, 4], 7), (9, [1, 1, 1], 9)):
            elem = _cycle(Polynomial(enumerate(elem)), d)
            product = _fold(mul(elem, _conjugate_product(elem, d)), d)
            assert _phi_divides_fold(add(product, [-norm]), d), (d, elem)
            assert not _phi_divides_fold(add(product, [1 - norm]), d), (d, elem)

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
                # the integer the gamma pass works with: 6k s(h, k)
                assert type(dedekind_6k(h, k)) is int
                assert dedekind_6k(h, k) == 6 * k * expected, (h, k)

    def test_symmetries(self):
        # s(1, k) = (k - 1)(k - 2)/(12k); s(-h, k) = -s(h, k); period k in h
        for k in range(1, 40):
            assert 2 * dedekind_6k(1, k) == (k - 1) * (k - 2)
            for h in range(1, 3 * k):
                if gcd(h, k) == 1:
                    assert dedekind_6k(-h, k) == -dedekind_6k(h, k)
                    assert dedekind_6k(h + k, k) == dedekind_6k(h, k)


def constrained_sums(v):
    """(J, constraint, weights) for every pair and triple J of v with a
    nonempty remainder, the root sets the closed-form gammas sum over: the
    trace route's description of the set, z^{g_J} = 1 and z^{g_K} != 1 for
    each K that drops one index of J, and the walk's subgroup weights."""
    reduced = _reduced(v, 3)
    out = []
    for J in reduced:
        if len(J) > 1 and reduced[J][0]:
            excluded = frozenset(reduced[K][1] for K in itertools.combinations(J, len(J) - 1))
            out.append((J, RootConstraint(reduced[J][1], excluded), _roots(reduced, J)))
    return out


def assert_sums_match_trace_route(v, label):
    """Over every pair and triple of v: the sums exactly as the gamma pass
    calls them are ints equal to 12 (pair) or 24 (weighted, triple) times
    the trace route."""
    ws = v.weights
    for J, constraint, roots in constrained_sums(v):
        a, b = ws[J[0]], ws[J[1]]
        if len(J) == 2:
            want = [
                trace_route(a, b, None, constraint),
                trace_route(a, b, None, constraint, True),
                trace_route(b, a, None, constraint, True),
            ]
            scales = [12, 24, 24]
            scaled = [
                pair_sum_12(a, b, roots),
                weighted_sum_24(a, roots),
                weighted_sum_24(b, roots),
            ]
        else:
            c = ws[J[2]]
            want, scales = [trace_route(a, b, c, constraint)], [24]
            scaled = [triple_sum_24(a, b, c, roots)]
        assert all(type(x) is int for x in scaled), (label, J, scaled)
        assert scaled == [k * w for k, w in zip(scales, want)], (label, J)


def exact_order_weights(order, excluded):
    """The Moebius weight list of the root set, by exact order: each
    admissible order e contributes sum_{d | e} mu(e/d) F(d)."""
    weights = {}
    for e in RootConstraint(order, frozenset(excluded)).admissible_orders():
        for d, mu in _phi_factors(e):
            weights[d] = weights.get(d, 0) + mu
    return sorted((d, w) for d, w in weights.items() if w)


class TestSubgroupWeights:
    def test_examples(self):
        # z^6 = 1, z^2 != 1, z^3 != 1: F(6) - F(2) - F(3) + F(1)
        assert sorted(subgroup_weights(6, (2, 3))) == [(1, 1), (2, -1), (3, -1), (6, 1)]
        # a repeated exclusion counts once
        assert subgroup_weights(12, (4, 4)) == subgroup_weights(12, (4,)) == ((12, 1), (4, -1))
        assert subgroup_weights(5, ()) == ((5, 1),)
        assert subgroup_weights(5, (5,)) == ()

    def test_empty_remainder_has_no_root(self):
        for excluded in ((), (1,), (3, 3), (2, 3), (1, 2, 5)):
            assert subgroup_weights(0, excluded) == ()

    def test_order_one_has_no_root_once_anything_is_excluded(self):
        # z = 1 is the only root of order 1, and z^e = 1 for every e; the
        # gamma walk skips every J with g_J <= 1 on this
        for excluded in ((1,), (3, 3), (2, 3), (1, 2, 5), (0, 4)):
            assert subgroup_weights(1, excluded) == ()
            assert subgroup_weights(0, excluded) == ()
        assert subgroup_weights(1, ()) == ((1, 1),)

    def test_match_exact_order_mobius(self):
        # every pair and triple root set the walk builds over the benchmark
        # families: inclusion-exclusion over the excluded subgroups gives
        # exactly the exact-order Moebius list, since the subgroup
        # indicators of a cyclic group are linearly independent
        families = [sweep_family(), _scan_candidates(4, 8), engine_pool()]
        expected = {}
        checked = 0
        for raw in itertools.chain(*families):
            reduced = _reduced(validate(raw), 3)
            for J in reduced:
                if len(J) < 2:
                    continue
                order = reduced[J][1]
                excluded = tuple(reduced[K][1] for K in itertools.combinations(J, len(J) - 1))
                if not order:
                    assert _roots(reduced, J) == (), (raw, J)
                    continue
                key = order, frozenset(excluded)
                if key not in expected:
                    expected[key] = exact_order_weights(order, excluded)
                assert sorted(_roots(reduced, J)) == expected[key], (raw, J)
                checked += 1
        assert checked > 10000 and len(expected) > 100


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
