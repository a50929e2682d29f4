"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction as F
from math import gcd

from circleinv.cyclotomic import RootConstraint, constrained_unity_sum
from circleinv.exact import Polynomial, RationalFunction
from circleinv.gorenstein import a_invariant_closed_form, analyze, stanley_test
from circleinv.hilbert import hilbert_series, oracle_coefficients
from circleinv.hironaka import (
    HironakaData,
    gamma_cm,
    hilb_from_hironaka,
    lambda_poly,
    phi,
    todd,
)
from circleinv.laurent import gamma0, gamma1, gamma2, gamma3
from circleinv.schur import (
    partial_schur,
    partial_schur_det,
    partial_schur_expansion,
)
from circleinv.weights import canonical_key, validate
from helpers import elementary_symmetric

ONE = Polynomial.one()


class _Criterion:
    def __init__(self, number: int, label: str, limit_seconds=None):
        self.number = number
        self.label = label
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        budget = f" (limit {self.limit}s)" if self.limit else ""
        print(f"ACCEPTANCE {self.number:2d} {status} {elapsed:8.2f}s{budget}  {self.label}")
        if exc_type is None and self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


def _canonical_family(max_abs, sizes):
    """Every stable weight multiset with entries in +-1..max_abs, one
    representative per a ~ -a orientation class (gcd multiples are kept as
    distinct entries; validation reduces them on the fly)."""
    values = [w for w in range(-max_abs, max_abs + 1) if w]
    seen = set()
    out = []
    for n in sizes:
        for combo in itertools.combinations_with_replacement(values, n):
            if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                continue
            key = min(tuple(sorted(combo)), tuple(sorted(-w for w in combo)))
            if key in seen:
                continue
            seen.add(key)
            out.append(validate(combo))
    return out


def test_criterion_01_four_weight_example():
    with _Criterion(1, "hilb/gamma/Stanley for (-1,-2,1,14)", 5.0):
        v = validate((-1, -2, 1, 14))
        f = hilbert_series(v)
        expected_numerator = Polynomial(
            {0: 1, 3: 1, 6: 1, 9: 2, 10: 1, 11: 1, 12: 2, 13: 1, 14: 1, 15: 1}
        )
        assert f.view_numerator() == expected_numerator
        assert f.factored_denominator == ((2, 1), (8, 1), (15, 1))
        g0, g1 = gamma0(v), gamma1(v)
        assert g0 == F(1, 20) and g1 == F(3, 40)
        assert 2 * g1 / g0 == 3
        assert not stanley_test(f)


def test_criterion_02_gorenstein_three_weight_example():
    with _Criterion(2, "(-3,1,3): Gorenstein with a-invariant -6", 1.0):
        report = analyze(validate((-3, 1, 3)), full=True)
        assert report.hilbert == RationalFunction.from_factored([1], {2: 1, 4: 1})
        assert report.classification == "Gorenstein"
        assert report.degree == -6


def test_criterion_03_two_weight_family():
    with _Criterion(3, "coprime pairs |a| <= 20: polynomial rings"):
        checked = 0
        for a1 in range(-20, 0):
            for a2 in range(1, 21):
                if gcd(a1, a2) != 1:
                    continue
                v = validate((a1, a2))
                span = a2 - a1
                assert hilbert_series(v) == RationalFunction.from_factored([1], {span: 1})
                report = analyze(v, full=True)
                assert report.stanley_holds and report.degree == a1 - a2
                checked += 1
        assert checked == sum(
            1 for a in range(1, 21) for b in range(1, 21) if gcd(a, b) == 1
        )


def test_criterion_04_k1_divisibility_family():
    with _Criterion(4, "k=1 vectors, weights <= 12, a1 | sum of positives", 30.0):
        checked = 0
        for a1 in range(-12, 0):
            for m in (1, 2, 3):
                for pos in itertools.combinations_with_replacement(range(1, 13), m):
                    if sum(pos) % a1 != 0:
                        continue
                    v = validate((a1,) + pos)
                    if v.k != 1:
                        continue
                    f = hilbert_series(v)
                    n = v.n
                    assert stanley_test(f), (a1, pos)
                    assert f.degree == sum(v.weights) // v.negatives[0] - n, (a1, pos)
                    checked += 1
        assert checked > 200


def test_criterion_05_counterexample_list():
    with _Criterion(5, "eight integer-ratio non-Gorenstein vectors", 30.0):
        for raw in [
            (-1, -2, 4, 8),
            (-1, -2, 5, 6),
            (-1, -3, 1, 27),
            (-1, -3, 2, 9),
            (-1, -3, 3, 9),
            (-1, -3, 4, 6),
            (-1, -3, 12, 23),
            (-1, -4, 2, 2),
        ]:
            report = analyze(validate(raw), full=True)
            assert report.ratio_is_integer, raw
            assert not report.stanley_holds, raw


def test_criterion_06a_large_weights_fast_path():
    with _Criterion(6, "(-501,500,503) closed-form ratio", 1.0):
        report = analyze(validate((-501, 500, 503)))
        assert abs(report.ratio_2g1_g0) == F(1003, 501) and not report.ratio_is_integer
        assert report.classification == "NotGorenstein"


def test_criterion_06b_large_weights_full_series():
    with _Criterion(6, "(-501,500,503) full series + 50-coefficient oracle", 900.0):
        v = validate((-501, 500, 503))
        f = hilbert_series(v, verify_depth=50)
        assert f.degree == -6
        # -2*gamma_1/gamma_0 - dim, the value a Gorenstein ring would need
        assert a_invariant_closed_form(v) == -F(1003, 501) - 2


def test_criterion_07_oracle_equivalence_sweep():
    with _Criterion(7, "oracle + gamma sweep over n <= 4, |weights| <= 6", 600.0):
        family = _canonical_family(6, (2, 3, 4))
        assert len(family) > 600  # the complete canonical family
        degenerate_seen = 0
        for v in family:
            f = hilbert_series(v)
            depth = max(2 * f.denominator.degree, 50)
            series = f.series_at_zero(depth)
            assert [int(c) for c in series] == oracle_coefficients(v, depth), v.weights
            expansion = f.laurent_at_one(4)
            assert expansion.pole_order == v.n - 1
            forms = (gamma0(v), gamma1(v), gamma2(v), gamma3(v))
            assert forms == expansion.coefficients, v.weights
            if not v.is_generic:
                degenerate_seen += 1
        assert degenerate_seen > 100
        print(f"    swept {len(family)} canonical vectors ({degenerate_seen} degenerate)")


def test_criterion_08_schur_route_agreement():
    with _Criterion(8, "three-route partial Schur agreement, 1000 points", 20.0):
        rng = random.Random(2024)
        combos = [(k, m) for k in range(1, 5) for m in range(1, 5)]
        points = 0
        while points < 1000:
            k, m = combos[points % len(combos)]
            u = rng.randint(-3, k + m - 2)
            xs, ys = [], []
            while len(set(xs)) != k:
                xs = [F(-rng.randint(1, 30), rng.randint(1, 3)) for _ in range(k)]
            while len(set(ys)) != m:
                ys = [F(rng.randint(1, 30), rng.randint(1, 3)) for _ in range(m)]
            value = partial_schur(u, xs, ys)
            det = partial_schur_det(u, xs, ys)
            exp = partial_schur_expansion(u, xs, ys)
            assert value == det == exp, (k, m, u)
            # homogeneity of degree (m-1)(k-1)+u under scaling
            c = F(rng.randint(2, 5), rng.randint(1, 3))
            deg = (m - 1) * (k - 1) + u
            factor = c**deg if deg >= 0 else F(1) / c ** (-deg)
            scaled = partial_schur(u, [c * x for x in xs], [c * y for y in ys])
            assert scaled == factor * value, (k, m, u)
            points += 1


def test_criterion_09_hironaka_identities():
    with _Criterion(9, "Hironaka gamma identity (200 sets) + closed forms"):
        rng = random.Random(77)
        for _ in range(200):
            d = rng.randint(1, 4)
            alphas = tuple(rng.randint(1, 8) for _ in range(d))
            betas = tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 5)))
            data = HironakaData(alphas, betas)
            expansion = hilb_from_hironaka(data).laurent_at_one(5)
            assert expansion.pole_order == d
            for ell in range(5):
                assert gamma_cm(ell, data) == expansion.coefficients[ell], data
        # low-order closed forms: td_0..td_4, lambda_1..lambda_4, phi_0..phi_3
        for _ in range(25):
            d = rng.randint(1, 5)
            alphas = tuple(rng.randint(1, 7) for _ in range(d))
            e = [elementary_symmetric(j, alphas) for j in range(5)]
            assert todd(0, alphas) == 1
            assert todd(1, alphas) == e[1] / 2
            assert todd(2, alphas) == (e[1] ** 2 + e[2]) / 12
            assert todd(3, alphas) == e[1] * e[2] / 24
            assert todd(4, alphas) == (
                -(e[1] ** 4)
                + 4 * e[1] ** 2 * e[2]
                + e[1] * e[3]
                + 3 * e[2] ** 2
                - e[4]
            ) / 720
        for k in range(-8, 9):
            assert lambda_poly(1, k) == F(k, 2)
            assert lambda_poly(2, k) == F(k * (3 * k + 5), 24)
            assert lambda_poly(3, k) == F(k * (k * k + 5 * k + 6), 48)
            assert lambda_poly(4, k) == F(
                k * (15 * k**3 + 150 * k**2 + 485 * k + 502), 5760
            )
        for _ in range(20):
            d = rng.randint(1, 4)
            alphas = tuple(rng.randint(1, 6) for _ in range(d))
            e1 = elementary_symmetric(1, alphas)
            e2 = elementary_symmetric(2, alphas)
            assert phi(0, alphas) == 1
            assert phi(1, alphas) == F(1, 2) * (e1 - d)
            assert phi(2, alphas) == F(1, 12) * (
                e2 + e1**2 - 3 * (d - 1) * e1 + F(d, 2) * (3 * d - 5)
            )
            assert phi(3, alphas) == F(1, 24) * (
                e2 * e1
                - (d - 2) * (e2 + e1**2)
                + F(d - 1, 2) * (3 * d - 8) * e1
                - F(d * (d - 2) * (d - 3), 2)
            )


def test_criterion_10_cyclotomic_layer():
    with _Criterion(10, "Gessel identity N <= 60 and primitive 6th root sum"):
        one_minus_x = Polynomial({0: 1, 1: -1})
        for n in range(1, 61):
            constraint = RootConstraint(n, frozenset({1}))
            assert constrained_unity_sum(ONE, one_minus_x, constraint) == F(n - 1, 2)
        constraint = RootConstraint(6, frozenset({2, 3}))
        den = Polynomial({0: 1, 1: -1, 5: -1, 6: 1})  # (1 - x)(1 - x^5)
        assert constrained_unity_sum(ONE, den, constraint) == 2
