import itertools
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from circleinv import exact, gorenstein
from circleinv.cli import _scan_candidates
from circleinv.errors import (
    InternalInvariantViolation,
    OracleMismatch,
    ValidationError,
    ZeroFunction,
)
from circleinv.exact import Polynomial, RationalFunction
from circleinv.gorenstein import (
    GorensteinReport,
    K1_DIVISIBILITY,
    N2_POLYNOMIAL,
    a_invariant_closed_form,
    analyze,
    gamma3_relation,
    k1_sufficient,
    stanley_test,
)
from circleinv.hilbert import hilbert_series
from circleinv.laurent import GammaVector, gammas
from circleinv.weights import canonical_key, validate
from helpers import elementary_symmetric, partial_schur_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import engine_pool, sweep_family  # noqa: E402

ONE = Polynomial.one()

COUNTEREXAMPLES = [
    (-1, -2, 4, 8),
    (-1, -2, 5, 6),
    (-1, -3, 1, 27),
    (-1, -3, 2, 9),
    (-1, -3, 3, 9),
    (-1, -3, 4, 6),
    (-1, -3, 12, 23),
    (-1, -4, 2, 2),
]


def from_view(num, view):
    return RationalFunction.from_factored(num, view)


def a_invariant_schur_form(v):
    """The paper's a-invariant in partial-Schur terms: the reduced-vector
    terms are read at the top admissible row exponent n-3 for the
    (n-1)-entry reduced vectors."""
    ws = v.weights
    n_ = v.n
    s2 = partial_schur_of(n_ - 2, ws)
    total = elementary_symmetric(1, ws) * partial_schur_of(n_ - 3, ws)
    for j in range(n_):
        seq_j = ws[:j] + ws[j + 1 :]
        g_j = gcd(*seq_j)
        if g_j == 1 or not seq_j:
            continue
        cofactor = F(1)
        if j < v.k:
            for q in v.positives:
                cofactor *= ws[j] - q
        else:
            for p in v.negatives:
                cofactor *= p - ws[j]
        total += (1 - g_j) * partial_schur_of(n_ - 3, seq_j) * cofactor
    return total / s2 - n_ - v.zero_count


class TestAInvariant:
    # the a-invariant is the degree of the series
    def test_examples(self):
        assert from_view(ONE, {5: 1}).degree == -5
        assert from_view(ONE, {2: 1, 4: 1}).degree == -6
        assert hilbert_series(validate((-1, -2, 1, 14))).degree == -10

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            RationalFunction.zero().degree


class TestStanley:
    def test_examples(self):
        assert stanley_test(from_view(ONE, {2: 1, 4: 1}))
        assert not stanley_test(hilbert_series(validate((-1, -2, 1, 14))))
        assert stanley_test(from_view(ONE, {5: 1}))

    def test_palindromic_numerator(self):
        f = from_view(Polynomial({0: 1, 1: 1, 2: 1}), {2: 1, 3: 1})
        assert stanley_test(f)
        g = from_view(Polynomial({0: 1, 1: 2}), {2: 1, 3: 1})
        assert not stanley_test(g)

    @pytest.mark.parametrize(
        "family",
        [
            lambda: _scan_candidates(4, 8),
            lambda: _scan_candidates(5, 4),
            # every sweep vector of n <= 3 with one and with two zero weights
            lambda: [raw + zeros for raw in sweep_family() if len(raw) <= 3 for zeros in ((0,), (0, 0))],
        ],
        ids=["4-8", "5-4", "zeros"],
    )
    def test_matches_product_identity(self, family):
        # second route for the verdict: the functional equation as the
        # polynomial identity rev(num)*den == (-1)^dim num*rev(den), at
        # the dimension n - 1 + zero_count, which is the series' pole
        # order at t = 1 (Hilbert-Serre), the fact stanley_test reads
        def rev(p):
            return Polynomial({p.degree - e: c for e, c in p.items()})

        verdicts = {True: 0, False: 0}
        for raw in family():
            v = validate(raw)
            f = hilbert_series(v)
            dim = v.n - 1 + v.zero_count
            assert f.phi_content[1] == dim, raw
            num, den = f.numerator, f.denominator
            expected = rev(num) * den == num * rev(den) * (-1) ** dim
            assert stanley_test(f) == expected, raw
            verdicts[expected] += 1
        assert verdicts[True] and verdicts[False]

    def test_reduction_never_cancels_phi_1(self, monkeypatch):
        # both engines build Phi_1 exactly n - 1 times, the pole order at
        # t = 1, so no reduction of the workload families cancels it
        cancel = exact._cancel_phi_content
        decided = []

        def recorded(num, phis, open_indices=None):
            out = cancel(num, phis, open_indices)
            decided.append(phis[1] - out[1][1])
            return out

        monkeypatch.setattr(exact, "_cancel_phi_content", recorded)
        for raw in [*sweep_family(), *engine_pool(), *_scan_candidates(4, 8)]:
            hilbert_series(validate(raw))
        assert len(decided) == 385 + 157 + 1475 and not any(decided)


class TestClosedFormAInvariant:
    def test_examples(self):
        assert a_invariant_closed_form(validate((-2, 3))) == -5
        assert a_invariant_closed_form(validate((-1, 2, 3))) == -7
        assert a_invariant_closed_form(validate((-3, 1, 3))) == -6

    def test_rederivation_of_schur_form(self):
        # the reduced-vector partial Schur terms must sit at top exponent
        # n-3; agreement with -2*gamma1/gamma0 - dim across a family pins
        # that reading down, and every third vector again with a zero
        # weight pins the zero_count shift
        values = [w for w in range(-6, 7) if w]
        seen = set()
        checked = zeros = 0
        for n in (2, 3, 4):
            for combo in itertools.combinations_with_replacement(values, n):
                if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                    continue
                v = validate(combo)
                key = canonical_key(v)
                if key in seen or checked > 300:
                    continue
                seen.add(key)
                family = [v, validate(combo + (0,))] if checked % 3 == 0 else [v]
                for u in family:
                    schur_form = a_invariant_schur_form(u)
                    assert schur_form == a_invariant_closed_form(u), (combo, u.zero_count)
                    # its total / s2 must stay exact: an int / int would be a float
                    assert type(schur_form) is F, combo
                zeros += len(family) - 1
                checked += 1
        assert checked >= 300 and zeros >= 100

    def test_three_weight_closed_form(self):
        # n=3 closed form ((a3-a1)gcd(a1,a2) + (a2-a1)gcd(a1,a3))/a1
        for a1, a2, a3 in [(-1, 2, 3), (-3, 1, 3), (-5, 2, 3), (-2, 1, 7)]:
            v = validate((a1, a2, a3))
            expect = F((a3 - a1) * gcd(a1, a2) + (a2 - a1) * gcd(a1, a3), a1)
            assert a_invariant_closed_form(v) == expect


class TestIntegerObstruction:
    # a non-integer ratio 2*gamma_1/gamma_0 proves NotGorenstein; the report
    # carries it, and a_invariant_closed_form is -ratio - dim
    def test_inconclusive_case(self):
        v = validate((-1, -2, 1, 14))
        report = analyze(v)
        assert report.ratio_2g1_g0 == 3 and report.ratio_is_integer
        assert a_invariant_closed_form(v) == -3 - report.dimension

    def test_large_vector_fast(self):
        report = analyze(validate((-501, 500, 503)))
        assert report.ratio_2g1_g0 == F(1003, 501) and not report.ratio_is_integer
        assert report.classification == "NotGorenstein" and report.hilbert is None

    def test_trivial(self):
        report = analyze(validate((-1, 1)))
        assert report.ratio_2g1_g0 == 1 and report.ratio_is_integer


class TestK1Sufficient:
    def test_examples(self):
        assert k1_sufficient(validate((-1, 2, 3)))
        assert not k1_sufficient(validate((-3, 1, 3)))
        assert not k1_sufficient(validate((-1, -2, 1, 14)))

    def test_soundness_small_family(self):
        # every k=1 vector with a1 | sum of positives passes Stanley with
        # degree (sum a)/a1 - n
        checked = 0
        for a1 in range(-9, 0):
            for m in (1, 2):
                for pos in itertools.combinations_with_replacement(range(1, 10), m):
                    raw = (a1,) + pos
                    v = validate(raw)
                    if v.k != 1 or not k1_sufficient(v):
                        continue
                    f = hilbert_series(v)
                    assert stanley_test(f), raw
                    assert f.degree == sum(v.weights) // v.negatives[0] - v.n, raw
                    checked += 1
        assert checked > 40

    def test_k1_a_invariant_reads_the_satisfying_orientation(self):
        # the a-invariant of the k = 1 criterion is read off the orientation
        # that satisfies it; for n = 2 both orientations have k = 1, and
        # (-a, 1) with a > 1 satisfies it only negated
        families = [sweep_family(), _scan_candidates(4, 8), _scan_candidates(5, 4)]
        families.append([(-a, 1) for a in range(1, 13)] + [(-1, b) for b in range(1, 13)])
        checked = negated = 0
        for raw in itertools.chain(*families):
            v = validate(raw)
            degree = gorenstein._k1_a_invariant(v)
            if degree is None:
                continue
            assert degree == hilbert_series(v).degree, raw
            checked += 1
            negated += not k1_sufficient(v)
        assert (checked, negated) == (494, 117)


class TestAnalyze:
    def test_four_weight_integer_ratio_counterexample(self):
        report = analyze(validate((-1, -2, 1, 14)), full=True)
        assert report.classification == "NotGorenstein"
        assert report.ratio_2g1_g0 == 3 and report.ratio_is_integer
        assert not report.stanley_holds
        assert report.degree == -10

    def test_closing_example(self):
        report = analyze(validate((-3, 1, 3)), full=True)
        assert report.classification == "Gorenstein"
        assert report.degree == -6
        assert report.hilbert == from_view(ONE, {2: 1, 4: 1})

    def test_integer_but_not_gorenstein(self):
        report = analyze(validate((-1, -2, 4, 8)), full=True)
        assert report.ratio_is_integer and not report.stanley_holds

    def test_counterexample_list(self):
        for raw in COUNTEREXAMPLES:
            report = analyze(validate(raw), full=True)
            assert report.ratio_is_integer, raw
            assert not report.stanley_holds, raw

    def test_short_circuits(self):
        r = analyze(validate((-2, 3)))
        assert N2_POLYNOMIAL in r.sufficient_condition_hits
        assert r.stanley_holds and r.degree == -5 and r.hilbert is not None

        r = analyze(validate((-1, 2, 3)))
        assert K1_DIVISIBILITY in r.sufficient_condition_hits
        assert r.stanley_holds and r.degree == -7 and r.hilbert is None

        r = analyze(validate((-501, 500, 503)))
        assert not r.stanley_holds and r.hilbert is None and r.degree is None

    def test_n2_series_is_checked_against_the_oracle(self, monkeypatch):
        from circleinv import hilbert

        def wrong_oracle(v, upto):
            return [2] * (upto + 1)

        monkeypatch.setattr(hilbert, "oracle_coefficients", wrong_oracle)
        analyze(validate((-2, 3)))  # no depth, no oracle
        with pytest.raises(OracleMismatch):
            analyze(validate((-2, 3)), verify_depth=50)

    def test_k1_verdict_is_checked_against_the_ratio(self, monkeypatch):
        # the k = 1 short-circuit settles the verdict without the series;
        # its a-invariant must still satisfy 2*gamma_1/gamma_0 = -a - dim
        true_degree = gorenstein._k1_a_invariant

        def off_by_one(v):
            degree = true_degree(v)
            return None if degree is None else degree - 1

        v = validate((-2, 1, 3))
        assert K1_DIVISIBILITY in analyze(v).sufficient_condition_hits
        monkeypatch.setattr(gorenstein, "_k1_a_invariant", off_by_one)
        with pytest.raises(InternalInvariantViolation):
            analyze(v)

    @pytest.mark.parametrize("raw", [(-2, 1, 3), (-501, 500, 503)])
    def test_short_circuit_refuses_a_bad_depth(self, raw):
        # a k = 1 hit and a non-integer ratio: neither computes the series
        v = validate(raw)
        assert analyze(v).hilbert is None
        with pytest.raises(ValidationError):
            analyze(v, verify_depth=-5)

    def test_k1_on_negated_orientation(self):
        r = analyze(validate((1, -2, -3)))
        assert K1_DIVISIBILITY in r.sufficient_condition_hits
        assert r.stanley_holds

    def test_full_agrees_with_short_circuit(self):
        for raw in [(-2, 3), (-1, 2, 3), (1, -2, -3)]:
            quick = analyze(validate(raw))
            full = analyze(validate(raw), full=True)
            assert quick.classification == full.classification
            if quick.degree is not None:
                assert quick.degree == full.degree

    def test_zero_weights(self):
        r = analyze(validate((-2, 3, 0)), full=True)
        assert r.dimension == 2
        assert r.degree == -6  # extra (1-t) factor shifts the degree
        assert r.stanley_holds

    def test_report_invariants(self):
        common = dict(
            weights=(-1, 1),
            zero_count=0,
            faithful_scale=1,
            dimension=1,
            degenerate=False,
            gamma0=F(1, 2),
            gamma1=F(1, 4),
        )
        # a non-integer ratio cannot be Gorenstein
        with pytest.raises(InternalInvariantViolation):
            GorensteinReport(ratio_2g1_g0=F(1, 2), stanley_holds=True, **common)
        # a sufficient condition cannot fire on a non-Gorenstein vector
        with pytest.raises(InternalInvariantViolation):
            GorensteinReport(
                ratio_2g1_g0=F(1), stanley_holds=False, sufficient_condition_hits=[N2_POLYNOMIAL], **common
            )
        # the verdict and the ratio's integrality are read off the stored facts
        report = GorensteinReport(
            ratio_2g1_g0=F(1), stanley_holds=True, sufficient_condition_hits=[N2_POLYNOMIAL], **common
        )
        assert report.classification == "Gorenstein" and report.ratio_is_integer is True
        report = GorensteinReport(ratio_2g1_g0=F(3, 2), stanley_holds=False, **common)
        assert report.classification == "NotGorenstein" and report.ratio_is_integer is False

    def test_gorenstein_consistency_family(self):
        # whenever Stanley holds: the ratio is an integer and matches
        # -degree - dim exactly
        values = [w for w in range(-4, 5) if w]
        seen = set()
        for n in (2, 3, 4):
            for combo in itertools.combinations_with_replacement(values, n):
                if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                    continue
                v = validate(combo)
                key = canonical_key(v)
                if key in seen:
                    continue
                seen.add(key)
                report = analyze(v, full=True)
                if report.stanley_holds:
                    assert report.ratio_is_integer
                    assert report.ratio_2g1_g0 == -report.degree - report.dimension


class TestGamma3Relation:
    def test_examples(self):
        # (-1, 1): Hilb = 1/(1 - t^2), gamma_k = 2^-(k+1)
        assert gamma3_relation(F(1, 2), F(1, 4), F(1, 8), F(1, 16))
        assert not gamma3_relation(F(1, 2), F(1, 4), F(1, 8), F(1, 8))
        assert gamma3_relation(*gammas(validate((-3, 1, 3)), 3).values)

    def test_scan_family(self):
        # the relation is only necessary; on this family it separates the
        # integer-ratio classes exactly
        verdicts = {True: 0, False: 0}
        for raw in _scan_candidates(4, 8):
            v = validate(raw)
            values = gammas(v, 3).values
            if (2 * values[1] / values[0]).denominator != 1:
                continue
            gorenstein_verdict = analyze(v).stanley_holds
            assert gamma3_relation(*values) == gorenstein_verdict, raw
            verdicts[gorenstein_verdict] += 1
        assert verdicts == {True: 502, False: 11}

    def test_full_analyze_checks_the_relation(self, monkeypatch):
        v = validate((-3, 1, 3))

        def wrong_gamma3(v, upto):
            g = gammas(v, upto)
            values = g.values[:3] + tuple(x + 1 for x in g.values[3:])
            return GammaVector(values=values, method=g.method, pole_order=g.pole_order)

        monkeypatch.setattr(gorenstein, "gammas", wrong_gamma3)
        assert analyze(v).stanley_holds  # the default route never reads gamma_3
        with pytest.raises(InternalInvariantViolation):
            analyze(v, full=True)


class TestCor77:
    def test_every_two_weight_vector_is_polynomial(self):
        for a1 in range(-6, 0):
            for a2 in range(1, 7):
                v = validate((a1, a2))
                g = gcd(a1, a2)
                span = a2 // g - a1 // g
                assert hilbert_series(v) == from_view(ONE, {span: 1})
                report = analyze(v, full=True)
                assert report.stanley_holds
                assert report.degree == -span
