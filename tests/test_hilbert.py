import itertools
import random
import subprocess
import sys
from collections import Counter
from math import comb, gcd, lcm
from pathlib import Path

import pytest

from circleinv import exact, hilbert
from circleinv.cli import _scan_candidates
from circleinv.errors import DegreeOverflow, Unstable
from circleinv.exact import Polynomial, RationalFunction, present_with_factors
from circleinv.hilbert import (
    hilbert_degenerate,
    hilbert_generic,
    hilbert_series,
    oracle_coefficients,
    section,
    section_problem,
    verify_against_oracle,
)
from circleinv.weights import canonical_key, validate
from helpers import divide_exact, one_multiplicity

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import engine_pool, engine_vectors, sweep_family  # noqa: E402

ONE = Polynomial.one()


def from_view(num, view):
    return RationalFunction.from_factored(num, view)


class TestSection:
    def test_identity_coefficients(self):
        assert from_view(*section(section_problem([1], 2))) == from_view(ONE, {1: 1})

    def test_double_pole(self):
        expected = from_view(Polynomial({0: 1, 1: 1}), {1: 2})
        assert from_view(*section(section_problem([1, 1], 2))) == expected

    def test_stride_three(self):
        assert from_view(*section(section_problem([2], 3))) == from_view(ONE, {2: 1})

    def test_negative_exponent_normalization(self):
        # 1/((1-u^{-1})(1-u^2)(1-u^15)) sectioned at stride 1
        f = from_view(*section(section_problem([-1, 2, 15], 1)))
        expected = from_view(Polynomial({1: -1}), {1: 1, 2: 1, 15: 1})
        assert f == expected

    def test_degree_guard(self):
        with pytest.raises(DegreeOverflow):
            section(section_problem([10**6, 3], 5), degree_limit=10**6)

    def test_period_numerator_matches_brute_force(self):
        # the lattice points of one period against the source series
        # expanded whole, on one and two factors, both signs, any proper
        # shift, and solved coordinates whose g2 = gcd(N, c2) may not
        # divide the residue; the section lives over a view of degree at
        # most sum c, so equal coefficients 0..N sum c (every N-th) mean
        # equal series
        rng = random.Random(29)
        seen = Counter()
        for _ in range(600):
            factors = tuple(sorted(rng.randint(1, 40) for _ in range(rng.randint(1, 2))))
            n_ = rng.choice([1, 2, 3, 4, 6, 12, rng.randint(1, 60)])
            shift = rng.choice([0, rng.randrange(sum(factors))])
            problem = hilbert.SectionProblem(rng.choice([-1, 1]), shift, factors, n_)
            kept = brute_force_section(problem)
            assert from_view(*section(problem)).series_at_zero(len(kept) - 1) == kept, problem
            g2 = min(gcd(n_, c) for c in factors)
            seen[len(factors), problem.sign, shift > 0, g2 > 1] += 1
        assert len(seen) == 16 and min(seen.values()) > 10, seen

    def test_two_factor_section_matches_series_route(self):
        # the closed route against the series DP that serves three or more
        # factors; both fit the same view, so equal extracted coefficients
        # (the section's series to index D) mean equal rational functions
        rng = random.Random(7)
        for _ in range(300):
            exps = [rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(rng.randint(1, 2))]
            n_ = rng.choice([1, 2, 3, 4, 6, 12, rng.randint(1, 60)])
            problem = section_problem(exps, n_)
            if problem.shift >= sum(problem.factors):
                continue
            num, view = section(problem)
            dp = hilbert._series_section(problem, exact._degree(view), 10**7)
            assert from_view(num, view).series_at_zero(len(dp) - 1) == dp, (exps, n_)


def brute_force_section(problem) -> list:
    """Every N-th coefficient, indices 0..N * sum c, of the source series
    sign * u^shift / prod (1 - u^c), expanded whole by the textbook
    recurrence, one pass per factor."""
    top = problem.ratio * sum(problem.factors)
    series = [0] * (top + 1)
    series[problem.shift] = problem.sign
    for c in problem.factors:
        for i in range(c, top + 1):
            series[i] += series[i - c]
    return series[:: problem.ratio]


class TestTightSection:
    def test_matches_brute_force_section(self):
        # the section S and the brute-force coefficients both live over
        # prod (1 - t^{c/g})^g, g = gcd(N, c), of degree sum c, and S is
        # proper: equal coefficients 0..sum c mean equal series
        rng = random.Random(26)
        checked = 0
        for _ in range(400):
            exps = [rng.choice([-1, 1, 1]) * rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
            e = abs(rng.choice(exps))
            # strides sharing factors with the exponents, and some that need not
            n_ = rng.choice([e * rng.randint(1, 4), gcd(e, 12) * rng.randint(1, 5), rng.randint(1, 40)])
            problem = section_problem(exps, n_)
            if problem.shift >= sum(problem.factors):
                continue
            num, view = section(problem)
            # one factor per exponent, so the view's degree is sum c/g
            assert view == Counter(c // gcd(n_, c) for c in problem.factors), (exps, n_)
            assert not any(num[sum(d * m for d, m in view.items()) :])
            kept = brute_force_section(problem)
            assert from_view(num, view).series_at_zero(len(kept) - 1) == kept, (exps, n_)
            checked += 1
        assert checked > 200

    def test_pair_route_past_the_uncapped_oracle_budget(self):
        # four pairs (-80, 79) give (1 - t^159)^4; capped at the dimension
        # n - 1 = 3, the numerator needs 477 oracle coefficients, where the
        # 636 of one factor per pair needed more cells than the budget
        assert 636 * (2 * 635 * 80 + 1) > hilbert.MAX_ORACLE_CELLS
        v = validate((-80, -80, 79, 79))
        f = hilbert_series(v)
        assert f.factored_denominator == ((159, 3),)
        assert f.degree == -159
        verify_against_oracle(v, f, 60)

    def test_pair_route_oracle_cells_on_engine_pool(self, monkeypatch):
        # cells of the oracle tables the pair route fits its numerators
        # from: 3 810 938 with the content capped at the dimension, where
        # one factor per pair took 5 552 250
        cells = []
        oracle = hilbert.oracle_coefficients

        def counted(v, upto):
            cells.append((upto + 1) * (2 * upto * max(map(abs, v.weights)) + 1))
            return oracle(v, upto)

        monkeypatch.setattr(hilbert, "oracle_coefficients", counted)
        for raw in engine_pool():
            hilbert_series(validate(raw))
        assert sum(cells) == 3810938

    def test_cancelled_factors_on_sweep(self, monkeypatch):
        # the reduction cancels 79 Phi_e over the sweep series, where the
        # g-th powers of the section factors and one factor per pair left 990
        cancelled = []
        cancel = exact._cancel_phi_content

        def reduced(num, phis, open_indices=None):
            q, left = cancel(num, phis, open_indices)
            cancelled.append(sum((+Counter(phis)).values()) - sum(left.values()))
            return q, left

        monkeypatch.setattr(exact, "_cancel_phi_content", reduced)
        for raw in sweep_family():
            hilbert_series(validate(raw))
        assert sum(cancelled) == 79


class TestOracle:
    def test_examples(self):
        assert oracle_coefficients(validate((-1, 1)), 2)[2] == 1
        assert oracle_coefficients(validate((-1, -2, 1, 14)), 9)[9] == 3
        assert oracle_coefficients(validate((-1, 2, 3)), 7)[7] == 1

    def test_matches_brute_force_enumeration(self):
        upto = 8
        for raw in [(-1, 2, 3), (-3, -1, 2, 5), (-2, -2, 1, 3), (-1, 1, 0), (-2, 0, 0, 3)]:
            v = validate(raw)
            ws = list(v.weights) + [0] * v.zero_count
            expected = [0] * (upto + 1)
            for e in itertools.product(range(upto + 1), repeat=len(ws)):
                if sum(e) <= upto and sum(a * x for a, x in zip(ws, e)) == 0:
                    expected[sum(e)] += 1
            assert oracle_coefficients(v, upto) == expected, raw

    def test_counts_past_int64(self):
        # invariants of (-1)^20 (1)^20 in degree 2j pair a degree-j monomial
        # on each side: C(j+19, 19)^2 of them, none in odd degree
        coeffs = oracle_coefficients(validate((-1,) * 20 + (1,) * 20), 80)
        assert coeffs[::2] == [comb(j + 19, 19) ** 2 for j in range(41)]
        assert not any(coeffs[1::2])
        assert coeffs[80] > 2**63

    def test_no_numpy_needed(self):
        code = (
            "import sys; sys.modules['numpy'] = None; import circleinv.cli; "
            "from circleinv.hilbert import oracle_coefficients; "
            "from circleinv.weights import validate; "
            "print(oracle_coefficients(validate((-1, 2, 3)), 8))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[1, 0, 0, 1, 1, 0, 1, 1, 1]"

    def test_packed_counts_match_enumeration(self):
        # lane 0 of the packed table against brute force, zero weights
        # included, with the positive side going first (A+ < A-), the
        # negative side going first (A- < A+), and sides of equal reach
        rng = random.Random(30)
        upto = 6
        orders = Counter()
        for _ in range(300):
            ws = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
            ws += [rng.randint(-5, -1), rng.randint(1, 5)] + [0] * rng.randint(0, 2)
            rng.shuffle(ws)
            # a monomial of degree d is a multiset of d coordinates
            expected = [
                sum(not sum(map(ws.__getitem__, monomial)) for monomial in itertools.combinations_with_replacement(range(len(ws)), d))
                for d in range(upto + 1)
            ]
            assert oracle_coefficients(validate(ws), upto) == expected, ws
            reach = max(ws), -min(ws)
            orders[(reach[0] > reach[1]) - (reach[0] < reach[1]), 0 in ws] += 1
        assert len(orders) == 6 and min(orders.values()) > 10, orders

    def test_table_keeps_lanes_that_return_to_zero(self):
        # the side of smaller reach shifts up first, then the other side
        # down, so a row spans upto * min(A+, A-) + 1 lanes, A+ the largest
        # weight >= 0 and A- the largest |w| of a negative weight; the
        # lanes of [-upto max|w|, upto max|w|] were 2 upto max|w| + 1
        rng = random.Random(31)
        for _ in range(200):
            ws = [-rng.randint(1, 30), rng.randint(1, 30)]
            ws += [rng.randint(-30, 30) for _ in range(rng.randint(0, 4))]
            upto = rng.randint(1, 30)
            bits = comb(upto + len(ws), len(ws) - 1).bit_length() + 1
            lanes = upto * min(max(ws), -min(ws)) + 1
            rows = hilbert._count_rows(ws, upto, bits)
            assert max(row.bit_length() for row in rows) <= lanes * bits, (ws, upto)

    def test_zero_weights_counted(self):
        v = validate((-1, 1, 0))
        assert oracle_coefficients(v, 4) == [1, 1, 2, 2, 3]

    def test_cell_budget_checked_before_allocating(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("oracle table allocated past the cell budget")

        monkeypatch.setattr(hilbert, "_count_rows", must_not_run)
        with pytest.raises(DegreeOverflow):
            oracle_coefficients(validate((-501, 500, 503)), 2005)

    def test_bit_budget_checked_before_allocating(self, monkeypatch):
        # 200 weights of each sign to degree 4999: 49 995 000 cells pass the
        # cell budget, but the 5000 rows of 4999 lanes of 2049 bits would
        # take about 3 GB
        def must_not_run(*args):
            raise AssertionError("oracle table allocated past the bit budget")

        monkeypatch.setattr(hilbert, "_count_rows", must_not_run)
        v = validate((-1,) * 200 + (1,) * 200)
        assert 5000 * (2 * 4999 + 1) <= hilbert.MAX_ORACLE_CELLS
        with pytest.raises(DegreeOverflow, match="bits"):
            oracle_coefficients(v, 4999)

    def test_degenerate_route_inherits_cell_budget(self):
        # denominator degree 2005 is within the degree limit, but fitting
        # the numerator needs an oracle table of about 4e9 cells
        with pytest.raises(DegreeOverflow):
            hilbert_degenerate(validate((-501, 500, 503)))


class TestEngines:
    def test_known_generic_functions(self):
        assert hilbert_series(validate((-2, 3))) == from_view(ONE, {5: 1})
        assert hilbert_series(validate((-1, 2, 3))) == from_view(ONE, {3: 1, 4: 1})
        assert hilbert_series(validate((-3, 1, 3))) == from_view(ONE, {2: 1, 4: 1})

    def test_example_with_two_negative_weights(self):
        f = hilbert_series(validate((-1, -2, 1, 14)))
        num = Polynomial(
            {0: 1, 3: 1, 6: 1, 9: 2, 10: 1, 11: 1, 12: 2, 13: 1, 14: 1, 15: 1}
        )
        assert f.view_numerator() == num
        assert f.factored_denominator == ((2, 1), (8, 1), (15, 1))
        assert f.degree == -10

    def test_degenerate_lattice_counts(self):
        assert hilbert_series(validate((-1, -1, 1))) == from_view(ONE, {2: 2})
        assert hilbert_series(validate((-1, -1, 1, 1))) == from_view(
            Polynomial({0: 1, 2: 1}), {2: 3}
        )
        assert hilbert_series(validate((-1, -1, 2))) == from_view(
            Polynomial({0: 1, 3: 1}), {3: 2}
        )
        assert hilbert_series(validate((-2, -2, 1, 1))) == from_view(
            Polynomial({0: 1, 3: 3}), {3: 3}
        )

    def test_dispatcher_prefers_generic_orientation(self):
        v = validate((-5, -5, 1, 2))  # negatives repeat, positives distinct
        assert hilbert_series(v) == hilbert_generic(v.negate())

    def test_method_generic_rejects_double_degeneracy(self):
        with pytest.raises(Unstable):
            hilbert_series(validate((-2, -2, 3, 3)), method="generic")
        with pytest.raises(ValueError):
            hilbert_series(validate((-2, -2, 3, 3)), method="residue")

    def test_forced_degenerate_equals_generic(self):
        for raw in [
            (-2, 3),
            (-1, 2, 3),
            (-3, 1, 3),
            (-1, -2, 1, 14),
            (-5, 2, 3),
            (-1, -1, 1),
            (-1, 2, 3, 0),  # both engines carry 1/(1 - t) per zero weight
            (-1, -1, 1, 0, 0),
        ]:
            v = validate(raw)
            generic = hilbert_generic(v if v.is_generic else v.negate())
            assert generic == hilbert_degenerate(v), raw

    def test_degenerate_agrees_with_dispatcher(self):
        for raw in [
            (-2, 3),
            (-1, 2, 3),
            (-1, -2, 1, 14),
            (-3, 1, 3),
            (-1, -1, 1),
            (-2, -2, 1, 1),
            (-1, -2, 1, 14, 0),
            (-2, -2, 1, 1, 0, 0),
        ]:
            v = validate(raw)
            assert hilbert_degenerate(v) == hilbert_series(v), raw

    def test_sections_sum_to_generic_series(self):
        # the engine lifts every section numerator to one common
        # denominator and reduces the sum once: its series is the sum of
        # the sections' series, on every sweep vector with two or more sections
        checked = 0
        for raw in sweep_family():
            v = validate(raw)
            v = v if v.is_generic else v.negate()
            if not v.is_generic or v.k < 2:
                continue
            f = hilbert_generic(v)
            depth = f.denominator.degree + 20
            ws = v.weights
            parts = [
                from_view(*section(section_problem([w - a for w in ws if w != a], -a)))
                for a in v.negatives
            ]
            expected = [sum(col) for col in zip(*(g.series_at_zero(depth) for g in parts))]
            assert f.series_at_zero(depth) == expected, raw
            checked += 1
        assert checked == 190

    def test_one_reduction_per_series(self, monkeypatch):
        # each engine hands one numerator over one factored view to a
        # single cyclotomic reduction: one _cancel_phi_content per series
        calls = []
        cancel = exact._cancel_phi_content

        def counted(*args):
            calls.append(args)
            return cancel(*args)

        monkeypatch.setattr(exact, "_cancel_phi_content", counted)
        family = sweep_family()
        for raw in family:
            hilbert_series(validate(raw))
        assert len(family) == 385
        assert len(calls) == 385

    def test_three_weight_series_reduces_nothing(self, monkeypatch):
        # one section over two source exponents proves every pole order of
        # its view: the one reduction of (-501, 500, 503) runs no probe, no
        # fold and no division
        calls = Counter()
        for name in ("_phi_probe", "_fold", "_divide_phi"):
            kernel = getattr(exact, name)
            monkeypatch.setattr(exact, name, lambda *args, name=name, kernel=kernel: calls.update([name]) or kernel(*args))
        from_factored = RationalFunction.from_factored
        reductions = []

        def counted(*args, **kwargs):
            reductions.append(args)
            return from_factored(*args, **kwargs)

        monkeypatch.setattr(RationalFunction, "from_factored", staticmethod(counted))
        hilbert_series(validate((-501, 500, 503)))
        assert not calls and len(reductions) == 1

    def test_failed_full_divisions_on_engine_pool(self, monkeypatch):
        # the folds decide every Phi_e, so a full-length division runs only
        # on a product of Phi_e that divides: one per round of the
        # reduction, never failing.  The engines' denominators are built
        # from a bound on the pole orders (one factor per section exponent,
        # pair content capped at the dimension), so only 59 Phi_e are left
        # to cancel, where the g-th powers of the section factors and one
        # factor per pair left 1048 (in 288 full-length divisions)
        class Folded(list):
            pass

        fold, divide, cancel = exact._fold, exact._divide_phi, exact._cancel_phi_content
        full, cancelled = [], []

        def divided(a, inverse, width):
            q = divide(a, inverse, width)
            if not isinstance(a, Folded):
                # a ends in a nonzero entry, and so does an exact quotient
                full.append(q is not None and q[-1] != 0)
            return q

        def reduced(num, phis, open_indices=None):
            q, left = cancel(num, phis, open_indices)
            cancelled.append(sum((+Counter(phis)).values()) - sum(left.values()))
            return q, left

        monkeypatch.setattr(exact, "_fold", lambda a, e: Folded(fold(a, e)))
        monkeypatch.setattr(exact, "_divide_phi", divided)
        monkeypatch.setattr(exact, "_cancel_phi_content", reduced)
        for raw in engine_pool():
            hilbert_series(validate(raw))
        assert sum(cancelled) == 59
        assert full == [True] * 38

    def test_folds_on_engine_pool_and_sweep(self, monkeypatch):
        # a few strided sums rule out most open Phi_e before any fold, and
        # a one-section series folds only its open indices: 59 folds over
        # engine_pool() and 81 over sweep_family(), where every Phi_e with
        # e > 1 was folded (1115 and 1135), and 137 over engine_pool() when
        # one-section series still probed their proven indices
        folds = []
        fold = exact._fold
        monkeypatch.setattr(exact, "_fold", lambda a, e: folds.append(e) or fold(a, e))
        counts = []
        for family in (engine_pool, sweep_family):
            folds.clear()
            for raw in family():
                hilbert_series(validate(raw))
            counts.append(len(folds))
        assert counts == [59, 81]

    def test_degenerate_degree_guard(self):
        # pair denominator (1-t^2)(1-t^3)(1-t^8)(1-t^15) has degree 28
        with pytest.raises(DegreeOverflow):
            hilbert_degenerate(validate((-1, -2, 1, 14)), degree_limit=10)

    def test_oracle_verification_hook(self):
        f = hilbert_series(validate((-1, -2, 1, 14)), verify_depth=40)
        assert f.degree == -10
        f = hilbert_series(validate((-2, -2, 1, 3)), verify_depth="auto")
        assert not f.is_zero()


class TestSweep:
    def test_oracle_equivalence_moderate(self):
        values = [w for w in range(-5, 6) if w]
        seen = set()
        rng = random.Random(20)
        vectors = []
        for n in (2, 3):
            for combo in itertools.combinations_with_replacement(values, n):
                vectors.append(combo)
        vectors += [
            tuple(rng.choice(values) for _ in range(4)) for _ in range(140)
        ]
        checked = 0
        for combo in vectors:
            if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                continue
            v = validate(combo)
            key = canonical_key(v)
            if key in seen:
                continue
            seen.add(key)
            f = hilbert_series(v)
            depth = max(2 * f.denominator.degree, 50)
            coeffs = f.series_at_zero(depth)
            assert [int(c) for c in coeffs] == oracle_coefficients(v, depth), combo
            assert all(c.denominator == 1 and c >= 0 for c in coeffs), combo
            # pole order at t=1 equals n-1
            pole = one_multiplicity(f.denominator) - one_multiplicity(f.numerator)
            assert pole == v.n - 1, combo
            checked += 1
        assert checked > 100


def _flat_view(f) -> tuple:
    return tuple(d for d, m in f.factored_denominator for _ in range(m))


def _present_bound(f) -> int:
    # the degree bound of the presentation search, as the README states it
    content = f.phi_content
    deg = f.denominator.degree
    return max(deg, max(content), min(lcm(*content), max(200, 2 * deg)))


def _brute_force_view(f):
    """Lexicographically first ascending d_1..d_dim, each d_i <= bound,
    whose product covers the cyclotomic content of f and leaves a
    nonnegative numerator; None when there is none."""
    content = f.phi_content
    dim = content[1]
    bound = _present_bound(f)
    for ds in itertools.combinations_with_replacement(range(1, bound + 1), dim):
        covered = Counter(e for d in ds for e in content if d % e == 0)
        if any(covered[e] < m for e, m in content.items()):
            continue
        product = ONE
        for d in ds:
            product = product * Polynomial({0: 1, d: -1})
        h = divide_exact(f.numerator * product, f.denominator)
        if all(c >= 0 for _, c in h.items()):
            return ds
    return None


class TestPresentation:
    @pytest.mark.parametrize(
        "raw, view",
        [
            ((-4, -4, -2, -2, 1, 3), ((3, 2), (4, 1), (35, 2))),
            ((-4, -3, 1, 2, 4), ((2, 1), (3, 1), (4, 1), (35, 1))),
            ((-3, -2, -1, 1, 2, 3), ((2, 3), (3, 1), (20, 1))),
            # a degree that comes off the cover search's heap twice, with
            # two steps, sends on along both: skipping the second pop loses
            # the views of (-7, 10, 2, -6) and (1, 11, -8, 8, -11)
            ((2, 1, -12, -7, -2), ((2, 1), (3, 1), (56, 1), (117, 1))),
            ((-7, 10, 2, -6), ((4, 1), (16, 1), (153, 1))),
            ((1, 11, -8, 8, -11), ((2, 2), (24, 1), (171, 1))),
            # a state the window search exhausts may still have a cover, so
            # it leaves no entry in the failed memo: writing one loses these
            ((-6, 1, 3, -4, 9), ((3, 1), (4, 1), (5, 1), (91, 1))),
            ((3, 4, 3, -5, 3, 8), ((5, 1), (7, 1), (16, 1), (72, 1), (104, 1))),
        ],
    )
    def test_lexicographically_first_view(self, raw, view):
        f = hilbert_series(validate(raw))
        assert f.factored_denominator == view
        assert all(c >= 0 for _, c in f.view_numerator().items())

    def test_every_five_weight_class_presented(self):
        classes = _scan_candidates(5, 4)
        assert len(classes) == 316
        for raw in classes:
            v = validate(raw)
            f = hilbert_series(v)
            assert len(_flat_view(f)) == v.n - 1 + v.zero_count, raw
            assert all(c >= 0 for _, c in f.view_numerator().items()), raw

    def test_matches_brute_force_enumeration(self):
        checked = 0
        for raw in _scan_candidates(4, 4):
            f = hilbert_series(validate(raw))
            if _present_bound(f) > 60:
                continue
            assert _flat_view(f) == _brute_force_view(f), raw
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "num, view, presented",
        [
            ({0: 1, 1: 1, 2: 2, 3: 2, 4: 1}, {4: 2, 6: 3}, ((4, 2), (6, 3))),
            ({0: 1, 1: 2, 2: 2}, {3: 2, 5: 3}, ((3, 2), (5, 3))),
        ],
    )
    def test_state_revisited_at_smaller_degree(self, num, view, presented):
        # the search meets one (remaining counts, open factors) state first
        # at a degree where it is infeasible, then from a sibling branch at
        # a smaller degree where it is not: skipping it there loses the view
        f = present_with_factors(from_view(Polynomial(num), view))
        assert f.factored_denominator == presented
        assert _flat_view(f) == _brute_force_view(f)

    @pytest.mark.parametrize("raw, view", [((-5, 1), ((6, 1),)), ((-5, 2), ((7, 1),))])
    def test_degrees_beyond_the_series_window(self, raw, view):
        # the series window never passes top = dim * bound + deg f, which
        # here ends below bound: degrees above top leave no coefficient
        # pair to compare
        f = hilbert_series(validate(raw))
        bound = _present_bound(f)
        assert f.phi_content[1] * bound + f.degree < bound
        assert f.factored_denominator == view
        assert _flat_view(f) == _brute_force_view(f)

    def test_counts_built_once_per_candidate_degree(self, monkeypatch):
        # the cover search builds the counts left after d once per degree it
        # tries: a second pop of d off the heap, with another step, reuses
        # the outcome of the first.  On engine seed 1 that is 194 tuples,
        # where one per pop built 227
        built = []
        uncovered = exact._uncovered

        def counted(indices, counts, d):
            built.append(d)
            return uncovered(indices, counts, d)

        monkeypatch.setattr(exact, "_uncovered", counted)
        for raw in engine_vectors(1):
            hilbert_series(validate(raw))
        assert len(built) == 194

    @staticmethod
    def _count_series_orders(monkeypatch) -> list:
        # the order of every expansion of a series, in call order
        orders = []
        series = exact._series

        def counted(coeffs, inverse, order):
            orders.append(order)
            return series(coeffs, inverse, order)

        monkeypatch.setattr(exact, "_series", counted)
        return orders

    @staticmethod
    def _count_search_steps(monkeypatch) -> list:
        # one entry per candidate degree that the window test of the search
        # after a failed first cover reads (the only islice call of a series
        # and its presentation)
        steps = []

        def counted(iterable, *args):
            steps.append(args[0])
            return itertools.islice(iterable, *args)

        monkeypatch.setattr(exact, "islice", counted)
        return steps

    def test_window_entries(self, monkeypatch):
        # the series is expanded only as far as the first degrees the cover
        # search tests and the windows of the searches that run: 27 948
        # entries on engine seed 1, where one window per series took
        # 105 167 and a window grown with the search's numerators 52 944
        orders = self._count_series_orders(monkeypatch)
        for raw in engine_vectors(1):
            hilbert_series(validate(raw))
        assert sum(order + 1 for order in orders) == 27948

    def test_first_cover_presents_the_engine_pool(self, monkeypatch):
        # every view of engine_pool() is the first cover whose first degree
        # passes the pair test: the window search never runs there
        steps = self._count_search_steps(monkeypatch)
        presented = 0
        for raw in engine_pool():
            f = hilbert_series(validate(raw))
            presented += f.factored_denominator is not None
        assert presented == 157
        assert steps == []

    @pytest.mark.parametrize(
        "raw, view, entries, tried",
        [
            ((-301, 300, 303, 307), ((601, 1), (604, 1), (608, 1)), 824, 127),
            ((-3, -5, -7, -11, 13, 17, 19, 23), ((4, 3), (336, 1), (360, 1), (374, 1), (390, 1)), 5, 13437),
        ],
    )
    def test_frontier_work_counts(self, raw, view, entries, tried, monkeypatch):
        # the frontier vectors are presented by the cover search alone: the
        # series entries it expands and the candidate degrees it tries
        # (counts left after d), with no step of the window search
        orders = self._count_series_orders(monkeypatch)
        steps = self._count_search_steps(monkeypatch)
        built = []
        uncovered = exact._uncovered
        monkeypatch.setattr(exact, "_uncovered", lambda i, c, d: built.append(d) or uncovered(i, c, d))
        f = hilbert_series(validate(raw))
        assert f.factored_denominator == view
        assert sum(order + 1 for order in orders) == entries
        assert len(built) == tried
        assert steps == []

    def test_grown_windows_match_brute_force(self, monkeypatch):
        # an expansion past both the start window dim * deg den + deg f and
        # the bound (the most the pair test reads) is a window grown
        # mid-search; only the vectors the first cover does not present
        # reach the search, 10 of them grow a window and 6 have bound <= 60
        orders = self._count_series_orders(monkeypatch)
        grown = checked = 0
        for raw in sweep_family():
            orders.clear()
            f = hilbert_series(validate(raw))
            start = f.phi_content[1] * f.denominator.degree + f.degree
            if max(orders, default=0) <= max(start, _present_bound(f)):
                continue
            grown += 1
            if _present_bound(f) <= 60:
                assert _flat_view(f) == _brute_force_view(f), raw
                checked += 1
        assert (grown, checked) == (10, 6)

    @pytest.mark.parametrize("raw", [(-12, -12, 5, 7), (-60, -60, 7, 11)])
    def test_absent_view_stays_absent(self, raw, monkeypatch):
        # no view exists within the bound: no cover has a first degree d
        # with F[d] >= F[0], which the cover search proves on a prefix of
        # the series no longer than the bound, with no search window
        f = hilbert_series(validate(raw))
        orders = self._count_series_orders(monkeypatch)
        assert present_with_factors(f) is f
        assert orders == {(-12, -12, 5, 7): [2, 6, 34], (-60, -60, 7, 11): [2, 6, 14, 134]}[raw]
        assert max(orders) <= _present_bound(f)

    def test_pair_test_rejects_a_degree_not_its_divisor_pattern(self):
        # F[2] < F[0], so no view starts at 2; 4 has the same divisor
        # pattern among the indices {2, 3, 6, 7, 14} and starts the view
        f = hilbert_series(validate((-5, -5, 1, 1, 9)))
        assert f.factored_denominator == ((4, 1), (6, 1), (42, 2))
        series = f.series_at_zero(4)
        assert series[2] < series[0] <= series[4]
        assert _flat_view(f) == _brute_force_view(f)

    def test_search_starts_at_the_first_degree_of_a_failed_cover(self, monkeypatch):
        # the first cover (2, 2, 12) passes the pair test at 2 but leaves
        # h = 1 - t^2 + t^4; the view (2, 4, 6) starts at the same degree,
        # so the search must start there, not one past it.  The window
        # search runs, so the step count pinned at 0 above counts here
        steps = self._count_search_steps(monkeypatch)
        f = hilbert_series(validate((-5, -3, -1, 1)))
        assert len(steps) > 0
        product = ONE
        for d in (2, 2, 12):
            product = product * Polynomial({0: 1, d: -1})
        assert divide_exact(f.numerator * product, f.denominator) == Polynomial({0: 1, 2: -1, 4: 1})
        assert f.factored_denominator == ((2, 1), (4, 1), (6, 1))
        assert _flat_view(f) == _brute_force_view(f)

    def test_random_contents_match_brute_force(self):
        # synthetic numerators over small views, so the series need not be
        # a Hilbert series: the pair test, the cover search and the search
        # against the brute-force view
        rng = random.Random(27)
        checked = presented = 0
        while checked < 150:
            view = Counter(rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 4)))
            num = Polynomial({e: rng.choice((0, 1, 1, 2, -1)) for e in range(rng.randint(1, 8))})
            if num.is_zero():
                continue
            f = from_view(num, view)
            if not f.phi_content.get(1) or f.phi_content[1] > 3 or _present_bound(f) > 30:
                continue
            g = present_with_factors(f)
            expected = _brute_force_view(f)
            assert (_flat_view(g) if g is not f else None) == expected, (num, view)
            checked += 1
            presented += expected is not None
        assert presented > 40

    @pytest.mark.parametrize(
        "num",
        [
            # h = num * Phi_6 = 1 + t^2 + 2t^4 - t^5 + t^6: negative below d
            {0: 1, 1: 1, 2: 1, 4: 1},
            # h = 1 + 2t^2 + 2t^3 + t^5 + 2t^6 - t^7: negative at its degree
            {0: 1, 1: 1, 2: 2, 3: 3, 4: 1, 5: -1},
        ],
    )
    def test_leaf_checks_the_whole_numerator(self, num):
        # over (1 - t) Phi_2 Phi_3 the only candidate is d = 6; the start
        # window 0..deg num shows no negative entry of the series, so only
        # the leaf's check of all of h rejects the view
        f = from_view(Polynomial(num), {1: -1, 2: 1, 3: 1})
        assert f.phi_content == Counter({1: 1, 2: 1, 3: 1})
        assert min(f.series_at_zero(f.numerator.degree)) >= 0
        assert present_with_factors(f) is f
        assert _brute_force_view(f) is None

    @pytest.mark.parametrize("n, max_abs, max_bound", [(5, 3, 30), (6, 2, 24)])
    def test_repeated_indices_match_brute_force(self, n, max_abs, max_bound):
        # content with an index e > 1 of multiplicity >= 2: e can be forced
        # into every open factor while more than one factor is left
        checked = 0
        for raw in _scan_candidates(n, max_abs):
            f = hilbert_series(validate(raw))
            content = f.phi_content
            if max((m for e, m in content.items() if e > 1), default=0) < 2 or _present_bound(f) > max_bound:
                continue
            assert _flat_view(f) == _brute_force_view(f), raw
            checked += 1
        assert checked > 30
