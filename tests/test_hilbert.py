import itertools
import random
import subprocess
import sys
from collections import Counter
from math import comb, lcm

import pytest

from circleinv import hilbert
from circleinv.cli import _scan_candidates
from circleinv.errors import DegreeOverflow, Unstable
from circleinv.exact import Polynomial, RationalFunction, reduce
from circleinv.hilbert import (
    hilbert_degenerate,
    hilbert_generic,
    hilbert_series,
    molien_coefficient_oracle,
    oracle_coefficients,
    section,
    section_problem,
)
from circleinv.weights import canonical_key, validate

ONE = Polynomial.one()


def from_view(num, view):
    return RationalFunction.from_factored(num, view)


class TestSection:
    def test_identity_coefficients(self):
        assert section(section_problem([1], 2)) == from_view(ONE, {1: 1})

    def test_double_pole(self):
        expected = from_view(Polynomial({0: 1, 1: 1}), {1: 2})
        assert section(section_problem([1, 1], 2)) == expected

    def test_stride_three(self):
        assert section(section_problem([2], 3)) == from_view(ONE, {2: 1})

    def test_negative_exponent_normalization(self):
        # 1/((1-u^{-1})(1-u^2)(1-u^15)) sectioned at stride 1
        f = section(section_problem([-1, 2, 15], 1))
        expected = reduce(
            Polynomial({1: -1}),
            Polynomial.one_minus_power(1)
            * Polynomial.one_minus_power(2)
            * Polynomial.one_minus_power(15),
        )
        assert f == expected

    def test_degree_guard(self):
        with pytest.raises(DegreeOverflow):
            section(section_problem([10**6, 3], 5), degree_limit=10**6)


class TestOracle:
    def test_examples(self):
        assert molien_coefficient_oracle(validate((-1, 1)), 2) == 1
        assert molien_coefficient_oracle(validate((-1, -2, 1, 14)), 9) == 3
        assert molien_coefficient_oracle(validate((-1, 2, 3)), 7) == 1

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

    def test_zero_weights_counted(self):
        v = validate((-1, 1, 0))
        assert oracle_coefficients(v, 4) == [1, 1, 2, 2, 3]

    def test_cell_budget_checked_before_allocating(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("oracle table allocated past the cell budget")

        monkeypatch.setattr(hilbert, "_packed_counts", must_not_run)
        with pytest.raises(DegreeOverflow):
            oracle_coefficients(validate((-501, 500, 503)), 2005)

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
        ]:
            v = validate(raw)
            assert hilbert_degenerate(v) == hilbert_series(v), raw

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
            pole = f.denominator.one_multiplicity() - f.numerator.one_multiplicity()
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
        covered = Counter(e for d in ds for e in range(1, d + 1) if d % e == 0)
        if any(covered[e] < m for e, m in content.items()):
            continue
        product = ONE
        for d in ds:
            product = product * Polynomial.one_minus_power(d)
        h = (f.numerator * product).divide_exact(f.denominator)
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
