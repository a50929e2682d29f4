import random
import time
from fractions import Fraction as F
from math import prod

import pytest

from circleinv.errors import OutOfRange, RepeatedVariables, ZeroBase
from circleinv.schur import (
    _expansion_terms,
    laurent_schur,
    partial_schur,
    partial_schur_det,
    partial_schur_expansion,
    partial_schur_values,
    scaled_schur_values,
    schur_tableaux,
    vandermonde,
)
from helpers import add, divide_exact, elementary_symmetric, mul, power


class TestVandermonde:
    def test_values(self):
        assert vandermonde([3, 1]) == 2
        assert vandermonde([5]) == 1
        assert vandermonde([]) == 1
        # the product convention (x_i - x_j) over i < j
        assert vandermonde([1, 2, 3]) == (1 - 2) * (1 - 3) * (2 - 3)
        assert vandermonde([1, 2, 3]) == -2


class TestAlternant:
    # Laurent-Schur values of signatures: small values, the shifting rule
    # and the zero-base guard of negative parts
    def test_basic(self):
        assert laurent_schur([1, 0], [F(7), F(3)]) == 7 + 3
        assert laurent_schur([1, 1], [F(3), F(1)]) == 3
        assert laurent_schur([2, 0], [F(3), F(1)]) == 9 + 3 + 1

    def test_shifting_rule(self):
        # s_lambda = (prod x_i^u) * s_{lambda - u}, repeated values included
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 4)
            xs = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
            parts = sorted((rng.randint(-3, 5) for _ in range(n)), reverse=True)
            u = rng.randint(-2, 3)
            prefactor = F(1)
            for x in xs:
                prefactor *= x**u if u >= 0 else F(1) / x ** (-u)
            assert laurent_schur(parts, xs) == prefactor * laurent_schur(
                [p - u for p in parts], xs
            )

    def test_zero_base(self):
        with pytest.raises(ZeroBase):
            laurent_schur([0, -1], [F(0), F(2)])


class TestLaurentSchur:
    def test_examples(self):
        assert laurent_schur([0, 0], [F(2), F(3)]) == 1
        assert laurent_schur([1, 0], [F(2), F(3)]) == 5
        assert laurent_schur([0, -1], [F(2), F(3)]) == F(5, 6)

    def test_tableau_fallback_at_repeats(self):
        # Jacobi-Trudi at repeated values: s_(1,0)(x, x) = 2x and
        # s_(2,1)(x, x) = 2x^3
        assert laurent_schur([1, 0], [F(2), F(2)]) == 4
        assert laurent_schur([2, 1], [F(2), F(2)]) == 16

    def test_ratio_vs_tableaux(self):
        # Jacobi-Trudi against the tableau oracle, repeated values included
        rng = random.Random(10)
        for _ in range(30):
            n = rng.randint(1, 4)
            xs = [F(rng.randint(1, 4)) for _ in range(n)]
            parts = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
            assert laurent_schur(parts, xs) == schur_tableaux(parts, xs)

    def test_weyl_dimension_at_equal_values(self):
        # s_lambda(x, ..., x) = x^|lambda| prod_{i<j} (l_i - l_j + j - i) / (j - i)
        cases = [
            ((10, 7, 5, 3, 1, 0), 2),
            ((8, 6, 4, 2, 0, 0), 2),
            ((3, 3, 1), 5),
            ((2, 0, -3), 3),
            ((4, 1, 1, -2), F(-1, 2)),
        ]
        for parts, x in cases:
            n = len(parts)
            dim = F(1)
            for i in range(n):
                for j in range(i + 1, n):
                    dim *= F(parts[i] - parts[j] + j - i, j - i)
            size = sum(parts)
            scale = F(x) ** size if size >= 0 else 1 / F(x) ** (-size)
            start = time.perf_counter()
            assert laurent_schur(list(parts), [x] * n) == scale * dim, parts
            assert time.perf_counter() - start < 1.0, parts

    def test_integer_inputs_stay_integer(self):
        rng = random.Random(15)
        for _ in range(30):
            n = rng.randint(1, 5)
            xs = [rng.randint(-6, 6) for _ in range(n)]
            parts = sorted((rng.randint(0, 5) for _ in range(n)), reverse=True)
            assert type(laurent_schur(parts, xs)) is int
        for k in range(1, 4):
            for m in range(1, 4):
                for u in range(k + m - 1):
                    xs = [-rng.randint(1, 4) for _ in range(k)]
                    ys = [rng.randint(1, 4) for _ in range(m)]
                    assert type(partial_schur_expansion(u, xs, ys)) is int


class TestElementarySymmetric:
    def test_values(self):
        assert elementary_symmetric(1, [-1, -2, 1, 14]) == 12
        assert elementary_symmetric(2, [1, 2, 3]) == 11
        assert elementary_symmetric(0, [5, 7]) == 1
        assert elementary_symmetric(3, [2, 2]) == 0  # beyond variable count


class TestPartialSchurExamples:
    def test_unit_cases(self):
        assert partial_schur_det(0, [F(5)], [F(7)]) == 1
        assert partial_schur_det(1, [F(3)], [F(1), F(14)]) == 3
        assert partial_schur_det(2, [F(-1), F(-2)], [F(1), F(14)]) == -72
        assert partial_schur_det(-2, [F(3)], [F(7)]) == F(1, 9)

    def test_expansion_matches_det(self):
        assert partial_schur_expansion(2, [-1, -2], [1, 14]) == -72
        assert partial_schur_expansion(1, [-1, -2], [1, 14]) == 12
        assert partial_schur_det(1, [-1, -2], [1, 14]) == 12

    def test_tableaux_route(self):
        # every Laurent-Schur factor of the Laplace expansion for k, m <= 4
        # and -3 <= u <= n - 2 against (prod xs)^s times the tableau sum of
        # the partition lambda - s, s = min(lambda, 0), at repeated and
        # Fraction entries: the expansion equals the tableau route term by
        # term
        signatures = set()
        for k in range(1, 5):
            for m in range(5):
                for u in range(-3, k + m - 1):
                    for _, sig_x, shape_y in _expansion_terms(u, k, m):
                        signatures.update([tuple(sig_x), tuple(shape_y)])
        assert len(signatures) == 238  # 237 and the empty shape of m = 0
        rng = random.Random(18)
        values = [-3, -1, 2, F(-1, 2), F(5, 3)]
        for sig in sorted(signatures):
            shift = min([0, *sig])
            points = [[rng.choice(values)] * len(sig)]
            points += [[rng.choice(values) for _ in sig] for _ in range(2)]
            for xs in points:
                tableau = F(prod(xs)) ** shift * schur_tableaux([p - shift for p in sig], xs)
                assert laurent_schur(list(sig), xs) == tableau, (sig, xs)

    def test_repeated_values_expansion(self):
        # exercised at repeated points where the determinant route fails
        with pytest.raises(RepeatedVariables):
            partial_schur_det(0, [-1, -1], [1])
        value = partial_schur_expansion(0, [-1, -1], [1])
        assert value == partial_schur(0, [-1, -1], [1]) == -1

    def test_empty_blocks(self):
        assert partial_schur_expansion(0, [], [1, 2]) == 0
        assert partial_schur_expansion(-1, [F(-2)], []) == F(-1, 2)
        assert partial_schur_expansion(0, [F(-1), F(-2)], []) == 0
        assert partial_schur_expansion(-1, [F(-1), F(-2)], []) == F(-1, 2)


class TestRouteAgreement:
    def test_random_points(self):
        rng = random.Random(11)
        for k in range(1, 5):
            for m in range(1, 5):
                for u in range(-3, k + m - 1):
                    for _ in range(4):
                        xs, ys = _distinct_points(rng, k, m)
                        det = partial_schur_det(u, xs, ys)
                        exp = partial_schur_expansion(u, xs, ys)
                        rem = partial_schur(u, xs, ys)
                        assert det == exp == rem, (k, m, u, xs, ys)

    def test_block_symmetry(self):
        rng = random.Random(12)
        for _ in range(15):
            k, m = rng.randint(1, 3), rng.randint(1, 3)
            u = rng.randint(-2, k + m - 2)
            xs, ys = _distinct_points(rng, k, m)
            base = partial_schur_expansion(u, xs, ys)
            xs2 = list(xs)
            ys2 = list(ys)
            rng.shuffle(xs2)
            rng.shuffle(ys2)
            assert partial_schur_expansion(u, xs2, ys2) == base

    def test_homogeneity(self):
        rng = random.Random(13)
        for _ in range(15):
            k, m = rng.randint(1, 3), rng.randint(1, 3)
            u = rng.randint(-2, k + m - 2)
            xs, ys = _distinct_points(rng, k, m)
            c = F(rng.randint(1, 5), rng.randint(1, 3))
            scaled = partial_schur_expansion(u, [c * x for x in xs], [c * y for y in ys])
            expected_exp = (m - 1) * (k - 1) + u
            factor = c**expected_exp if expected_exp >= 0 else F(1) / c ** (-expected_exp)
            assert scaled == factor * partial_schur_expansion(u, xs, ys)

    def test_default_route_is_expansion(self):
        # the default route is the remainder route; it agrees with the
        # expansion at repeated entries
        assert partial_schur(0, [-1, -1], [2]) == partial_schur_expansion(0, [-1, -1], [2])


class TestRemainderRoute:
    def test_matches_expansion(self):
        # repeats inside a block, values shared across blocks, Fraction
        # entries and empty blocks, every admissible u down to -3
        rng = random.Random(14)
        for _ in range(150):
            k, m = rng.randint(0, 4), rng.randint(0, 4)
            if k + m == 0:
                continue
            pool = [rng.randint(-5, 5) or 1 for _ in range(3)]
            pool.append(F(rng.choice([-7, -5, -1, 1, 3, 5]), rng.randint(2, 4)))
            xs = [rng.choice(pool) for _ in range(k)]
            ys = [rng.choice(pool) for _ in range(m)]
            for u in range(-3, k + m - 1):
                assert partial_schur(u, xs, ys) == partial_schur_expansion(u, xs, ys), (u, xs, ys)

    def test_edge_blocks(self):
        for u in range(-3, 3):
            assert partial_schur(u, [], [1, 2, 2, 5]) == 0
        for u in range(-3, 2):
            xs = [F(-3, 2), -1, -1]
            assert partial_schur(u, xs, []) == partial_schur_expansion(u, xs, [])
        shared = ([-2, 3, 3], [3, -2])
        for u in range(-3, 4):
            assert partial_schur(u, *shared) == partial_schur_expansion(u, *shared)

    def test_integer_inputs_stay_integer(self):
        rng = random.Random(16)
        for _ in range(60):
            k, m = rng.randint(1, 4), rng.randint(0, 4)
            xs = [rng.randint(-6, 6) for _ in range(k)]
            ys = [rng.randint(-6, 6) for _ in range(m)]
            for u in range(k + m - 1):
                assert type(partial_schur(u, xs, ys)) is int

    def test_scaled_values_are_integers(self):
        # negative u too: the walk carries P_X(0)^L S_u, L = -lo, in ints
        rng = random.Random(18)
        for _ in range(60):
            k, m = rng.randint(1, 4), rng.randint(0, 4)
            xs = [rng.choice([-6, -5, -3, -2, -1, 1, 4]) for _ in range(k)]
            ys = [rng.randint(-6, 6) for _ in range(m)]
            lo = rng.randint(-4, k + m - 2)
            scale, values = scaled_schur_values(lo, k + m - 2, xs, ys)
            assert scale == prod(-x for x in xs) ** max(0, -lo)
            assert all(type(value) is int for value in values)
            want = [partial_schur_expansion(u, xs, ys) for u in range(lo, k + m - 1)]
            assert values == [scale * w for w in want]

    def test_batch_equals_single_calls(self):
        rng = random.Random(17)
        for _ in range(60):
            k, m = rng.randint(0, 4), rng.randint(0, 4)
            n = k + m
            xs = [rng.choice([-4, -3, -1, F(-1, 2), 2]) for _ in range(k)]
            ys = [rng.choice([1, 2, 5, F(3, 2)]) for _ in range(m)]
            lo = rng.randint(-4, max(n - 2, -4))
            hi = rng.randint(lo - 1, max(n - 2, lo - 1))
            batch = partial_schur_values(lo, hi, xs, ys)
            assert batch == [partial_schur(u, xs, ys) for u in range(lo, hi + 1)]

    def test_zero_base(self):
        with pytest.raises(ZeroBase):
            partial_schur_expansion(-1, [0, -2], [1])
        with pytest.raises(ZeroBase):
            partial_schur(-1, [0, -2], [1])
        with pytest.raises(ZeroBase):
            partial_schur_values(-2, 1, [-2, 0], [3, 4])
        with pytest.raises(ZeroBase):
            partial_schur(-1, [0], [])
        # a zero entry needs no division for u >= 0
        assert partial_schur(1, [0, -2], [1]) == partial_schur_expansion(1, [0, -2], [1])

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            partial_schur_expansion(2, [-1, -2], [3])
        with pytest.raises(OutOfRange):
            partial_schur(2, [-1, -2], [3])
        with pytest.raises(OutOfRange):
            partial_schur_values(-1, 2, [-1, -2], [3])
        with pytest.raises(OutOfRange):
            partial_schur(1, [], [3, 4])


def _distinct_points(rng, k, m):
    xs, ys = [], []
    while len(set(xs)) != k:
        xs = [-F(rng.randint(1, 12)) for _ in range(k)]
    while len(set(ys)) != m:
        ys = [F(rng.randint(1, 12)) for _ in range(m)]
    return xs, ys


class TestContinuityAtRepeats:
    def test_symbolic_limit_small_cases(self):
        # det route at xs = (a, a + eps): the ratio is a polynomial in eps
        # whose value at eps = 0 must equal the expansion route at (a, a)
        for a, y_vals, u in [
            (-1, [1], 0),
            (-2, [3], 1),
            (-1, [1, 2], 2),
            (-3, [2], -1),
        ]:
            k, m = 2, len(y_vals)
            n = k + m
            # rows as polynomials in eps, dense lists: x1 = a, x2 = a + eps
            def xpow(base_shift, e):
                # (a + eps*base_shift)^e as a polynomial in eps
                return power([a, base_shift], e) if e >= 0 else None

            exponents = [u] + list(range(n - 2, -1, -1))
            if u < 0:
                continue  # polynomial-in-eps route needs nonneg powers
            rows = []
            for i, e in enumerate(exponents):
                row = [xpow(0, e), xpow(1, e)]
                row += [[] if i == 0 else [y**e] for y in y_vals]
                rows.append(row)
            det = _poly_det(rows)
            # V(xs) = x1 - x2 = -eps
            quotient = divide_exact(det, mul([0, -1], [vandermonde(y_vals)]))
            assert quotient is not None, "determinant must vanish with the Vandermonde"
            limit = quotient[0] if quotient else 0
            assert limit == partial_schur_expansion(u, [a, a], y_vals)


def _poly_det(rows):
    import itertools

    n = len(rows)
    total = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = mul([sign], *(rows[i][perm[i]] for i in range(n)))
        total = add(total, term)
    return total
