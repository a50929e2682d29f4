import math
import random
from fractions import Fraction as F

import pytest

from circleinv import hironaka
from circleinv.cli import main
from circleinv.errors import OutOfRange
from circleinv.exact import RationalFunction
from circleinv.hironaka import (
    HironakaData,
    gamma_cm,
    gammas_cm,
    hilb_from_hironaka,
    lambda_poly,
    phi,
    todd,
)
from helpers import assert_round_trips, elementary_symmetric


class TestTodd:
    def test_low_order_values(self):
        assert todd(0, (2, 4)) == 1
        assert todd(1, (2, 4)) == 3  # e1/2
        assert todd(2, (2, 4)) == F(11, 3)  # (e1^2 + e2)/12

    def test_closed_forms_random_tuples(self):
        # td_0..td_4 against the displayed polynomials in e_1..e_4
        rng = random.Random(30)
        for _ in range(50):
            d = rng.randint(1, 5)
            alphas = tuple(rng.randint(1, 7) for _ in range(d))
            e = [elementary_symmetric(j, alphas) for j in range(5)]
            assert todd(0, alphas) == 1
            assert todd(1, alphas) == e[1] / 2
            assert todd(2, alphas) == (e[1] ** 2 + e[2]) / 12
            assert todd(3, alphas) == e[1] * e[2] / 24
            assert todd(4, alphas) == (
                -(e[1] ** 4) + 4 * e[1] ** 2 * e[2] + e[1] * e[3] + 3 * e[2] ** 2 - e[4]
            ) / 720


class TestLambda:
    def test_known_values(self):
        assert lambda_poly(0, -7) == 1
        assert lambda_poly(1, 4) == 2
        assert lambda_poly(2, 2) == F(11, 12)

    def test_known_polynomials(self):
        for k in range(-6, 7):
            assert lambda_poly(1, k) == F(k, 2)
            assert lambda_poly(2, k) == F(k * (3 * k + 5), 24)
            assert lambda_poly(3, k) == F(k * (k * k + 5 * k + 6), 48)
            assert lambda_poly(4, k) == F(
                k * (15 * k**3 + 150 * k**2 + 485 * k + 502), 5760
            )

    def test_recursion(self):
        for m in range(1, 9):
            for k in range(-12, 13):
                lhs = (m + k) * lambda_poly(m, k) - k * lambda_poly(m, k - 1)
                rhs = (m + k - 1) * lambda_poly(m - 1, k)
                assert lhs == rhs, (m, k)

    def test_boundary(self):
        for m in range(2, 7):
            assert lambda_poly(m, 0) == 0

    def test_series_definition(self):
        # (-log(1-s))^k = sum_m lambda_m(k) s^{m+k} for small k
        order = 9
        log_series = [F(0)] + [F(1, j) for j in range(1, order)]
        power = [F(1)] + [F(0)] * (order - 1)
        for k in range(0, 4):
            if k > 0:
                power = series_mul(power, log_series, order)
            for m in range(order - k):
                assert power[m + k] == lambda_poly(m, k), (m, k)

    def test_series_definition_negative_powers(self):
        # (-log(1-s))^{-k} = s^{-k} L^{-k} with L = -log(1-s)/s, so lambda_m(-k)
        # is the s^m coefficient of (1/L)^k
        order = 9
        inverse = series_inv([F(1, j + 1) for j in range(order)], order)
        power = [F(1)] + [F(0)] * (order - 1)
        for k in range(1, 6):
            power = series_mul(power, inverse, order)
            for m in range(order):
                assert power[m] == lambda_poly(m, -k), (m, -k)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            lambda_poly(-1, 3)
        with pytest.raises(OutOfRange):
            todd(-1, (2, 4))


def series_mul(a, b, order):
    out = [F(0)] * order
    for i, x in enumerate(a[:order]):
        for j, y in enumerate(b[: order - i]):
            out[i + j] += x * y
    return out


def series_inv(a, order):
    out = [1 / a[0]]
    for m in range(1, order):
        out.append(-sum(a[j] * out[m - j] for j in range(1, m + 1)) / a[0])
    return out


def stirling_first(j, k):
    """Signed Stirling number of the first kind, from
    s(j+1, k) = s(j, k-1) - j s(j, k)."""
    row = [1]  # s(0, 0)
    for i in range(j):
        row = [(row[c - 1] if c else 0) - (i * row[c] if c <= i else 0) for c in range(i + 2)]
    return row[k] if 0 <= k <= j else 0


class TestStirlingForm:
    def test_stirling_values(self):
        assert stirling_first(3, 1) == 2
        assert stirling_first(3, 2) == -3
        assert stirling_first(0, 0) == 1
        assert stirling_first(4, 2) == 11

    def test_moments_are_falling_factorial_sums(self):
        # sum_k s(j,k) p_k(beta) = sum_i beta_i (beta_i - 1) ... (beta_i - j + 1)
        rng = random.Random(34)
        for _ in range(40):
            betas = [rng.randint(0, 30) for _ in range(rng.randint(1, 6))]
            for j in range(9):
                power_sums = sum(
                    stirling_first(j, k) * sum(b**k for b in betas) for k in range(j + 1)
                )
                falling = sum(math.prod(b - i for i in range(j)) for b in betas)
                assert power_sums == falling, (betas, j)


class TestPhi:
    def test_known_values(self):
        assert phi(0, (2, 4)) == 1
        assert phi(1, (2, 4)) == 2
        assert phi(2, (2, 4)) == F(9, 4)

    def test_closed_forms_random_tuples(self):
        rng = random.Random(31)
        for _ in range(30):
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


class TestGammaCM:
    def test_examples(self):
        data = HironakaData((2, 4), (0,))
        assert gamma_cm(0, data) == F(1, 8)
        assert gamma_cm(1, data) == F(1, 4)
        assert gamma_cm(2, data) == F(9, 32)

    def test_low_order_gamma_expressions(self):
        # gamma_0 = r/e_d and gamma_1 = ((r/2)(e1 - d) - p1)/e_d
        rng = random.Random(32)
        for _ in range(30):
            d = rng.randint(1, 4)
            alphas = tuple(rng.randint(1, 7) for _ in range(d))
            betas = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 4)))
            data = HironakaData(alphas, betas)
            e_d = 1
            for a in alphas:
                e_d *= a
            r = len(betas)
            e1 = elementary_symmetric(1, alphas)
            assert gamma_cm(0, data) == F(r, e_d)
            assert gamma_cm(1, data) == (F(r, 2) * (e1 - d) - sum(betas)) / e_d

    def test_master_identity_sample(self):
        rng = random.Random(33)
        for _ in range(60):
            d = rng.randint(1, 4)
            alphas = tuple(rng.randint(1, 8) for _ in range(d))
            betas = tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 5)))
            data = HironakaData(alphas, betas)
            expansion = hilb_from_hironaka(data).laurent_at_one(7)
            assert expansion.pole_order == d
            for ell in range(7):
                assert gamma_cm(ell, data) == expansion.coefficients[ell], data


    def test_all_orders_in_one_pass(self):
        data = HironakaData((2, 8, 15), (0, 3, 6, 9, 9, 10, 11, 12, 12, 13, 14, 15))
        assert gammas_cm(6, data) == [gamma_cm(ell, data) for ell in range(7)]
        with pytest.raises(OutOfRange):
            gammas_cm(-1, data)

    def test_cli_builds_one_todd_product(self, monkeypatch, capsys):
        # hironaka --upto 6 reads gamma_0..gamma_6 off one Todd product,
        # where one gamma_cm call per order built seven
        calls = []
        todd_values = hironaka._todd_values

        def counted(alphas, m):
            calls.append(m)
            return todd_values(alphas, m)

        monkeypatch.setattr(hironaka, "_todd_values", counted)
        betas = "0,3,6,9,9,10,11,12,12,13,14,15"
        assert main(["hironaka", "--alphas", "2,8,15", "--betas", betas, "--upto", "6"]) == 0
        assert calls == [6]
        assert '"gamma":["1/20","3/40","-11/240",' in capsys.readouterr().out


class TestHilbFromHironaka:
    def test_examples(self):
        assert hilb_from_hironaka(HironakaData((2, 4), (0,))) == (
            RationalFunction.from_factored([1], {2: 1, 4: 1})
        )
        f = hilb_from_hironaka(HironakaData((1,), (0, 1)))
        assert f == RationalFunction.from_factored([1, 1], {1: 1})

    def test_four_weight_series_as_decomposition(self):
        betas = (0, 3, 6, 9, 9, 10, 11, 12, 12, 13, 14, 15)
        data = HironakaData((2, 8, 15), betas)
        from circleinv.hilbert import hilbert_series
        from circleinv.weights import validate

        assert hilb_from_hironaka(data) == hilbert_series(validate((-1, -2, 1, 14)))

    def test_data_record(self):
        data = HironakaData((2, 4), (0,))
        assert_round_trips(data)
        # a named tuple: iterable, and equal to the plain tuple of its fields
        assert list(data) == [(2, 4), (0,)] and data == ((2, 4), (0,))

    def test_validation(self):
        with pytest.raises(ValueError):
            HironakaData((), (0,))
        with pytest.raises(ValueError):
            HironakaData((2,), ())
        with pytest.raises(ValueError):
            HironakaData((0,), (1,))
