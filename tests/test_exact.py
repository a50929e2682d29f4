import cProfile
import pstats
import random
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import accumulate, islice
from math import comb, isqrt
from operator import sub
from pathlib import Path

import pytest

from circleinv import exact
from circleinv.cyclotomic import cyclotomic_poly
from circleinv.errors import InternalInvariantViolation, ZeroDenominator, ZeroFunction
from circleinv.exact import (
    LaurentExpansion,
    Polynomial,
    RationalFunction,
    _apply_factors,
    _cancel_phi_content,
    _degree,
    _divide_phi,
    _divisors,
    _expand_view,
    _factor_exponents,
    _fold,
    _mobius,
    _phi_divides_fold,
    _phi_factors,
    _phi_probe,
    _prime_factors,
)
from circleinv.cli import _scan_candidates
from circleinv.hilbert import hilbert_generic, hilbert_series
from circleinv.weights import validate
from helpers import divide_exact, one_multiplicity, power

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import engine_pool, sweep_family  # noqa: E402


def P(d):
    return Polynomial(d)


def one_minus(e):
    return Polynomial({0: 1, e: -1})


def R(num, view):
    return RationalFunction.from_factored(num, view)


class TestDenseNormalisation:
    def test_cancellation_strips_trailing_zeros(self):
        assert (P({0: 1, 3: 1}) - P({3: 1})).degree == 0
        assert (P({2: F(1, 2)}) + P({2: F(-1, 2)})).is_zero()
        assert (P({0: 1, 1: 1}) * P({0: 1, 1: -1}) + P({2: 1})) == Polynomial.one()

    def test_zero_input(self):
        assert P({5: 0}).is_zero()
        assert P([(5, F(0)), (2, 0)]).degree is None
        assert (P({4: 3}) * 0).is_zero()

    def test_equal_values_have_equal_hash(self):
        built = [
            P({0: 2, 3: -1}),
            P([(3, -1), (0, 1), (0, 1)]),  # repeated exponents add up
            P({0: F(4, 2), 3: -1, 7: 0}),
            one_minus(3) + Polynomial.one(),
            P({0: 4, 3: -2}) * F(1, 2),
        ]
        for p in built:
            assert p == built[0] and hash(p) == hash(built[0])
            assert type(p.coefficient(0)) is int
            assert p.items() == [(0, 2), (3, -1)]

    def test_products_match_schoolbook(self):
        rng = random.Random(13)
        values = [0, 0, 0, 1, -1, 2, -5, F(1, 2), F(-3, 4)]
        for _ in range(400):
            a = [rng.choice(values) for _ in range(rng.randint(0, 12))]
            b = [rng.choice(values) for _ in range(rng.randint(0, 30))]
            expected = [0] * (len(a) + len(b))
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    expected[i + j] += x * y
            while expected and expected[-1] == 0:
                expected.pop()
            pa, pb = P(enumerate(a)), P(enumerate(b))
            for product in (pa * pb, pb * pa):
                assert product.to_dense() == expected
                assert product.degree == (len(expected) - 1 if expected else None)


class TestPolynomial:
    def test_zero_degree_marker(self):
        assert Polynomial.zero().degree is None
        assert Polynomial.one().degree == 0
        assert not Polynomial({3: 0})  # dropped zero coefficient

    def test_arithmetic(self):
        a = P({0: 1, 2: 3})
        b = P({1: -1, 2: -3})
        assert (a + b) == P({0: 1, 1: -1})
        assert (a - a).is_zero()
        assert a * b == P({1: -1, 2: -3, 3: -3, 4: -9})

    def test_divmod_exact(self):
        num = one_minus(6)
        q = divide_exact(num, one_minus(2))
        assert q == P({0: 1, 2: 1, 4: 1})
        assert divide_exact(num, one_minus(4)) is None
        # non-monic divisor: (t^2 - 1) / (2 + 2t) = t/2 - 1/2, remainder 0
        half = P({0: F(-1, 2), 1: F(1, 2)})
        q, r = P({0: -1, 2: 1}).divmod(P({0: 2, 1: 2}))
        assert q == half and r.is_zero()
        assert all(type(c) in (int, F) for _, c in q.items())
        assert divide_exact(P({0: -1, 2: 1}), P({0: 2, 1: 2})) == half
        assert divide_exact(P({0: 1, 2: 1}), P({0: 2, 1: 2})) is None

    def test_divmod_sparse_high_degree(self):
        phi3 = P({0: 1, 1: 1, 2: 1})
        q, r = (one_minus(997) * one_minus(3)).divmod(phi3)
        assert q == one_minus(997) * one_minus(1) and r.is_zero()

    def test_divmod_small_dividend(self):
        a = P({0: 3, 2: F(1, 2)})
        q, r = a.divmod(one_minus(5))
        assert q.is_zero() and r == a
        q, r = Polynomial.zero().divmod(P({0: 2, 3: 1}))
        assert q.is_zero() and r.is_zero()

    def test_divmod_non_monic_fraction_quotient(self):
        # (t^3 + 1) = (t^2/3 - t/9 + 1/27)(3t + 1) + 26/27
        q, r = P({0: 1, 3: 1}).divmod(P({0: 1, 1: 3}))
        assert q == P({0: F(1, 27), 1: F(-1, 9), 2: F(1, 3)})
        assert r == P({0: F(26, 27)})

    def test_divmod_int_when_integral(self):
        # Fraction inputs whose remainder and part of whose quotient are integral
        q, r = P({1: F(3, 2), 2: F(1, 2)}).divmod(P({0: 1, 1: 1}))
        assert q == P({0: 1, 1: F(1, 2)}) and r == P({0: -1})
        assert type(q.coefficient(0)) is int and type(r.coefficient(0)) is int
        q, r = P({0: F(5, 2), 1: 1, 2: F(1, 2)}).divmod(P({0: 1, 1: 1}))
        assert r == P({0: 2}) and type(r.coefficient(0)) is int

    def test_divmod_round_trip(self):
        rng = random.Random(3)
        values = [0, 1, -1, 2, -3, F(1, 2), F(-2, 3), 7]
        for _ in range(300):
            a = P({e: rng.choice(values) for e in rng.sample(range(40), rng.randint(0, 8))})
            b = P({e: rng.choice(values[1:]) for e in rng.sample(range(12), rng.randint(1, 4))})
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree
            for _, c in [*q.items(), *r.items()]:
                assert type(c) is int or c.denominator != 1
            if r.is_zero():
                assert divide_exact(a, b) == q
            exact = (a * b).divmod(b)
            assert exact[0] == a and exact[1].is_zero()

    def test_add_mul_int_when_integral(self):
        half = P({0: F(1, 2)})
        for p in (half + half, half * P({0: 2}), half * 2, P({1: F(1, 3)}) * P({2: 3})):
            assert p.items() and all(type(c) is int for _, c in p.items())
        assert (half + half).coefficient(0) == 1
        mixed = P({0: F(1, 2), 1: F(1, 3)}) + P({0: F(1, 2), 1: 1})
        assert mixed == P({0: 1, 1: F(4, 3)}) and type(mixed.coefficient(0)) is int

    def test_integer_coefficients_stay_int(self):
        assert type(P({0: F(4, 2)}).coefficient(0)) is int
        f = hilbert_series(validate((-1, -2, 1, 14)))
        for poly in (f.numerator, f.denominator):
            assert all(type(c) is int for _, c in poly.items())

    def test_one_multiplicity(self):
        p = one_minus(2) * one_minus(4) * P({0: 1, 1: 1})
        assert one_multiplicity(p) == 2
        assert one_multiplicity(P({0: 2})) == 0

    def test_pow(self):
        p = P({0: 1, 1: 1})
        assert power(p, 0) == Polynomial.one()
        assert power(p, 3) == P({0: 1, 1: 3, 2: 3, 3: 1})


def phi(e):
    """Phi_e in the sign convention of the cyclotomic content: Phi_1 = 1 - t."""
    return one_minus(1) if e == 1 else cyclotomic_poly(e)


def sparse_product(phis):
    out = Polynomial.one()
    for e, m in phis.items():
        for _ in range(m):
            out = out * phi(e)
    return out


def cancel_one_at_a_time(num, phis):
    """The reduction one Phi_e at a time, the oracle of the rounds of
    _cancel_phi_content: largest e first, one full-length division by Phi_e
    per cancelled factor until one fails; a negative multiplicity is a
    numerator factor."""
    phis = Counter(phis)
    a = num.to_dense()
    for e in sorted(phis, reverse=True):
        inverse = {d: -mu for d, mu in _phi_factors(e)}
        while phis[e] > 0 and (q := _divide_phi(a, inverse, -_degree(inverse))) is not None:
            a = q
            phis[e] -= 1
    return P(enumerate(a)) * sparse_product(-phis), +phis


def one_section_vectors(count: int, top: int, sizes=(3, 4, 5, 6), seed: int = 30) -> list:
    """Seeded vectors with one negative weight, n from ``sizes`` and every
    |w| <= top: their series is one section."""
    rng = random.Random(seed)
    return [
        (-rng.randint(1, top), *(rng.randint(1, top) for _ in range(rng.choice(sizes) - 1)))
        for _ in range(count)
    ]


def random_poly(rng, values, top):
    return P({e: rng.choice(values) for e in range(rng.randint(0, top))})


def random_factored(rng, values):
    """A seeded random num / prod (1 - t^d)^m over prime and composite d,
    the numerator sometimes sharing a cyclotomic factor with the view; with
    the unreduced view."""
    view = Counter({rng.choice([1, 2, 3, 4, 6, 9, 10, 12, 15]): rng.randint(1, 3) for _ in range(rng.randint(1, 4))})
    num = random_poly(rng, values, 12)
    if rng.random() < 0.5:
        num = num * phi(rng.choice([1, 2, 3, 4, 6]))
    return RationalFunction.from_factored(num, view), view


def series_by_recurrence(f, order):
    """c_0..c_order of f from c_m = a_m - sum_{e>0} b_e c_{m-e}, over the
    terms b_e of its denominator (b_0 = 1 by canonical scaling)."""
    out = []
    for m in range(order + 1):
        acc = f.numerator.coefficient(m)
        for e, c in f.denominator.items():
            if 0 < e <= m:
                acc -= c * out[m - e]
        out.append(acc)
    return out


class TestDenseKernel:
    def test_mobius(self):
        assert [_mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    def test_apply_factors_matches_sparse_products(self):
        rng = random.Random(6)
        values = [0, 1, -1, 2, -5, F(1, 2), F(-2, 3)]
        for _ in range(100):
            a = random_poly(rng, values, 30)
            ks = {rng.randint(1, 12): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
            n = rng.randint(1, 40)
            dense = (a.to_dense() + [0] * n)[:n]
            times = _apply_factors(dense[:], ks)
            product = a
            for d, k in ks.items():
                product = product * power(one_minus(d), k)
            assert times == (product.to_dense() + [0] * n)[:n]
            # dividing back is exact on the truncated series
            assert _apply_factors(times, {d: -k for d, k in ks.items()}) == dense

    def test_apply_factors_matches_naive_loop(self, monkeypatch):
        # both division branches: one running sum per class mod d when
        # d*d < n (d calls of accumulate per factor), block additions else
        def naive(a, ks):
            a = a[:]
            for d, k in ks.items():
                for _ in range(k):
                    for i in range(len(a) - 1, d - 1, -1):
                        a[i] -= a[i - d]
                for _ in range(-k):
                    for i in range(d, len(a)):
                        a[i] += a[i - d]
            return a

        sums = []
        monkeypatch.setattr(exact, "accumulate", lambda xs: sums.append(1) or accumulate(xs))
        rng = random.Random(19)
        branches = Counter()
        for n in (1, 2, 7, 30, 401, 2000):
            root = isqrt(n)
            for d in sorted({1, 2, root - 1, root, root + 1, n // 3, n - 1, n, n + 5} - {-1, 0}):
                for k in (-2, -1, 1, 2):
                    values = [0, 1, -1, 3, -7] + [F(1, 2), F(-2, 3)] * (k % 2)
                    a = [rng.choice(values) for _ in range(n)]
                    sums.clear()
                    assert _apply_factors(a[:], {d: k}) == naive(a, {d: k}), (n, d, k)
                    if k < 0 and d < n:
                        branch = "classes" if d * d < n else "blocks"
                        assert len(sums) == (-k * d if branch == "classes" else 0)
                        branches[branch] += 1
            ks = {rng.randint(1, n + 2): rng.choice([-2, -1, 1, 2]) for _ in range(3)}
            a = [rng.choice([0, 1, -2, F(3, 4)]) for _ in range(n)]
            assert _apply_factors(a[:], ks) == naive(a, ks), (n, ks)
        assert branches["classes"] > 20 and branches["blocks"] > 20

    def test_fold_decides_division(self):
        # Phi_e divides a exactly when it divides a mod (t^e - 1), on long
        # numerators built divisible by Phi_e, by a Phi_d with d | e or e | d,
        # or by none, and one entry off from those
        rng = random.Random(12)
        outcomes = Counter()
        for case in range(100):
            e = rng.choice([1, 2, 3, 6, 12, 30, 44, 105, 210, 360, 997, 1000])
            n = rng.randint(e, 2000)
            inverse = {d: -mu for d, mu in _phi_factors(e)}
            width = -_degree(inverse)
            a = [rng.choice([0, 0, 1, -1, 2, F(1, 3) if case % 8 == 0 else 5]) for _ in range(n)]
            d = rng.choice([e, e, rng.choice(_divisors(e)), 2 * e, None])
            if d is not None:
                phi_d = dict(_phi_factors(d))
                top = n - _degree(phi_d)
                if top > 0:
                    a = _apply_factors(a[:top] + [0] * (n - top), phi_d)
            if rng.random() < 0.25:
                a[rng.randrange(n)] += 1
            folded = _fold(a, e)
            assert folded == [sum(a[i::e]) for i in range(e)]
            # the fold of a fold mod t^(ke) - 1, which may be a copy of a
            multiple = e * rng.choice([1, 2, 3, n // e + 1])
            assert _fold(_fold(a, multiple), e) == folded
            divisible = _divide_phi(a, inverse, width) is not None
            assert (_divide_phi(folded, inverse, width) is not None) == divisible, (n, e, d)
            outcomes[divisible] += 1
        assert outcomes[True] > 20 and outcomes[False] > 20

    def test_cyclic_differences_decide_the_fold(self):
        # Phi_e divides a fold r of at most e entries exactly when r times
        # prod_{p | e prime} (t^{e/p} - 1) is 0 mod t^e - 1: against the
        # trial division on random folds, e <= 60, half of them built as a
        # multiple of Phi_e.  The probe reads entries of that product from
        # a source up to 3e long whose fold is r, r plus blocks b times
        # t^{ke} - 1, and must never reject a fold that Phi_e divides
        assert [_prime_factors(n) for n in (2, 12, 30, 49, 60)] == [(2,), (2, 3), (2, 3, 5), (7,), (2, 3, 5)]
        rng = random.Random(2027)
        outcomes = Counter()
        for case in range(20000):
            e = rng.randint(2, 60)
            inverse = {d: -mu for d, mu in _phi_factors(e)}
            width = -_degree(inverse)
            n = rng.randint(1, e)
            if case % 2 and n > width:
                r = _apply_factors([rng.randint(-3, 3) for _ in range(n - width)] + [0] * width, dict(_phi_factors(e)))
            else:
                r = [rng.randint(-3, 3) for _ in range(n)]
            divisible = _divide_phi(r, inverse, width) is not None
            assert _phi_divides_fold(r, e) == divisible, (e, r)
            outcomes[divisible] += 1
            source = r + [0] * (e - n)
            for k in range(1, rng.randint(1, 3)):
                b = [rng.randint(-3, 3) for _ in range(rng.randint(1, e))]
                source[: len(b)] = map(sub, source, b)
                source += [0] * (k * e - len(source)) + b
            assert _fold(source, e) == r + [0] * (e - n), (e, r, source)
            if not _phi_probe(source, e):
                assert not divisible, (e, r, source)
                outcomes["rejected"] += 1
        assert outcomes[True] > 3000 and outcomes[False] > 3000
        assert outcomes["rejected"] > 0.9 * outcomes[False], outcomes

    def test_fold_and_division_check_each_other(self, monkeypatch):
        # a fold that Phi_e divides must be followed by an exact division,
        # also when the round divides by several Phi_e at once
        fold = exact._fold
        num = phi(2) * phi(3) * P({0: 2, 1: 1})
        assert _cancel_phi_content(num, Counter({6: 1, 3: 1, 2: 1}))[1] == Counter({6: 1})
        # the probe would reject Phi_3 on 1 + t^9 before the fold is read
        monkeypatch.setattr(exact, "_phi_probe", lambda source, e: True)
        monkeypatch.setattr(exact, "_fold", lambda a, e: [0] * e)
        with pytest.raises(InternalInvariantViolation):
            _cancel_phi_content(P({0: 1, 9: 1}), Counter({3: 1}))
        monkeypatch.setattr(exact, "_fold", lambda a, e: [0] * e if e == 6 else fold(a, e))
        with pytest.raises(InternalInvariantViolation):
            _cancel_phi_content(num, Counter({6: 1, 3: 1, 2: 1}))

    def test_rounds_match_one_at_a_time(self):
        # numerators built divisible by prod Phi_e^{m_e}, m_e <= 3, over
        # divisor-closed index sets, some one entry off, against content of
        # multiplicities up to 3: each round decides an index from the fold
        # for a multiple of it and divides by several Phi_e at once
        rng = random.Random(20)
        values = [0, 1, -1, 2, F(1, 2)]
        outcomes = Counter()
        for _ in range(300):
            roots = [rng.randint(1, 60) for _ in range(rng.randint(1, 3))]
            indices = sorted({d for root in roots for d in _divisors(root)})
            built = Counter({e: rng.randint(0, 3) for e in indices})
            num = random_poly(rng, values, 12) * sparse_product(built)
            if rng.random() < 0.2:
                num = num + P({rng.randint(0, 40): 1})
            if num.is_zero():
                continue
            phis = Counter({e: rng.randint(-1, 3) for e in indices})
            q, left = _cancel_phi_content(num, phis)
            assert (q, left) == cancel_one_at_a_time(num, phis), (num, phis)
            cancelled = +phis - left
            outcomes["several"] += len(cancelled) > 1
            outcomes["repeated"] += any(m > 1 for m in cancelled.values())
            outcomes["kept"] += any(left[e] < m for e, m in phis.items() if m > 0)
        assert min(outcomes.values()) > 30, outcomes

    def test_rounds_match_one_at_a_time_on_families(self, monkeypatch):
        # every reduction of the sweep family, the engine pool, scan (4, 8)
        # and a seeded family of one-section vectors (one negative weight,
        # n = 3..6): given its open indices, or all of them, a reduction
        # cancels what the full reduction one Phi_e at a time cancels, so
        # no Phi_e outside the open indices of a one-section series ever
        # cancels
        cancel = exact._cancel_phi_content
        checked = Counter()

        def compared(num, phis, open_indices=None):
            full = cancel_one_at_a_time(num if isinstance(num, Polynomial) else P(enumerate(num)), phis)
            out = cancel(num, phis, open_indices)
            assert out == full, (num, phis, open_indices)
            checked[open_indices is not None] += 1
            checked["cancelled", open_indices is not None] += sum((+Counter(phis) - out[1]).values())
            return out

        monkeypatch.setattr(exact, "_cancel_phi_content", compared)
        scan = _scan_candidates(4, 8)
        for raw in [*sweep_family(), *engine_pool(), *scan]:
            hilbert_series(validate(raw))
        one_section = one_section_vectors(600, 40)
        for raw in one_section:
            hilbert_generic(validate(raw))
        assert checked[True] + checked[False] == 385 + 157 + len(scan) + len(one_section)
        # 1744 one-section series, whose open indices cancel 100 Phi_e
        assert checked[True] == 1744 and checked["cancelled", True] == 100, checked

    def test_open_indices_cancel_on_witnesses(self, monkeypatch):
        # one-section series whose Phi_e has exactly two source exponents
        # outside J = {c : e | c/gcd(N, c)}, stays open and cancels once
        cancel = exact._cancel_phi_content
        seen = []

        def recorded(num, phis, open_indices=None):
            out = cancel(num, phis, open_indices)
            seen.append((open_indices, +Counter(phis) - out[1]))
            return out

        monkeypatch.setattr(exact, "_cancel_phi_content", recorded)
        for raw, e in [((-12, 6, 41, 52), 2), ((-30, 10, 11, 39), 2), ((-39, 31, 34, 42, 56), 3)]:
            seen.clear()
            hilbert_series(validate(raw))
            [(open_indices, cancelled)] = seen
            assert e in open_indices and cancelled == Counter({e: 1}), (raw, seen)

    def test_one_section_open_indices_on_three_weights(self, monkeypatch):
        # two source exponents leave no index open: 4000 three-weight
        # vectors with one negative weight, |w| <= 400, hand the reduction
        # no index to decide, and the full reduction cancels nothing
        cancel = exact._cancel_phi_content
        opened = []

        def recorded(num, phis, open_indices=None):
            assert cancel(num, phis)[1] == +Counter(phis), (num, phis)
            opened.append(open_indices)
            return cancel(num, phis, open_indices)

        monkeypatch.setattr(exact, "_cancel_phi_content", recorded)
        for raw in one_section_vectors(4000, 400, sizes=(3,)):
            hilbert_generic(validate(raw))
        assert len(opened) == 4000 and not any(opened)

    def test_cancel_matches_divide_exact(self):
        rng = random.Random(7)
        values = [0, 1, -1, 3, F(1, 2), F(-3, 4)]
        for _ in range(150):
            built = Counter({rng.randint(1, 30): rng.randint(1, 2) for _ in range(rng.randint(0, 3))})
            built[1] += rng.randint(0, 2)
            num = random_poly(rng, values, 8) * sparse_product(built)
            if num.is_zero():
                continue
            for e in {*built, 1, rng.randint(1, 30)}:
                q, left = _cancel_phi_content(num, Counter({e: 3}))
                expected, divided = num, 0
                while divided < 3 and (step := divide_exact(expected, phi(e))) is not None:
                    expected, divided = step, divided + 1
                assert q == expected and left == Counter({e: 3 - divided}), (num, e)
                assert all(type(c) is int or c.denominator != 1 for _, c in q.items())

    def test_denominator_is_the_scaled_phi_product(self):
        rng = random.Random(8)
        for _ in range(60):
            phis = Counter({rng.randint(1, 30): rng.randint(1, 3) for _ in range(rng.randint(1, 4))})
            phis = +Counter({**phis, 1: rng.randint(0, 3)})
            expected = Polynomial.one()
            for e, m in phis.items():
                expected = expected * power(cyclotomic_poly(e), m)
            expected = expected * expected.coefficient(0)  # constant term +-1
            num = P({0: 1, 1: F(1, 2)}) * P({2: 3})
            f = RationalFunction.from_factored(num, _factor_exponents(phis))
            assert f.denominator == expected and f.phi_content == phis
            assert f.degree == f.numerator.degree - expected.degree
            # a numerator sharing a factor cancels it from the denominator
            e = rng.choice(list(phis))
            g = RationalFunction.from_factored(num * phi(e), _factor_exponents(phis))
            assert g.numerator == num
            assert g.denominator == sparse_product(phis - Counter({e: 1}))
            assert g.phi_content == phis - Counter({e: 1})


class TestReduce:
    def test_common_factor(self):
        f = R(one_minus(2), {1: 1})
        assert f.numerator == P({0: 1, 1: 1})
        assert f.denominator == Polynomial.one()

    def test_already_reduced_keeps_view(self):
        f = R(Polynomial.one(), {2: 1, 4: 1})
        assert f.numerator == Polynomial.one()
        assert f.factored_denominator == ((2, 1), (4, 1))

    def test_nonpositive_view_degree(self):
        # 1 - t^0 = 0 cannot be a denominator factor, and 1 - t^d with d < 0
        # is no polynomial
        with pytest.raises(ZeroDenominator):
            R(Polynomial.one(), {0: 1})
        with pytest.raises(ZeroDenominator):
            R(Polynomial.one(), {0: 2, 3: 1})
        for view in ({-2: 1}, {-1: -1, 2: 1}):
            with pytest.raises(ValueError):
                R(Polynomial.one(), view)
        assert R(Polynomial.one(), {0: 0, 2: 1}) == R(Polynomial.one(), {2: 1})

    def test_unreduced_pair_matches_reduced_series(self):
        # (1 + t)/(1 - t^2) reduces to 1/(1 - t): the same numerator and content
        f, g = R(P({0: 1, 1: 1}), {2: 1}), R(Polynomial.one(), {1: 1})
        assert f == g and hash(f) == hash(g)
        rng = random.Random(0)
        for _ in range(25):
            num = P({e: rng.randint(-3, 3) for e in range(rng.randint(1, 4))})
            if num.is_zero():
                continue
            view = Counter([rng.randint(1, 4), rng.randint(1, 4)])
            d = rng.randint(1, 3)
            f = R(num, view)
            g = R(num * one_minus(d), view + Counter({d: 1}))
            assert f == g
            assert f.series_at_zero(12) == g.series_at_zero(12)

    def test_negative_multiplicity_is_a_numerator_factor(self):
        f = R(Polynomial.one(), {2: -1})
        assert f.numerator == one_minus(2) and f.denominator == Polynomial.one()
        assert not f.phi_content
        rng = random.Random(9)
        for _ in range(60):
            num = random_poly(rng, [0, 1, -1, 2, F(1, 2)], 5)
            if num.is_zero():
                continue
            view = Counter({rng.randint(1, 12): rng.randint(-2, 2) for _ in range(3)})
            moved = num
            for d, k in (-view).items():
                moved = moved * power(one_minus(d), k)
            f, g = R(num, view), R(moved, +view)
            assert f == g and f.phi_content == g.phi_content, (num, view)


class TestSeriesAtZero:
    def test_geometric(self):
        f = R(Polynomial.one(), {1: 1})
        assert f.series_at_zero(3) == [1, 1, 1, 1]

    def test_two_part_counts(self):
        f = R(Polynomial.one(), {3: 1, 4: 1})
        assert f.series_at_zero(7) == [1, 0, 0, 1, 1, 0, 1, 1]

    def test_shifted(self):
        f = R(P({0: 1, 1: 1}), {1: 2})
        assert f.series_at_zero(3) == [1, 3, 5, 7]

    def test_fraction_numerator_int_when_integral(self):
        f = R(P({0: F(1, 2), 1: F(1, 2)}), {1: 1})
        out = f.series_at_zero(3)
        assert out == [F(1, 2), 1, 1, 1]
        assert [type(c) for c in out] == [F, int, int, int]

    def test_kernel_matches_recurrence(self):
        rng = random.Random(9)
        checked = 0
        for trial in range(120):
            ints = trial % 2 == 0
            values = [0, 1, -1, 4, -7] if ints else [0, 1, -1, F(1, 2), F(-5, 3), F(3, 2)]
            f, _ = random_factored(rng, values)
            if f.is_zero():
                continue
            deg = f.numerator.degree
            for order in (0, deg // 2, deg, deg + 1, deg + f.denominator.degree + 7):
                out = f.series_at_zero(order)
                assert out == series_by_recurrence(f, order), (f, order)
                assert all(type(c) is int or c.denominator != 1 for c in out), (f, order)
                if ints:
                    assert all(type(c) is int for c in out)
            checked += 1
        assert checked > 100


class TestLaurentAtOne:
    def test_simple_pole(self):
        exp = R(Polynomial.one(), {1: 1}).laurent_at_one(3)
        assert exp.pole_order == 1
        assert list(exp.coefficients) == [1, 0, 0]

    def test_half_geometric(self):
        exp = R(Polynomial.one(), {2: 1}).laurent_at_one(4)
        assert exp.pole_order == 1
        assert list(exp.coefficients) == [F(1, 2), F(1, 4), F(1, 8), F(1, 16)]

    def test_double_pole(self):
        exp = R(Polynomial.one(), {2: 1, 4: 1}).laurent_at_one(3)
        assert exp.pole_order == 2
        assert list(exp.coefficients) == [F(1, 8), F(1, 4), F(9, 32)]

    def test_displayed_expansion_for_all_small_orders(self):
        # 1/(1-t^c) starts 1/c, (c-1)/(2c), (c^2-1)/(12c), (c^2-1)/(24c)
        for c in range(1, 51):
            exp = R(Polynomial.one(), {c: 1}).laurent_at_one(4)
            assert exp.pole_order == 1
            assert list(exp.coefficients) == [
                F(1, c),
                F(c - 1, 2 * c),
                F(c * c - 1, 12 * c),
                F(c * c - 1, 24 * c),
            ]

    def test_cauchy_product_property(self):
        rng = random.Random(1)
        for _ in range(20):
            num_f, view_f = P({0: 1, rng.randint(1, 3): rng.randint(1, 3)}), Counter({rng.randint(1, 5): 1})
            num_g, view_g = Polynomial.one(), Counter([rng.randint(1, 5), rng.randint(1, 4)])
            # f * g is one reduction of the product numerator over both views
            fg = R(num_f * num_g, view_f + view_g)
            depth = 5
            ef, eg, ep = (
                R(num_f, view_f).laurent_at_one(depth),
                R(num_g, view_g).laurent_at_one(depth),
                fg.laurent_at_one(depth),
            )
            assert ep.pole_order == ef.pole_order + eg.pole_order
            for m in range(depth):
                cauchy = sum(
                    ef.coefficients[i] * eg.coefficients[m - i] for i in range(m + 1)
                )
                assert ep.coefficients[m] == cauchy

    def test_numerator_vanishing_at_one(self):
        # (1 - t)^2 / (1 - t^2) = (1 - t) / (1 + t) = s/2 + s^2/4 + ..., s = 1 - t
        f = R(P({0: 1, 1: -2, 2: 1}), {2: 1})
        assert f.laurent_at_one(1) == LaurentExpansion(-1, [F(1, 2)])
        assert f.laurent_at_one(3) == LaurentExpansion(-1, [F(1, 2), F(1, 4), F(1, 8)])
        # the zero is not in the content, so the denominator has no pole to offset it
        square = R(P({0: 1, 1: -2, 2: 1}), {})
        assert square.laurent_at_one(2) == LaurentExpansion(-2, [1, 0])
        # t^2 (1 - t) / (1 + t) = (s - 2 s^2 + s^3) / (2 - s): the s^3 term counts
        g = R(P({2: 1, 3: -2, 4: 1}), {2: 1})
        assert g.laurent_at_one(3) == LaurentExpansion(-1, [F(1, 2), F(-3, 4), F(1, 8)])

    def test_extra_one_minus_t_shifts_the_pole(self):
        # f (1 - t)^j has pole order pole(f) - j and the same coefficients,
        # also once j exceeds the (1 - t)-multiplicity of the denominator
        rng = random.Random(11)
        for _ in range(40):
            f, _ = random_factored(rng, [0, 1, -1, 2, F(1, 3)])
            if f.is_zero():
                continue
            want = f.laurent_at_one(4)
            for j in range(1, 5):
                g = RationalFunction.from_factored(
                    f.numerator * power(one_minus(1), j), _factor_exponents(f.phi_content)
                )
                got = g.laurent_at_one(4)
                assert got == LaurentExpansion(want.pole_order - j, want.coefficients), (f, j)

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            RationalFunction.zero().laurent_at_one(1)

    def test_taylor_at_one_matches_binomials(self):
        # p(1 - s) = sum_e c_e (1 - s)^e by the binomial theorem, modulo s^order
        def binomial(p, order):
            out = [0] * order
            for e, c in p.items():
                for j in range(min(e, order - 1) + 1):
                    out[j] += (-1) ** j * comb(e, j) * c
            return out

        rng = random.Random(24)
        polys = [Polynomial.zero(), P({0: 5}), one_minus(1), one_minus(6) * one_minus(1)]
        for _ in range(60):
            entries = [0, 1, -1, 2, -3, 7] + ([F(1, 2), F(-2, 3)] if rng.random() < 0.5 else [])
            p = P({e: rng.choice(entries) for e in range(rng.randint(0, 9))})
            polys.append(p * power(one_minus(1), rng.randint(0, 3)))
        for p in polys:
            deg = -1 if p.is_zero() else p.degree
            for order in (1, 2, deg + 1, deg + 4):
                got = list(islice(exact._taylor_at_one(p), order))
                assert got == binomial(p, order), (p, order)
                if all(type(c) is int for _, c in p.items()):
                    assert all(type(c) is int for c in got), (p, order)

    def test_one_fraction_per_coefficient(self):
        # the Taylor expansions and the series division run in ints, and each
        # coefficient is built as one Fraction; cProfile counts every
        # Fraction construction
        fs = [hilbert_series(validate(raw)) for raw in sweep_family()]
        profile = cProfile.Profile()
        expansions = profile.runcall(lambda: [f.laurent_at_one(4) for f in fs])
        built = sum(
            stat[1]
            for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if path.endswith("fractions.py") and name == "__new__"
        )
        assert 0 < built <= 4 * len(fs)
        assert all(type(c) is F for e in expansions for c in e.coefficients)


class TestDegree:
    def test_examples(self):
        assert R(Polynomial.one(), {5: 1}).degree == -5
        assert R(P({0: 1, 3: 1}), {1: 2}).degree == 1

    def test_multiplicative(self):
        rng = random.Random(2)
        for _ in range(20):
            num_f, view_f = P({rng.randint(0, 3): 1, 4: 1}), Counter({rng.randint(1, 6): 1})
            num_g, view_g = Polynomial.one(), Counter({rng.randint(1, 6): 1})
            fg = R(num_f * num_g, view_f + view_g)
            assert fg.degree == R(num_f, view_f).degree + R(num_g, view_g).degree

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            RationalFunction.zero().degree


class TestArithmeticConsistency:
    def test_view_numerator_consistency(self):
        f = R(Polynomial.one(), {2: 1, 4: 1})
        assert f.view_numerator() == f.numerator

    def test_view_numerator_matches_multiply_divide(self):
        # oracle: multiply by the expanded view, divide by the denominator
        def oracle(f):
            view = dict(f.factored_denominator)
            return divide_exact(f.numerator * _expand_view(view), f.denominator)

        rng = random.Random(10)
        for _ in range(80):
            f, view = random_factored(rng, [0, 1, -1, 3, F(1, 2), F(-2, 3)])
            if f.is_zero():
                continue
            if f.factored_denominator is not None:
                assert f.view_numerator() == oracle(f)
            # any view covering the unreduced one covers the denominator
            wider = view + Counter({rng.randint(1, 12): rng.randint(0, 2)})
            g = RationalFunction(f.numerator, f.phi_content, wider, _reduced=True)
            out = g.view_numerator()
            assert out == oracle(g)
            assert all(type(c) is int or c.denominator != 1 for _, c in out.items())
        for raw in [(-4, -4, -2, -2, 1, 3), (-4, -3, 1, 2, 4), (-3, -2, -1, 1, 2, 3), (-2, -1, 1, 3)]:
            f = hilbert_series(validate(raw))
            assert f.view_numerator() == oracle(f), raw

    def test_view_numerator_uncovered_view(self):
        f = RationalFunction.from_factored(Polynomial.one(), {2: 1, 3: 1})
        g = RationalFunction(f.numerator, f.phi_content, {2: 2}, _reduced=True)
        with pytest.raises(InternalInvariantViolation):
            g.view_numerator()
