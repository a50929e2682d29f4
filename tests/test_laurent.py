import cProfile
import inspect
import itertools
import pstats
import random
import sys
import threading
from fractions import Fraction as F
from math import gcd, prod
from pathlib import Path

import pytest

from circleinv import laurent, schur
from circleinv.cli import _scan_candidates
from circleinv.errors import Unstable
from circleinv.hilbert import hilbert_series
from circleinv.laurent import (
    _reduced,
    gamma0,
    gamma1,
    gamma2,
    gamma3,
    gammas,
)
from circleinv.weights import WeightVector, canonical_key, validate
from helpers import elementary_symmetric, partial_schur_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import engine_pool, engine_vectors, sweep_family  # noqa: E402

SCHUR_FORMS = (gamma0, gamma1, gamma2, gamma3)


class TestPinnedValues:
    def test_gamma0(self):
        assert gamma0(validate((-1, 1))) == F(1, 2)
        assert gamma0(validate((-1, -2, 1, 14))) == F(1, 20)
        assert gamma0(validate((-3, 1, 3))) == F(1, 8)

    def test_gamma1(self):
        assert gamma1(validate((-1, 1))) == F(1, 4)
        assert gamma1(validate((-1, -2, 1, 14))) == F(3, 40)
        assert gamma1(validate((-3, 1, 3))) == F(1, 4)

    def test_gamma2(self):
        assert gamma2(validate((-1, 1))) == F(1, 8)
        assert gamma2(validate((-2, 3))) == F(2, 5)
        assert gamma2(validate((-1, -1, 1))) == F(3, 16)

    def test_gamma3(self):
        assert gamma3(validate((-1, 1))) == F(1, 16)
        assert gamma3(validate((-2, 3))) == F(1, 5)
        assert gamma3(validate((-1, -1, 1))) == F(1, 8)

    def test_series_examples(self):
        g = gammas(validate((-3, 1, 3)), 2, "series")
        assert list(g.values) == [F(1, 8), F(1, 4), F(9, 32)]
        g = gammas(validate((-1, -2, 1, 14)), 1, "series")
        assert list(g.values) == [F(1, 20), F(3, 40)]
        g = gammas(validate((-2, 3)), 3, "series")
        assert list(g.values) == [F(1, 5), F(2, 5), F(2, 5), F(1, 5)]


class TestClosedFormsN2N3:
    def test_two_weights(self):
        # gamma_0 = -1/(a1-a2), gamma_1 = (1+a1-a2)/(2(a1-a2)), and so on
        for a1 in range(-7, 0):
            for a2 in range(1, 8):
                if gcd(a1, a2) != 1:
                    continue
                v = validate((a1, a2))
                span = a1 - a2
                assert gamma0(v) == F(-1, span)
                assert gamma1(v) == F(1 + span, 2 * span)
                assert gamma2(v) == F(1 - span * span, 12 * span)
                assert gamma3(v) == F(1 - span * span, 24 * span)

    def test_three_weights_k1(self):
        # gamma_1 = (2a1 + (a3-a1)gcd(a1,a2) + (a2-a1)gcd(a1,a3)) / (2 prod)
        rng = random.Random(21)
        for _ in range(40):
            a1 = -rng.randint(1, 9)
            a2, a3 = rng.randint(1, 9), rng.randint(1, 9)
            if gcd(gcd(a1, a2), a3) != 1:
                continue
            v = validate((a1, a2, a3))
            denom = 2 * (a1 - a2) * (a1 - a3)
            expect = F(
                2 * a1 + (a3 - a1) * gcd(a1, a2) + (a2 - a1) * gcd(a1, a3), denom
            )
            assert gamma1(v) == expect
            assert gamma0(v) == F(-a1, (a1 - a2) * (a1 - a3))


class TestClosedFormsN4K2:
    def test_two_negative_closed_forms(self):
        rng = random.Random(22)
        done = 0
        while done < 100:
            a1, a2 = -rng.randint(1, 9), -rng.randint(1, 9)
            a3, a4 = rng.randint(1, 9), rng.randint(1, 9)
            raw = (a1, a2, a3, a4)
            if gcd(gcd(abs(a1), abs(a2)), gcd(a3, a4)) != 1:
                continue
            v = validate(raw)
            a1, a2, a3, a4 = v.weights  # canonical order, same multiset
            d = (a1 - a3) * (a1 - a4) * (a2 - a3) * (a2 - a4)
            g0 = F(a1 * a2 * (a3 + a4) - (a1 + a2) * a3 * a4, d)
            assert gamma0(v) == g0
            g1 = F(3 * ((a1 + a2) * a3 * a4 - a1 * a2 * (a3 + a4)), 2 * d)
            g1 += F(
                a3 * (a1 - a4) * (a2 - a4) * gcd(gcd(abs(a1), abs(a2)), a3)
                + (a1 - a3) * (a2 - a3) * a4 * gcd(gcd(abs(a1), abs(a2)), a4),
                2 * d,
            )
            g1 -= F(
                a1 * (a2 - a3) * (a2 - a4) * gcd(abs(a1), gcd(a3, a4))
                + a2 * (a1 - a3) * (a1 - a4) * gcd(abs(a2), gcd(a3, a4)),
                2 * d,
            )
            assert gamma1(v) == g1, raw
            done += 1


class TestAgreement:
    def _canonical_family(self, max_abs, sizes, limit=None):
        values = [w for w in range(-max_abs, max_abs + 1) if w]
        seen = set()
        out = []
        for n in sizes:
            for combo in itertools.combinations_with_replacement(values, n):
                if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                    continue
                v = validate(combo)
                key = canonical_key(v)
                if key in seen:
                    continue
                seen.add(key)
                out.append(v)
        if limit is not None:
            rng = random.Random(23)
            out = rng.sample(out, min(limit, len(out)))
        return out

    def test_formulas_match_series(self):
        for v in self._canonical_family(4, (2, 3), limit=None):
            series = gammas(v, 3, "series")
            forms = tuple(f(v) for f in SCHUR_FORMS)
            assert forms == series.values, v.weights
            assert series.pole_order == v.n - 1
            assert forms[0] > 0

    def test_formulas_match_series_n4_sample(self):
        for v in self._canonical_family(5, (4,), limit=60):
            series = gammas(v, 3, "series")
            forms = tuple(f(v) for f in SCHUR_FORMS)
            assert forms == series.values, v.weights

    def test_generic_form_agreement(self):
        for v in self._canonical_family(4, (2, 3), limit=None):
            if not v.is_generic:
                continue
            schur_form = tuple(f(v) for f in SCHUR_FORMS)
            generic_form = gammas(v, 3, "generic").values
            assert schur_form == generic_form, v.weights
            # an int / int division anywhere would leave a float here
            assert all(type(g) is F for g in schur_form + generic_form), v.weights

    def test_generic_form_agreement_n4_to_n7(self):
        # n >= 4 reaches the gamma_3 terms that vanish or do not exist for
        # n <= 3: the triple root-of-unity sums, and the pair sums times
        # a_i^(n-5) and the sum of the weights left
        rng = random.Random(32)
        values = [w for w in range(-20, 21) if w]
        vectors = []
        while len(vectors) < 300:
            raw = [rng.choice(values) for _ in range(rng.randint(4, 7))]
            if min(raw) < 0 < max(raw):
                v = validate(raw)
                vectors += [o for o in (v, v.negate()) if o.is_generic][:1]
        for raw in _scan_candidates(5, 4):
            v = validate(raw)
            vectors += [o for o in (v, v.negate()) if o.is_generic]
        assert len(vectors) == 589
        for v in vectors:
            assert gammas(v, 3, "generic").values == gammas(v, 3).values, v.weights

    def test_generic_form_requires_generic(self):
        with pytest.raises(Unstable):
            gammas(validate((-1, -1, 1)), 2, "generic")


class TestLargeStrides:
    def test_gammas_match_series_on_engine_pool(self):
        # strides up to 503 and repeats on both sides, far beyond the
        # |w| <= 6 sweep of the acceptance suite
        for raw in engine_pool():
            v = validate(raw)
            series = hilbert_series(v).laurent_at_one(4).coefficients
            for m in range(4):
                assert gammas(v, m).values == series[: m + 1], (raw, m)


class TestIntegerWalk:
    def test_one_fraction_per_gamma(self):
        # the walk runs in ints and builds gamma_0..gamma_3 as Fractions only
        # at the end; cProfile counts every Fraction construction
        vs = [validate(raw) for raw in sweep_family()]
        profile = cProfile.Profile()
        profile.runcall(lambda: [gammas(v, 3) for v in vs])
        built = sum(
            stat[1]
            for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if path.endswith("fractions.py") and name == "__new__"
        )
        assert 0 < built <= 4 * len(vs)

    def test_no_root_constraint(self):
        # the walk reads each root set's subgroup weights off its gcd table:
        # no RootConstraint (the trace oracle's description); cProfile
        # counts every call
        vs = [validate(raw) for raw in sweep_family()]
        profile = cProfile.Profile()
        profile.runcall(lambda: [gammas(v, 3) for v in vs])
        calls = {}
        for (path, _, name), stat in pstats.Stats(profile).stats.items():
            module = Path(path).stem
            calls[module, name] = calls.get((module, name), 0) + stat[1]
        assert calls.get(("cyclotomic", "subgroup_weights"), 0) > 0
        assert calls.get(("cyclotomic", "__post_init__"), 0) == 0

    def test_root_sets_only_where_a_root_can_be(self):
        # a pair or triple J with g_J <= 1 admits no root and builds no root
        # set; cProfile counts every subgroup_weights call
        vs = [validate(raw) for raw in sweep_family()]
        profile = cProfile.Profile()
        profile.runcall(lambda: [gammas(v, 3) for v in vs])
        calls = sum(
            stat[1]
            for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if Path(path).stem == "cyclotomic" and name == "subgroup_weights"
        )
        assert calls == 1465


class TestLeanWalk:
    def test_every_upto_is_a_prefix(self):
        # the exponent window lo = n - upto - 2 and the P_X(0)^L scale move
        # with upto, and the walk builds e_2 only for upto >= 2; every upto
        # still gives the prefix of the full walk, repeated weights included.
        # The generic pass skips the terms past upto: on the generic
        # orientations it gives the same prefixes
        families = [sweep_family(), _scan_candidates(5, 4), engine_pool()]
        vectors = [validate(raw) for raw in itertools.chain(*families)]
        for v in vectors:
            full = gammas(v, 3).values
            for method in ("schur", "generic") if v.is_generic else ("schur",):
                for u in range(4):
                    assert gammas(v, u, method).values == full[: u + 1], (v, u, method)
        assert (len(vectors), sum(not v.is_generic for v in vectors)) == (858, 280)

    def test_kernel_work(self, monkeypatch):
        # gamma_0 and gamma_1 over the scan family: blocks with k <= 2 read
        # their cofactors off, so no Bareiss determinant runs
        calls = {"det": 0, "schur": 0}
        det, values = schur._det, laurent.scaled_schur_values

        def counted_det(rows):
            calls["det"] += 1
            return det(rows)

        def counted_values(*args):
            calls["schur"] += 1
            return values(*args)

        monkeypatch.setattr(schur, "_det", counted_det)
        monkeypatch.setattr(laurent, "scaled_schur_values", counted_values)
        for raw in _scan_candidates(4, 8):
            gammas(validate(raw), 1)
        assert calls == {"det": 0, "schur": 1992}


class TestLayeredWalk:
    @pytest.fixture
    def schur_calls(self, monkeypatch):
        # start from an empty memo and count the remainder-route calls
        calls = []
        values = laurent.scaled_schur_values

        def counted(*args):
            calls.append(args)
            return values(*args)

        monkeypatch.setattr(laurent, "_memo", None)
        monkeypatch.setattr(laurent, "scaled_schur_values", counted)
        return calls

    def test_one_at_a_time_continues_the_walk(self, schur_calls):
        # gamma_0..gamma_3 of one vector, asked for one at a time, walk each
        # layer once: as many Schur calls as one gammas(v, 3) pass
        vs = [validate(raw) for raw in sweep_family()]
        one_at_a_time = [tuple(f(v) for f in SCHUR_FORMS) for v in vs]
        assert len(schur_calls) == 1154
        schur_calls.clear()
        assert one_at_a_time == [gammas(v, 3).values for v in vs]
        assert len(schur_calls) == 1154
        schur_calls.clear()
        for raw in engine_vectors(1):
            v = validate(raw)
            gamma0(v), gamma1(v)
        assert len(schur_calls) == 61

    def test_exception_discards_the_walk(self):
        # a walk that raised is not resumed: the next call starts afresh
        v = WeightVector(negatives=(), positives=(1, 2))
        with pytest.raises(Unstable):
            gamma0(v)
        with pytest.raises(Unstable):
            gamma1(v)
        w = validate((-2, 3))
        assert gamma1(w) == gammas(w, 1).values[1]

    def test_interleaved_vectors(self):
        v, w = validate((-3, -1, 2, 5)), validate((-4, -4, 1, 3))
        got = [gamma0(v), gamma1(v), gamma0(w), gamma2(w), gamma2(v), gamma3(v), gamma3(w)]
        gv, gw = gammas(v, 3).values, gammas(w, 3).values
        assert got == [gv[0], gv[1], gw[0], gw[2], gv[2], gv[3], gw[3]]

    def test_threads_with_distinct_vectors(self):
        raws = [(-3, -1, 2, 5), (-4, -4, 1, 3), (-6, -4, 3, 9), (-2, 1, 1, 5), (-5, -1, 2, 2)]
        vs = [validate(raw) for raw in raws]
        expected = [gammas(v, 3).values for v in vs]
        results = {}
        errors = []

        def worker(i):
            try:
                v = vs[i % len(vs)]
                results[i] = [tuple(f(v) for f in SCHUR_FORMS) for _ in range(20)]
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(10)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the walk
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for i, got in results.items():
            assert got == [expected[i % len(vs)]] * 20, raws[i % len(vs)]
        assert len(results) == 10


class TestReducedVectors:
    def test_conventions(self):
        # a - J keeps the order of v.weights and is never re-normalized; the
        # gcd of an empty remainder is 0, of one leftover w it is |w|
        v = validate((-1, 2, 2))
        assert _reduced(v, 1)[(0,)] == ((2, 2), 2)
        v = validate((-2, -4, 3))
        assert v.weights == (-4, -2, 3) and _reduced(v, 1)[(2,)] == ((-4, -2), 2)
        v = validate((-4, 12))  # normalized to (-1, 3) first
        assert _reduced(v, 2) == {(0,): ((3,), 3), (1,): ((-1,), 1), (0, 1): ((), 0)}

    def test_matches_definition(self):
        # the remainders come from combinations of the weights in reverse
        # order; against dropping each J by hand, every layer of every depth
        rng = random.Random(26)
        vectors = [validate(raw) for raw in sweep_family()]
        while len(vectors) < 585:
            raw = [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(rng.randint(2, 8))]
            if min(raw) < 0 < max(raw):
                vectors.append(validate(raw))
        for v in vectors:
            ws = v.weights
            expected = {}
            for depth in range(v.n + 2):
                for J in itertools.combinations(range(v.n), depth):
                    if depth:
                        seq = tuple(w for i, w in enumerate(ws) if i not in J)
                        expected[J] = (seq, gcd(*seq))
                assert _reduced(v, depth) == expected, (v, depth)

    def test_no_python_pass_per_index_set(self):
        # a gammas(v, 3) pass over sweep builds each layer r = 1..3 with one
        # _layer call and runs no generator or comprehension inside it: each
        # layer is C-level combinations and gcds, where one generator per
        # index set took 15 485 steps to build 5085 remainders
        lines, start = inspect.getsourcelines(laurent._layer)
        vs = [validate(raw) for raw in sweep_family()]
        profile = cProfile.Profile()
        profile.runcall(lambda: [gammas(v, 3) for v in vs])
        inside = [
            (name, stat[1])
            for (path, line, name), stat in pstats.Stats(profile).stats.items()
            if Path(path).stem == "laurent" and start <= line < start + len(lines)
        ]
        assert inside == [("_layer", 3 * len(vs))]


class TestMildCoprimality:
    def test_gamma2_reduces_to_head_term(self):
        # when every g_j and g_{j,l} is 1 only the head term of gamma_2
        # survives; assert by comparing against the head-only evaluation
        found = 0
        for raw in [(-1, 2, 3), (-5, 2, 3), (-1, -2, 3, 5), (-3, -2, 1, 5)]:
            v = validate(raw)
            n = v.n
            ws = v.weights
            if any(g != 1 for _, g in _reduced(v, 2).values()):
                continue
            found += 1
            pi = prod(p - q for p in ws if p < 0 for q in ws if q > 0)
            e1, e2 = elementary_symmetric(1, ws), elementary_symmetric(2, ws)
            head = F(
                5 * e1 * partial_schur_of(n - 3, ws)
                - (e2 + e1**2) * partial_schur_of(n - 4, ws)
                - 4 * partial_schur_of(n - 2, ws),
                12 * pi,
            )
            assert gamma2(v) == head, raw
        assert found >= 2


class TestDispatch:
    def test_gammas_vector(self):
        v = validate((-2, 3))
        g = gammas(v, 3, "schur")
        assert g.method == "schur" and g.pole_order == 1
        assert g.values == gammas(v, 3, "generic").values
        assert g.values == gammas(v, 3, "series").values

    def test_zero_weights_leave_values_unchanged(self):
        v0 = validate((-2, 3))
        v1 = validate((-2, 3, 0))
        assert tuple(f(v1) for f in SCHUR_FORMS) == tuple(f(v0) for f in SCHUR_FORMS)
        s = gammas(v1, 2, "series")
        assert s.pole_order == 2  # zero weight raises the pole order
        assert s.values == gammas(v0, 2, "series").values

    @pytest.mark.parametrize("method", ["schur", "generic", "series"])
    def test_negative_order_refused(self, method):
        with pytest.raises(ValueError):
            gammas(validate((-2, 3)), -1, method)

    def test_higher_coefficients_need_series(self):
        with pytest.raises(ValueError):
            gammas(validate((-1, 1)), 4, "schur")
        g = gammas(validate((-1, 1)), 5, "series")
        assert list(g.values) == [F(1, 2**i) for i in range(1, 7)]
