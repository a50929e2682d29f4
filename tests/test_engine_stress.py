"""Heavier engine regressions: larger degenerate vectors, big strides, and
shared-cache thread safety."""

import threading

from circleinv.exact import Polynomial
from circleinv.hilbert import hilbert_series, oracle_coefficients
from circleinv.laurent import gamma0, gamma1
from circleinv.weights import validate
from helpers import one_multiplicity


class TestDegenerateStress:
    def test_multi_group_vectors(self):
        # repeated groups on both sides, several distinct negative values,
        # strides well above the acceptance family; the pair route fits its
        # numerator from the first D oracle coefficients (D = degree of the
        # pair denominator), so the oracle check runs to twice the reduced
        # degree, into coefficients the fit never saw
        for raw in [
            (-3, -3, -3, 2, 2),
            (-4, -4, -2, -2, 1, 3),
            (-6, -6, -6, 5, 5),
            (-2, -2, -2, -2, 1, 1, 1),
            (-7, -7, 3, 3, 2),
            (-12, -12, 5, 7),
            (-20, -20, 3, 3),
            (-9, -9, -9, 4, 4, 5),
            (-60, -60, 7, 11),
            (-2, -2, 3, 3, 0),
        ]:
            v = validate(raw)
            forced = hilbert_series(v, method="degenerate")
            depth = max(2 * forced.denominator.degree, 50)
            coeffs = forced.series_at_zero(depth)
            assert [int(c) for c in coeffs] == oracle_coefficients(v, depth), raw
            assert forced == hilbert_series(v), raw
            pole = (
                one_multiplicity(forced.denominator)
                - one_multiplicity(forced.numerator)
            )
            assert pole == v.n - 1 + v.zero_count, raw
            expansion = forced.laurent_at_one(2)
            assert expansion.coefficients == (gamma0(v), gamma1(v)), raw


class TestConcurrentCaches:
    def test_cyclotomic_and_hironaka_tables(self):
        from circleinv.cyclotomic import trace_sum
        from circleinv.hironaka import lambda_poly, todd

        errors = []

        def worker(seed):
            try:
                for d in range(2 + seed, 34, 3):
                    trace_sum(Polynomial.one(), Polynomial({0: 2, 1: -1}), d)
                for m in range(6):
                    lambda_poly(m, -seed)
                    todd(m % 5, (2, 3, seed + 1))
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_parallel_gamma_evaluations_agree(self):
        from circleinv.laurent import gamma2, gamma3

        results = {}

        def worker(i):
            v = validate((-6, -4, 3, 9))
            results[i] = (gamma2(v), gamma3(v))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results.values())) == 1
