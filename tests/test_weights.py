import itertools
from collections import Counter

import pytest

from circleinv.errors import Empty, Unstable, ValidationError
from circleinv.hilbert import hilbert_series
from circleinv.weights import canonical_key, validate


class TestValidate:
    def test_basic(self):
        v = validate((2, -3))
        assert v.negatives == (-3,)
        assert v.positives == (2,)
        assert v.faithful_scale == 1
        assert v.zero_count == 0

    def test_gcd_normalization(self):
        v = validate((2, 4, -6))
        assert v.negatives == (-3,)
        assert v.positives == (1, 2)
        assert v.faithful_scale == 2

    def test_unstable(self):
        with pytest.raises(Unstable):
            validate((1, 2, 3))
        with pytest.raises(Unstable):
            validate((-1, -5))
        with pytest.raises(Unstable):
            validate((0, 0))

    def test_empty(self):
        with pytest.raises(Empty):
            validate(())

    def test_non_int_weights(self):
        # a float, a string or a bool is no weight, even where it compares
        # or divides like one
        for raw in [(1.5, -2), ("1", -2), (True, -1)]:
            with pytest.raises(ValidationError):
                validate(raw)

    def test_zero_stripping(self):
        v = validate((0, -1, 2, 0))
        assert v.zero_count == 2
        assert v.weights == (-1, 2)

    def test_idempotent(self):
        for raw in [(2, -3), (2, 4, -6), (0, -5, 10, 0)]:
            v = validate(raw)
            again = validate(v.weights + (0,) * v.zero_count)
            assert again.negatives == v.negatives
            assert again.positives == v.positives
            assert again.zero_count == v.zero_count
            assert again.faithful_scale == 1  # already normalized

    def test_genericity_flags(self):
        assert validate((-1, -2, 3)).is_generic
        assert not validate((-5, -5, 2, 3)).is_generic


class TestCanonicalKey:
    def test_negation_pairs(self):
        assert canonical_key(validate((-3, 1, 3))) == canonical_key(validate((3, -1, -3)))
        assert canonical_key(validate((-2, 3))) == canonical_key(validate((2, -3)))
        assert canonical_key(validate((-1, 1))) == (0, (-1, 1))

    def test_distinct_classes(self):
        assert canonical_key(validate((-1, 2))) != canonical_key(validate((-1, 3)))


class TestHilbertInvariance:
    def test_negation_small_family(self):
        values = [w for w in range(-5, 6) if w]
        seen = set()
        for n in (2, 3):
            for combo in itertools.combinations_with_replacement(values, n):
                if not any(w < 0 for w in combo) or not any(w > 0 for w in combo):
                    continue
                v = validate(combo)
                key = canonical_key(v)
                if key in seen:
                    continue
                seen.add(key)
                assert hilbert_series(v) == hilbert_series(v.negate())

    def test_zero_weight_multiplies_by_geometric(self):
        for raw in [(-1, 2, 3), (-2, 3), (-1, -1, 1)]:
            base = hilbert_series(validate(raw))
            padded = hilbert_series(validate(raw + (0,)))
            # the zero weight adds Phi_1 = 1 - t to the content and leaves
            # the (reduced, so prime to 1 - t) numerator as it is
            assert padded.numerator == base.numerator
            assert padded.phi_content == base.phi_content + Counter({1: 1})
