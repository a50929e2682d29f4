"""Validated circle weight vectors and their structural queries.

A weight vector is stored split into sorted negative and positive parts;
zero weights are counted separately and the common gcd is divided out (the
action factors through a faithful one with the same invariants).  A vector
is *stable* when both signs occur and *generic* when the negative weights
are pairwise distinct.
"""

from math import gcd

from .errors import Empty, Unstable, check_int


class WeightVector:
    """Immutable (the gamma memo keys on the vector): one slot per field, set
    once in ``__init__``, so a field read is a slot read on the hot paths."""

    __slots__ = ("negatives", "positives", "zero_count", "faithful_scale")

    def __init__(self, negatives, positives, zero_count=0, faithful_scale=1):
        object.__setattr__(self, "negatives", negatives)  # sorted ascending, all < 0
        object.__setattr__(self, "positives", positives)  # sorted ascending, all > 0
        object.__setattr__(self, "zero_count", zero_count)
        object.__setattr__(self, "faithful_scale", faithful_scale)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable WeightVector")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable WeightVector")

    def _values(self) -> tuple:
        return (self.negatives, self.positives, self.zero_count, self.faithful_scale)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__, as __setattr__ refuses
        return WeightVector, self._values()

    def __repr__(self):
        fields = "negatives={!r}, positives={!r}, zero_count={!r}, faithful_scale={!r}"
        return f"WeightVector({fields.format(*self._values())})"

    @property
    def k(self) -> int:
        return len(self.negatives)

    @property
    def m(self) -> int:
        return len(self.positives)

    @property
    def n(self) -> int:
        return len(self.negatives) + len(self.positives)

    @property
    def dimension(self) -> int:
        """Krull dimension of the invariant ring: n - 1 for the nonzero
        weights plus one free generator per zero weight."""
        return self.n - 1 + self.zero_count

    @property
    def weights(self) -> tuple:
        """Nonzero weights in canonical order (negatives then positives)."""
        return self.negatives + self.positives

    @property
    def is_generic(self) -> bool:
        return len(set(self.negatives)) == len(self.negatives)

    def negate(self) -> "WeightVector":
        return WeightVector(
            negatives=tuple(sorted(-w for w in self.positives)),
            positives=tuple(sorted(-w for w in self.negatives)),
            zero_count=self.zero_count,
            faithful_scale=self.faithful_scale,
        )

    def __str__(self):
        parts = [str(w) for w in self.weights] + ["0"] * self.zero_count
        return "(" + ",".join(parts) + ")"


def validate(raw) -> WeightVector:
    """Canonicalize a raw weight sequence.

    Every weight must be an int (a float, a string or a bool is refused).
    Zeros are stripped into ``zero_count``, the gcd of the rest is divided
    out (recorded in ``faithful_scale``) and both sign classes must be
    nonempty, otherwise the action has no stable orbits.
    """
    raw = tuple(raw)
    if not raw:
        raise Empty("no weights given")
    for w in raw:
        check_int("each weight", w)
    zeros = sum(1 for w in raw if w == 0)
    nonzero = [w for w in raw if w != 0]
    if not nonzero:
        raise Unstable("all weights are zero")
    negs = sorted(w for w in nonzero if w < 0)
    poss = sorted(w for w in nonzero if w > 0)
    if not negs or not poss:
        raise Unstable("weights must contain both signs")
    scale = gcd(*nonzero)
    if scale > 1:
        negs = [w // scale for w in negs]
        poss = [w // scale for w in poss]
    return WeightVector(
        negatives=tuple(negs),
        positives=tuple(poss),
        zero_count=zeros,
        faithful_scale=scale,
    )


def canonical_key(v: WeightVector) -> tuple:
    """Deduplication key identifying a vector with its negation."""
    forward = tuple(sorted(v.weights))
    backward = tuple(sorted(-w for w in v.weights))
    return (v.zero_count, min(forward, backward))
