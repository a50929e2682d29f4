"""Reference helpers shared by the test files; the package itself never needs
them."""

import copy
import operator
import pickle
from fractions import Fraction

from circleinv.errors import ZeroFunction
from circleinv.exact import Polynomial, _apply_factors, _strip
from circleinv.schur import partial_schur


def elementary_symmetric(j: int, values) -> Fraction:
    """E_j of the values (0 when j exceeds the variable count), always a
    Fraction, so callers may divide it with /."""
    if j > len(values):
        return Fraction(0)
    dp = [Fraction(1)] + [Fraction(0)] * j
    for v in values:
        for d in range(j, 0, -1):
            dp[d] += dp[d - 1] * v
    return dp[j]


def assert_round_trips(record):
    """A pickle round trip and a deepcopy each give back an equal record of
    the same class."""
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is type(record)
        assert again == record


def add(*ps) -> list:
    """The sum of dense coefficient lists, lowest degree first."""
    out = [0] * max(map(len, ps), default=0)
    for p in ps:
        out[: len(p)] = map(operator.add, out, p)
    return _strip(out)


def mul(*ps) -> list:
    """The product of dense coefficient lists, lowest degree first."""
    out = [1]
    for p in ps:
        product = [0] * (len(out) + len(p) - 1)
        for i, c in enumerate(out):
            for j, v in enumerate(p):
                product[i + j] += c * v
        out = product
    return _strip(out)


def power(p: list, n: int) -> list:
    """p^n for n >= 0."""
    return mul(*[p] * n)


def divide_exact(a: list, b: list):
    """a / b over Z for dense lists, b ending in a nonzero entry, or None
    when b does not divide a with an integral quotient."""
    rem, width = list(a), len(b) - 1
    q = [0] * max(len(rem) - width, 0)
    for i in reversed(range(len(q))):
        q[i], r = divmod(rem[i + width], b[-1])
        if r:
            return None
        for j, v in enumerate(b):
            rem[i + j] -= q[i] * v
    return None if any(rem) else _strip(q)


def partial_schur_of(u: int, seq):
    """S_u of a weight sequence, split into its negative and positive
    blocks (0 when it has no negative entry)."""
    return partial_schur(u, [w for w in seq if w < 0], [w for w in seq if w > 0])


def one_multiplicity(p: Polynomial) -> int:
    """Multiplicity of the factor (t - 1) in p, by repeated synthetic
    division."""
    if p.is_zero():
        raise ZeroFunction("zero polynomial")
    mult = 0
    coeffs = p.to_dense()
    while sum(coeffs) == 0:  # value at t=1
        # exact division by 1 - t: the quotient's top entry is 0
        _apply_factors(coeffs, {1: -1}).pop()
        mult += 1
    return mult
