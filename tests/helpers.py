"""Reference helpers shared by the test files; the package itself never needs
them."""

from fractions import Fraction

from circleinv.errors import ZeroFunction
from circleinv.exact import Polynomial, _apply_factors
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


def power(p: Polynomial, n: int) -> Polynomial:
    """p^n for n >= 0 by repeated multiplication."""
    result = Polynomial.one()
    for _ in range(n):
        result = result * p
    return result


def divide_exact(a: Polynomial, b: Polynomial):
    """a/b if b divides a, else None."""
    q, r = a.divmod(b)
    return None if r else q


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
