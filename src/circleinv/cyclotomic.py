"""Exact sums of rational expressions over roots of unity.

Primary route (the closed-form gammas use it): the sums of
1/((1 - z^a)(1 - z^b)), z^a/((1 - z^a)^2 (1 - z^b)) and
1/((1 - z^a)(1 - z^b)(1 - z^c)) over a constrained set of roots, in ints
and Fractions.  With z = exp(2 pi i k/d), 1/(1 - z^a) = 1/2 + (i/2)
cot(pi k a/d), extended by 1/2 where z^a = 1.  Over all d-th roots the
terms with an odd number of cot factors cancel under k -> -k (Zagier,
"Higher dimensional Dedekind sums", Math. Ann. 202, 1973), and each sum of
two cot factors is d times a Dedekind sum, evaluated by reciprocity in
O(log d) Euclid steps (Rademacher-Grosswald, "Dedekind Sums", 1972).
Moebius inversion over the divisors of each admissible exact order then
restricts the sum to the constrained roots.

Independent oracle: a sum over the primitive d-th roots of
num(zeta)/den(zeta) is a field trace.  The representative of the quotient
is num times the inverse of den modulo the d-th cyclotomic polynomial
(extended Euclid over Q[x]), reduced modulo that polynomial by long
division; pairing it with the power sums of the roots (Newton's
identities) gives the trace.
Sums over constrained subsets of the N-th roots decompose by exact order,
i.e. over divisors of N that are compatible with the constraints.
Everything stays in Q.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import NonInvertibleDenominator
from .exact import Polynomial, _divisors, _expand_view, _factor_exponents, _phi_factors


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> Polynomial:
    """The d-th cyclotomic polynomial, expanded from its factors
    prod_{e|d} (1 - x^e)^{mu(d/e)} (d > 1); Phi_1 = x - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    phi = _expand_view(_factor_exponents({d: 1}))
    return -phi if d == 1 else phi


@lru_cache(maxsize=None)
def _power_sums(d: int) -> tuple:
    """(p_0, ..., p_{deg-1}) where p_i is the sum of zeta^i over primitive
    d-th roots zeta, from Newton's identities on cyclotomic_poly(d)."""
    phi = cyclotomic_poly(d)
    deg = phi.degree
    coeffs = phi.to_dense()  # monic
    ps = [Fraction(deg)]
    for i in range(1, deg):
        acc = -i * coeffs[deg - i]
        for j in range(1, i):
            acc -= coeffs[deg - j] * ps[i - j]
        ps.append(Fraction(acc))
    return tuple(ps)


def invert_mod(p: Polynomial, modulus: Polynomial) -> Polynomial:
    """Inverse of p modulo ``modulus`` over Q[x], by extended Euclid; only
    the cofactor of p is carried (s_i * p = r_i modulo ``modulus``)."""
    r0, r1 = p, modulus
    s0, s1 = Polynomial.one(), Polynomial.zero()
    while r1:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise NonInvertibleDenominator(
            "denominator shares a root with the modulus"
        )
    return (s0 * Fraction(1, r0.coefficient(0))).divmod(modulus)[1]


@dataclass(frozen=True)
class RootConstraint:
    """Roots zeta with zeta^ambient_order = 1 and zeta^d != 1 for each
    excluded suborder d."""

    ambient_order: int
    excluded_suborders: frozenset

    def __post_init__(self):
        for d in self.excluded_suborders:
            if self.ambient_order % d != 0:
                raise ValueError("excluded suborder must divide the ambient order")

    def admissible_orders(self) -> list:
        """Exact orders e | N whose roots satisfy every constraint.

        A root of exact order e has zeta^d = 1 iff e | d, so e is admissible
        iff e divides none of the excluded suborders.
        """
        return [
            e
            for e in _divisors(self.ambient_order)
            if all(d % e != 0 for d in self.excluded_suborders)
        ]


def trace_sum(num: Polynomial, den: Polynomial, d: int) -> Fraction:
    """Sum of num(zeta)/den(zeta) over the primitive d-th roots of unity."""
    if d == 1:
        d1 = den.evaluate(Fraction(1))
        if d1 == 0:
            raise NonInvertibleDenominator("denominator vanishes at 1")
        return num.evaluate(Fraction(1)) / d1
    phi = cyclotomic_poly(d)
    _, rep = (num * invert_mod(den, phi)).divmod(phi)
    ps = _power_sums(d)
    return sum((c * ps[e] for e, c in rep.items()), Fraction(0))


def constrained_unity_sum(num: Polynomial, den: Polynomial, constraint: RootConstraint) -> Fraction:
    """Sum of num(zeta)/den(zeta) over the constrained set of roots (the
    trace route, an oracle for the Dedekind-sum route below)."""
    total = Fraction(0)
    for e in constraint.admissible_orders():
        total += trace_sum(num, den, e)
    return total


def dedekind_sum(h: int, k: int) -> Fraction:
    """The Dedekind sum s(h, k) = sum over r mod k of ((r/k)) ((hr/k)), for
    coprime h and k >= 1, by the reciprocity law
    s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12 h k) - 1/4 in O(log k) steps."""
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k, sign = k % h, h, -sign
    return total


def _cot_dedekind(a: int, b: int, d: int) -> Fraction:
    """T(a, b; d) / (4d), where T is the sum over k mod d of
    cot(pi k a/d) cot(pi k b/d), each cot read as 0 at multiples of pi.

    With a = a1 gcd(a, d), b = b1 gcd(b, d) and G the gcd of d/gcd(a, d)
    and d/gcd(b, d), the cot multiplication formula folds T to
    4d s(b1 a1^-1 mod G, G).
    """
    ga, gb = gcd(a, d), gcd(b, d)
    big = gcd(d // ga, d // gb)
    return dedekind_sum(b // gb * pow(a // ga, -1, big), big)


def _over_admissible(constraint: RootConstraint, full) -> Fraction:
    """Sum over the constrained roots of a function of zeta, given full(d),
    its sum over all d-th roots: the sum over exact order e is
    sum_{d | e} mu(e/d) full(d)."""
    weights: dict = {}
    for e in constraint.admissible_orders():
        for d, mu in _phi_factors(e):
            weights[d] = weights.get(d, 0) + mu
    return sum((mu * full(d) for d, mu in weights.items() if mu), Fraction(0))


def pair_unity_sum(a: int, b: int, constraint: RootConstraint) -> Fraction:
    """Sum of 1/((1 - z^a)(1 - z^b)) over the constrained roots, none of
    which may have z^a = 1 or z^b = 1: over all d-th roots the extended
    sum is d/4 - T(a, b; d)/4."""
    return _over_admissible(
        constraint, lambda d: d * (Fraction(1, 4) - _cot_dedekind(a, b, d))
    )


def weighted_unity_sum(a: int, constraint: RootConstraint) -> Fraction:
    """Sum of z^a/((1 - z^a)^2 (1 - z^b)) over the constrained roots, for any
    b with z^a != 1 and z^b != 1 on them; b drops out.  Over all d-th roots
    the extended sum is -d/8 - C/8, where C = g (d/g - 1)(d/g - 2)/3 is the
    sum of cot^2(pi k a/d) and g = gcd(a, d)."""

    def full(d):
        g = gcd(a, d)
        return Fraction(-3 * d - g * (d // g - 1) * (d // g - 2), 24)

    return _over_admissible(constraint, full)


def triple_unity_sum(a: int, b: int, c: int, constraint: RootConstraint) -> Fraction:
    """Sum of 1/((1 - z^a)(1 - z^b)(1 - z^c)) over the constrained roots,
    none of which may have z^a, z^b or z^c equal to 1: over all d-th roots
    the extended sum is d/8 - (T(a, b; d) + T(a, c; d) + T(b, c; d))/8."""

    def full(d):
        dedekind = _cot_dedekind(a, b, d) + _cot_dedekind(a, c, d) + _cot_dedekind(b, c, d)
        return d * (Fraction(1, 8) - dedekind / 2)

    return _over_admissible(constraint, full)


def gessel_harmonic(n: int) -> Fraction:
    """Sum of 1/(1 - zeta) over the nontrivial n-th roots: (n-1)/2."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(n - 1, 2)

