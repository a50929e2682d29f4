"""Exact sums of rational expressions over roots of unity.

Primary route (the closed-form gammas use it): 12 times the sum of
1/((1 - z^a)(1 - z^b)) and 24 times the sums of z^a/((1 - z^a)^2 (1 - z^b))
and 1/((1 - z^a)(1 - z^b)(1 - z^c)) over a constrained set of roots, all in
ints.  With z = exp(2 pi i k/d), 1/(1 - z^a) = 1/2 + (i/2) cot(pi k a/d),
extended by 1/2 where z^a = 1.  Over all d-th roots the terms with an odd
number of cot factors cancel under k -> -k (Zagier, "Higher dimensional
Dedekind sums", Math. Ann. 202, 1973), and each sum of two cot factors is d
times a Dedekind sum s(h, G), G | d.  Since 6G s(h, G) is an integer
(Rademacher-Grosswald, "Dedekind Sums", 1972), evaluated here by
reciprocity in O(log G) exact integer Euclid steps, the three scaled sums
over all d-th roots are integers (the weighted form's cot^2 sum enters as
3 times itself, g (d/g - 1)(d/g - 2), an integer too).  Inclusion-exclusion
over the excluded subgroups restricts them to a constrained set
{z^N = 1, z^e != 1 for e in E}: its indicator is the sum over subsets S of
E of (-1)^|S| [z^gcd(N, S) = 1], so each sum is a signed sum over at most
2^|E| full groups of roots (``subgroup_weights``).

Independent oracle: a sum over the primitive d-th roots of
num(zeta)/den(zeta) is a field trace, taken in Z[x]/(x^d - 1).  The
product adj of the conjugates den(x^j), j a unit mod d other than 1, has
den(zeta) adj(zeta) = N, the norm of den(zeta), at every primitive zeta,
so the sum is Tr(num adj) / N with Tr(den adj) = phi(d) N; the trace of
x^k is Ramanujan's sum c_d(k) (``trace_sum``).  Sums over constrained
subsets of the N-th roots decompose by exact order, i.e. over the divisors
of N that are compatible with the constraints
(``RootConstraint.admissible_orders``).  Everything runs in ints up to one
Fraction per order.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import add, mul

from .errors import InternalInvariantViolation, NonInvertibleDenominator, ValidationError, check_int
from .exact import Polynomial, _divisors, _fold, _mobius


def _check_order(what: str, n):
    """Refuse with ``ValidationError`` a root order that is no int >= 1."""
    check_int(what, n)
    if n < 1:
        raise ValidationError(f"{what} must be positive, got {n}")


class RootConstraint(namedtuple("RootConstraint", "ambient_order excluded_suborders")):
    """Roots zeta with zeta^ambient_order = 1 and zeta^d != 1 for each
    excluded suborder d (a frozenset)."""

    __slots__ = ()

    def __new__(cls, ambient_order, excluded_suborders):
        _check_order("ambient order", ambient_order)
        for d in excluded_suborders:
            _check_order("excluded suborder", d)
            if ambient_order % d != 0:
                raise ValidationError("excluded suborder must divide the ambient order")
        return tuple.__new__(cls, (ambient_order, excluded_suborders))

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


def _conjugate_product(den: list, d: int) -> list:
    """prod den(x^j) mod x^d - 1 over the units j mod d other than 1, for
    den already reduced mod x^d - 1 (d entries).  Each factor is one
    rotated copy of the product per nonzero entry of den: x^i becomes
    x^(i j mod d)."""
    adj = [1] + [0] * (d - 1)
    terms = [(i, c) for i, c in enumerate(den) if c]
    for j in range(2, d):
        if gcd(j, d) == 1:
            out = [0] * d
            for i, c in terms:
                s = i * j % d
                out = list(map(add, out, [c * v for v in adj[-s:] + adj[:-s]]))
            adj = out
    return adj


def _cycle(p: Polynomial, d: int) -> list:
    """p mod x^d - 1, d entries."""
    r = _fold(p.to_dense(), d)
    return r + [0] * (d - len(r))


def _trace(a: list, b: list, ramanujan: list) -> int:
    """Tr(a b) for a and b mod x^d - 1: the sum of a_i b_t c_d(i + t)."""
    return sum(x * sum(map(mul, b, ramanujan[i:] + ramanujan[:i])) for i, x in enumerate(a) if x)


def trace_sum(num: Polynomial, den: Polynomial, d: int) -> Fraction:
    """Sum of num(zeta)/den(zeta) over the primitive d-th roots of unity.

    adj = prod den(x^j) over the units j mod d other than 1
    (:func:`_conjugate_product`) gives den(zeta) adj(zeta) = N, the norm of
    den(zeta), at every primitive zeta, so the sum is Tr(num adj) / N and
    Tr(den adj) = phi(d) N.  Tr(x^k) is Ramanujan's sum c_d(k), the sum of
    e mu(d/e) over e | gcd(d, k), and c_d(0) = phi(d).  All in ints.
    """
    _check_order("root order", d)
    ramanujan = [sum(e * _mobius(d // e) for e in _divisors(gcd(d, k))) for k in range(d)]
    num, den = _cycle(num, d), _cycle(den, d)
    adj = _conjugate_product(den, d)
    norm = _trace(den, adj, ramanujan) // ramanujan[0]
    if not norm:
        raise NonInvertibleDenominator("denominator vanishes at a primitive root")
    return Fraction(_trace(num, adj, ramanujan), norm)


def constrained_unity_sum(num: Polynomial, den: Polynomial, constraint: RootConstraint) -> Fraction:
    """Sum of num(zeta)/den(zeta) over the constrained set of roots (the
    trace route, an oracle for the Dedekind-sum route below)."""
    total = Fraction(0)
    for e in constraint.admissible_orders():
        total += trace_sum(num, den, e)
    return total


def dedekind_6k(h: int, k: int) -> int:
    """A(h, k) = 6k s(h, k), an integer, for coprime h and k >= 1.

    Multiplying the reciprocity law s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12hk)
    - 1/4 by 12hk gives 2h A(h, k) = h^2 + k^2 + 1 - 3hk - 2k A(k mod h, h):
    the Euclid chain of (h mod k, k) runs down to A(0, 1) = 0 and is unwound
    back up in O(log k) exact integer divisions."""
    chain = []
    h %= k
    while h:
        chain.append((h, k))
        h, k = k % h, h
    value = 0
    for h, k in reversed(chain):
        value, r = divmod(h * h + k * k + 1 - 3 * h * k - 2 * k * value, 2 * h)
        if r:
            raise InternalInvariantViolation(f"6k s(h, k) not integral at h={h}, k={k}")
    return value


def _cot_dedekind(a: int, b: int, d: int) -> int:
    """3 T(a, b; d) / 2, where T is the sum over k mod d of
    cot(pi k a/d) cot(pi k b/d), each cot read as 0 at multiples of pi.

    With a = a1 gcd(a, d), b = b1 gcd(b, d) and G the gcd of d/gcd(a, d)
    and d/gcd(b, d), the cot multiplication formula folds T to
    4d s(b1 a1^-1 mod G, G), so 3T/2 = (d/G) A(b1 a1^-1 mod G, G).
    """
    ga, gb = gcd(a, d), gcd(b, d)
    big = gcd(d // ga, d // gb)
    return d // big * dedekind_6k(b // gb * pow(a // ga, -1, big), big)


def subgroup_weights(order: int, excluded) -> tuple:
    """Pairs (d, w) with w != 0 such that the sum of f over the roots z with
    z^order = 1 and z^e != 1 for each e in ``excluded`` is sum w F(d), F(d)
    the sum of f over all d-th roots.

    The indicator of that set is the product of 1 - [z^e = 1] over e, i.e.
    the sum over subsets S of ``excluded`` of (-1)^|S| [z^gcd(order, S) = 1]:
    one gcd per subset, merged by subgroup.  order = 0 (an empty remainder)
    admits no root."""
    if not order:
        return ()
    weights: dict = {}
    for r in range(len(excluded) + 1):
        for subset in combinations(excluded, r):
            d = gcd(order, *subset)
            weights[d] = weights.get(d, 0) + (-1) ** r
    return tuple((d, w) for d, w in weights.items() if w)


def pair_sum_12(a: int, b: int, weights: tuple) -> int:
    """12 times the sum of 1/((1 - z^a)(1 - z^b)) over the constrained
    roots given by ``weights`` (``subgroup_weights``), none of which may
    have z^a = 1 or z^b = 1: over all d-th roots the extended sum is
    d/4 - T(a, b; d)/4."""
    return sum(mu * (3 * d - 2 * _cot_dedekind(a, b, d)) for d, mu in weights)


def weighted_sum_24(a: int, weights: tuple) -> int:
    """24 times the sum of z^a/((1 - z^a)^2 (1 - z^b)) over the constrained
    roots, for any b with z^a != 1 and z^b != 1 on them; b drops out.  Over
    all d-th roots the extended sum is -d/8 - C/8, where
    C = g (d/g - 1)(d/g - 2)/3 is the sum of cot^2(pi k a/d) and
    g = gcd(a, d)."""
    total = 0
    for d, mu in weights:
        g = gcd(a, d)
        total -= mu * (3 * d + g * (d // g - 1) * (d // g - 2))
    return total


def triple_sum_24(a: int, b: int, c: int, weights: tuple) -> int:
    """24 times the sum of 1/((1 - z^a)(1 - z^b)(1 - z^c)) over the
    constrained roots, none of which may have z^a, z^b or z^c equal to 1:
    over all d-th roots the extended sum is
    d/8 - (T(a, b; d) + T(a, c; d) + T(b, c; d))/8."""
    total = 0
    for d, mu in weights:
        cots = _cot_dedekind(a, b, d) + _cot_dedekind(a, c, d) + _cot_dedekind(b, c, d)
        total += mu * (3 * d - 2 * cots)
    return total
