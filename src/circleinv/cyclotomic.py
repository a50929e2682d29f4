"""Exact sums of rational expressions over roots of unity.

A sum over the primitive d-th roots of F(zeta) is a field trace: reduce F
modulo the d-th cyclotomic polynomial and pair the representative with the
power sums of the roots (Newton's identities).  Sums over constrained subsets
of the N-th roots decompose by exact order, i.e. over divisors of N that are
compatible with the constraints.  Everything stays in Q.
"""

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NonInvertibleDenominator
from .exact import Polynomial, _divisors, _expand_view, _factor_exponents


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> Polynomial:
    """The d-th cyclotomic polynomial, expanded from its factors
    prod_{e|d} (1 - x^e)^{mu(d/e)} (d > 1); Phi_1 = x - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    phi = _expand_view(_factor_exponents({d: 1}))
    return -phi if d == 1 else phi


# power sums are cached per cyclotomic index; trace_sum sits in tight loops
_power_sum_cache: dict = {}
_power_sum_lock = threading.Lock()


def _power_sums(d: int) -> tuple:
    """(p_0, ..., p_{deg-1}) where p_i is the sum of zeta^i over primitive
    d-th roots zeta, from Newton's identities on cyclotomic_poly(d)."""
    with _power_sum_lock:
        cached = _power_sum_cache.get(d)
    if cached is not None:
        return cached
    phi = cyclotomic_poly(d)
    deg = phi.degree
    coeffs = [phi.coefficient(i) for i in range(deg + 1)]  # monic
    ps = [Fraction(deg)]
    for i in range(1, deg):
        acc = -i * coeffs[deg - i]
        for j in range(1, i):
            acc -= coeffs[deg - j] * ps[i - j]
        ps.append(Fraction(acc))
    result = tuple(ps)
    with _power_sum_lock:
        _power_sum_cache[d] = result
    return result


def _poly_mod(p: Polynomial, modulus: Polynomial) -> Polynomial:
    _, r = p.divmod(modulus)
    return r


def _poly_gcd_ext(a: Polynomial, b: Polynomial):
    """Extended Euclid over Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = a, b
    s0, s1 = Polynomial.one(), Polynomial.zero()
    t0, t1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def invert_mod(p: Polynomial, modulus: Polynomial) -> Polynomial:
    """Inverse of p modulo ``modulus`` over Q[x]."""
    g, s, _ = _poly_gcd_ext(p, modulus)
    if g.degree != 0:
        raise NonInvertibleDenominator(
            "denominator shares a root with the modulus"
        )
    return _poly_mod(s * Polynomial.constant(Fraction(1) / g.coefficient(0)), modulus)


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


class CyclotomicElement:
    """Residue class modulo Phi_d(x) or x^N - 1, with Fraction coefficients."""

    __slots__ = ("kind", "order", "rep")

    def __init__(self, kind: str, order: int, rep: dict):
        if kind not in ("phi", "full"):
            raise ValueError("kind must be 'phi' or 'full'")
        self.kind = kind
        self.order = order
        self.rep = self._reduce(rep)

    def _reduce(self, rep: dict) -> dict:
        if self.kind == "full":
            out: dict = {}
            for e, c in rep.items():
                e %= self.order
                if e in out:
                    out[e] = out[e] + c
                else:
                    out[e] = c
            return {e: c for e, c in out.items() if c}
        poly = Polynomial(rep)
        return dict(_poly_mod(poly, cyclotomic_poly(self.order)).items())

    @staticmethod
    def from_polynomial(kind: str, order: int, p: Polynomial) -> "CyclotomicElement":
        return CyclotomicElement(kind, order, dict(p.items()))

    def _like(self, rep: dict) -> "CyclotomicElement":
        return CyclotomicElement(self.kind, self.order, rep)

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        rep = dict(self.rep)
        for e, c in other.rep.items():
            rep[e] = rep[e] + c if e in rep else c
        return self._like(rep)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({e: -c for e, c in self.rep.items()})

    def __mul__(self, other) -> "CyclotomicElement":
        if not isinstance(other, CyclotomicElement):
            return self._like({e: c * other for e, c in self.rep.items()})
        rep: dict = {}
        for ea, ca in self.rep.items():
            for eb, cb in other.rep.items():
                e = ea + eb
                prod = ca * cb
                rep[e] = rep[e] + prod if e in rep else prod
        return self._like(rep)

    def is_zero(self) -> bool:
        return not self.rep

    def constant_coefficient(self):
        return self.rep.get(0, Fraction(0))

    def to_polynomial(self) -> Polynomial:
        return Polynomial(self.rep)

    def inverse(self) -> "CyclotomicElement":
        modulus = (
            cyclotomic_poly(self.order)
            if self.kind == "phi"
            else Polynomial({0: -1, self.order: 1})
        )
        inv = invert_mod(self.to_polynomial(), modulus)
        return self._like(dict(inv.items()))

    def trace(self) -> Fraction:
        """Sum of the representative over the primitive roots (phi kind)."""
        if self.kind != "phi":
            raise ValueError("trace is defined for the Phi modulus")
        ps = _power_sums(self.order)
        total = Fraction(0)
        for e, c in self.rep.items():
            total += c * ps[e]
        return total

    def __repr__(self):
        mod = f"Phi({self.order})" if self.kind == "phi" else f"x^{self.order}-1"
        return f"CyclotomicElement({Polynomial(self.rep)!r} mod {mod})"


def trace_sum(num: Polynomial, den: Polynomial, d: int) -> Fraction:
    """Sum of num(zeta)/den(zeta) over the primitive d-th roots of unity."""
    if d == 1:
        d1 = den.evaluate(Fraction(1))
        if d1 == 0:
            raise NonInvertibleDenominator("denominator vanishes at 1")
        return num.evaluate(Fraction(1)) / d1
    den_cls = CyclotomicElement.from_polynomial("phi", d, den)
    num_cls = CyclotomicElement.from_polynomial("phi", d, num)
    return (num_cls * den_cls.inverse()).trace()


def constrained_unity_sum(num: Polynomial, den: Polynomial, constraint: RootConstraint) -> Fraction:
    """Sum of num(zeta)/den(zeta) over the constrained set of roots."""
    total = Fraction(0)
    for e in constraint.admissible_orders():
        total += trace_sum(num, den, e)
    return total


def full_cycle_sum(num: Polynomial, den: Polynomial, n: int) -> Fraction:
    """Sum over all n-th roots, via n times the constant coefficient of the
    reduced representative modulo x^n - 1 (fast path; requires den invertible
    there)."""
    den_cls = CyclotomicElement.from_polynomial("full", n, den)
    num_cls = CyclotomicElement.from_polynomial("full", n, num)
    value = (num_cls * den_cls.inverse()).constant_coefficient()
    return n * value


def gessel_harmonic(n: int) -> Fraction:
    """Sum of 1/(1 - zeta) over the nontrivial n-th roots: (n-1)/2."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(n - 1, 2)

