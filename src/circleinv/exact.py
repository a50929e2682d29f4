"""Exact univariate arithmetic: polynomials, rational functions and their
expansions at t=0 and t=1.

Coefficients are integers, with ``fractions.Fraction`` only where a division
needs it; there is no floating point anywhere.  Every engine polynomial is
integral (section numerators, products of 1 - t^d, cyclotomic Phi_e), and by
Gauss's lemma exact division by a monic integral Phi_e stays integral, so
the engines compute with plain ints.  Polynomials are sparse maps
exponent -> coefficient, because the denominators that show up here
(products of factors 1 - t^d) have huge degree but very few terms.
Rational functions carry an optional *factored denominator view*, a
multiset of (d, multiplicity) pairs standing for prod (1 - t^d)^multiplicity.
The reduced numerator/denominator pair is always authoritative; the view may
be unreduced.

All values are immutable after construction and safe to share between
threads; every operation returns a fresh value.
"""

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import (
    InternalInvariantViolation,
    PoleAtZero,
    ZeroDenominator,
    ZeroFunction,
)


def _exact(value):
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a, b):
    """a / b exactly: an int when b divides a, else a Fraction (never the
    float that / gives on two ints)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


class Polynomial:
    """Sparse polynomial over Q.  ``degree`` of the zero polynomial is None
    (the "minus infinity" marker)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        data = {}
        if coeffs:
            for exp, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if exp < 0:
                    raise ValueError("negative exponent in Polynomial")
                c = _exact(c)
                if c != 0:
                    data[exp] = data.get(exp, 0) + c
                    if data[exp] == 0:
                        del data[exp]
        self._coeffs = data

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({0: 1})

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({0: c})

    @staticmethod
    def monomial(exp: int, c=1) -> "Polynomial":
        return Polynomial({exp: c})

    @staticmethod
    def one_minus_power(d: int) -> "Polynomial":
        """1 - t^d."""
        return Polynomial({0: 1, d: -1})

    def items(self):
        return self._coeffs.items()

    def coefficient(self, exp: int):
        return self._coeffs.get(exp, 0)

    @property
    def degree(self):
        return max(self._coeffs) if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> "Polynomial":
        out = Polynomial()
        out._coeffs = {e: -c for e, c in self._coeffs.items()}
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        data = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = data.get(e, 0) + c
            if s:
                data[e] = s
            else:
                data.pop(e, None)
        out = Polynomial()
        out._coeffs = data
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _exact(other)
            if c == 0:
                return Polynomial.zero()
            out = Polynomial()
            out._coeffs = {e: v * c for e, v in self._coeffs.items()}
            return out
        if not self._coeffs or not other._coeffs:
            return Polynomial.zero()
        a, b = self._coeffs, other._coeffs
        if len(a) > len(b):
            a, b = b, a
        data: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = data.get(e, 0) + ca * cb
                if s:
                    data[e] = s
                else:
                    data.pop(e, None)
        out = Polynomial()
        out._coeffs = data
        return out

    __rmul__ = __mul__

    def pow(self, n: int) -> "Polynomial":
        result = Polynomial.one()
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, x):
        total = 0
        for e, c in self._coeffs.items():
            total += c * x**e
        return total

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._coeffs.values())

    def to_dense(self) -> list:
        if not self._coeffs:
            return []
        out = [0] * (self.degree + 1)
        for e, c in self._coeffs.items():
            out[e] = c
        return out

    def divmod(self, other: "Polynomial"):
        """Exact-arithmetic polynomial division: self = q*other + r."""
        if other.is_zero():
            raise ZeroDenominator("division by the zero polynomial")
        dd = other.degree
        lead = other.coefficient(dd)
        rem = dict(self._coeffs)
        q: dict = {}
        while rem:
            dr = max(rem)
            if dr < dd:
                break
            factor = _quotient(rem[dr], lead)
            e0 = dr - dd
            q[e0] = factor
            for e, c in other._coeffs.items():
                ee = e + e0
                s = rem.get(ee, 0) - factor * c
                if s:
                    rem[ee] = s
                else:
                    rem.pop(ee, None)
        qq = Polynomial()
        qq._coeffs = q
        rr = Polynomial()
        rr._coeffs = rem
        return qq, rr

    def divide_exact(self, other: "Polynomial"):
        """Return self/other if the division is exact, else None."""
        q, r = self.divmod(other)
        return None if r else q

    def one_multiplicity(self) -> int:
        """Multiplicity of the factor (t - 1), by repeated synthetic division."""
        if self.is_zero():
            raise ZeroFunction("zero polynomial")
        mult = 0
        coeffs = self.to_dense()
        while True:
            if sum(coeffs) != 0:  # value at t=1
                return mult
            # synthetic division by (t - 1)
            out = [0] * (len(coeffs) - 1)
            acc = 0
            for i in range(len(coeffs) - 1, 0, -1):
                acc += coeffs[i]
                out[i - 1] = acc
            coeffs = out
            mult += 1

    def __repr__(self):
        if not self._coeffs:
            return "Polynomial(0)"
        terms = []
        for e in sorted(self._coeffs):
            terms.append(f"{self._coeffs[e]}*t^{e}")
        return "Polynomial(" + " + ".join(terms) + ")"


def _taylor_at_one(p: Polynomial, order: int) -> list:
    """Coefficients of p(1-s) as a polynomial in s, modulo s^order."""
    out = [0] * order
    for e, c in p.items():
        top = min(order - 1, e)
        for j in range(top + 1):
            term = c * comb(e, j)
            out[j] += term if j % 2 == 0 else -term
    return out


class LaurentExpansion:
    """Pole order and leading exact coefficients of an expansion in (1 - t)."""

    __slots__ = ("pole_order", "coefficients")

    def __init__(self, pole_order: int, coefficients):
        self.pole_order = pole_order
        self.coefficients = tuple(Fraction(c) for c in coefficients)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentExpansion)
            and self.pole_order == other.pole_order
            and self.coefficients == other.coefficients
        )

    def __repr__(self):
        return f"LaurentExpansion(pole={self.pole_order}, {list(self.coefficients)})"


# ---------------------------------------------------------------------------
# factored denominator views


def _expand_view(view: Counter) -> Polynomial:
    """Expand prod (1 - t^d)^mult."""
    out = Polynomial.one()
    for d in sorted(view):
        f = Polynomial.one_minus_power(d)
        for _ in range(view[d]):
            out = out * f
    return out


def _view_phi_multiset(view: Counter) -> Counter:
    """Cyclotomic content of the view: 1-t^d = prod_{e|d} Phi_e (up to sign)."""
    phis: Counter = Counter()
    for d, m in view.items():
        for e in _divisors(d):
            phis[e] += m
    return phis


def _expand_phis(phis: Counter) -> Polynomial:
    out = Polynomial.one()
    for e in sorted(phis):
        p = _cyclotomic_int(e)
        for _ in range(phis[e]):
            out = out * p
    return out


def _divisors(n: int) -> list:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _cyclotomic_int(d: int) -> Polynomial:
    # local copy to avoid an import cycle with the cyclotomic module
    from .cyclotomic import cyclotomic_poly

    return cyclotomic_poly(d)


def _greedy_refactor(phis: Counter):
    """Rewrite a cyclotomic multiset as prod (1 - t^d)^mult, or None.

    The largest index present must be the next d, so the choice is forced;
    failure means no such product form exists.
    """
    left = Counter({e: m for e, m in phis.items() if m})
    view: Counter = Counter()
    while left:
        d = max(left)
        for e in _divisors(d):
            if left[e] <= 0:
                return None
            left[e] -= 1
            if left[e] == 0:
                del left[e]
        view[d] += 1
    return view


def _poly_content_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """gcd over Q[t] by a primitive pseudo-remainder sequence."""

    def to_int(p: Polynomial):
        denom = 1
        for c in p._coeffs.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = {e: int(c * denom) for e, c in p.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, abs(v))
        if g > 1:
            ints = {e: v // g for e, v in ints.items()}
        return ints

    fa, fb = to_int(a), to_int(b)
    while fb:
        da, db = max(fa), max(fb)
        if da < db:
            fa, fb = fb, fa
            continue
        # pseudo-remainder: lc(b)^(da-db+1) * a mod b
        lead_b = fb[db]
        rem = dict(fa)
        while rem and max(rem) >= db:
            dr = max(rem)
            lead_r = rem[dr]
            g = gcd(lead_r, lead_b)
            mul_r, mul_b = lead_b // g, lead_r // g
            rem = {e: v * mul_r for e, v in rem.items()}
            for e, v in fb.items():
                ee = e + dr - db
                s = rem.get(ee, 0) - mul_b * v
                if s:
                    rem[ee] = s
                else:
                    rem.pop(ee, None)
        g = 0
        for v in rem.values():
            g = gcd(g, abs(v))
        if g > 1:
            rem = {e: v // g for e, v in rem.items()}
        fa, fb = fb, rem
    return Polynomial(fa)


class RationalFunction:
    """Reduced ratio of polynomials with canonical scaling.

    The denominator is scaled so its constant term is 1 when nonzero
    (otherwise the lowest nonzero coefficient is 1), making equality a pure
    structural comparison.  Use :func:`reduce` or the arithmetic operators to
    construct values.
    """

    __slots__ = ("numerator", "denominator", "factored_denominator", "phi_content")

    def __init__(self, numerator: Polynomial, denominator: Polynomial, factored=None, _reduced=False, phi_content=None):
        if denominator.is_zero():
            raise ZeroDenominator("zero denominator")
        if not _reduced:
            raise ValueError("construct via reduce()/from_factored()")
        self.numerator = numerator
        self.denominator = denominator
        self.factored_denominator = (
            tuple(sorted(factored.items())) if factored else None
        )
        # exact cyclotomic factorization of the reduced denominator, when known
        self.phi_content = Counter(phi_content) if phi_content is not None else None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_factored(num: Polynomial, view) -> "RationalFunction":
        """num / prod (1 - t^d)^mult, reduced by cyclotomic content."""
        view = Counter(dict(view)) if not isinstance(view, Counter) else Counter(view)
        view = Counter({d: m for d, m in view.items() if m})
        # each factor 1 - t^d is the negative of prod_{e|d} Phi_e
        if sum(view.values()) % 2:
            num = -num
        return RationalFunction._from_phi_multiset(num, _view_phi_multiset(view))

    @staticmethod
    def _from_phi_multiset(num: Polynomial, phis: Counter) -> "RationalFunction":
        """num / prod Phi_e^mult, reduced."""
        if num.is_zero():
            return RationalFunction.zero()
        num, phis = _cancel_phi_content(num, phis)
        den = Polynomial.one()
        for e, m in sorted(phis.items()):
            for _ in range(m):
                den = den * _cyclotomic_int(e)
        new_view = _greedy_refactor(phis)
        num, den = _canonical_scale(num, den)
        return RationalFunction(num, den, new_view, _reduced=True, phi_content=phis)

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), Polynomial.one(), None, _reduced=True, phi_content={})

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one(), Polynomial.one(), None, _reduced=True, phi_content={})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    @property
    def degree(self) -> int:
        if self.is_zero():
            raise ZeroFunction("degree of the zero function")
        return self.numerator.degree - self.denominator.degree

    # -- arithmetic ----------------------------------------------------------

    def view_numerator(self) -> Polynomial:
        """Numerator relative to the factored denominator view.

        Equal to ``numerator`` when the view expands to the reduced
        denominator; otherwise the reduction cofactor is multiplied back in.
        """
        if self.factored_denominator is None:
            return self.numerator
        expanded = _expand_view(Counter(dict(self.factored_denominator)))
        if expanded == self.denominator:
            return self.numerator
        out = (self.numerator * expanded).divide_exact(self.denominator)
        if out is None:
            raise InternalInvariantViolation("factored view does not cover the denominator")
        return out

    def __neg__(self):
        out = RationalFunction(
            -self.numerator, self.denominator, None, _reduced=True,
            phi_content=self.phi_content,
        )
        out.factored_denominator = self.factored_denominator
        return out

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        pa, pb = self.phi_content, other.phi_content
        if pa is not None and pb is not None:
            common = Counter({e: max(pa[e], pb[e]) for e in set(pa) | set(pb)})
            # f = sign * num / prod Phi^content with sign from the canonical
            # scaling (Phi_1 is the only factor with constant term -1)
            na = self.numerator * _expand_phis(common - pa) * (-1) ** pa[1]
            nb = other.numerator * _expand_phis(common - pb) * (-1) ** pb[1]
            return RationalFunction._from_phi_multiset(na + nb, common)
        num = self.numerator * other.denominator + other.numerator * self.denominator
        return reduce(num, self.denominator * other.denominator)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.is_zero() or other.is_zero():
            return RationalFunction.zero()
        pa, pb = self.phi_content, other.phi_content
        if pa is not None and pb is not None:
            sign = (-1) ** (pa[1] + pb[1])
            return RationalFunction._from_phi_multiset(
                self.numerator * other.numerator * sign, pa + pb
            )
        return reduce(self.numerator * other.numerator, self.denominator * other.denominator)

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroFunction("inverse of the zero function")
        return reduce(self.denominator, self.numerator)

    # -- expansions ----------------------------------------------------------

    def series_at_zero(self, order: int) -> list:
        """Taylor coefficients c_0..c_order at t=0."""
        d0 = self.denominator.coefficient(0)
        if d0 == 0:
            raise PoleAtZero("denominator vanishes at t=0")
        den_items = [(e, c) for e, c in self.denominator.items() if e > 0]
        out = []
        for m in range(order + 1):
            acc = self.numerator.coefficient(m)
            for e, c in den_items:
                if e <= m:
                    acc -= c * out[m - e]
            out.append(_quotient(acc, d0))
        return out

    def laurent_at_one(self, count: int) -> LaurentExpansion:
        """Pole order at t=1 and the first ``count`` expansion coefficients
        with respect to powers of (1 - t)."""
        if self.is_zero():
            raise ZeroFunction("Laurent expansion of the zero function")
        beta = self.denominator.one_multiplicity()
        order = beta + count
        num_s = _taylor_at_one(self.numerator, order)
        den_s = _taylor_at_one(self.denominator, order)
        alpha = 0
        while alpha < len(num_s) and num_s[alpha] == 0:
            alpha += 1
        if alpha >= len(num_s):
            raise InternalInvariantViolation("numerator expansion vanished")
        num_s = num_s[alpha:]
        den_s = den_s[beta:]
        # series division modulo s^count
        coeffs = []
        for m in range(count):
            acc = num_s[m] if m < len(num_s) else 0
            for j in range(1, m + 1):
                if j < len(den_s):
                    acc -= den_s[j] * coeffs[m - j]
            coeffs.append(_quotient(acc, den_s[0]))
        return LaurentExpansion(beta - alpha, coeffs)

    def __repr__(self):
        if self.factored_denominator:
            den = "*".join(
                f"(1-t^{d})" + (f"^{m}" if m > 1 else "")
                for d, m in self.factored_denominator
            )
        else:
            den = repr(self.denominator)
        return f"RationalFunction({self.numerator!r} / {den})"


def _canonical_scale(num: Polynomial, den: Polynomial):
    c0 = den.coefficient(0)
    if c0 == 0:
        c0 = den.coefficient(min(e for e, _ in den.items()))
    if c0 == 1:
        return num, den
    return tuple(
        Polynomial({e: _quotient(c, c0) for e, c in p.items()}) for p in (num, den)
    )


def _cancel_phi_content(num: Polynomial, phis: Counter):
    """Divide matched cyclotomic factors out of num; return (num, remaining).

    A cheap integer-point divisibility pretest (evaluation at t=2) skips
    most non-divisors before attempting an exact division.
    """
    phis = Counter(phis)
    probe = None
    if num.is_integral():
        probe = int(num.evaluate(2))
    for e in sorted(phis, reverse=True):
        while phis[e] > 0:
            phi = _cyclotomic_int(e)
            if probe is not None and e > 1:
                phi2 = int(phi.evaluate(2))
                if phi2 > 1 and probe % phi2 != 0:
                    break
            q = num.divide_exact(phi)
            if q is None:
                break
            num = q
            if probe is not None:
                probe = int(num.evaluate(2)) if num.is_integral() else None
            phis[e] -= 1
            if phis[e] == 0:
                del phis[e]
    return num, Counter({e: m for e, m in phis.items() if m})


def reduce(num: Polynomial, den: Polynomial, factored=None) -> "RationalFunction":
    """Canonical reduced rational function num/den.

    When ``factored`` (an iterable of (d, multiplicity) pairs expanding to
    ``den``) is supplied, reduction happens by cyclotomic content extraction
    and the view is refactored; otherwise a polynomial gcd is used.
    """
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    if factored is not None:
        return RationalFunction.from_factored(num, Counter(dict(factored)))
    if num.is_zero():
        return RationalFunction.zero()
    g = _poly_content_gcd(num, den)
    if g.degree and g.degree > 0:
        num = num.divide_exact(g)
        den = den.divide_exact(g)
    num, den = _canonical_scale(num, den)
    # salvage a factored view when the denominator is a clean product
    view = None
    content = None
    if den.degree == 0:
        content = Counter()
    elif den.is_integral() and den.coefficient(0) == 1 and den.degree > 0:
        view = _peel_view(den)
        if view is not None:
            content = _view_phi_multiset(view)
    return RationalFunction(num, den, view, _reduced=True, phi_content=content)


def _peel_view(den: Polynomial):
    """Write den as prod (1 - t^d)^mult by peeling the largest divisor first.

    The product form is unique when it exists (the largest cyclotomic index
    present forces the next d), so descending trial division is complete.
    Returns None when den is not of this form.
    """
    view: Counter = Counter()
    rest = den
    while rest.degree and rest.degree > 0:
        top = rest.degree
        for d in range(top, 0, -1):
            q = rest.divide_exact(Polynomial.one_minus_power(d))
            if q is not None:
                view[d] += 1
                rest = q
                break
        else:
            return None
    if rest == Polynomial.one():
        return view
    return None


def _ceil_to(n: int, step: int) -> int:
    """Smallest multiple of step that is >= n."""
    return -(-n // step) * step


def present_with_factors(f: RationalFunction):
    """Re-express f's denominator as exactly as many factors (1 - t^d) as its
    pole order at t = 1, with a nonnegative-coefficient numerator.

    This is the standard presentation of a graded Cohen-Macaulay Hilbert
    series (denominator degrees = a homogeneous system of parameters).  The
    view is the lexicographically first ascending d_1 <= ... <= d_dim with
    every d_i <= bound, where

        bound = max(deg den, max index, min(lcm of indices, max(200, 2 deg den)))

    over the cyclotomic indices of the reduced denominator, whose product
    prod (1 - t^{d_i}) is divisible by the denominator and leaves a
    numerator with no negative coefficient.  The search is exhaustive, so
    f is returned unchanged only when no such view exists (or the content
    is unknown).

    It is one depth-first search over ascending d that carries the partial
    product F * prod_chosen (1 - t^d) of the series F of f on the window
    0 .. dim*bound + deg f, as one list multiplied by (1 - t^d) in place on
    the way down and divided back on the way up.  A degree d is rejected as
    soon as a coefficient of the next partial product is negative.  That
    pruning is exact: if h = F * prod (1 - t^{d_i}) >= 0, every partial
    product is h * prod_rest 1/(1 - t^d), whose coefficients are
    nonnegative too.
    """
    content = f.phi_content
    if content is None or f.is_zero():
        return f
    nfactors = content.get(1, 0)
    if nfactors == 0:
        return f
    # factor degrees may need to reach the lcm of the content indices
    # (several high-multiplicity indices can be forced into one factor)
    cap = max(200, 2 * f.denominator.degree)
    bound = max(f.denominator.degree, max(content), min(lcm(*content), cap))
    # Phi_1 divides every factor, so only the other indices need covering;
    # each factor (1 - t^d) covers Phi_e once for every index e dividing d
    indices = sorted(e for e in content if e > 1)

    def left_lcm(counts: list) -> int:
        return lcm(*(e for e, m in zip(indices, counts) if m))

    def feasible(counts: list, slots: int, min_d: int) -> bool:
        # each index still needs its multiplicity in distinct later factors
        # and a multiple of it in [min_d, bound]; the last factor needs a
        # multiple of the lcm of all of them
        if slots == 1:
            return max(counts, default=0) <= 1 and _ceil_to(min_d, left_lcm(counts)) <= bound
        return all(
            m == 0 or (m <= slots and _ceil_to(min_d, e) <= bound)
            for e, m in zip(indices, counts)
        )

    # last index of the series window, the largest possible numerator degree
    top = nfactors * bound + f.numerator.degree - f.denominator.degree

    def dfs(counts: list, slots: int, min_d: int):
        if slots == 1:
            step = left_lcm(counts)
            candidates = range(_ceil_to(min_d, step), bound + 1, step)
        else:
            candidates = range(min_d, bound + 1)
        for d in candidates:
            if slots > 1:
                after = [m - 1 if m and d % e == 0 else m for e, m in zip(indices, counts)]
                if not feasible(after, slots - 1, d):
                    continue
            if any(arr[m] < arr[m - d] for m in range(d, top + 1)):
                continue
            if slots == 1:
                return [d]
            for m in range(top, d - 1, -1):
                arr[m] -= arr[m - d]
            rest = dfs(after, slots - 1, d)
            if rest:
                return [d] + rest
            for m in range(d, top + 1):
                arr[m] += arr[m - d]
        return None

    counts = [content[e] for e in indices]
    arr = f.series_at_zero(top)
    if any(c < 0 for c in arr) or not feasible(counts, nfactors, 1):
        return f
    view = dfs(counts, nfactors, 1)
    if view is None:
        return f
    return RationalFunction(
        f.numerator, f.denominator, Counter(view), _reduced=True,
        phi_content=content,
    )


def series_at_zero(f: RationalFunction, order: int) -> list:
    return f.series_at_zero(order)


def laurent_at_one(f: RationalFunction, count: int) -> LaurentExpansion:
    return f.laurent_at_one(count)


def degree(f: RationalFunction) -> int:
    return f.degree
