"""Exact univariate arithmetic: polynomials, rational functions and their
expansions at t=0 and t=1.

Coefficients are integers, with ``fractions.Fraction`` only where a division
needs it; there is no floating point anywhere.  Every engine polynomial is
integral (section numerators, products of 1 - t^d, cyclotomic Phi_e), and by
Gauss's lemma exact division by a monic integral Phi_e stays integral, so
the engines compute with plain ints.  A polynomial is one dense tuple of
coefficients, lowest degree first, with no trailing zeros: the kernel below
builds and reads every engine polynomial as such a list.

Cyclotomic work runs on that dense kernel.  By Moebius inversion of
1 - t^e = prod_{d|e} Phi_d (with Phi_1 taken as 1 - t, the sign convention
used throughout), Phi_e = prod_{d|e} (1 - t^d)^{mu(e/d)}, so
prod Phi_e^{m_e} = prod (1 - t^d)^{k_d} with k_d = sum_{d|e} mu(e/d) m_e
(:func:`_factor_exponents`).  Multiplying a power series truncated to a
dense list of n entries by 1 - t^d is one subtraction pass; dividing by it
adds to each entry, in ascending order, the updated entry d places below:
one running sum per residue class mod d when d*d < n, else one slice
addition per block of d entries, so at most sqrt(n) Python steps
(:func:`_apply_factors`).  Denominators, exact division by Phi_e, the
engines' lift of section numerators to a common denominator, section
numerators, series at t=0, view numerators and the presentation search are
such passes: only + and -, so ints stay ints.  The presentation search
tests the first covering view on its numerator, one pass, before it
expands a window of the series; when that view fails, the same search over
covers runs again with a window test at every level
(:func:`present_with_factors`).  Whether Phi_e divides a numerator is
decided on its fold mod t^e - 1, of at most e entries, which is taken from
the fold for a multiple of e where there is one, by cyclic differences
(:func:`_phi_divides_fold`).  A few entries of those differences, each a
signed sum of 2^omega(e) strided sums of the numerator, rule out most
Phi_e before any fold is taken (:func:`_phi_probe`).  The reduction then
divides once per round, by the product of every Phi_e that divided, so
the full-length divisions never fail (:func:`_cancel_phi_content`).
An engine that has proved the pole order of a Phi_e of its view passes
``_open``, the other indices, the only ones the reduction then decides;
the proof for one section is at :func:`circleinv.hilbert.hilbert_generic`.
The engines hand the reduction their kernel's int lists, and it builds
its Polynomial with no scan of the entries' types (:func:`_int_polynomial`).
The expansion at t = 1 runs on ints too: p(1 - s) is repeated synthetic
division by t - 1, one running sum per coefficient of s
(:func:`_taylor_at_one`), and the series division carries each
coefficient times a power of the denominator's leading entry, so
:meth:`RationalFunction.laurent_at_one` builds one Fraction per
coefficient.

Every denominator here is a product of cyclotomic polynomials (a Hilbert
series is P(t) / prod (1 - t^d)), so a rational function is always the
reduced pair num / prod Phi_e^{m_e}, reduced by cancelling each Phi_e from
the numerator, with no polynomial gcd.  A value stores the numerator, its
content {e: m_e} and an optional *factored denominator view*, a multiset of
(d, multiplicity) pairs standing for prod (1 - t^d)^multiplicity.  The
denominator and the degree are derived from the content: the Phi_e factor
uniquely, so the content fixes the denominator, and its degree is
sum k_d d.  The reduced pair is always authoritative; the view may be
unreduced.  A value comes out of one reduction
(:meth:`RationalFunction.from_factored`) and is never combined with
another: there is no rational-function arithmetic, an engine hands its
whole unreduced numerator and factored denominator to one reduction.

All values are immutable after construction and safe to share between
threads; every operation returns a fresh value.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate, islice, repeat
from math import lcm, prod
from operator import add, lt, sub

from .errors import InternalInvariantViolation, ZeroDenominator, ZeroFunction

# entries of the cyclic-difference product that _phi_probe reads before a fold
PHI_PROBES = 4


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


def _strip(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _from_dense(coeffs: list) -> "Polynomial":
    """Polynomial with the dense coefficient list coeffs, lowest degree
    first, which it takes over: trailing zeros are stripped and integral
    entries become ints.  For ``Polynomial`` arithmetic, whose entries may
    be Fractions; the kernel's int lists go through :func:`_int_polynomial`."""
    coeffs = _strip(coeffs)
    out = object.__new__(Polynomial)
    out._coeffs = tuple(coeffs if set(map(type, coeffs)) <= {int} else map(_exact, coeffs))
    return out


def _int_polynomial(a: list) -> "Polynomial":
    """Polynomial with the dense int list a, lowest degree first, which it
    takes over: trailing zeros are stripped, and there is no type scan."""
    out = object.__new__(Polynomial)
    out._coeffs = tuple(_strip(a))
    return out


class Polynomial:
    """Polynomial over Q, one dense coefficient tuple, lowest degree first,
    with no trailing zeros.  ``degree`` of the zero polynomial is None (the
    "minus infinity" marker)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        """From a map or pairs exponent -> coefficient (repeats add up)."""
        if isinstance(coeffs, dict):
            coeffs = coeffs.items()
        pairs = [(e, _exact(c)) for e, c in coeffs or ()]
        if any(e < 0 for e, _ in pairs):
            raise ValueError("negative exponent in Polynomial")
        dense = [0] * (max((e for e, c in pairs if c), default=-1) + 1)
        for e, c in pairs:
            if c:
                dense[e] += c
        self._coeffs = _from_dense(dense)._coeffs

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({0: 1})

    def items(self) -> list:
        """The nonzero (exponent, coefficient) pairs, ascending."""
        return [(e, c) for e, c in enumerate(self._coeffs) if c]

    def coefficient(self, exp: int):
        return self._coeffs[exp] if 0 <= exp < len(self._coeffs) else 0

    @property
    def degree(self):
        return len(self._coeffs) - 1 if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __neg__(self) -> "Polynomial":
        out = object.__new__(Polynomial)
        out._coeffs = tuple([-c for c in self._coeffs])
        return out

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        out[: len(b)] = map(add, a, b)
        return _from_dense(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _exact(other)
            return _from_dense([v * c for v in self._coeffs])
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Polynomial()
        # one pass over b per nonzero entry of the sparser operand
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        width = len(b)
        out = [0] * (len(a) + width - 1)
        for e, c in enumerate(a):
            if c:
                out[e : e + width] = map(add, out[e : e + width], [c * v for v in b])
        return _from_dense(out)

    __rmul__ = __mul__

    def evaluate(self, x):
        total = 0
        for c in reversed(self._coeffs):
            total = total * x + c
        return total

    def to_dense(self) -> list:
        return list(self._coeffs)

    def divmod(self, other: "Polynomial"):
        """Exact long division self = q*other + r on a dense coefficient list;
        q and r have int coefficients wherever they are integral."""
        if other.is_zero():
            raise ZeroDenominator("division by the zero polynomial")
        dd = other.degree
        lead = other._coeffs[dd]
        monic = lead == 1
        lower = [(dd - e, c) for e, c in enumerate(other._coeffs[:dd]) if c]
        rem = self.to_dense()
        q = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c:
                if not monic or type(c) is not int:
                    c = _quotient(c, lead)
                q[i - dd] = c
                for off, b in lower:
                    rem[i - off] -= c * b
        return _from_dense(q), _from_dense(rem[:dd])

    def __repr__(self):
        if not self._coeffs:
            return "Polynomial(0)"
        return "Polynomial(" + " + ".join(f"{c}*t^{e}" for e, c in self.items()) + ")"


def _taylor_at_one(p: Polynomial):
    """The coefficients of p(1 - s) as a polynomial in s, lowest first, then
    zeros without end.

    Repeated synthetic division by t - 1 writes p = sum b_j (t - 1)^j: on
    the coefficients highest first, one ``accumulate`` gives the suffix
    sums, the last of them, the remainder p(1), is b_j, and the others are
    the quotient's coefficients, highest first.  So p(1 - s) = sum (-1)^j
    b_j s^j, in + only: ints stay ints.
    """
    rest = p.to_dense()[::-1]
    sign = 1
    while rest:
        rest = list(accumulate(rest))
        yield sign * rest.pop()
        sign = -sign
    yield from repeat(0)


@dataclass(frozen=True)
class LaurentExpansion:
    """Pole order and leading exact coefficients of an expansion in (1 - t)."""

    pole_order: int
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


# ---------------------------------------------------------------------------
# factored denominator views


def _expand_view(view) -> Polynomial:
    """Expand prod (1 - t^d)^mult, a polynomial (some mult may be negative)."""
    return _int_polynomial(_apply_factors([1] + [0] * _degree(view), view))


def _view_phi_multiset(view: Counter) -> Counter:
    """Cyclotomic content of the view: 1-t^d = prod_{e|d} Phi_e, Phi_1 = 1-t."""
    phis: Counter = Counter()
    for d, m in view.items():
        for e in _divisors(d):
            phis[e] += m
    return phis


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple:
    """The divisors of n, ascending."""
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return (*small, *reversed(large))


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple:
    """The distinct primes dividing n, ascending, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return (*primes, n) if n > 1 else tuple(primes)


def _mobius(n: int) -> int:
    """The Moebius function mu(n): (-1)^omega(n) when n is the product of
    its distinct primes (:func:`_prime_factors`), else 0."""
    primes = _prime_factors(n)
    return (-1) ** len(primes) if prod(primes) == n else 0


@lru_cache(maxsize=None)
def _phi_factors(e: int) -> tuple:
    """Phi_e = prod (1 - t^d)^{mu(e/d)} over d | e (Phi_1 = 1 - t), as the
    pairs (d, mu(e/d)) with mu(e/d) != 0, d ascending."""
    return tuple((d, mu) for d in _divisors(e) if (mu := _mobius(e // d)))


def _phi_divides_fold(r: list, e: int) -> bool:
    """Whether Phi_e divides r = a mod (t^e - 1), of at most e entries.

    t^e - 1 is squarefree and prod_{p | e prime} (t^{e/p} - 1) holds every
    Phi_d with d | e except Phi_e, so Phi_e divides r exactly when that
    product times r is 0 mod t^e - 1.  Times t^k - 1 mod t^e - 1 is one
    rotate-and-subtract pass over the e entries.  For e = 1 the product is
    1 and r is [a(1)].
    """
    r = r + [0] * (e - len(r))
    for p in _prime_factors(e):
        k = e // p
        r = list(map(sub, r[-k:] + r[:-k], r))
    return not any(r)


@lru_cache(maxsize=None)
def _probe_terms(e: int) -> tuple:
    """prod_{p | e prime} (t^{e/p} - 1) as its (exponent mod e, sign)
    terms, one per set of primes."""
    terms = ((0, 1),)
    for p in _prime_factors(e):
        terms = tuple((s + e // p, sign) for s, sign in terms) + tuple((s, -sign) for s, sign in terms)
    return tuple((s % e, sign) for s, sign in terms)


def _phi_probe(source: list, e: int) -> bool:
    """False when one of the first PHI_PROBES entries of r prod_{p | e
    prime} (t^{e/p} - 1) mod (t^e - 1), r = source mod (t^e - 1), is
    nonzero: then Phi_e does not divide source (the lemma of
    :func:`_phi_divides_fold`); True says nothing.  Times t^s mod
    t^e - 1 rotates by s, so entry j is the signed sum of r_{(j - s) mod
    e} over the 2^omega(e) terms, and r_i is the strided sum
    sum(source[i::e])."""
    for j in range(min(PHI_PROBES, e)):
        total = 0
        for s, sign in _probe_terms(e):
            total += sign * sum(source[(j - s) % e :: e])
        if total:
            return False
    return True


def _factor_exponents(phis) -> dict:
    """The nonzero k_d with prod Phi_e^{m_e} = prod (1 - t^d)^{k_d}, Phi_1 =
    1 - t: k_d = sum of mu(e/d) m_e over the multiples e of d."""
    ks = {}
    for e, m in phis.items():
        for d, mu in _phi_factors(e):
            ks[d] = ks.get(d, 0) + mu * m
    return {d: k for d, k in ks.items() if k}


def _apply_factors(a: list, ks) -> list:
    """Multiply a in place, as a power series truncated to n = len(a), by
    prod (1 - t^d)^{k_d}; return a.

    Times 1 - t^d is one slice subtraction.  Over 1 - t^d each entry, in
    ascending order, adds the updated entry d places below it: one running
    sum per residue class mod d when d*d < n, else one slice addition per
    block of d entries, each block added to the next, so a pass takes at
    most sqrt(n) Python steps.
    """
    n = len(a)
    for d, k in ks.items():
        if d >= n:
            continue
        for _ in range(k):  # times 1 - t^d
            a[d:] = map(sub, a[d:], a[: n - d])
        for _ in range(-k):  # over 1 - t^d
            if d * d < n:
                for r in range(d):
                    a[r::d] = accumulate(a[r::d])
            else:
                for s in range(d, n, d):
                    a[s : s + d] = map(add, a[s : s + d], a[s - d : s])
    return a


def _series(coeffs, inverse: dict, order: int) -> list:
    """The Taylor coefficients 0..order of the numerator ``coeffs`` over
    prod (1 - t^d)^{-inverse_d}, one kernel pass (:func:`_apply_factors`)."""
    out = list(coeffs[: order + 1])
    out += [0] * (order + 1 - len(out))
    return _apply_factors(out, inverse)


def _fold(a: list, e: int) -> list:
    """a mod (t^e - 1), a copy of a when len(a) <= e: entry i sums the
    entries of a in the class of i mod e, with the kernel's rule, one sum
    per class when e*e < len(a), else one slice addition per block of e
    entries."""
    n = len(a)
    if e * e < n:
        return [sum(a[i::e]) for i in range(e)]
    r = a[:e]
    for s in range(e, n, e):
        r[: n - s] = map(add, r, a[s : s + e])
    return r


def _degree(ks) -> int:
    """Degree of prod (1 - t^d)^{k_d} when it is a polynomial."""
    return sum(d * k for d, k in ks.items())


class RationalFunction:
    """Numerator over prod Phi_e^{m_e}, reduced by that cyclotomic content.

    A value stores the numerator, the content {e: m_e} as ``phi_content``
    and an optional factored denominator view.  The denominator and the
    degree are derived from the content: with Phi_1 taken as 1 - t the
    denominator has constant term 1, and the Phi_e factor uniquely, so the
    content fixes it and equality is a pure structural comparison of
    numerator and content.  Build values with :meth:`from_factored`; there
    are no arithmetic operators.
    """

    __slots__ = ("numerator", "phi_content", "factored_denominator")

    def __init__(self, numerator: Polynomial, phi_content, factored, _reduced=False):
        if not _reduced:
            raise ValueError("construct via from_factored()")
        self.numerator = numerator
        # the denominator is prod Phi_e^{m_e} over this multiset
        self.phi_content = Counter(phi_content)
        self.factored_denominator = (
            tuple(sorted(factored.items())) if factored else None
        )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_factored(num, view, _open=None) -> "RationalFunction":
        """num / prod (1 - t^d)^mult, reduced by cyclotomic content (Phi_1 =
        1 - t, so the denominator has constant term 1, the canonical
        scaling).

        num is a Polynomial or a dense int list, lowest degree first, which
        is taken over (the engines hand in the list their kernel built).
        ``_open``, when given, holds the only indices e whose Phi_e may
        cancel; the engine that passes it has proved the pole order of
        every other Phi_e of the view (:func:`_cancel_phi_content`)."""
        view = {d: m for d, m in dict(view).items() if m}
        if 0 in view:
            raise ZeroDenominator("factor 1 - t^0 = 0 in the view")
        if any(d < 0 for d in view):
            raise ValueError("negative degree in the view")
        if type(num) is list:
            _strip(num)
        if not num:
            return RationalFunction.zero()
        num, phis = _cancel_phi_content(num, _view_phi_multiset(view), _open)
        ks = _factor_exponents(phis)
        # the k_d are unique, so the denominator is a product of (1 - t^d)
        # factors exactly when every k_d is positive
        view = ks if all(k > 0 for k in ks.values()) else None
        return RationalFunction(num, phis, view, _reduced=True)

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), {}, None, _reduced=True)

    # -- queries ------------------------------------------------------------

    @property
    def denominator(self) -> Polynomial:
        """prod Phi_e^{m_e}, expanded from the content on each read."""
        return _expand_view(_factor_exponents(self.phi_content))

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.numerator == other.numerator
            and self.phi_content == other.phi_content
        )

    def __hash__(self):
        return hash((self.numerator, frozenset(self.phi_content.items())))

    @property
    def degree(self) -> int:
        if self.is_zero():
            raise ZeroFunction("degree of the zero function")
        return self.numerator.degree - _degree(_factor_exponents(self.phi_content))

    # -- views --------------------------------------------------------------

    def view_numerator(self) -> Polynomial:
        """Numerator relative to the factored denominator view.

        Equal to ``numerator`` when the view expands to the reduced
        denominator; otherwise the reduction cofactor, prod Phi_e over the
        content of the view beyond the denominator's, is multiplied back in
        by one kernel pass.
        """
        if self.factored_denominator is None:
            return self.numerator
        phis = _view_phi_multiset(dict(self.factored_denominator))
        content = self.phi_content
        if phis == content:
            return self.numerator
        if content - phis:
            raise InternalInvariantViolation("factored view does not cover the denominator")
        ks = _factor_exponents(phis - content)
        return _from_dense(_apply_factors(self.numerator.to_dense() + [0] * _degree(ks), ks))

    # -- expansions ----------------------------------------------------------

    def series_at_zero(self, order: int) -> list:
        """Taylor coefficients c_0..c_order at t=0: the numerator times
        prod (1 - t^d)^{-k_d}, only + and -, so the entries are ints when the
        numerator's are."""
        inverse = {d: -k for d, k in _factor_exponents(self.phi_content).items()}
        out = _series(self.numerator._coeffs, inverse, order)
        if set(map(type, self.numerator._coeffs)) <= {int}:
            return out
        return [_exact(c) for c in out]

    def laurent_at_one(self, count: int) -> LaurentExpansion:
        """Pole order at t=1 and the first ``count`` expansion coefficients
        with respect to powers of s = 1 - t, as Fractions.

        Both Taylor expansions at s = 0 are synthetic divisions in ints
        (:func:`_taylor_at_one`), and the numerator's multiplicity alpha of
        (1 - t) is the number of its leading zeros, counted as they come.
        The series division modulo s^count carries C_m = c_m d0^(m+1), d0
        the denominator's leading entry:

            C_m = n_m d0^m - sum_{j=1..m} d_j C_{m-j} d0^(j-1),

        so it runs in ints too, and each c_m is one Fraction(C_m, d0^(m+1)).
        """
        if self.is_zero():
            raise ZeroFunction("Laurent expansion of the zero function")
        # (1 - t) divides the denominator exactly m_1 times (Phi_e(1) != 0
        # for e > 1), so d0 below is nonzero
        beta = self.phi_content.get(1, 0)
        num = _taylor_at_one(self.numerator)
        alpha = 0
        while not (lead := next(num)):
            alpha += 1
        num_s = [lead, *islice(num, max(count - 1, 0))]
        den_s = list(islice(_taylor_at_one(self.denominator), beta, beta + count))
        powers = [1]  # d0^m
        for _ in range(count):
            powers.append(powers[-1] * den_s[0])
        scaled = []  # C_m
        for m in range(count):
            acc = num_s[m] * powers[m]
            for j in range(1, m + 1):
                acc -= den_s[j] * scaled[m - j] * powers[j - 1]
            scaled.append(acc)
        return LaurentExpansion(beta - alpha, map(Fraction, scaled, powers[1:]))

    def __repr__(self):
        if self.factored_denominator:
            den = "*".join(
                f"(1-t^{d})" + (f"^{m}" if m > 1 else "")
                for d, m in self.factored_denominator
            )
        else:
            den = repr(self.denominator)
        return f"RationalFunction({self.numerator!r} / {den})"


def _cancel_phi_content(num, phis: Counter, open_indices=None):
    """Divide matched cyclotomic factors out of num; return (num, remaining).

    num is a Polynomial, whose entries may be Fractions, or a dense int
    list ending in a nonzero entry, which is read and never modified; the
    quotient of an int list is built with no type scan.  When
    ``open_indices`` is given, only those Phi_e are decided: every other
    one keeps its multiplicity, a pole order its caller has proved.

    The work runs in rounds on the dense numerator a.  A round decides every
    open Phi_e (Phi_1 = 1 - t), largest e first, on the fold a mod
    (t^e - 1) of at most e entries (:func:`_fold`), which is exact because
    Phi_e divides t^e - 1.  Since t^e - 1 divides t^e' - 1 when e | e', a
    mod (t^e - 1) = (a mod (t^e' - 1)) mod (t^e - 1), so each fold is
    taken from the shortest fold of the round for a multiple of e, or from
    a when there is none; each Phi_e is decided by omega(e) cyclic
    differences of its fold (:func:`_phi_divides_fold`), with no division,
    and Phi_1's fold is a(1).  Before it is folded, an open Phi_e is
    probed on that source: a nonzero one of the first PHI_PROBES entries
    of the cyclic differences, each a signed sum of 2^omega(e) strided sums
    of the source (:func:`_phi_probe`), proves that Phi_e does not divide
    a, with no fold; only the full test says that Phi_e divides.  Distinct
    Phi_e are coprime, so their product divides a when each of them does:
    the round divides a once by the product of those that divided
    (:func:`_divide_phi`), and that division must be exact.  The next
    round decides again only the indices that divided and still have
    multiplicity left; by unique factorization each Phi_e cancels min(m_e,
    its multiplicity in num) times.  A negative multiplicity is a numerator
    factor: it is multiplied in, and the remaining content is the positive
    part.
    """
    phis = Counter(phis)
    if isinstance(num, Polynomial):
        a, build = num.to_dense(), _from_dense
    else:
        a, build = num, _int_polynomial
    pending = sorted(
        (e for e, m in phis.items() if m > 0 and (open_indices is None or e in open_indices)),
        reverse=True,
    )
    while pending:
        folds = {}
        divided = []
        for e in pending:
            source = a
            for f, r in folds.items():
                if f % e == 0 and len(r) < len(source):
                    source = r
            if not _phi_probe(source, e):
                continue
            folds[e] = r = _fold(source, e)
            if _phi_divides_fold(r, e):
                divided.append(e)
        if not divided:
            break
        inverse = _factor_exponents({e: -1 for e in divided})
        a = _divide_phi(a, inverse, -_degree(inverse))
        if a is None:
            raise InternalInvariantViolation(f"Phi_e for e in {divided} divide the folds only")
        for e in divided:
            phis[e] -= 1
        pending = [e for e in divided if phis[e]]
    extra = _factor_exponents({e: -m for e, m in phis.items() if m < 0})
    if extra:
        a = _apply_factors(a + [0] * _degree(extra), extra)
    return build(a), +phis


def _divide_phi(a: list, inverse: dict, width: int):
    """The dense quotient of the polynomial a by a product of distinct
    Phi_e, or None when that product does not divide a; ``inverse`` is
    {d: -k_d}, the factors of its inverse (:func:`_factor_exponents`), and
    width = sum k_d d is its degree.  The product divides a exactly when
    a times its inverse, as a series truncated to len(a), ends in width
    zeros: the rest is the quotient."""
    q = _apply_factors(a[:], inverse)
    if any(q[-width:]):
        return None
    del q[-width:]
    return q


def _ceil_to(n: int, step: int) -> int:
    """Smallest multiple of step that is >= n."""
    return -(-n // step) * step


def _uncovered(indices, counts, d: int) -> tuple:
    """counts after one factor (1 - t^d): each needed index dividing d is
    covered once."""
    return tuple(m - 1 if m and d % e == 0 else m for e, m in zip(indices, counts))


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
    f is returned unchanged only when no such view exists.

    One cover search picks every degree.  It steps, level by level, only
    over the candidates ceil(lo / g) * g, g the lcm of the forced indices
    and of the needed indices that divide the candidate.  An index still
    needed in as many factors as are open must divide every one of them
    (forced); for the last factor that is every index still needed.  The
    first d with a cover after it is such a candidate, and the candidates
    come off a heap in ascending order: a d with no cover after it sends
    on g times each needed index it misses, since the counts left after d
    depend only on which needed indices divide it.  A d that comes off the
    heap twice, with two steps g, has the same outcome and sends on along
    both.  A state (remaining counts, open factors) has no cover when a
    count exceeds the open factors, an index has no multiple in
    [lo, bound] or no candidate has a cover after it.  That can only
    become true as lo grows, so the smallest such lo is remembered and
    larger lo skip the state.  A test may reject a degree d, never its
    divisor pattern: a rejected d sends on d + g, the next candidate with
    the same g, and a search that rejected a degree leaves no memo entry.

    The first cover is tested before any window of the series F of f is
    expanded.  A view has h = F * prod (1 - t^{d_i}) >= 0, so
    F * (1 - t^{d_1}) = h * prod_{i > 1} 1/(1 - t^{d_i}) >= 0 too, and its
    coefficient at t^{d_1} is F[d_1] - F[0]: no view starts at a degree d
    with F[d] < F[0] (the pair test; den(0) = 1).  The cover search with
    the pair test on its first degree finds the lexicographically first
    ascending tuple that covers the denominator and whose first degree
    passes the pair test.  Every smaller tuple fails to cover or starts at
    a degree that fails the pair test, so none is a view: when the tuple's
    numerator h, one kernel pass over the reduced numerator with k_d = its
    multiplicity of d minus the content's, is nonnegative, it is the view.
    The pair test reads F only up to the first degrees it tries (at most
    the bound), expanded by doubling.  No cover passing the pair test means
    no view.

    When h has a negative coefficient, no view starts below the tuple's
    first degree, and the same cover search runs again from there with the
    window test at every level.  It carries the partial product
    F * prod_chosen (1 - t^d) on a window 0 .. w, one list multiplied by
    (1 - t^d) in place on the way down and divided back on the way up.  A
    degree d that passes the window test is multiplied in only when a
    cover follows it, and the degrees after it are searched from that
    cover's first degree, so covering is decided before any coefficient
    after d is read.  A view through d has a numerator of degree at least
    reach = sum chosen + (open factors) * d + deg f.  The window starts at
    w = dim * deg den + deg f (deg den <= bound); when reach passes it, it
    grows to min(top, max(reach, 2 (w + 1))), top = dim * bound + deg f
    the largest numerator degree: F is expanded again and the chosen
    factors are multiplied back in.  The window test rejects d when a
    coefficient of the next partial product in the window is negative.
    That is exact: if h = F * prod (1 - t^{d_i}) >= 0, every partial
    product is h * prod_rest 1/(1 - t^d), whose coefficients are
    nonnegative too.  A d that no view continues is a rejection, not a
    missing cover: a later d' with its divisor pattern gives another
    partial product and may still start a view.  The last factor d
    completes a view that covers the denominator, so h is its numerator, a
    polynomial of degree reach: d is accepted only when all of h,
    0 .. reach, is nonnegative, the entries below d included.  So the view
    is the one a window of 0 .. top gives.
    """
    content = f.phi_content
    nfactors = content.get(1, 0)
    if nfactors == 0:
        return f
    # the content's k_d: F = num * prod (1 - t^d)^{inverse_d}
    inverse = {d: -k for d, k in _factor_exponents(content).items()}
    den_degree = -_degree(inverse)
    # factor degrees may need to reach the lcm of the content indices
    # (several high-multiplicity indices can be forced into one factor)
    cap = max(200, 2 * den_degree)
    bound = max(den_degree, max(content), min(lcm(*content), cap))
    # Phi_1 divides every factor, so only the other indices need covering;
    # each factor (1 - t^d) covers Phi_e once for every index e dividing d
    indices = sorted(e for e in content if e > 1)

    # (counts, slots) -> smallest lo from which that state was found to have
    # no cover; that only goes from false to true as lo grows
    failed = {}

    def first_cover(counts: tuple, slots: int, lo: int, rejects=None, window=False):
        # the lexicographically first ascending slots-tuple in [lo, bound]
        # that covers counts, or None; with rejects, the first whose first
        # degree d has not rejects(d, slots), and with window, the first
        # whose every degree passes, each chosen degree multiplied into the
        # window while the degrees after it are searched
        state = (counts, slots)
        if lo >= failed.get(state, bound + 1):
            return None
        needed = [e for e, m in zip(indices, counts) if m]
        if not needed and (rejects is None or not slots):
            return (lo,) * slots
        if slots == 1 and rejects is None:
            d = _ceil_to(lo, lcm(*needed))
            if d <= bound and max(counts) == 1:
                return (d,)
        elif max(counts, default=0) <= slots and all(_ceil_to(lo, e) <= bound for e in needed):
            # each index needs its multiplicity in distinct factors and a
            # multiple in [lo, bound]; the first d with a cover after it is
            # ceil(lo / g) * g for g the lcm of the forced indices and of
            # the needed indices that divide d; the candidates come in
            # ascending order, and a d with no cover after it sends on g
            # times each needed index that d misses
            step = lcm(*(e for e, m in zip(indices, counts) if m == slots))
            heap = [(_ceil_to(lo, step), step)]
            seen = {step}
            last = None
            while heap:
                d, g = heappop(heap)
                if d > bound:
                    break
                if d != last:
                    # a second pop of d, with another step, has the same
                    # outcome and sends on along its own step
                    last = d
                    rejected = rejects is not None and rejects(d, slots)
                    if not rejected:
                        after = _uncovered(indices, counts, d)
                        rest = first_cover(after, slots - 1, d)
                        if rest and window:
                            # a cover follows d and none starts below its
                            # first degree: search the window from there
                            chosen.append(d)
                            _apply_factors(arr, {d: 1})
                            rest = first_cover(after, slots - 1, rest[0], rejects, True)
                            if rest is None:
                                _apply_factors(arr, {d: -1})
                                chosen.pop()
                                rejected = True
                        if rest is not None:
                            return (d, *rest)
                if rejected:
                    # this rejects the degree d, not its divisor pattern
                    heappush(heap, (d + g, g))
                    continue
                for e in needed:
                    if d % e and (h := lcm(g, e)) <= bound and h not in seen:
                        seen.add(h)
                        heappush(heap, (_ceil_to(lo, h), h))
            if rejects is not None:
                # a rejection is no proof that the state has no cover
                return None
        failed[state] = lo
        return None

    num = f.numerator._coeffs
    series = num[:1]

    def fails_pair(d: int, slots: int) -> bool:
        # a view whose first degree is d has F[d] >= F[0]; F grows by
        # doubling as d does
        nonlocal series
        if d >= len(series):
            series = _series(num, inverse, min(bound, 2 * d))
        return series[d] < series[0]

    counts = tuple(content[e] for e in indices)
    cover = first_cover(counts, nfactors, 1, fails_pair)
    if cover is None:
        return f
    # h = num * prod (1 - t^{d_i}) / den, a polynomial: the view's numerator
    ks = dict(inverse)
    for d in cover:
        ks[d] = ks.get(d, 0) + 1
    h = list(num)
    h += [0] * (sum(cover) - den_degree)
    if min(_apply_factors(h, ks)) >= 0:
        return RationalFunction(f.numerator, content, Counter(cover), _reduced=True)

    deg = f.numerator.degree - den_degree
    # the largest possible numerator degree, the most the window can need
    top = nfactors * bound + deg
    # the degrees multiplied into arr, outermost first
    chosen = []

    def outside_window(d: int, slots: int) -> bool:
        # whether the next partial product arr * (1 - t^d) has a negative
        # coefficient in the window, which is first grown to reach, the
        # smallest numerator degree of a view through d
        reach = sum(chosen) + slots * d + deg
        if reach >= len(arr):
            arr[:] = _series(num, inverse, min(top, max(reach, 2 * len(arr))))
            _apply_factors(arr, Counter(chosen))
        if slots > 1:
            return any(map(lt, islice(arr, d, None), arr))
        # the view covers the denominator, so h = arr * (1 - t^d) is its
        # numerator, of degree reach: check all of it
        end = reach + 1
        return min(arr[: min(d, end)]) < 0 or any(map(lt, islice(arr, d, end), arr))

    # bound >= deg den, so this window is at most top
    arr = _series(num, inverse, nfactors * den_degree + deg)
    if min(arr) < 0:
        return f
    # no view starts below the cover's first degree
    view = first_cover(counts, nfactors, cover[0], outside_window, True)
    if view is None:
        return f
    return RationalFunction(f.numerator, content, Counter(view), _reduced=True)
