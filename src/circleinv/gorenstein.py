"""A-invariant and Gorenstein diagnosis.

The a-invariant is the degree of the Hilbert series (``f.degree``); a
Gorenstein verdict must give 2*gamma_1/gamma_0 = -a - dim, which
``a_invariant_closed_form`` reads off the gammas.  A circle invariant
ring is Cohen-Macaulay, so it is Gorenstein exactly when the series
satisfies the functional equation Hilb(1/t) = (-1)^dim t^{-a} Hilb(t)
(Stanley, "Hilbert functions of graded algebras", Adv. Math. 28, 1978).
The dimension is the pole order at t = 1 (Hilbert-Serre), so on the
reduced pair that test is a palindromy of the numerator.  Two cheap
criteria settle the verdict without the series:

* k = 1 with a_1 dividing the sum of the positive weights: Gorenstein with a
  known a-invariant;
* 2*gamma_1/gamma_0 not an integer: never Gorenstein.

An integer ratio is necessary but not sufficient, so ``analyze`` settles
the other cases with the series and the Stanley test.  n = 2 (a polynomial
ring on one generator, always Gorenstein) is flagged but takes the series
route too, since the report carries its series; ``verify_depth`` checks
that series against the oracle like any other.  Whichever route gives a
Gorenstein verdict, the ratio identity is checked once after it.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import InternalInvariantViolation
from .exact import RationalFunction
from .hilbert import _check_verify_depth, hilbert_series
from .laurent import gammas
from .weights import WeightVector

N2_POLYNOMIAL = "N2Polynomial"
K1_DIVISIBILITY = "K1Divisibility"


def stanley_test(f: RationalFunction) -> bool:
    """Exact functional-equation test Hilb(1/t) = (-1)^dim t^{-a} Hilb(t).

    Substituting 1/t turns each polynomial into its reversal times a power
    of t, and the powers cancel against t^{-a}; what remains is the
    identity rev(num)*den == (-1)^dim num*rev(den).  The reduced
    denominator is prod Phi_e^{m_e}: every Phi_e with e > 1 is palindromic
    and Phi_1 = 1 - t reverses to -(1 - t), so rev(den) = (-1)^{m_1} den.
    By Hilbert-Serre dim is the pole order at t = 1, which is m_1, so the
    signs cancel and the identity says that the numerator's coefficient
    list is a palindrome.
    """
    coeffs = f.numerator.to_dense()
    return coeffs == coeffs[::-1]


def a_invariant_closed_form(v: WeightVector) -> Fraction:
    """-2*gamma_1/gamma_0 - dim, from the closed gamma forms.

    Returns a Fraction and never rounds: a non-integer value is itself the
    obstruction (the ring cannot be Gorenstein).  zero-weight coordinates
    shift the dimension but not the gamma ratio.
    """
    g0, g1 = gammas(v, 1).values
    return -2 * g1 / g0 - v.dimension


def gamma3_relation(g0, g1, g2, g3) -> bool:
    """The order-3 Laurent relation of the functional equation at t = 1.

    With u = 1 - t, Hilb = sum_k gamma_k u^{k-dim} and c = dim + a, the
    equation Hilb(1/t) = (-1)^dim t^{-a} Hilb(t) holds to order m exactly
    when (-1)^m sum_{k<=m} gamma_k C(c-k, m-k) = gamma_m for all m, C the
    generalized binomial.  m = 1 gives c = -2*gamma_1/gamma_0 (the ratio
    test), m = 2 follows from m = 1, and m = 3 is this relation.  It is
    necessary for Gorenstein, not sufficient.
    """
    c = -2 * g1 / g0
    return 2 * g3 == -(
        g0 * c * (c - 1) * (c - 2) / 6 + g1 * (c - 1) * (c - 2) / 2 + g2 * (c - 2)
    )


def k1_sufficient(v: WeightVector) -> bool:
    """k = 1 and a_1 | sum of positive weights: implies Gorenstein with
    a-invariant (sum of all weights)/a_1 - n."""
    if v.k != 1:
        return False
    return sum(v.positives) % v.negatives[0] == 0


def _k1_a_invariant(v: WeightVector) -> int | None:
    """The a-invariant that the k = 1 criterion gives, read off the
    orientation that satisfies it, or None when neither orientation does.
    The negation has k = v.m, so it is built only when v.m == 1."""
    for u in (v, v.negate()) if v.m == 1 else (v,):
        if k1_sufficient(u):
            return sum(u.weights) // u.negatives[0] - u.dimension - 1
    return None


_REPORT_FIELDS = (
    "weights zero_count faithful_scale dimension degenerate gamma0 gamma1 ratio_2g1_g0"
    " stanley_holds sufficient_condition_hits hilbert degree"
)


class GorensteinReport(namedtuple("GorensteinReport", _REPORT_FIELDS)):
    """One vector's diagnosis.  The verdict is the Stanley test: ``classification``
    and ``ratio_is_integer`` are read off ``stanley_holds`` and ``ratio_2g1_g0``;
    ``hilbert`` (the series) and ``degree`` (the a-invariant) may be None."""

    __slots__ = ()

    # the fields spelt out, not *args, **kwargs: one report per scan vector
    def __new__(cls, weights, zero_count, faithful_scale, dimension, degenerate, gamma0, gamma1,
                ratio_2g1_g0, stanley_holds, sufficient_condition_hits=(), hilbert=None, degree=None):
        self = tuple.__new__(cls, (weights, zero_count, faithful_scale, dimension, degenerate,
                                   gamma0, gamma1, ratio_2g1_g0, stanley_holds,
                                   sufficient_condition_hits, hilbert, degree))
        if not self.ratio_is_integer and stanley_holds:
            raise InternalInvariantViolation("non-integer ratio contradicts a Gorenstein verdict")
        if sufficient_condition_hits and not stanley_holds:
            raise InternalInvariantViolation("a sufficient condition fired on a non-Gorenstein vector")
        return self

    @property
    def classification(self) -> str:
        return "Gorenstein" if self.stanley_holds else "NotGorenstein"

    @property
    def ratio_is_integer(self) -> bool:
        return self.ratio_2g1_g0.denominator == 1


def analyze(v: WeightVector, full: bool = False, verify_depth=None) -> GorensteinReport:
    """Full Gorenstein diagnosis of one validated weight vector.

    Short-circuits (skipped when ``full`` and for n = 2): the k=1
    divisibility criterion proves Gorenstein without the series, and a
    non-integer gamma ratio proves NotGorenstein without it
    (``hilbert`` stays None, and ``degree`` too in the second case); every
    other case takes the series and the Stanley test.  Every Gorenstein
    verdict, short-circuit or not, must then satisfy 2*gamma_1/gamma_0 =
    -a - dim; with ``full`` it must also satisfy ``gamma3_relation``, for
    which one pass computes gamma_0..gamma_3.  ``verify_depth`` is checked
    first, so a short-circuit refuses a bad depth as the series route does.
    """
    _check_verify_depth(verify_depth)
    values = gammas(v, 3 if full else 1).values
    g0, g1 = values[:2]
    ratio = 2 * g1 / g0
    dim = v.dimension
    hits = []
    if v.n == 2:
        hits.append(N2_POLYNOMIAL)
    k1_degree = _k1_a_invariant(v)
    if k1_degree is not None:
        hits.append(K1_DIVISIBILITY)

    f = None
    if full or v.n == 2 or (k1_degree is None and ratio.denominator == 1):
        f = hilbert_series(v, verify_depth=verify_depth)
        holds, degree = stanley_test(f), f.degree
    elif k1_degree is not None:
        holds, degree = True, k1_degree
    else:
        holds, degree = False, None
    if holds and ratio != -degree - dim:
        raise InternalInvariantViolation(
            "gamma ratio violates 2*gamma1/gamma0 = -a - dim on a Gorenstein vector"
        )
    if holds and full and not gamma3_relation(*values):
        raise InternalInvariantViolation(
            "gamma_0..gamma_3 violate the functional equation on a Gorenstein vector"
        )
    return GorensteinReport(
        weights=v.weights,
        zero_count=v.zero_count,
        faithful_scale=v.faithful_scale,
        dimension=dim,
        degenerate=not v.is_generic,
        gamma0=g0,
        gamma1=g1,
        ratio_2g1_g0=ratio,
        stanley_holds=holds,
        sufficient_condition_hits=hits,
        hilbert=f,
        degree=degree,
    )
