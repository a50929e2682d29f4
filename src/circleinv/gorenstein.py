"""A-invariant and Gorenstein diagnosis.

The a-invariant is the degree of the Hilbert series (``f.degree``); a
Gorenstein verdict must give 2*gamma_1/gamma_0 = -a - dim, which
``a_invariant_closed_form`` reads off the gammas.  A circle invariant
ring is Cohen-Macaulay, so it is Gorenstein exactly when the series
satisfies the functional equation Hilb(1/t) = (-1)^dim t^{-a} Hilb(t)
(Stanley, "Hilbert functions of graded algebras", Adv. Math. 28, 1978).
The dimension is the pole order at t = 1 (Hilbert-Serre), so on the
reduced pair that test is a palindromy of the numerator.  Three cheap
criteria settle the verdict without the Stanley test:

* n = 2: the ring is a polynomial ring on one generator (always Gorenstein);
  its series still comes from the section engine, so ``verify_depth``
  checks it against the oracle like any other;
* k = 1 with a_1 dividing the sum of the positive weights: Gorenstein with a
  known a-invariant;
* 2*gamma_1/gamma_0 not an integer: never Gorenstein.

The integer ratio 2*gamma_1/gamma_0 being an integer is necessary but not
sufficient - ``analyze`` settles the inconclusive cases with the series.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InternalInvariantViolation
from .exact import RationalFunction
from .hilbert import hilbert_series
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
    return -2 * g1 / g0 - (v.n - 1 + v.zero_count)


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
    orientation that satisfies it, or None when neither orientation does."""
    for u in (v, v.negate()):
        if k1_sufficient(u):
            return sum(u.weights) // u.negatives[0] - u.n - u.zero_count
    return None


@dataclass
class GorensteinReport:
    """One vector's diagnosis.  The verdict is the Stanley test:
    ``classification`` and ``ratio_is_integer`` are read off
    ``stanley_holds`` and ``ratio_2g1_g0``."""

    weights: tuple
    zero_count: int
    faithful_scale: int
    dimension: int
    degenerate: bool
    gamma0: Fraction
    gamma1: Fraction
    ratio_2g1_g0: Fraction
    stanley_holds: bool
    sufficient_condition_hits: list = field(default_factory=list)
    hilbert: RationalFunction | None = None
    degree: int | None = None

    def __post_init__(self):
        if not self.ratio_is_integer and self.stanley_holds:
            raise InternalInvariantViolation("non-integer ratio contradicts a Gorenstein verdict")
        if self.sufficient_condition_hits and not self.stanley_holds:
            raise InternalInvariantViolation("a sufficient condition fired on a non-Gorenstein vector")

    @property
    def classification(self) -> str:
        return "Gorenstein" if self.stanley_holds else "NotGorenstein"

    @property
    def ratio_is_integer(self) -> bool:
        return self.ratio_2g1_g0.denominator == 1


def analyze(v: WeightVector, full: bool = False, verify_depth=None) -> GorensteinReport:
    """Full Gorenstein diagnosis of one validated weight vector.

    Short-circuits (skipped when ``full``): n=2 proves Gorenstein without
    the Stanley test, and the k=1 divisibility criterion without the
    series; a non-integer gamma ratio proves NotGorenstein without the
    series (``hilbert``/``degree`` stay None in that case).  A Gorenstein
    verdict must satisfy 2*gamma_1/gamma_0 = -a - dim; with ``full`` it
    must also satisfy ``gamma3_relation``, for which one pass computes
    gamma_0..gamma_3.
    """
    values = gammas(v, 3 if full else 1).values
    g0, g1 = values[:2]
    ratio = 2 * g1 / g0
    dim = v.n - 1 + v.zero_count
    hits = []
    if v.n == 2:
        hits.append(N2_POLYNOMIAL)
    k1_degree = _k1_a_invariant(v)
    if k1_degree is not None:
        hits.append(K1_DIVISIBILITY)

    f = None
    if v.n == 2 and not full:
        f = hilbert_series(v, verify_depth=verify_depth)
        holds, degree = True, f.degree
    elif k1_degree is not None and not full:
        holds, degree = True, k1_degree
    elif ratio.denominator != 1 and not full:
        holds, degree = False, None
    else:
        f = hilbert_series(v, verify_depth=verify_depth)
        degree = f.degree
        holds = stanley_test(f)
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
