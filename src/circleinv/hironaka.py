"""Laurent coefficients of a Cohen-Macaulay Hilbert series from the degree
data of a Hironaka decomposition (parameter degrees alpha, module generator
degrees beta): gamma_ell = sum_j (-1)^j / j! phi_{ell-j} M_j / e_d, where
M_j = sum_i beta_i (beta_i - 1) ... (beta_i - j + 1) is the falling-factorial
form of sum_k s(j,k) p_k(beta), and phi_n = sum_k lambda_{n-k}(k-d) td_k
takes the Todd values from one product series.  The oracle,
``hilb_from_hironaka(data).laurent_at_one``, shares no code with it."""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .errors import OutOfRange, ValidationError, check_int
from .exact import Polynomial, RationalFunction, _degree
from .hilbert import _check_degree

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class HironakaData:
    alphas: tuple  # degrees of the homogeneous system of parameters, d >= 1
    betas: tuple  # degrees of the module generators, r >= 1

    def __post_init__(self):
        if not self.alphas or not self.betas:
            raise ValidationError("need at least one parameter and one generator degree")
        if any(a < 1 for a in self.alphas):
            raise ValidationError("parameter degrees must be positive")
        if any(b < 0 for b in self.betas):
            raise ValidationError("generator degrees must be nonnegative")


def _todd_values(alphas, m: int) -> list:
    """td_0..td_m at the given degrees: the inverse of the one product over
    a of (1 - exp(-x a)) / (x a) = sum_j (-a)^j x^j / (j+1)!, whose
    constant term is 1."""
    if m < 0:
        raise OutOfRange("Todd and Laurent indices must be nonnegative")
    product = [_F1] + [_F0] * m
    for a in alphas:
        g = [Fraction((-a) ** j, factorial(j + 1)) for j in range(m + 1)]
        product = [sum(product[i] * g[n - i] for i in range(n + 1)) for n in range(m + 1)]
    inverse = [_F1]
    for n in range(1, m + 1):
        inverse.append(-sum(product[j] * inverse[n - j] for j in range(1, n + 1)))
    return inverse


def todd(j: int, alphas) -> Fraction:
    """Todd polynomial value td_j(e_1,...,e_d) at the given degrees: the
    x^j coefficient of prod_i (x a_i) / (1 - exp(-x a_i))."""
    return _todd_values(alphas, j)[j]


def lambda_poly(m: int, k: int) -> Fraction:
    """lambda_m(k): the coefficient of (1-t)^{m+k} in (-log t)^k, for any
    integer k, negative k included.  With s = 1 - t, -log t = s L(s) and
    L(s) = sum_j s^j / (j+1), so lambda_m(k) is the s^m coefficient of
    P = L^k, a power series since L(0) = 1; P' L = k L' P gives P_0 = 1 and
    i P_i = sum_{j=1..i} ((k+1) j - i) P_{i-j} / (j+1)."""
    if m < 0:
        raise OutOfRange("lambda index must be nonnegative")
    p = [_F1]
    for i in range(1, m + 1):
        p.append(sum(Fraction((k + 1) * j - i, j + 1) * p[i - j] for j in range(1, i + 1)) / i)
    return p[m]


def _phis(alphas, m: int) -> list:
    """phi_0..phi_m for the given parameter degrees, from one Todd product:
    phi_n = sum_k lambda_{n-k}(k-d) td_k."""
    d = len(alphas)
    td = _todd_values(alphas, m)
    return [sum(lambda_poly(n - k, k - d) * td[k] for k in range(n + 1)) for n in range(m + 1)]


def phi(m: int, alphas) -> Fraction:
    """phi_m = sum_k lambda_{m-k}(k-d) td_k for the given parameter degrees,
    d = len(alphas)."""
    return _phis(tuple(alphas), m)[m]


def gammas_cm(upto: int, data: HironakaData) -> list:
    """Laurent coefficients gamma_0..gamma_upto of the series
    (sum_i t^{beta_i}) / prod_j (1 - t^{alpha_j}) at t=1, from one Todd
    product (phi_0..phi_upto) and the moments M_0..M_upto of the betas
    summed as falling factorials.  An upto that is no int is refused with
    ``ValidationError``, a negative one with ``OutOfRange``."""
    check_int("upto", upto)
    phis = _phis(data.alphas, upto)
    moments = [0] * (upto + 1)
    for b in data.betas:
        falling = 1
        for j in range(upto + 1):
            moments[j] += falling
            falling *= b - j
    terms = [Fraction((-1) ** j * m, factorial(j)) for j, m in enumerate(moments)]
    e_d = prod(data.alphas)
    return [sum(terms[j] * phis[ell - j] for j in range(ell + 1)) / e_d for ell in range(upto + 1)]


def gamma_cm(ell: int, data: HironakaData) -> Fraction:
    """Laurent coefficient gamma_ell, the last of ``gammas_cm(ell, data)``."""
    return gammas_cm(ell, data)[ell]


def hilb_from_hironaka(data: HironakaData) -> RationalFunction:
    """(sum_i t^{beta_i}) / prod_j (1 - t^{alpha_j}), refused with
    ``DegreeOverflow`` before anything is allocated when the denominator
    degree or the largest beta exceeds the engines' ``DEGREE_LIMIT``."""
    view = Counter(data.alphas)
    _check_degree("denominator degree", _degree(view))
    _check_degree("numerator degree", max(data.betas))
    return RationalFunction.from_factored(Polynomial(Counter(data.betas)), view)
