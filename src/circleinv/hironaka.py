"""Laurent coefficients of a Cohen-Macaulay Hilbert series from the degree
data of a Hironaka decomposition (parameter degrees alpha, module generator
degrees beta), via Todd polynomials and the log-power expansion
coefficients lambda_m(k)."""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DegreeOverflow, OutOfRange
from .exact import Polynomial, RationalFunction, _degree
from .hilbert import DEFAULT_DEGREE_LIMIT

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class HironakaData:
    alphas: tuple  # degrees of the homogeneous system of parameters, d >= 1
    betas: tuple  # degrees of the module generators, r >= 1

    def __post_init__(self):
        if not self.alphas or not self.betas:
            raise ValueError("need at least one parameter and one generator degree")
        if any(a < 1 for a in self.alphas):
            raise ValueError("parameter degrees must be positive")
        if any(b < 0 for b in self.betas):
            raise ValueError("generator degrees must be nonnegative")


def _series_mul(a, b, order):
    out = [_F0] * order
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(order - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _series_inv(a, order):
    inv0 = _F1 / a[0]
    out = [inv0] + [_F0] * (order - 1)
    for m in range(1, order):
        acc = _F0
        for j in range(1, m + 1):
            if j < len(a) and a[j]:
                acc += a[j] * out[m - j]
        out[m] = -inv0 * acc
    return out


def todd(j: int, alphas) -> Fraction:
    """Todd polynomial value td_j(e_1,...,e_d) at the given degrees: the
    x^j coefficient of prod_i (x a_i) / (1 - exp(-x a_i))."""
    order = j + 1
    product = [_F1] + [_F0] * j
    for a in alphas:
        # (1 - exp(-x a)) / (x a) = sum_i (-a)^i x^i / (i+1)!
        g = [Fraction((-a) ** i, factorial(i + 1)) for i in range(order)]
        product = _series_mul(product, g, order)
    return _series_inv(product, order)[j]


@lru_cache(maxsize=None)
def _lambda_polynomial(m: int) -> tuple:
    """Coefficients (low to high) of the degree-m polynomial lambda_m(k).

    Values at k = 0..m come from the recursion
    (m+k) lambda_m(k) - k lambda_m(k-1) = (m+k-1) lambda_{m-1}(k) with
    lambda_0 = 1 and lambda_m(0) = 0; the polynomial is interpolated from
    them and is what gets evaluated at the negative arguments phi_m needs.
    """
    if m == 0:
        return (_F1,)
    values = [_F0]  # lambda_m(0) = 0
    for k in range(1, m + 1):
        prev = _lambda_polynomial(m - 1)
        lower = _poly_eval(prev, k)
        values.append((k * values[k - 1] + (m + k - 1) * lower) / (m + k))
    # Lagrange interpolation through (0, values[0]) .. (m, values[m])
    coeffs = [_F0] * (m + 1)
    for i in range(m + 1):
        basis = [_F1]
        denom = _F1
        for j in range(m + 1):
            if j == i:
                continue
            # multiply basis by (x - j)
            nxt = [_F0] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] += c * (-j)
                nxt[d + 1] += c
            basis = nxt
            denom *= i - j
        scale = values[i] / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    return tuple(coeffs)


def _poly_eval(coeffs, x) -> Fraction:
    acc = _F0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def lambda_poly(m: int, k: int) -> Fraction:
    """lambda_m(k): the coefficient of (1-t)^{m+k} in (-log t)^k, as a
    polynomial in k evaluated at any integer (negative arguments allowed)."""
    if m < 0:
        raise OutOfRange("lambda index must be nonnegative")
    return _poly_eval(_lambda_polynomial(m), k)


@lru_cache(maxsize=None)
def _falling_factorial(m: int) -> tuple:
    """Coefficients of x (x-1) ... (x-m+1), low to high."""
    coeffs = [1]
    for i in range(m):
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c * (-i)
            nxt[d + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def stirling_first(m: int, k: int) -> int:
    """Signed Stirling number of the first kind s(m, k)."""
    if k < 0 or k > m:
        raise OutOfRange(f"s({m},{k}) undefined")
    return _falling_factorial(m)[k]


def phi(m: int, alphas, d: int) -> Fraction:
    """phi_m = sum_k lambda_{m-k}(k-d) td_k for the given parameter degrees."""
    alphas = tuple(alphas)
    if d != len(alphas):
        raise ValueError("d must equal the number of parameter degrees")
    total = _F0
    for k in range(m + 1):
        total += lambda_poly(m - k, k - d) * todd(k, alphas)
    return total


def gamma_cm(ell: int, data: HironakaData) -> Fraction:
    """Laurent coefficient gamma_ell of the series
    (sum_i t^{beta_i}) / prod_j (1 - t^{alpha_j}) at t=1."""
    alphas = data.alphas
    d = len(alphas)
    e_d = 1
    for a in alphas:
        e_d *= a
    power_sums = [Fraction(len(data.betas))]
    for k in range(1, ell + 1):
        power_sums.append(Fraction(sum(b**k for b in data.betas)))
    total = _F0
    for j in range(ell + 1):
        inner = _F0
        for k in range(j + 1):
            inner += stirling_first(j, k) * power_sums[k]
        total += Fraction((-1) ** j, factorial(j)) * phi(ell - j, alphas, d) * inner
    return total / e_d


def hilb_from_hironaka(data: HironakaData) -> RationalFunction:
    """(sum_i t^{beta_i}) / prod_j (1 - t^{alpha_j}), refused with
    ``DegreeOverflow`` before anything is allocated when the denominator
    degree or the largest beta exceeds the engine's degree limit."""
    view = Counter(data.alphas)
    for what, deg in (("denominator", _degree(view)), ("numerator", max(data.betas))):
        if deg > DEFAULT_DEGREE_LIMIT:
            raise DegreeOverflow(f"{what} degree {deg} exceeds the limit {DEFAULT_DEGREE_LIMIT}")
    return RationalFunction.from_factored(Polynomial(Counter(data.betas)), view)
