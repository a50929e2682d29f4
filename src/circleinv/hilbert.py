"""Hilbert series of circle invariants as exact rational functions.

Two routes to the series and the counting oracle they are checked against:

* generic path: for each negative weight a_i (N = -a_i) the integrand's
  residues sum to a series section - take the power series of
  Psi_i(u) = 1/prod_{j!=i}(1 - u^{a_j - a_i}) and keep every N-th
  coefficient.  On rational functions the section gets one denominator
  factor 1 - t^{c/g}, g = gcd(N, c), per source factor 1 - u^c: the
  section is (1/N) sum_{zeta^N = 1} F(zeta t^{1/N}), and its pole at a root
  of unity rho has order at most #{c : rho^{c/g} = 1}, since a zeta-term
  with (zeta s0)^c = 1, s0^N = rho, has rho^{c/g} = 1.  The numerator
  has degree below D' = sum c/g, the view's degree, as the section is
  proper.  With one or two factors (every n=3 vector) it is read off the
  lattice points of one period (Beck-Robins, Computing the Continuous
  Discretely, ch. 1): 1/(1 - u^c) = sum_{x < N/g} u^{cx} / (1 -
  u^{lcm(N, c)}) and u^{lcm(N, c)} = t^{c/g}, so the numerator is sign *
  sum t^{(shift + sum c_i x_i)/N} over the box x_i < N/g_i, restricted to
  the points with N | shift + sum c_i x_i, and the source series is never
  built.  With more factors it is fitted to the first D'+1 kept
  coefficients of the source series.  The sections stay unreduced: their
  numerators are lifted to the union of their cyclotomic contents and
  summed.

* pair-invariant path (repeated weights on both sides): for a < 0 < b and
  g = gcd(a, b) the pair invariants x_i^{b/g} x_j^{-a/g} cut out the
  nullcone, so by Hilbert's criterion the invariant ring is a finite module
  over them and Hilbert-Serre gives Hilb = P(t) / prod (1 - t^{(b-a)/g}).
  Its coefficients are nonnegative, so |Hilb(r rho)| <= Hilb(r) for
  0 < r < 1 and no pole order exceeds the one at t = 1, the dimension
  n - 1: each Phi_e of that product's content is kept at most n - 1
  times.  The a-invariant is negative (Boutot; Watanabe), so deg P < D'',
  the capped denominator's degree, and the first D'' oracle coefficients
  fix P exactly.

* oracle: the m-th coefficient counts exponent vectors with weighted sum
  zero and total degree m, by dynamic programming over degree rows packed
  into single ints - no residues involved.  The side of smaller reach
  shifts up first and the other side down, so only sums that can still
  return to 0 keep a lane.

Each zero weight is a free generator, a factor 1/(1 - t) that both engines
add to their denominator without touching the numerator.  Each engine then
reduces its one numerator, the int list its kernel built, over its one
factored denominator once, by cyclotomic content
(``RationalFunction.from_factored``); since both denominators are built
from these pole-order bounds, few Phi_e are left to cancel.  A series of
one section (one negative weight: sign +1, shift 0) has the exact order
of every pole but its open ones, the Phi_e, e > 1, with two or more
source exponents c outside J = {c : e | c/g}, and only those go to the
reduction (proof at :func:`hilbert_generic`).  The ``DegreeOverflow``
guards (:func:`_check_degree`) hold them to the fixed ``DEGREE_LIMIT`` of
10^7, as the oracle is held to its fixed cell budget.  They read the
unbounded quantities (sum c, N sum c, the pairs' degree), so the limit
refuses the same vectors whatever the bounds save.
"""

from collections import Counter
from dataclasses import dataclass, replace
from math import comb, gcd
from operator import add

from .errors import (
    DegreeOverflow,
    InternalInvariantViolation,
    OracleMismatch,
    Unstable,
    ValidationError,
    check_int,
)
from .exact import (
    RationalFunction,
    _apply_factors,
    _degree,
    _factor_exponents,
    _view_phi_multiset,
    present_with_factors,
)
from .weights import WeightVector

# largest denominator degree or series length the engines may build
DEGREE_LIMIT = 10**7
# counting-table cells (degree rows x weighted-sum lanes) the oracle may allocate
MAX_ORACLE_CELLS = 5 * 10**7


@dataclass(frozen=True)
class SectionProblem:
    """sign * u^shift / prod (1 - u^c) together with the extraction stride."""

    sign: int
    shift: int
    factors: tuple  # positive exponents c, one per denominator factor
    ratio: int  # N: keep series coefficients at indices 0, N, 2N, ...


def section_problem(exponents, ratio: int) -> SectionProblem:
    """Normalize 1/prod(1 - u^e) with arbitrary nonzero integer exponents:
    each negative exponent factor contributes -u^{|e|}/(1 - u^{|e|})."""
    sign = 1
    shift = 0
    factors = []
    for e in exponents:
        if e == 0:
            raise InternalInvariantViolation("zero exponent in section source")
        if e < 0:
            sign, shift = -sign, shift - e
        factors.append(abs(e))
    return SectionProblem(sign, shift, tuple(sorted(factors)), ratio)


def _check_degree(what: str, degree: int):
    """Refuse with ``DegreeOverflow`` a ``degree`` above ``DEGREE_LIMIT``,
    before anything of that size is allocated."""
    if degree > DEGREE_LIMIT:
        raise DegreeOverflow(f"{what} {degree} exceeds the limit {DEGREE_LIMIT}")


def section(problem: SectionProblem) -> tuple:
    """(P, view), unreduced: P / prod (1 - t^d)^mult has as its series
    every ratio-th coefficient of the problem's source series; P is the
    dense int list, lowest degree first, that the kernel built.

    The view is one factor 1 - t^{c/g} per exponent c, g = gcd(N, c), which
    bounds every pole of the section S(t) = (1/N) sum_{zeta^N = 1}
    F(zeta t^{1/N}), F = sign u^shift / prod (1 - u^c): near a root of unity
    rho, s0^N = rho, the zeta-term has a pole of order #{c : (zeta s0)^c =
    1}, and each such c has rho^{c/g} = 1.  So S times the view is a
    polynomial P, of degree below D' = sum c/g since S is proper.  With
    one or two factors P is the sum over the lattice points of one period
    (:func:`_period_numerator`); it is unique, as S and the view are.
    With more factors P is the truncation of the first D' + 1 kept
    coefficients times the view (its last entry is 0; it keeps the shift
    inside a series filled to N D', as shift < sum c <= N D').  The degree
    guard reads sum c, the degree of the source denominator."""
    den_degree = sum(problem.factors)
    _check_degree("section denominator degree", den_degree)
    if problem.shift >= den_degree:
        raise InternalInvariantViolation("section source is not proper")
    view = Counter(c // gcd(problem.ratio, c) for c in problem.factors)
    if len(problem.factors) > 2:
        num = _apply_factors(_series_section(problem, _degree(view)), view)
    else:
        num = _period_numerator(problem, _degree(view))
    return num, view


def _period_numerator(problem: SectionProblem, degree: int) -> list:
    """The dense numerator, ``degree`` entries, of a one- or two-factor
    section over its view: sign * sum t^{(shift + sum c_i x_i)/N} over
    the lattice points 0 <= x_i < N/g_i, g_i = gcd(N, c_i), with N |
    shift + sum c_i x_i.  The loop runs over the shorter period; the
    other coordinate is the one solution of c2 x2 = -q mod N in
    [0, N/g2), which exists exactly when g2 divides q.  One factor is the
    case c1 = 0, whose period is 1.  An exponent c > N (every section of
    a three-weight vector has one) has N/g <= c/g, so the loop takes at
    most D' steps."""
    n_ = problem.ratio
    c2, *rest = sorted(problem.factors, key=lambda c: gcd(n_, c))
    c1 = rest[0] if rest else 0
    g2 = gcd(n_, c2)
    period = n_ // g2
    inverse = pow(c2 // g2, -1, period)
    out = [0] * degree
    # q = shift + c1 x1 for 0 <= x1 < N/g1
    last = problem.shift + c1 * (n_ // gcd(n_, c1) - 1)
    for q in range(problem.shift, last + 1, c1 or 1):
        if not q % g2:
            out[(q + c2 * (-(q // g2) * inverse % period)) // n_] += problem.sign
    return out


def _series_section(problem: SectionProblem, degree: int) -> list:
    """Source series coefficients 0, N, ..., N*D' from the series filled to
    N*D', D' = ``degree`` the section view's degree; the guard reads N * sum c."""
    _check_degree("section series length", problem.ratio * sum(problem.factors))
    series = [0] * (problem.ratio * degree + 1)
    series[problem.shift] = problem.sign
    _apply_factors(series, {c: -m for c, m in Counter(problem.factors).items()})
    return series[:: problem.ratio]


def hilbert_generic(v: WeightVector) -> RationalFunction:
    """Sum of the per-negative-weight sections times 1/(1 - t)^zero_count
    (negative side must be repetition-free), reduced once: every section
    numerator is lifted, in place, to the union of the sections'
    cyclotomic contents.

    With one negative weight the series is one section, of sign +1 and
    shift 0, and the reduction decides only its open indices: the e > 1
    with two or more source exponents c outside J = {c : e | c/g}, g =
    gcd(N, c).  Every other Phi_e keeps its view multiplicity |J| as its
    exact pole order.  Take rho with rho^e = 1.  Some u0 with u0^N = rho
    has u0^c = 1 for every c in J, since e | c/g gives v_p(c) >= v_p(N) +
    v_p(e) for each prime p | e; these u0 are the terms of S with a pole
    of order |J| at rho.  Near rho, 1 - u^c ~ -(c / (N rho)) (t - rho) for
    c in J, whatever u0, so their leading coefficients differ only by the
    factor 1/(1 - u0^c') of the one exponent c' outside J (or none).  As
    u0^c' != 1 is a root of unity, Re 1/(1 - u0^c') = 1/2, so the leading
    coefficients sum to a nonzero number and the pole keeps order |J|.
    So an n = 3 vector, two source exponents, has no open index at all."""
    if not v.is_generic:
        raise Unstable("negative side has repeated weights; use the degenerate route")
    ws = v.weights
    parts = []
    for i in range(v.k):
        a_i = ws[i]
        exponents = [w - a_i for j, w in enumerate(ws) if j != i]
        num, view = section(section_problem(exponents, -a_i))
        parts.append((num, _view_phi_multiset(view)))
    common: Counter = Counter()
    for _, phis in parts:
        common |= phis
    lifted = []
    for num, phis in parts:
        ks = _factor_exponents(common - phis)
        num += [0] * _degree(ks)
        lifted.append(_apply_factors(num, ks))
    total = max(lifted, key=len)
    for a in lifted:
        if a is not total:
            total[: len(a)] = map(add, total, a)
    open_indices = None
    if v.k == 1:
        # of the len(ws) - 1 source exponents, common[e] lie in J
        open_indices = {e for e, m in common.items() if e > 1 and len(ws) - 1 - m >= 2}
    common[1] += v.zero_count
    return RationalFunction.from_factored(total, _factor_exponents(common), _open=open_indices)


def hilbert_degenerate(v: WeightVector) -> RationalFunction:
    """Pair-invariant route (valid for any stable vector; required when both
    sides carry repeats), then 1/(1 - t)^zero_count.

    Hilbert-Serre bounds the denominator by one factor 1 - t^{(b-a)/gcd(a,b)}
    per coordinate pair a < 0 < b.  The series H of the zero-stripped vector
    has nonnegative coefficients, so |H(r rho)| <= H(r) for 0 < r < 1 and
    every root of unity rho: no pole order exceeds the one at t = 1, the
    dimension n - 1.  So each Phi_e of the pairs' content is kept at most
    n - 1 times, and the numerator is fitted from the first D'' =
    sum phi(e) min(m_e, n - 1) oracle coefficients (deg P < D'', as the
    a-invariant is negative).  The degree guard reads the pairs' degree."""
    pairs = Counter(
        (b - a) // gcd(a, b) for a in v.negatives for b in v.positives
    )
    _check_degree("pair-invariant denominator degree", _degree(pairs))
    content = Counter({e: min(m, v.n - 1) for e, m in _view_phi_multiset(pairs).items()})
    view = _factor_exponents(content)
    coeffs = oracle_coefficients(replace(v, zero_count=0), _degree(view) - 1)
    num = _apply_factors(coeffs, view)
    # Phi_1 = (1 - t)^1: each zero weight adds one to k_1 alone
    view[1] = view.get(1, 0) + v.zero_count
    return RationalFunction.from_factored(num, view)


# ---------------------------------------------------------------------------
# oracle and dispatcher


def oracle_coefficients(v: WeightVector, upto: int) -> list:
    """Coefficients 0..upto of the Hilbert series, counted directly:
    dim of degree-m invariants = #{e >= 0 : sum a_i e_i = 0, sum e_i = m}.

    Refused with ``ValidationError`` when upto is no int or is < 0, and with
    ``DegreeOverflow`` before anything is allocated when the table has
    more than ``MAX_ORACLE_CELLS`` cells, or more than 64 bits per such
    cell: (upto + 1) rows of upto * min(A+, A-) + 1 lanes of ``bits``
    bits each (:func:`_count_rows`)."""
    check_int("upto", upto)
    if upto < 0:
        raise ValidationError(f"oracle degrees start at 0, got upto={upto}")
    ws = list(v.weights) + [0] * v.zero_count
    amax = max(abs(w) for w in ws)
    width = upto * amax
    cells = (upto + 1) * (2 * width + 1)
    if cells > MAX_ORACLE_CELLS:
        raise DegreeOverflow(
            f"counting oracle to degree {upto} needs {cells} table cells, "
            f"above the limit {MAX_ORACLE_CELLS}"
        )
    bits = comb(upto + len(ws), len(ws) - 1).bit_length() + 1
    table = (upto + 1) * (upto * min(max(ws), -min(ws)) + 1) * bits
    if table > 64 * MAX_ORACLE_CELLS:
        raise DegreeOverflow(
            f"counting oracle to degree {upto} needs a table of {table} bits, "
            f"above the limit {64 * MAX_ORACLE_CELLS}"
        )
    # lane 0 of each row; no lane carries, as every count is at most
    # comb(upto + n, n - 1), the number of monomials of degree upto + 1,
    # below 2^(bits - 1)
    mask = (1 << bits) - 1
    return [row & mask for row in _count_rows(ws, upto, bits)]


def _count_rows(ws, upto: int, bits: int) -> list:
    """The counting table, one int per degree row d with a lane of ``bits``
    bits per weighted sum s >= 0, lane 0 at bit 0 (Kronecker substitution:
    shifting by a lanes is multiplying by u^a).

    The side whose largest |w| is smaller goes first, zero weights with
    it, and shifts up; then the other side shifts down, and a sum that
    falls below 0 falls off the bottom, since no weight left can bring it
    back to 0.  Sums and counts are symmetric under w -> -w, so when the
    negative side goes first its |w| shift up.  The sums run over
    0..upto * min(A+, A-), A+ and A- the largest |w| of each side: a row
    has upto * min(A+, A-) + 1 lanes."""
    up = [a for a in ws if a >= 0]
    down = [-a for a in ws if a < 0]
    if max(down, default=0) < max(up, default=0):
        up, down = down + [0] * ws.count(0), [a for a in up if a]
    rows = [1] + [0] * upto
    # ascending d reuses this weight's own updates: any exponent e_i >= 0
    for a in up:
        shift = a * bits
        for d in range(1, upto + 1):
            rows[d] += rows[d - 1] << shift
    for a in down:
        shift = a * bits
        for d in range(1, upto + 1):
            rows[d] += rows[d - 1] >> shift
    return rows


def _check_verify_depth(depth):
    """Refuse an oracle cross-check depth other than None, "auto" or an
    int >= 0 (:func:`check_int`); 0 checks nothing."""
    if depth is None or depth == "auto":
        return
    check_int("verify_depth", depth)
    if depth < 0:
        raise ValidationError(f"verify_depth must be None, 'auto' or an int >= 0, got {depth!r}")


def hilbert_series(v: WeightVector, method: str = "auto", verify_depth=None) -> RationalFunction:
    """Dispatcher: generic path when one side is repetition-free (negating
    if needed), pair-invariant route otherwise; optional oracle cross-check
    of ``verify_depth`` coefficients ("auto" picks the depth), which is
    checked before anything is computed."""
    _check_verify_depth(verify_depth)
    if method not in ("auto", "generic", "degenerate"):
        raise ValidationError(f"unknown method {method!r}")
    # the section engine needs a repetition-free negative side
    oriented = v if v.is_generic else v.negate()
    if method == "degenerate" or (method == "auto" and not oriented.is_generic):
        result = hilbert_degenerate(v)
    else:
        result = hilbert_generic(oriented)
    result = present_with_factors(result)
    if verify_depth:
        depth = (
            max(2 * _degree(_factor_exponents(result.phi_content)), 50)
            if verify_depth == "auto"
            else verify_depth
        )
        verify_against_oracle(v, result, depth)
    return result


def verify_against_oracle(v: WeightVector, f: RationalFunction, depth: int):
    expected = oracle_coefficients(v, depth)
    actual = f.series_at_zero(depth)
    for m, (want, got) in enumerate(zip(expected, actual)):
        if got != want:
            raise OracleMismatch(
                f"coefficient {m} of {v} is {got}, oracle says {want}"
            )
