"""Closed-form Laurent coefficients gamma_0..gamma_3 of the Hilbert series
at t=1.

Each coefficient comes in three independent flavors:

* the partial-Schur form (default) - valid for degenerate weight vectors,
  built from S_u values of the vector and its reduced vectors plus exact
  constrained root-of-unity sums.  One walk (``_schur_gammas``) goes over
  the index sets J layer by layer - the whole vector, then |J| = 1, 2, 3 up
  to the requested order - and adds each reduced vector's term to every
  gamma_m with m >= |J|, so gamma_r is final once layer r is done.  It
  builds only what it reads: layer 0 takes its blocks straight from the
  vector's negatives and positives, a later layer builds its remainders
  and gcds in one flat pass when the walk gets there (``_layer``) and cuts
  each remainder into its blocks by index, and e_2, which only gamma_2
  and gamma_3 read, is built only for upto >= 2.  The walk runs in
  ints: the S_u values come scaled by a power of P_X(0) from the remainder
  route of ``schur`` (``scaled_schur_values``, one batched call per reduced
  vector; the Laplace expansion and determinant routes are its oracles),
  the root-of-unity sums scaled by 12 or 24, and each gamma_m is an int
  numerator over an int denominator until one Fraction is built per gamma.
  The walk skips an index set J before its Schur values when its term is
  0: when g_J <= 1, since the terms of a single index carry a factor
  g_J - 1 and a larger J then has no root (z = 1 is excluded by each K =
  J minus one index, as g_K divides g_J), and when the root set of a
  larger J is empty, since its terms are sums over that set.
  ``gammas(v, upto)`` runs the walk to layer ``upto`` in one pass.
  ``gamma0``..``gamma3`` share a one-entry memo: the walk of the last
  vector they were asked about, at upto = 3, advanced only as far as the
  requested gamma_m.  A later gamma_m' of an equal vector continues that
  walk, so gamma_0..gamma_3 asked one at a time cost one pass.  The memo is
  read and advanced under a lock, and any exception while advancing it
  discards it;
* the generic form - partial-fraction style sums over the negative weights
  a_i, defined only when they are pairwise distinct: each term of gamma_m
  is a_i^(n-2-m) times a symmetric sum of the weights (or a root-of-unity
  sum of J) over the cofactor prod (a_i - a_l) of the indices l left
  after dropping i and J (``_cofactor``).  One pass (``_generic_gammas``)
  builds the reduced vectors, gcds, root sets and root-of-unity sums once,
  builds each cofactor once, adds each term to its gamma_m and skips the
  terms of a gamma_m past upto; it calls nothing of the Schur walk, which
  it checks;
* direct series extraction from the computed Hilbert series (the oracle the
  other two are tested against).

``gammas(v, upto, method)`` dispatches the three routes, each one pass,
and checks gamma_0 > 0 on all of them.

The root-of-unity sums take the Dedekind-sum route of ``cyclotomic``
(``pair_sum_12``, ``weighted_sum_24``, ``triple_sum_24``, ints; the generic
forms divide them by 12 or 24): Zagier's cancellation of odd cot products
("Higher dimensional Dedekind sums", Math. Ann. 202, 1973) and Dedekind
reciprocity (Rademacher-Grosswald, "Dedekind Sums", 1972) take each sum to
O(log N) integer Euclid steps per subgroup of roots.  The root set of J
(z^{g_J} = 1, z^{g_K} != 1 for K = J minus one index) enters as
inclusion-exclusion weights over at most 2^|J| subgroups, read off the gcd
table of the reduced vectors (``_roots``, ``subgroup_weights``) and shared
by the sums of a pair.  The trace route (``constrained_unity_sum``, which
decomposes the same root set by exact order) stays in ``cyclotomic`` as
their oracle.

Conventions for reduced vectors: removing entries never re-normalizes; the
gcd of an empty remainder is 0 and the S_u of a vector with no negative
entries is 0, which silently kills exactly the terms that the derivations
drop.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product, starmap
from math import gcd, prod
from operator import sub
from threading import Lock

from .cyclotomic import pair_sum_12, subgroup_weights, triple_sum_24, weighted_sum_24
from .errors import InternalInvariantViolation, Unstable, ValidationError, check_int
from .hilbert import hilbert_series
from .schur import _power, scaled_schur_values
from .weights import WeightVector


@dataclass(frozen=True)
class GammaVector:
    values: tuple
    method: str
    pole_order: int


def _require_stable(v: WeightVector):
    if v.k < 1 or v.m < 1:
        raise Unstable("gamma formulas need both signs present")


# -- reduced vectors and their root sets ------------------------------------


def _layer(ws: tuple, r: int) -> tuple:
    """(Js, rests, gcds) of the r-element index sets J of ws, ascending:
    the weights a - J left after dropping J, not re-normalized, and their
    gcds.  The remainders are the (len(ws) - r)-element combinations of the
    weights, which ``combinations`` yields in the reverse order of their
    complements J, so a layer is three C-level passes and no Python pass
    per J.  A layer past len(ws) is empty."""
    if r > len(ws):
        return [], [], []
    rests = list(combinations(ws, len(ws) - r))
    rests.reverse()
    return list(combinations(range(len(ws)), r)), rests, list(starmap(gcd, rests))


def _reduced(v: WeightVector, depth: int) -> dict:
    """(a - J, g_J) for every ascending index tuple J of 1..depth entries
    (``_layer``)."""
    out = {}
    for r in range(1, depth + 1):
        Js, rests, gcds = _layer(v.weights, r)
        out.update(zip(Js, zip(rests, gcds)))
    return out


def _roots(reduced: dict, J: tuple) -> tuple:
    """Subgroup weights of z^{g_J} = 1 with z^{g_K} != 1 for each K that
    drops one index of J (``subgroup_weights``).

    Then z^{a_j} != 1 for every j in J, since g_{J - j} = gcd(g_J, a_j).  An
    empty remainder (g_J = 0) admits no root.
    """
    excluded = [reduced[K][1] for K in combinations(J, len(J) - 1)]
    return subgroup_weights(reduced[J][1], excluded)


# -- partial-Schur forms -----------------------------------------------------


def _schur_gammas(v: WeightVector, upto: int):
    """Generator of the running [(num, den)] of gamma_0..gamma_upto
    (upto <= 3), yielded once after each layer r = 0..upto of the walk over
    the reduced vectors a - J, |J| = r, in integers.

    The reduced vector of an r-element J enters gamma_m for every m >= r
    through s[u] = S_{n-u}(a - J), u = r+2..m+2, so gamma_r is final once
    layer r is done.  One batched remainder-route call over the consecutive
    exponents n-upto-2..n-r-2 gives them as P s[u], P a power of P_X(0)
    (``scaled_schur_values``); with Pi, e_1, e_2 and the root-of-unity sums
    scaled by 12 or 24 (all ints), t[m] is the int 24 P Pi times its term in
    gamma_m.  Each gamma_m is carried as an int pair (num, den) over the
    common denominator of its terms, so a caller builds one Fraction per
    gamma.  A pair's subgroup weights and pair sum serve gamma_2 and
    gamma_3 alike.

    The walk builds only what it reads.  Layer 0 takes its blocks straight
    from ``v.negatives`` and ``v.positives``.  A layer r >= 1 builds its
    remainders and gcds in one flat pass (``_layer``) when the walk
    reaches it, and keeps the gcds for the root sets (``_roots``) only
    when upto >= 2; a remainder keeps the negatives first, so its x block
    is its first k - |J cap negatives| entries, and J is ascending, so
    ``bisect_left(J, k)`` counts the negatives it drops.  e_2 enters only
    gamma_2 and gamma_3, so it is built only when upto >= 2.

    An index set J, |J| = r >= 1, is skipped before its Schur values when
    its term is 0, cheapest test first:

    (a) g_J <= 1.  For r = 1 every term carries a factor g_J - 1, and
        g_J = 0 only for an empty remainder.  For r >= 2 the root set of J
        is empty: g_J = 0 admits no root, and g_J = 1 admits only z = 1,
        which every K = J minus one index excludes, since g_K divides g_J.
    (b) r >= 2 and the subgroup weights of J are ``()``.  Every term of J
        is a sum over that root set (``pair_sum_12``, ``weighted_sum_24``,
        ``triple_sum_24``), so it is 0; otherwise the weights serve the
        term.
    """
    _require_stable(v)
    ws, k, n_ = v.weights, v.k, v.n
    out = [(0, 1)] * (upto + 1)
    reduced = {}
    for r in range(upto + 1):
        if r:
            Js, rests, gcds = _layer(ws, r)
            if upto >= 2:  # only the root sets of layers 2 and 3 read gcds
                reduced.update(zip(Js, zip(rests, gcds)))
            layer = zip(Js, rests, gcds)
        else:
            layer = (((), ws, 0),)
        for J, seq, g in layer:
            if r:
                if g <= 1:
                    continue  # (a): no root for r >= 2; a factor g - 1 for r = 1
                if r >= 2:
                    roots = _roots(reduced, J)
                    if not roots:
                        continue  # (b): every root-of-unity sum is 0
                cut = k - bisect_left(J, k)
                xs, ys = seq[:cut], seq[cut:]
            else:
                xs, ys = v.negatives, v.positives
            scale, values = scaled_schur_values(n_ - upto - 2, n_ - r - 2, xs, ys)
            s = [0] * 6
            s[r + 2: upto + 3] = values[::-1]
            if not any(s):
                continue
            pi = prod(starmap(sub, product(xs, ys)))
            e1 = sum(seq)
            if upto >= 2:
                e2 = (e1 * e1 - sum(w * w for w in seq)) // 2
            t = [0] * 4
            if r == 0:
                t[0] = -24 * s[2]
                t[1] = 12 * (e1 * s[3] - s[2])
                if upto >= 2:
                    t[2] = 2 * (5 * e1 * s[3] - (e2 + e1 * e1) * s[4] - 4 * s[2])
                    t[3] = -6 * s[2] + 8 * e1 * s[3] - (3 * e2 + 2 * e1 * e1) * s[4] + e1 * e2 * s[5]
            elif r == 1:
                a = ws[J[0]]
                t[1] = -12 * (g - 1) * s[3]
                if upto >= 2:
                    t[2] = 2 * (1 - g * g) * (s[3] - a * s[4]) + 6 * (g - 1) * (e1 * s[4] - s[3])
                    t[3] = (1 - g) * (4 * s[3] - 5 * e1 * s[4] + (e2 + e1 * e1) * s[5]) + (
                        g * g - 1
                    ) * (-2 * s[3] + (2 * a + e1) * s[4] - a * e1 * s[5])
            elif r == 2:
                # signs re-derived from the generic forms through the cofactor
                # identity sum_i a_i^u / prod_{j != i}(a_i - a_j) = S_u / Pi
                a, b = ws[J[0]], ws[J[1]]
                pair = pair_sum_12(a, b, roots)
                t[2] = -2 * s[4] * pair
                if upto == 3:
                    t[3] = (e1 * s[5] - s[4]) * pair + (
                        weighted_sum_24(a, roots) * (s[4] - a * s[5])
                        + weighted_sum_24(b, roots) * (s[4] - b * s[5])
                    )
            else:
                a, b, c = (ws[j] for j in J)
                t[3] = -s[5] * triple_sum_24(a, b, c, roots)
            den = 24 * pi * scale
            for m in range(r, upto + 1):
                if t[m]:
                    num, common = out[m]
                    shared = gcd(common, den)
                    out[m] = (
                        num * (den // shared) + t[m] * (common // shared),
                        common // shared * den,
                    )
        yield out


# The walk of the vector last asked for one gamma_m, at upto = 3, and the
# gammas it has finished: (v, walk, [gamma_0, ..., gamma_r]).  One entry,
# read and advanced under the lock; an exception while advancing discards
# it, so a failed walk is never resumed.
_memo = None
_memo_lock = Lock()


def _memo_gamma(v: WeightVector, m: int) -> Fraction:
    global _memo
    with _memo_lock:
        if _memo is None or _memo[0] != v:
            _memo = (v, _schur_gammas(v, 3), [])
        _, walk, done = _memo
        try:
            while len(done) <= m:
                num, den = next(walk)[len(done)]
                done.append(Fraction(num, den))
        except BaseException:
            _memo = None
            raise
        return done[m]


def gamma0(v: WeightVector) -> Fraction:
    return _memo_gamma(v, 0)


def gamma1(v: WeightVector) -> Fraction:
    return _memo_gamma(v, 1)


def gamma2(v: WeightVector) -> Fraction:
    return _memo_gamma(v, 2)


def gamma3(v: WeightVector) -> Fraction:
    return _memo_gamma(v, 3)


# -- generic forms -----------------------------------------------------------


def _cofactor(ws, i: int, drop=()) -> Fraction:
    """prod (a_i - a_l) over every l != i not in drop, as a Fraction."""
    return Fraction(prod(ws[i] - w for l, w in enumerate(ws) if l != i and l not in drop))


def _generic_gammas(v: WeightVector, upto: int) -> tuple:
    """gamma_0..gamma_upto (upto <= 3) by the generic forms, in one pass.

    The reduced vectors to depth upto, their gcds and root sets, and the
    root-of-unity sums of each pair and triple J with a root (which do not
    depend on i) are built once.  Each negative index i then builds its
    cofactor over i and J once for every J it reads and adds each term to
    its gamma_m: the head terms over the weights left after dropping i, the
    terms of a single j with g_j > 1, of a pair and of a triple.  The
    gamma_2 and gamma_3 terms are skipped when upto is below them.
    """
    _require_stable(v)
    if not v.is_generic:
        raise Unstable("generic gamma form needs pairwise distinct negative weights")
    ws, n = v.weights, v.n
    reduced = _reduced(v, upto)
    gcds = {J[0]: g for J, (_, g) in reduced.items() if len(J) == 1 and g > 1}
    pairs, triples = {}, {}
    for J in reduced:
        if len(J) < 2 or not (roots := _roots(reduced, J)):
            continue
        if len(J) == 3:
            triples[J] = Fraction(triple_sum_24(*(ws[j] for j in J), roots), 24)
            continue
        a, b = ws[J[0]], ws[J[1]]
        weighted = [Fraction(weighted_sum_24(w, roots), 24) for w in (a, b)] if upto == 3 else []
        pairs[J] = (Fraction(pair_sum_12(a, b, roots), 12), weighted)
    total = [Fraction(0)] * (upto + 1)
    for i in range(v.k):
        a = ws[i]
        p = [_power(a, n - 2 - m) for m in range(upto + 1)]
        others = [j for j in range(n) if j != i]
        left = sum(ws[j] for j in others)
        den = _cofactor(ws, i)
        total[0] -= p[0] / den
        if upto >= 1:
            total[1] += p[1] * left / (2 * den)
        if upto >= 2:
            bracket = sum((2 * a - ws[j]) * ws[j] for j in others)
            e2 = sum(ws[j] * ws[l] for j, l in combinations(others, 2))
            total[2] += p[2] * (bracket - 3 * e2) / (12 * den)
        if upto == 3:
            e3 = sum(ws[j] * ws[l] * ws[q] for j, l, q in combinations(others, 3))
            middle = sum(ws[j] * ws[l] * (ws[l] - 2 * a) for j, l in permutations(others, 2))
            last = sum(a * ws[j] * (2 * a - ws[j]) for j in others)
            total[3] += p[3] * (3 * e3 + middle + last) / (24 * den)
        for j in others:
            if j not in gcds:
                continue
            g, b, den = gcds[j], ws[j], _cofactor(ws, i, (j,))
            total[1] -= Fraction(g - 1, 2) * p[1] / den
            if upto >= 2:
                total[2] += (Fraction(1 - g * g, 12) * (a - b) + Fraction(g - 1, 4) * (left - b)) * p[2] / den
            if upto == 3:
                rest = [ws[l] for l in others if l != j]
                rest_pairs = sum(x * y for x, y in combinations(rest, 2))
                single = sum(x * (x - 2 * a) for x in rest)
                total[3] -= Fraction((g - 1) * (3 * rest_pairs + single), 24) * p[3] / den
                total[3] += Fraction(g * g - 1, 24) * p[3] * (a - b) * (left - b - a) / den
        for J, (pair, weighted) in pairs.items():
            if i in J:
                continue
            j, l = J
            den = _cofactor(ws, i, J)
            total[2] -= p[2] * pair / den
            if upto == 3:
                total[3] += pair * p[3] * (left - ws[j] - ws[l]) / (2 * den)
                total[3] += p[3] * ((a - ws[j]) * weighted[0] + (a - ws[l]) * weighted[1]) / den
        for J, triple in triples.items():
            if i not in J:
                total[3] -= p[3] * triple / _cofactor(ws, i, J)
    return tuple(total)


# -- dispatch ----------------------------------------------------------------


def gammas(v: WeightVector, upto: int = 3, method: str = "schur") -> GammaVector:
    """gamma_0..gamma_upto of the Hilbert series of v, each route in one
    pass: the partial-Schur walk ("schur"), the generic forms ("generic";
    upto <= 3 for both) or the Laurent expansion of the computed series
    ("series", any upto).  Every route must give gamma_0 > 0, and the
    series' pole order must be the dimension."""
    pole = v.dimension
    if method not in ("schur", "generic", "series"):
        raise ValidationError(f"unknown gamma method {method!r}")
    check_int("upto", upto)
    if upto < 0:
        raise ValidationError(f"gamma orders start at 0, got upto={upto}")
    if upto > 3 and method != "series":
        raise ValidationError("closed forms stop at gamma_3; use the series method")
    if method == "schur":
        for out in _schur_gammas(v, upto):
            pass
        values = tuple(Fraction(num, den) for num, den in out)
    elif method == "generic":
        values = _generic_gammas(v, upto)
    else:
        expansion = hilbert_series(v).laurent_at_one(upto + 1)
        if expansion.pole_order != pole:
            raise InternalInvariantViolation("series pole order differs from the dimension")
        values = expansion.coefficients
    if values[0] <= 0:
        raise InternalInvariantViolation(
            "leading Laurent coefficient must be positive"
        )
    return GammaVector(values=values, method=method, pole_order=pole)
