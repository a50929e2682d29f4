"""Laurent-Schur polynomials and two-block partial Schur values.

The central object is the value S_u(xs, ys): the determinant whose first row
holds x_i^u over the x block and zeros over the y block, followed by the
full Vandermonde rows of all variables at exponents n-2 down to 0, divided
by the two block Vandermonde determinants.  It is computable three ways:

* ``partial_schur_values`` - the route: with P_X = prod (z - x_i) and
  P_Y = prod (z - y_j), the cofactor identity
  S_u / Pi = sum_i x_i^u / prod_{j != i} (x_i - z_j), Pi = prod (x_i - y_j),
  is the sum of the residues of z^u / (P_X P_Y) at the roots of P_X.  By
  Cramer's rule, and det(multiplication by P_Y mod P_X) = Res(P_X, P_Y) = Pi
  (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 3 sec. 6), it is
  one k x k determinant in the basis 1, z, ..., z^{k-1} of Q[z]/P_X:

      S_u = det[ P_Y, z P_Y, ..., z^{k-2} P_Y | z^u ]   (columns mod P_X).

  The first k-1 columns and the cofactors of the last are built once per
  blocks, and only what is read: a single x (k = 1) has no column, so P_Y
  is reduced mod P_X only for k >= 2, and the minors of size 0 and 1 are
  read off, so Bareiss elimination (``_det``) runs only for k >= 3.  Each
  further u is one multiplication by z mod P_X, a pass over the
  coefficients of P_X below z^k, and one dot product.  A negative lowest
  u = -L starts the walk at P_X(0)^L z^{-L}, reached by L steps of
  P_X(0) z^{-1} = -(P_X - P_X(0)) / z, so the loop (``scaled_schur_values``)
  yields P_X(0)^L S_u, an int for integer inputs, and
  ``partial_schur_values`` divides by P_X(0)^L once per value.
  The value is a polynomial in the entries, so it holds at repeated
  entries too, and integer inputs with u >= 0 give an int;
* ``partial_schur_expansion`` - the Laplace expansion along the x-block
  columns, a signed sum of products of Laurent-Schur values of the x block
  and of the y block, each one Jacobi-Trudi determinant (``laurent_schur``);
  it shows S_u symmetric in each block separately, is defined at repeated
  entries too, and is an independent oracle;
* ``partial_schur_det`` - the determinant directly (blocks must be
  repetition-free), the definition and a second oracle.

``schur_tableaux``, the semistandard-tableau sum, is the reference the
Jacobi-Trudi values are tested against.

``partial_schur`` is the default entry point for one u (remainder route).
"""
from fractions import Fraction
from itertools import combinations
from math import prod
from operator import mul

from .errors import OutOfRange, RepeatedVariables, ValidationError, ZeroBase, check_int


def _quotient(a, b):
    """a / b exactly: an int when it is integral, else a Fraction (never the
    float that / gives on two ints)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _power(base, exp: int):
    if exp >= 0:
        return base**exp
    if base == 0:
        raise ZeroBase("negative power of zero")
    return Fraction(1) / base ** (-exp)


def vandermonde(xs):
    """prod_{i<j} (x_i - x_j); empty and singleton products are 1."""
    out = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[i] - xs[j]
    return out


def _det(rows):
    """Exact determinant by fraction-free Bareiss elimination.  Every
    division is exact, so integer entries give an integer."""
    n = len(rows)
    mat = [list(r) for r in rows]
    sign, prev = 1, 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        pivot_row = mat[col]
        pv = pivot_row[col]
        for row in mat[col + 1:]:
            head = row[col]
            for c in range(col + 1, n):
                row[c] = _quotient(pv * row[c] - head * pivot_row[c], prev)
        prev = pv
    return sign * mat[-1][-1] if n else 1


def _delta(length: int) -> list:
    return list(range(length - 1, -1, -1))


def _jacobi_trudi(shape, xs):
    """Schur value of a partition as det(h_{shape_i - i + j}) over its nonzero
    parts (Macdonald, Symmetric Functions, I.3.4); the complete homogeneous
    values h_j come from one ascending pass per variable."""
    rows = [p for p in shape if p > 0]
    top = rows[0] + len(rows) - 1 if rows else 0
    h = [1] + [0] * top
    for x in xs:
        for d in range(1, top + 1):
            h[d] += x * h[d - 1]
    size = len(rows)
    return _det(
        [[h[p - i + j] if p - i + j >= 0 else 0 for j in range(size)] for i, p in enumerate(rows)]
    )


def schur_tableaux(shape, xs):
    """Schur value as the sum over semistandard tableaux of the shape.

    ``shape`` must be a partition (weakly decreasing, nonnegative); rows of
    length zero are allowed and contribute nothing.
    """
    n = len(xs)
    rows = [p for p in shape if p > 0]
    for a, b in zip(rows, rows[1:]):
        if b > a:
            raise ValidationError("shape must be weakly decreasing")
    if not rows:
        return 1
    total = 0
    filling = [[0] * p for p in rows]

    def fill(r: int, c: int, value):
        nonlocal total
        if r == len(rows):
            total += value
            return
        if c + 1 < rows[r]:
            nr, nc = r, c + 1
        else:
            nr, nc = r + 1, 0
        lo = filling[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, filling[r - 1][c] + 1)
        for label in range(lo, n + 1):
            filling[r][c] = label
            fill(nr, nc, value * xs[label - 1])

    fill(0, 0, 1)
    return total


def laurent_schur(parts, xs):
    """s_lambda evaluated at xs for a weakly decreasing signature (negative
    parts allowed): (prod xs)^m times the Jacobi-Trudi value of the partition
    lambda - m, m = min(lambda, 0); valid at repeated values too."""
    if len(parts) != len(xs):
        raise ValidationError("signature length must match the variable count")
    for a, b in zip(parts, parts[1:]):
        if b > a:
            raise ValidationError("signature must be weakly decreasing")
    shift = min([0, *parts])
    return _power(prod(xs), shift) * _jacobi_trudi([p - shift for p in parts], xs)


# ---------------------------------------------------------------------------
# partial Schur values


def _check_u(u: int, n: int):
    check_int("u", u)
    if u > n - 2:
        raise OutOfRange(f"u={u} exceeds the admissible maximum {n - 2}")


def partial_schur_det(u: int, xs, ys):
    """Determinant route; blocks must be repetition-free."""
    k, m = len(xs), len(ys)
    n = k + m
    _check_u(u, n)
    if k == 0:
        return 0
    if len(set(xs)) != k or len(set(ys)) != m:
        raise RepeatedVariables("blocks must have pairwise distinct entries")
    rows = [[_power(x, u) for x in xs] + [0] * m]
    for e in range(n - 2, -1, -1):
        rows.append([x**e for x in xs] + [y**e for y in ys])
    return _quotient(_det(rows), vandermonde(xs) * vandermonde(ys))


def _expansion_terms(u: int, k: int, m: int):
    """Yield (sign, x_signature, y_shape) triples of the Laplace expansion.

    Signs include the global prefactor.  x_signature has length k (last part
    may be negative when u < 0); y_shape is a partition of length m.
    """
    n = k + m
    universe = list(range(n - 1))  # 0 .. n-2
    if u >= 0:
        global_sign = (-1) ** (k * (k + 1) // 2 + n * (k - 1) + u)
        pool = [e for e in universe if e != u]
        for rest in combinations(pool, k - 1):
            lam = sorted((u,) + rest, reverse=True)
            i = lam.index(u) + 1
            comp = sorted(set(universe) - set(lam), reverse=True)
            mu = sorted(comp + [u], reverse=True)
            sign = global_sign * (-1) ** (sum(lam) + i)
            sig_x = [p - d for p, d in zip(lam, _delta(k))]
            shape_y = [p - d for p, d in zip(mu, _delta(m))]
            yield sign, sig_x, shape_y
    else:
        global_sign = (-1) ** (k * (k - 1) // 2 + n * (k - 1))
        for rest in combinations(universe, k - 1):
            lam = sorted(rest, reverse=True)
            parts_x = lam + [u]
            comp = sorted(set(universe) - set(lam), reverse=True)
            sign = global_sign * (-1) ** sum(lam)
            sig_x = [p - d for p, d in zip(parts_x, _delta(k))]
            shape_y = [p - d for p, d in zip(comp, _delta(m))]
            yield sign, sig_x, shape_y


def partial_schur_expansion(u: int, xs, ys):
    """Laplace-expansion route; well defined for repeated variable values."""
    k, m = len(xs), len(ys)
    _check_u(u, k + m)
    if k == 0:
        return 0
    total = 0
    for sign, sig_x, shape_y in _expansion_terms(u, k, m):
        sx = laurent_schur(sig_x, xs)
        if sx == 0:
            continue
        sy = laurent_schur(shape_y, ys)
        total += sign * sx * sy
    return total


# ---------------------------------------------------------------------------
# remainder route: coefficient vectors in the basis 1, z, ..., z^{k-1} of
# Q[z]/P_X


def _times_inverse_z(f: list, px: list) -> list:
    """P_X(0) * f / z mod P_X, from P_X(0) z^{-1} = -(P_X - P_X(0)) / z."""
    low, p0 = f[0], px[0]
    return [p0 * c - low * p for c, p in zip(f[1:] + [0], px[1:])]


def scaled_schur_values(lo: int, hi: int, xs, ys) -> tuple:
    """(P, [P S_lo, ..., P S_hi]) with P = P_X(0)^max(0, -lo), by the
    remainder route (see the module docstring): integer inputs give ints
    throughout.  ValidationError when lo or hi is no int, OutOfRange when
    hi > n - 2, ZeroBase when lo < 0 and xs holds a zero.  z f mod P_X is
    one pass over the coefficients p_i of P_X below z^k: the entry of z^i
    becomes f_{i-1} - f_{k-1} p_i."""
    k, m = len(xs), len(ys)
    check_int("lo", lo)
    _check_u(hi, k + m)
    if k == 0 or hi < lo:
        return 1, [0] * max(hi - lo + 1, 0)
    px = [1]
    for x in xs:
        px = [0, *px]
        for i in range(len(px) - 1):
            px[i] -= x * px[i + 1]
    if lo < 0 and px[0] == 0:
        raise ZeroBase("negative power of zero")
    below = px[:k]  # P_X - z^k
    columns = []
    if k > 1:
        column = [1] + [0] * (k - 1)
        for y in ys:  # P_Y mod P_X, one factor z - y at a time
            top = column[-1]
            column = [b - top * p - y * a for a, b, p in zip(column, [0, *column], below)]
        columns.append(column)
        for _ in range(k - 2):
            top = column[-1]
            column = [b - top * p for b, p in zip([0, *column], below)]
            columns.append(column)
    # cofactors of the last column: det[columns | e_i], minors of size 0
    # and 1 read off
    rows = list(zip(*columns))
    cofactors, sign = [], (-1) ** (k - 1)
    for i in range(k):
        minor = rows[:i] + rows[i + 1:]
        cofactors.append(sign * (_det(minor) if k > 2 else minor[0][0] if minor else 1))
        sign = -sign
    power = [1] + [0] * (k - 1)  # P z^u, from u = min(lo, 0)
    for _ in range(-lo):
        power = _times_inverse_z(power, px)
    out = []
    for u in range(min(lo, 0), hi + 1):
        if u >= lo:
            out.append(sum(map(mul, cofactors, power)))
        if u < hi:
            top = power[-1]
            power = [b - top * p for b, p in zip([0, *power], below)]
    return px[0] ** max(0, -lo), out


def partial_schur_values(lo: int, hi: int, xs, ys) -> list:
    """[S_lo, ..., S_hi] of the blocks: ``scaled_schur_values`` divided by
    its scale."""
    scale, values = scaled_schur_values(lo, hi, xs, ys)
    return [_quotient(value, scale) for value in values]


def partial_schur(u: int, xs, ys):
    """Default S_u evaluation: the remainder route, safe at repeated
    entries."""
    return partial_schur_values(u, u, xs, ys)[0]
