"""Exact linear algebra: determinants, solving, Hermite normal form.

Everything in here works over arbitrary-precision integers: rational
input (``int`` or ``fractions.Fraction`` entries) is scaled once to
integers by ``scaled``, and a ``Fraction`` is built only for a result
that is rational.  ``hnf`` takes ``int`` entries only and is built on
the extended gcd ``_xgcd``.  There is deliberately no floating point
anywhere (a float entry raises); every downstream check is an exact
equality or exact inequality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul


class LinAlgError(ValueError):
    """Dimension mismatch, singularity or rank deficiency."""


def _rat(x) -> str:
    """x as printed: ``p/q``, or ``n`` when integral."""
    return str(Fraction(x))


def _check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise LinAlgError("matrix is not square")
    return n


def scaled(v) -> tuple[list[int], int]:
    """(ints, m) for a sequence v: m is the lcm of its denominators, ints
    is v times m.

    Reads ``numerator`` and ``denominator``, which ``int`` and
    ``Fraction`` both have, so it builds no ``Fraction`` (a float raises).
    """
    try:
        m = lcm(*(x.denominator for x in v))
    except AttributeError:
        raise LinAlgError("entries must be int or Fraction") from None
    return [x.numerator * (m // x.denominator) for x in v], m


def _bareiss(a, n) -> int:
    """Bareiss fraction-free Gauss-Jordan elimination, in place.

    Eliminates above and below the diagonal of the first n columns of the
    integer rows ``a`` (extra columns, such as a right-hand side, go
    along).  When it returns, a[n-1][n-1] is the determinant D of the
    permuted rows and each extra column holds D times its solution; only
    that last diagonal entry is kept current.  Returns the sign of the
    row permutation, or 0 when a column has no pivot.
    """
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in [*range(k), *range(k + 1, n)]:
            for j in range(k + 1, width):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign


def _adjugate(m) -> tuple[list[list[int]] | None, int]:
    """(adj m, det m) of a square integer matrix m of any size by one
    Gauss-Jordan pass on [m | I], which ends at [D I | D m^-1]; adj is
    None when det m is 0."""
    n = len(m)
    a = [[*row, *e] for row, e in zip(m, identity(n))]
    sign = _bareiss(a, n)
    adj = [[sign * x for x in row[n:]] for row in a] if sign else None
    return adj, sign * a[n - 1][n - 1]


def det(m) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    Each row is scaled to integers, so the result is the one ``Fraction``
    built.
    """
    n = _check_square(m)
    a, scale = [], 1
    for row in m:
        ints, mult = scaled(row)
        a.append(ints)
        scale *= mult
    sign = _bareiss(a, n)
    return Fraction(sign * a[n - 1][n - 1], scale)


def solve(m, rhs) -> list[Fraction]:
    """Exact solution x of m x = rhs for nonsingular square m."""
    n = _check_square(m)
    if len(rhs) != n:
        raise LinAlgError("right-hand side has wrong length")
    a = [scaled([*row, r])[0] for row, r in zip(m, rhs)]
    if _bareiss(a, n) == 0:
        raise LinAlgError("matrix is singular")
    return [Fraction(row[n], a[n - 1][n - 1]) for row in a]


def identity(n) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    if not m or any(len(row) != len(v) for row in m):
        raise LinAlgError("incompatible shapes for matrix-vector product")
    return [sum(map(mul, row, v)) for row in m]


def mat_inverse(m) -> list[list[Fraction]]:
    cols = [solve(m, e) for e in identity(_check_square(m))]
    return [list(row) for row in zip(*cols)]


def _xgcd(a, b) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b, so g >= 0."""
    s, s1, x, y = 1, 0, a, b
    while y:
        q = x // y
        x, y, s, s1 = y, x - q * y, s1, s - q * s1
    if x < 0:
        x, s = -x, -s
    return x, s, (x - s * a) // b if b else 0


def _hnf_column(h, col, top=None) -> None:
    """Bring column ``col`` of the integer rows h into Hermite form, with
    its pivot in row ``top`` (``col`` when not given).

    In ``hnf``, top is col and the columns before it are already in
    Hermite form in rows 0..col-1; with top 0 the rows are any lattice
    basis and the step splits off one pivot row.  The first row from
    ``top`` down that is nonzero in the column becomes the pivot row, and
    each later nonzero row is combined with it once: the extended gcd
    g = s a + t c of their entries a, c gives the unimodular step
    (P, R) -> (s P + t R, (a/g) R - (c/g) P), which leaves g in the pivot
    row and 0 in the other (R - (c/a) P when a divides c).  The pivot is
    made positive and the entries above it reduced into [0, pivot).
    Rows are replaced, never changed in place, so a shallow copy of h
    may share its rows with h.
    """
    if top is None:
        top = col
    for i in range(top, len(h)):
        if h[i][col]:
            break
    else:
        raise LinAlgError("matrix is rank deficient")
    pivot, h[i] = h[i], h[top]
    for j in range(i + 1, len(h)):
        a, c = pivot[col], h[j][col]
        if c % a:
            g, s, t = _xgcd(a, c)
            a, c = a // g, c // g
            pivot, h[j] = ([s * x + t * y for x, y in zip(pivot, h[j])],
                           [a * y - c * x for x, y in zip(pivot, h[j])])
        elif c:
            q = c // a
            h[j] = [y - q * x for x, y in zip(pivot, h[j])]
    if pivot[col] < 0:
        pivot = [-x for x in pivot]
    h[top] = pivot
    p = pivot[col]
    for i in range(top):
        q = h[i][col] // p
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], pivot)]


def hnf(m) -> list[list[int]]:
    """Hermite normal form of an integer matrix under left unimodular action.

    Returns h = u m for some unimodular u, with h upper triangular with
    positive diagonal and every entry above a pivot reduced into
    [0, pivot).  This normalization makes h the unique representative of
    the left coset of m, which is what canonical forms rely on.  Entries
    must be ``int``s (a float or ``Fraction`` raises).  A 2×2 matrix
    [[a, b], [c, d]] has the closed form [[g, (s b + t d) mod q], [0, q]],
    with g = gcd(a, c) = s a + t c and q = |ad - bc|/g; any other shape is
    reduced one column at a time by ``_hnf_column``.  The argument is not
    changed.
    """
    if len(set(map(len, m))) != 1:
        raise LinAlgError("matrix is empty or ragged")
    try:
        h = [list(map(index, row)) for row in m]
    except TypeError:
        raise LinAlgError("hnf requires integer entries") from None
    n, cols = len(h), len(h[0])
    if cols > n:
        raise LinAlgError("matrix cannot have full column rank")
    if n == cols == 2:
        (a, b), (c, d) = h
        block_det = a * d - b * c
        if not block_det:
            raise LinAlgError("matrix is rank deficient")
        g, s, t = _xgcd(a, c)
        q = abs(block_det) // g
        return [[g, (s * b + t * d) % q], [0, q]]
    for col in range(cols):
        _hnf_column(h, col)
    return h


def primitive_direction(v) -> tuple[int, ...]:
    """Integer direction divided by gcd, first nonzero entry positive."""
    ints, _ = scaled(v)
    g = gcd(*ints)
    if g == 0:
        raise LinAlgError("zero vector has no direction")
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)
