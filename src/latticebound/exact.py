"""Exact linear algebra: determinants, solving, Hermite normal form.

Everything in here works over arbitrary-precision integers: rational
input (``int`` or ``fractions.Fraction`` entries) is scaled once to
integers by ``scaled``, and a ``Fraction`` is built only for a result
that is rational.  There is deliberately no floating point anywhere (a
float entry raises); every downstream check is an exact equality or
exact inequality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class LinAlgError(ValueError):
    """Dimension mismatch, singularity or rank deficiency."""


def _check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise LinAlgError("matrix is not square")
    return n


def scaled(v) -> tuple[list[int], int]:
    """(ints, m) for a sequence v: m is the lcm of its denominators, ints
    is v times m.

    Reads ``numerator`` and ``denominator``, which ``int`` and
    ``Fraction`` both have, so it builds no ``Fraction``.
    """
    m = lcm(*(x.denominator for x in v))
    return [x.numerator * (m // x.denominator) for x in v], m


def _bareiss(a, n) -> int:
    """Bareiss fraction-free forward elimination, in place.

    Eliminates below the diagonal of the first n columns of the integer
    rows ``a`` (extra columns, such as a right-hand side, go along).
    Returns the sign of the row permutation, or 0 when a column has no
    pivot.
    """
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, width):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign


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
    if _bareiss(a, n) == 0 or a[n - 1][n - 1] == 0:
        raise LinAlgError("matrix is singular")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(a[i][n])
        for j in range(i + 1, n):
            acc -= a[i][j] * x[j]
        x[i] = acc / a[i][i]
    return x


def identity(n) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b or len(a[0]) != len(b):
        raise LinAlgError("incompatible shapes for multiplication")
    cols = len(b[0])
    inner = len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_vec(m, v):
    if not m or len(m[0]) != len(v):
        raise LinAlgError("incompatible shapes for matrix-vector product")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_inverse(m) -> list[list[Fraction]]:
    n = _check_square(m)
    cols = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        cols.append(solve(m, e))
    return transpose(cols)


def is_unimodular(u) -> bool:
    try:
        d = det(u)
    except LinAlgError:
        return False
    return abs(d) == 1 and scaled([x for row in u for x in row])[1] == 1


def _hnf_column(h, col) -> None:
    """Bring column ``col`` of the integer rows h into Hermite form.

    Columns before ``col`` must already be in Hermite form in rows
    0..col-1.  Euclid's reduction among rows col.. leaves one nonzero
    entry below the diagonal, which is moved to row ``col`` and made
    positive; the entries above it are then reduced into [0, pivot).
    Rows are replaced, never changed in place, so a shallow copy of h
    may share its rows with h.
    """
    rows = len(h)
    while True:
        nz = [i for i in range(col, rows) if h[i][col]]
        if len(nz) < 2:
            break
        # Reduce every other row by the smallest entry of the column.
        small = nz[0]
        for i in nz:
            if abs(h[i][col]) < abs(h[small][col]):
                small = i
        pivot = h[small]
        p = pivot[col]
        for i in nz:
            if i != small:
                q = h[i][col] // p
                h[i] = [a - q * b for a, b in zip(h[i], pivot)]
    if not nz:
        raise LinAlgError("matrix is rank deficient")
    i = nz[0]
    h[col], h[i] = h[i], h[col]
    if h[col][col] < 0:
        h[col] = [-x for x in h[col]]
    p = h[col][col]
    for i in range(col):
        q = h[i][col] // p
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[col])]


def hnf(m) -> list[list[int]]:
    """Hermite normal form of an integer matrix under left unimodular action.

    Returns h = u m for some unimodular u, with h upper triangular with
    positive diagonal and every entry above a pivot reduced into
    [0, pivot).  This normalization makes h the unique representative of
    the left coset of m, which is what canonical forms rely on.  The
    argument is not changed.
    """
    if not m or any(len(row) != len(m[0]) for row in m):
        raise LinAlgError("matrix is empty or ragged")
    h = [list(map(int, row)) for row in m]
    if h != [[*row] for row in m]:
        raise LinAlgError("hnf requires integer entries")
    cols = len(m[0])
    if cols > len(m):
        raise LinAlgError("matrix cannot have full column rank")
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
