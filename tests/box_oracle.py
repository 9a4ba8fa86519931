"""The Fraction box walk and proof-trace checks, kept as the oracle for the
integer ones.

A lattice is its rational basis; the box points are its images of the
integer solutions of |basis . z| < betas, enumerated by the Fraction
Fourier-Motzkin kernel of ``fm_oracle`` and mapped back in ``Fraction``
arithmetic.  ``proof_trace`` replays the facet-bound argument on those
points, with the basis phi computed as the inverse of the edge matrix at
the vertex opposite the facet by Gauss-Jordan over ``Fraction``.
``point_bounds`` computes the per-interior-point bounds behind nu from
barycentric coordinates solved the same way.  ``latticebound.bounds``
must agree with every value here.
"""

from fractions import Fraction

import fm_oracle


def inverse(m):
    """Inverse of a nonsingular square matrix, by Gauss-Jordan."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def det(m):
    """Determinant by Gaussian elimination over ``Fraction``."""
    a = [[Fraction(x) for x in row] for row in m]
    n, result = len(a), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result


def points_in_open_box(basis, betas):
    """Lattice points y = basis . z with |y_i| < betas[i], in the
    lexicographic order of z."""
    basis = [[Fraction(c) for c in row] for row in basis]
    rows = []
    for row, b in zip(basis, betas):
        rows.append((tuple(row), Fraction(b), True))
        rows.append((tuple(-c for c in row), Fraction(b), True))
    zs = fm_oracle.integer_points(rows, len(basis))
    return [tuple(sum(c * x for c, x in zip(row, z)) for row in basis)
            for z in zs]


def vdc(basis, betas):
    """(lhs, rhs, count) of the symmetric-box inequality: the box volume,
    (count + 1) 2^(d-1) det, and the number of lattice points in the box."""
    d = len(basis)
    count = len(points_in_open_box(basis, betas))
    lhs = Fraction(2) ** d
    for b in betas:
        lhs *= b
    return lhs, (count + 1) * Fraction(2) ** (d - 1) * abs(det(basis)), count


def phi(s, f):
    """The map x - v0 to the barycentric coordinates at the facet vertices:
    the inverse of the matrix with columns v_j - v0, v0 opposite f."""
    (v0,) = (v for i, v in enumerate(s.vertices) if i not in f.vertex_indices)
    cols = [[s.vertices[j][i] - v0[i] for j in f.vertex_indices]
            for i in range(s.dim)]
    return inverse(cols)


def checks(y_set, betas, k):
    """Whether each check of the argument holds on the box points y_set
    of the box betas, for a simplex with k interior points, in the order
    ``bounds.proof_trace`` runs them."""
    h_minus = [y for y in y_set if sum(y) < 0]
    h_zero = [y for y in y_set if sum(y) == 0]
    shifted = [[yc + bc for yc, bc in zip(y, betas)] for y in h_minus]
    return {
        "symmetric": all(tuple(-c for c in y) in set(y_set) for y in y_set),
        "even_split": len(y_set) == 2 * len(h_minus) + len(h_zero),
        "origin_only": h_zero == [(0,) * len(betas)],
        "shifted_inside": all(all(c > 0 for c in p) and sum(p) < 1
                              for p in shifted),
        "within_2k1": len(y_set) <= 2 * k + 1,
    }


def proof_trace(s, f, betas, k):
    """The box points of phi in the box betas, their half-space split
    along the coordinate sum, and whether each check of the argument holds,
    for a simplex s with k interior points."""
    y_set = points_in_open_box(phi(s, f), betas)
    return {
        "y_set": y_set,
        "h_minus_count": sum(1 for y in y_set if sum(y) < 0),
        "h_zero_count": sum(1 for y in y_set if sum(y) == 0),
        **checks(y_set, betas, k),
    }


def barycentric(s, x):
    """The barycentric coordinates of x in s: those of vertices 1..d solve
    the edge system at v0, and that of v0 is 1 minus their sum."""
    v0 = s.vertices[0]
    cols = [[v[i] - v0[i] for v in s.vertices[1:]] for i in range(s.dim)]
    inv = inverse(cols)
    rest = [sum(c * (xi - vi) for c, xi, vi in zip(row, x, v0)) for row in inv]
    return [1 - sum(rest), *rest]


def point_bounds(s, pts):
    """{x: (coordinates sorted descendingly, k / (d! times the product of
    the d largest))} over the k interior points pts."""
    d, k = s.dim, len(pts)
    fact = 1
    for i in range(2, d + 1):
        fact *= i
    out = {}
    for x in pts:
        betas = sorted(barycentric(s, x), reverse=True)
        prod = Fraction(fact)
        for b in betas[:d]:
            prod *= b
        out[x] = (tuple(betas), Fraction(k) / prod)
    return out
