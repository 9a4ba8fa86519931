"""H-representation by cofactor minors, kept as the oracle for
``latticebound.geometry.hrep``.

Each facet's normal is the vector of signed (d-1)-minors of its edge
matrix, each one an ``exact.det`` call, oriented towards the omitted
vertex: d(d+1) determinants per simplex and no adjugate.
``latticebound.geometry.hrep`` must agree with ``hrep`` here, and
``latticebound.exact._adjugate`` with ``adjugate``, built from the same
signed minors.
"""

from math import gcd

from latticebound.exact import det


def facet_inequality(s, omit):
    """Inward inequality (a, b) tight on the facet omitting vertex `omit`,
    its normal and rhs divided by the gcd of all of them."""
    d = s.dim
    w = [s.vertices[j] for j in range(d + 1) if j != omit]
    edges = [
        [w[j + 1][i] - w[0][i] for j in range(d - 1)] for i in range(d)
    ]
    normal = []
    for i in range(d):
        minor = [edges[r] for r in range(d) if r != i]
        cof = int(det(minor)) if d > 1 else 1
        normal.append(cof if i % 2 == 0 else -cof)
    b = sum(n * c for n, c in zip(normal, w[0]))
    inside = sum(n * c for n, c in zip(normal, s.vertices[omit]))
    if inside == b:
        raise ValueError("omitted vertex lies on the facet hyperplane")
    if inside > b:
        normal = [-n for n in normal]
        b = -b
    g = gcd(b, *normal)
    return tuple(n // g for n in normal), b // g


def hrep(s):
    """(a, b): row j is the facet opposite vertex j."""
    rows = [facet_inequality(s, j) for j in range(s.dim + 1)]
    return tuple(a for a, _ in rows), tuple(b for _, b in rows)


def adjugate(m):
    """(adj m, det m) of a square integer matrix, entry (i, j) of adj m the
    signed minor of m without row j and column i; adj is None when
    det m is 0."""
    n = len(m)

    def cofactor(i, j):
        minor = [[x for c, x in enumerate(row) if c != i]
                 for r, row in enumerate(m) if r != j]
        return (-1) ** (i + j) * (int(det(minor)) if n > 1 else 1)

    d = int(det(m))
    adj = [[cofactor(i, j) for j in range(n)] for i in range(n)]
    return (adj if d else None), d
