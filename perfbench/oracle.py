"""Independent exact arithmetic the benchmark checks the CLI against.

Nothing here imports latticebound.  Every quantity is computed the
slow, obvious way: determinants by Bareiss elimination, barycentric
coordinates by Cramer's rule (the adjugate), lattice points by scanning a
bounding box.
The inputs the benchmark feeds these functions are chosen so that the
boxes stay small (Hermite-shaped or axis-aligned simplices).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, prod


def det(m) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def edge_matrix(verts, base=0):
    """Columns are v_j - v_base for j != base."""
    d = len(verts[0])
    others = [v for j, v in enumerate(verts) if j != base]
    return [[others[j][i] - verts[base][i] for j in range(d)] for i in range(d)]


def hnf(m):
    """Row-style Hermite normal form of a nonsingular square integer matrix.

    Upper triangular, positive diagonal, entries above each pivot reduced
    into [0, pivot).  Unique in the orbit of m under left multiplication
    by unimodular matrices.
    """
    h = [list(row) for row in m]
    n = len(h)
    for col in range(n):
        while True:
            nz = [i for i in range(col, n) if h[i][col]]
            nz.sort(key=lambda i: abs(h[i][col]))
            small = nz[0]
            h[col], h[small] = h[small], h[col]
            if len(nz) == 1:
                break
            for i in range(col + 1, n):
                q = h[i][col] // h[col][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[col])]
        if h[col][col] < 0:
            h[col] = [-x for x in h[col]]
        for i in range(col):
            q = h[i][col] // h[col][col]
            h[i] = [a - q * b for a, b in zip(h[i], h[col])]
    return tuple(tuple(row) for row in h)


def normal_form(verts):
    """Complete invariant of a lattice simplex under affine unimodular maps:
    the least HNF of its edge matrix over every base vertex and order."""
    n = len(verts)
    best = None
    for order in permutations(range(n)):
        h = hnf(edge_matrix([verts[i] for i in order]))
        if best is None or h < best:
            best = h
    return best


def adjugate(m):
    """adj(m), so that m adj(m) = det(m) I."""
    n = len(m)
    if n == 1:
        return [[1]]
    return [
        [(-1) ** (i + j) * det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


class Barycentric:
    """Barycentric coordinates of points with respect to one simplex,
    as integer numerators over the common denominator |det|."""

    def __init__(self, verts):
        e = edge_matrix(verts)
        total = det(e)
        sign = 1 if total > 0 else -1
        self.origin = verts[0]
        self.denominator = abs(total)
        # Row j of the adjugate gives the numerator of lambda_{j+1}.
        self.adj = [[sign * a for a in row] for row in adjugate(e)]

    def numerators(self, x):
        rel = [a - b for a, b in zip(x, self.origin)]
        lam = [sum(a * r for a, r in zip(row, rel)) for row in self.adj]
        return [self.denominator - sum(lam)] + lam

    def __call__(self, x):
        return [Fraction(n, self.denominator) for n in self.numerators(x)]


def _box(verts):
    """Every lattice point of the bounding box of verts."""
    return product(*(range(min(c), max(c) + 1) for c in zip(*verts)))


def lattice_points(verts):
    """Every lattice point of the closed simplex with its coordinates."""
    bary = Barycentric(verts)
    out = []
    for x in _box(verts):
        num = bary.numerators(x)
        if min(num) >= 0:
            out.append((x, [Fraction(n, bary.denominator) for n in num]))
    return out


@dataclass(frozen=True)
class FacetFacts:
    omit: int
    relint: tuple
    bound: Fraction | None  # None unless the facet has exactly one relint point
    betas: tuple = ()


@dataclass(frozen=True)
class SimplexFacts:
    vertices: tuple
    volume: Fraction
    interior: tuple
    per_point: dict  # interior point -> k / (d! * product of its d largest coordinates)
    facets: tuple

    @property
    def dim(self):
        return len(self.vertices) - 1

    @property
    def nu(self):
        return min(self.per_point.values(), default=None)

    @property
    def facet_bound(self):
        bounds = [f.bound for f in self.facets if f.bound is not None]
        return min(bounds) if bounds else None

    def best_facets(self):
        b = self.facet_bound
        return [f for f in self.facets if f.bound is not None and f.bound == b]


def analyze(verts) -> SimplexFacts:
    """Volume, interior points, nu and facet bounds by brute force."""
    verts = tuple(tuple(v) for v in verts)
    d = len(verts[0])
    vol = Fraction(abs(det(edge_matrix(verts))), factorial(d))
    pts = lattice_points(verts)
    interior = tuple(sorted(x for x, lam in pts if all(c > 0 for c in lam)))
    k = len(interior)
    per_point = {
        x: Fraction(k) / (factorial(d) * prod(sorted(lam, reverse=True)[:d]))
        for x, lam in pts if all(c > 0 for c in lam)
    }
    facets = []
    for j in range(d + 1):
        relint = [
            (x, lam) for x, lam in pts
            if lam[j] == 0 and all(c > 0 for i, c in enumerate(lam) if i != j)
        ]
        bound, betas = None, ()
        if len(relint) == 1:
            betas = tuple(c for i, c in enumerate(relint[0][1]) if i != j)
            bound = Fraction(k + 1) / (factorial(d) * prod(betas))
        facets.append(FacetFacts(j, tuple(x for x, _ in relint), bound, betas))
    return SimplexFacts(verts, vol, interior, per_point, tuple(facets))


def box_points(verts, omit, betas):
    """Points y of the lattice of the facet-bound proof in the open box
    |y_i| < betas[i].

    The proof maps the vertex opposite the facet to o and the facet
    vertices to e_1..e_d; lattice points of Z^d map to the barycentric
    coordinates (without the omitted one) of the lattice points p, so y
    ranges over lattice points p with |lambda_i(p)| < beta_i.
    """
    d = len(verts[0])
    apex = verts[omit]
    facet = [v for j, v in enumerate(verts) if j != omit]
    bary = Barycentric([apex] + facet)
    lo, hi = [], []
    for i in range(d):
        spread = sum(abs(v[i] - apex[i]) * b for v, b in zip(facet, betas))
        lo.append(apex[i] - int(spread) - 1)
        hi.append(apex[i] + int(spread) + 1)
    out = []
    for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        y = bary(p)[1:]
        if all(abs(c) < b for c, b in zip(y, betas)):
            out.append(tuple(y))
    return out


def hermite_triangles(k):
    """(a, b, c) with 0 <= b < c for every triangle conv(o, (a,0), (b,c))
    with k interior lattice points (Pick) and area at most 4(k+1).  Every
    lattice triangle is equivalent to at least one of them."""
    cap2 = 8 * (k + 1)  # twice the area cap
    for a in range(1, cap2 + 1):
        for c in range(1, cap2 // a + 1):
            target = a * c - a + 2 - 2 * k  # gcd(b, c) + gcd(b - a, c)
            if 2 <= target <= 2 * c:
                for b in range(c):
                    if gcd(b, c) + gcd(b - a, c) == target:
                        yield a, b, c


def triangle_census(k):
    """Classes of lattice triangles with k interior points and area at most
    4(k+1), and the classes having an edge with exactly one relative-interior
    lattice point, as {normal form: (a, b, c)}."""
    classes = {}
    for a, b, c in hermite_triangles(k):
        classes.setdefault(normal_form(((0, 0), (a, 0), (b, c))), (a, b, c))
    filtered = {
        key: (a, b, c) for key, (a, b, c) in classes.items()
        if 2 in (a, gcd(b, c), gcd(b - a, c))
    }
    return classes, filtered


def interior_count(verts, stop):
    """Number of interior lattice points, counting no further than stop."""
    bary = Barycentric(verts)
    count = 0
    for x in _box(verts):
        if min(bary.numerators(x)) > 0:
            count += 1
            if count >= stop:
                break
    return count
