"""Exhaustive enumeration of lattice triangles with k interior points.

Triangles are enumerated in Hermite-shaped coordinates conv(o, (a,0),
(b,c)) and deduplicated by canonical form, so each unimodular equivalence
class with area at most the cap appears exactly once.  Pick's formula
picks the candidates, and rules out whole pairs (a, c) by divisor sums.

Every edge of a triangle gives its class Hermite triples: put the edge on
the x-axis from o and shear the third vertex into 0 <= b < c.  The base a
is that edge's lattice length and ac = 2 * area, so a fixes c.  The census
keeps the first triple of each class in scan order, least a and then
least b.  Its base is therefore a shortest edge, a <= gcd(b, c) and
a <= gcd(b - a, c), and its b is at most its mirror's: x -> a - x maps
(a, b, c) to (a, (a - b) % c, c), a triple of the same class with the same
a and c.  So the scan skips every triple that fails either test, and the
census stays the one the full scan gives.

An edge's lattice length is the gcd of its vector's coordinates, and its
relative interior holds one point fewer, so a triangle has an edge with
exactly one relative-interior point when 2 is among its edge lengths.
Unimodular maps keep lattice lengths, so every triple of a class has the
same edge lengths: the pre-filtered scan (``one_relint_edge``) keeps all
the triples of a class with such an edge, its first one included, and
none of the others, and gives the full census filtered by that test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .geometry import LatticeSimplex, _frozen, check, interior_points, volume
from .unimodular import canonical_form, equivalent


@_frozen
class TriangleCensus:
    k: int
    representatives: tuple[LatticeSimplex, ...]
    max_area: Fraction
    maximizers: tuple[LatticeSimplex, ...]
    search_cap: int


def _edge_lengths(p, q, r):
    """Lattice lengths of the edges pq, pr and qr of a lattice triangle:
    the gcd of each edge vector's coordinates.  Conv(o, (a,0), (b,c)) has
    a, gcd(b, c) and gcd(b - a, c)."""
    (px, py), (qx, qy), (rx, ry) = p, q, r
    return gcd(qx - px, qy - py), gcd(rx - px, ry - py), gcd(rx - qx, ry - qy)


def _pick_interior_count(a, b, c):
    """Interior lattice points of conv(o,(a,0),(b,c)) via Pick's theorem."""
    twice_area = a * c
    boundary = sum(_edge_lengths((0, 0), (a, 0), (b, c)))
    interior2 = twice_area - boundary + 2
    check(interior2 % 2 == 0, "Pick count is not integral")
    return interior2 // 2


def _pick_triples(k, cap, one_relint_edge=False):
    """(a, b, c) in scan order with 0 <= b < c, ac <= 2 cap and k interior
    points in conv(o, (a,0), (b,c)) by Pick, whose base is a shortest edge
    (a <= gcd(b, c), a <= gcd(b - a, c)) and whose b is at most its
    mirror's (b <= (a - b) % c).  The first triple of each class in scan
    order passes both tests (module docstring).  Since a <= gcd(b, c) <= c,
    a stops at isqrt(2 cap) and c starts at a.  Both gcds in gcd(b, c) +
    gcd(b - a, c) = ac - a + 2 - 2k divide c, so the b loop runs only when
    the right-hand side is a sum of two divisors of c.  With
    ``one_relint_edge``, only the triples with an edge of lattice length 2
    are yielded; the shortest edge a is then at most 2.
    """
    divisors = [[] for _ in range(2 * cap + 1)]
    for x in range(1, 2 * cap + 1):
        for c in range(x, 2 * cap + 1, x):
            divisors[c].append(x)
    sums = [{x + y for x in ds for y in ds} for ds in divisors]
    for a in range(1, (2 if one_relint_edge else isqrt(2 * cap)) + 1):
        for c in range(a, (2 * cap) // a + 1):
            if a * c - a + 2 - 2 * k in sums[c]:
                yield from ((a, b, c) for b in range(c)
                            if a <= gcd(b, c) and a <= gcd(b - a, c)
                            and b <= (a - b) % c
                            and _pick_interior_count(a, b, c) == k
                            and (not one_relint_edge or 2 in _edge_lengths(
                                (0, 0), (a, 0), (b, c))))


def _maximizers(reps):
    """(max area, the triangles attaining it)."""
    areas = [volume(t) for t in reps]
    max_area = max(areas, default=Fraction(0))
    return max_area, tuple(t for t, a in zip(reps, areas) if a == max_area)


def enumerate_triangles(k: int, cap: int | None = None, *,
                        one_relint_edge: bool = False) -> TriangleCensus:
    """All lattice triangles with k interior points and area <= cap.

    The default cap 4(k+1) is double the sharp area bound for k >= 2, so
    the census is complete for those k; for k = 1 it also covers the
    exceptional area-9/2 maximizer.  With ``one_relint_edge``, only the
    classes with an edge with exactly one relative-interior lattice point:
    ``filter_one_relint_facet`` of the whole census, with no triangle of
    another class built.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    if cap is None:
        cap = 4 * (k + 1)
    if cap < 2 * (k + 1):
        raise ValueError("cap must be at least 2(k+1)")
    seen = {}
    for a, b, c in _pick_triples(k, cap, one_relint_edge):
        tri = LatticeSimplex([(0, 0), (a, 0), (b, c)])
        # Cross-check Pick against direct enumeration.
        direct = len(interior_points(tri, limit=k + 1))
        check(direct == k, "Pick and direct interior counts disagree")
        key = canonical_form(tri).key()
        if key not in seen:
            seen[key] = tri
    reps = tuple(seen[key] for key in sorted(seen))
    return TriangleCensus(k, reps, *_maximizers(reps), cap)


def filter_one_relint_facet(census: TriangleCensus) -> TriangleCensus:
    """Keep triangles with an edge carrying exactly one relint lattice
    point: an edge of lattice length 2."""
    reps = tuple(t for t in census.representatives
                 if 2 in _edge_lengths(*t.vertices))
    return TriangleCensus(census.k, reps, *_maximizers(reps), census.search_cap)


def verify_theorem_main_2d(k: int, cap: int | None = None) -> dict:
    """Check that the axis triangle conv(o, 2e1, 2(k+1)e2) is the unique
    area maximizer among triangles with k interior points and an edge
    with exactly one relative-interior lattice point."""
    if k > 3:
        raise ValueError("desk-scale verification is limited to k <= 3")
    from .constructions import zpw_simplex

    census = enumerate_triangles(k, cap)
    filtered = filter_one_relint_facet(census)
    expected = zpw_simplex(2, k)
    expected_area = Fraction(2 * (k + 1))
    unique = len(filtered.maximizers) == 1
    matches = unique and equivalent(filtered.maximizers[0], expected)
    return {
        "k": k,
        "cap": filtered.search_cap,
        "censusSize": len(census.representatives),
        "filteredSize": len(filtered.representatives),
        "maxArea": filtered.max_area,
        "expectedArea": expected_area,
        "maximizerCount": len(filtered.maximizers),
        "areaMatches": filtered.max_area == expected_area,
        "uniqueMaximizer": unique,
        "maximizerIsAxisTriangle": matches,
        "passed": filtered.max_area == expected_area and matches,
    }
