"""Exhaustive enumeration of lattice triangles with k interior points.

Triangles are enumerated in Hermite-shaped coordinates conv(o, (a,0),
(b,c)) with 0 <= b < c, and each unimodular equivalence class with area
at most the cap appears exactly once: as its first triple in scan order,
least a and then least b.  That triple read as the HNF [[a, b], [0, c]]
is the class's canonical form, so sorting the triples sorts the classes
by canonical key.

Every edge gives its class one triple from each end: put the edge on the
x-axis from that end and shear the third vertex into 0 <= b < c.  The
base a is the edge's lattice length and ac = 2 * area, so a fixes c, and
the least a is a shortest edge: a <= gcd(b, c) and a <= gcd(b - a, c).
The base gives b from o and (a - b) % c from (a,0), since x -> a - x
swaps its ends.  Another edge of length a runs from o to (x, c) with
x = b, or, once x -> a - x has swapped o and (a,0), with x = a - b.  The
rows (s, t) and (c/a, -x/a), where s x/a + t c/a = 1, map (x, c) to
(a, 0) and (a, 0) to (s a, c), so that edge gives y = a (x/a)^-1 mod c/a
from o and (a - y) % c from its other end.  ``_least_b`` is the least
of these, and a triple is the first of its class when its base is a
shortest edge and b is ``_least_b``.  Pick's equation, 2k = ac + 2 minus
the three edge lengths, picks the triples with k interior points.

An edge's lattice length is the gcd of its vector's coordinates, and its
relative interior holds one point fewer, so a triangle has an edge with
exactly one relative-interior point when 2 is among its edge lengths.
Unimodular maps keep lattice lengths, so every triple of a class has the
same edge lengths: the pre-filtered scan (``one_relint_edge``) keeps the
first triple of each class with such an edge and none of the others, and
gives the full census filtered by that test.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .geometry import LatticeSimplex, _frozen, check, interior_points, volume


# The largest cap a census takes.  The tables of ``_pick_triples`` grow
# with 2 cap, and so do the number and size of the triangles that are
# cross-checked.  At this cap, on a 2-vCPU VM with Python 3.11, a census
# peaks at about 155 MB RSS (k near 1000, whose triangles keep their
# interior points) and takes at most about 6 s (k = 0, whose 2 cap + 1
# classes are each cross-checked by a sweep).
MAX_CAP = 2048


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


def _least_b(a, b, c):
    """The least b of the triples of conv(o, (a,0), (b,c)) with base a,
    taken from its edges of lattice length a (module docstring)."""
    ys = [b] + [a * pow(x // a, -1, c // a) for x in (b, a - b)
                if gcd(x, c) == a]
    return min(min(y, (a - y) % c) for y in ys)


def _pick_triples(k, cap, one_relint_edge=False):
    """The first triple (a, b, c) of each class with area <= cap and k
    interior points, in scan order (a, then c, then b): its edge lengths
    a, gcd(b, c) and gcd(b - a, c) sum to ac + 2 - 2k (Pick), a is the
    least of them and b is ``_least_b``.  Since a <= gcd(b, c) <= c, a
    stops at isqrt(2 cap) and c starts at a.  Both gcds divide c, so the
    b loop runs only when ac - a + 2 - 2k is a sum of two divisors of c.
    With ``one_relint_edge``, only the triples with an edge of lattice
    length 2 are yielded; the shortest edge a is then at most 2.
    """
    divisors = [[] for _ in range(2 * cap + 1)]
    for x in range(1, 2 * cap + 1):
        for c in range(x, 2 * cap + 1, x):
            divisors[c].append(x)
    sums = [{x + y for x in ds for y in ds} for ds in divisors]
    for a in range(1, (2 if one_relint_edge else isqrt(2 * cap)) + 1):
        for c in range(a, (2 * cap) // a + 1):
            if a * c - a + 2 - 2 * k in sums[c]:
                for b in range(c):
                    edges = _edge_lengths((0, 0), (a, 0), (b, c))
                    if (sum(edges) == a * c + 2 - 2 * k and min(edges) == a
                            and b == _least_b(a, b, c)
                            and (not one_relint_edge or 2 in edges)):
                        yield a, b, c


def _maximizers(reps):
    """(max area, the triangles attaining it)."""
    areas = [volume(t) for t in reps]
    max_area = max(areas, default=Fraction(0))
    return max_area, tuple(t for t, a in zip(reps, areas) if a == max_area)


def _census_cap(k: int, cap: int | None) -> int:
    """``cap``, or 4(k+1) when it is None, checked against 2(k+1)..MAX_CAP."""
    cap = 4 * (k + 1) if cap is None else cap
    if cap < 2 * (k + 1):
        raise ValueError(f"must be at least 2(k+1), got {cap}")
    if cap > MAX_CAP:
        raise ValueError(f"the census cap must be at most {MAX_CAP}")
    return cap


def enumerate_triangles(k: int, cap: int | None = None, *,
                        one_relint_edge: bool = False) -> TriangleCensus:
    """All lattice triangles with k interior points and area <= cap.

    The default cap 4(k+1) is double the sharp area bound for k >= 2, so
    the census is complete for those k; for k = 1 it also covers the
    exceptional area-9/2 maximizer.  With ``one_relint_edge``, only the
    classes with an edge with exactly one relative-interior lattice point:
    ``filter_one_relint_facet`` of the whole census, with no triangle of
    another class built.  The cap is at most ``MAX_CAP``.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    cap = _census_cap(k, cap)
    reps = tuple(LatticeSimplex([(0, 0), (a, 0), (b, c)])
                 for a, b, c in sorted(_pick_triples(k, cap, one_relint_edge)))
    for tri in reps:
        # Cross-check Pick against direct enumeration.
        direct = len(interior_points(tri, limit=k + 1))
        check(direct == k, "Pick and direct interior counts disagree")
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
    from .unimodular import equivalent

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
