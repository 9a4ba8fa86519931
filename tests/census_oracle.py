"""The triangle census over every Pick triple, kept as the oracle for
``latticebound.survey.enumerate_triangles``.

The census yields only the first triple of each class, read off its
edges by ``_least_b``; this oracle scans every Hermite-shaped triple
(a, b, c) with ac <= 2 cap whose triangle has k interior points by Pick,
in the same order, keeps the first triangle of each canonical class and
must give an equal ``TriangleCensus``.  With ``one_relint_edge`` it keeps
the classes whose representative has a facet with one relative-interior
point by ``qualifying_facets``, an FM sweep per edge, where the census
reads edge lengths off gcds.
"""

from fractions import Fraction
from math import gcd

from latticebound import (LatticeSimplex, canonical_form,
                          qualifying_facets, volume)
from latticebound.survey import TriangleCensus


def full_triple_scan(k, cap):
    """Every (a, b, c) with 0 <= b < c and ac <= 2 cap whose triangle
    conv(o, (a,0), (b,c)) has k interior points by Pick, with no pair
    (a, c) skipped, ordered by a, then c, then b."""
    return [(a, b, c)
            for a in range(1, 2 * cap + 1)
            for c in range(1, 2 * cap // a + 1)
            for b in range(c)
            if a * c - a - gcd(b, c) - gcd(b - a, c) + 2 == 2 * k]


def first_triples(k, cap):
    """The first full-scan triple of each class, by canonical key."""
    first = {}
    for a, b, c in full_triple_scan(k, cap):
        tri = LatticeSimplex([(0, 0), (a, 0), (b, c)])
        first.setdefault(canonical_form(tri).key(), (a, b, c))
    return first


def census(k, cap, one_relint_edge=False):
    """The census the way ``enumerate_triangles`` built it over every
    Pick triple: first triangle of each class, classes in key order; with
    ``one_relint_edge``, only the classes with a qualifying facet."""
    reps = tuple(LatticeSimplex([(0, 0), (a, 0), (b, c)])
                 for _, (a, b, c) in sorted(first_triples(k, cap).items()))
    if one_relint_edge:
        reps = tuple(t for t in reps if qualifying_facets(t))
    areas = [volume(t) for t in reps]
    max_area = max(areas, default=Fraction(0))
    maximizers = tuple(t for t, area in zip(reps, areas) if area == max_area)
    return TriangleCensus(k, reps, max_area, maximizers, cap)
