"""Shared oracles: independent brute-force counting paths for small inputs."""

from fractions import Fraction
from math import gcd

import pytest

from latticebound import LatticeSimplex, hrep


def bounding_box(s: LatticeSimplex):
    lo = [min(v[i] for v in s.vertices) for i in range(s.dim)]
    hi = [max(v[i] for v in s.vertices) for i in range(s.dim)]
    return lo, hi


def box_scan_interior(s: LatticeSimplex):
    """Plain bounding-box scan against the strict H-representation."""
    lo, hi = bounding_box(s)
    size = 1
    for a, b in zip(lo, hi):
        size *= b - a + 1
    assert size <= 10**6, "oracle box too large"
    h = hrep(s)
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == s.dim:
            if h.contains(prefix, strict=True):
                out.append(tuple(prefix))
            return
        for x in range(lo[i], hi[i] + 1):
            rec(prefix + [x])

    rec([])
    return sorted(out)


def mat_mul(a, b):
    """Plain matrix product of two lists of rows."""
    assert a and b and len(a[0]) == len(b), "incompatible shapes"
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def shoelace_pick(verts):
    """(area, boundary, interior) of a lattice triangle, independent path."""
    (ax, ay), (bx, by), (cx, cy) = verts
    twice = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    boundary = (
        gcd(bx - ax, by - ay)
        + gcd(cx - bx, cy - by)
        + gcd(ax - cx, ay - cy)
    )
    area = Fraction(twice, 2)
    interior = area - Fraction(boundary, 2) + 1
    return area, boundary, int(interior)


@pytest.fixture(scope="session")
def sample_census_path():
    from importlib.resources import files

    return str(files("latticebound").joinpath("data/sample_census.txt"))
