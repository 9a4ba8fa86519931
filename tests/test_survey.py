import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import latticebound
from latticebound import (
    LatticeSimplex,
    canonical_form,
    enumerate_triangles,
    equivalent,
    filter_one_relint_facet,
    interior_points,
    pikhurko,
    t_simplex,
    verify_theorem_main_2d,
    volume,
    zpw_simplex,
)
from latticebound.survey import _pick_triples

F = Fraction


def brute_force_classes(k, cap):
    """Oracle: scan all triangles conv(o, q, r) with q, r in [0,12]^2.

    Every equivalence class of area <= cap with k interior points has a
    Hermite-shaped representative conv(o,(a,0),(b,c)) with a*c <= 2*cap
    and 0 <= b < c <= 2*cap, hence inside this window for cap <= 8, so
    the scan finds each class at least once (and usually many times).
    """
    seen = set()
    pts = [(x, y) for x in range(13) for y in range(13)]
    for q in pts:
        for r in pts:
            area2 = q[0] * r[1] - q[1] * r[0]
            if area2 <= 0 or area2 > 2 * cap:
                continue
            tri = LatticeSimplex([(0, 0), q, r])
            if len(interior_points(tri, limit=k + 1)) != k:
                continue
            seen.add(canonical_form(tri).key())
    return seen


def full_triple_scan(k, cap):
    """Oracle: every Hermite-shaped (a, b, c) with ac <= 2 cap whose
    triangle conv(o, (a,0), (b,c)) has k interior points by Pick, with no
    pair (a, c) skipped, in the census's scan order."""
    return [(a, b, c)
            for a in range(1, 2 * cap + 1)
            for c in range(1, 2 * cap // a + 1)
            for b in range(c)
            if a * c - a - gcd(b, c) - gcd(b - a, c) + 2 == 2 * k]


class TestEnumerateTriangles:
    @pytest.mark.parametrize("k", range(21))
    def test_skipped_pairs_have_no_triangle(self, k):
        for cap in (4 * (k + 1), 2 * (k + 1), 6 * (k + 1) + 3):
            assert list(_pick_triples(k, cap)) == full_triple_scan(k, cap)

    def test_k0(self):
        census = enumerate_triangles(0)
        assert len(census.representatives) == 9
        assert census.max_area == 4  # hollow triangles saturate the cap
        assert all(
            interior_points(t) == [] for t in census.representatives
        )

    def test_k1(self):
        census = enumerate_triangles(1)
        assert len(census.representatives) == 5
        assert census.max_area == F(9, 2)
        assert len(census.maximizers) == 1
        assert equivalent(
            census.maximizers[0], LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        )

    def test_k2(self):
        census = enumerate_triangles(2)
        assert len(census.representatives) == 5
        assert census.max_area == 6

    def test_k3(self):
        census = enumerate_triangles(3)
        assert len(census.representatives) == 10
        assert census.max_area == 8

    def test_interior_counts_exact(self):
        for k in (0, 1, 2):
            for t in enumerate_triangles(k).representatives:
                assert len(interior_points(t)) == k

    def test_no_duplicate_classes(self):
        for k in (0, 1, 2):
            reps = enumerate_triangles(k).representatives
            keys = [canonical_form(t).key() for t in reps]
            assert len(set(keys)) == len(keys)

    def test_cap_precondition(self):
        with pytest.raises(ValueError):
            enumerate_triangles(1, cap=3)
        with pytest.raises(ValueError):
            enumerate_triangles(-1)

    @pytest.mark.parametrize("k,cap", [(0, 6), (1, 8), (2, 8)])
    def test_against_window_scan_oracle(self, k, cap):
        census = enumerate_triangles(k, cap=cap)
        keys = {canonical_form(t).key() for t in census.representatives}
        assert keys == brute_force_classes(k, cap)

    def test_scott_bound_consistency(self):
        # for k >= 1 every class except conv(o,3e1,3e2) has area <= 2(k+1)
        for k in (1, 2, 3):
            census = enumerate_triangles(k)
            exceptional = LatticeSimplex([(0, 0), (3, 0), (0, 3)])
            for t in census.representatives:
                if k == 1 and equivalent(t, exceptional):
                    continue
                assert volume(t) <= 2 * (k + 1)

    def test_bounds_hold_over_census(self):
        for k in (1, 2):
            for t in enumerate_triangles(k).representatives:
                assert volume(t) <= pikhurko(t).nu


class TestFilter:
    def test_k1_keeps_axis_drops_symmetric(self):
        census = enumerate_triangles(1)
        filtered = filter_one_relint_facet(census)
        assert any(
            equivalent(t, zpw_simplex(2, 1))
            for t in filtered.representatives
        )
        symmetric = LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        assert not any(
            equivalent(t, symmetric) for t in filtered.representatives
        )

    def test_k1_keeps_t2(self):
        filtered = filter_one_relint_facet(enumerate_triangles(1))
        assert any(
            equivalent(t, t_simplex(2)) for t in filtered.representatives
        )

    def test_sizes(self):
        sizes = {
            k: len(
                filter_one_relint_facet(enumerate_triangles(k)).representatives
            )
            for k in (0, 1, 2, 3)
        }
        assert sizes == {0: 2, 1: 3, 2: 3, 3: 4}


class TestVerifyTheorem:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_passes(self, k):
        report = verify_theorem_main_2d(k)
        assert report["passed"]
        assert report["maxArea"] == report["expectedArea"] == 2 * (k + 1)
        assert report["uniqueMaximizer"]

    def test_report_shape(self):
        report = verify_theorem_main_2d(1)
        assert report["censusSize"] == 5 and report["filteredSize"] == 3

    def test_scale_guard(self):
        with pytest.raises(ValueError):
            verify_theorem_main_2d(4)


CORRUPT_COUNT = """
import latticebound.survey as survey
from latticebound import VerificationError

assert False, "asserts must be stripped"
survey.interior_points = lambda s, limit=None: [(0, 0)] * 5
try:
    survey.enumerate_triangles(1)
except VerificationError as exc:
    print("VerificationError:", exc)
"""


def test_cross_check_survives_dash_O():
    """A wrong direct count is caught even with asserts stripped."""
    src = str(Path(latticebound.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_COUNT],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "VerificationError: Pick and direct interior counts disagree\n"
    )
