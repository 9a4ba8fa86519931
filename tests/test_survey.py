import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census_oracle
import latticebound
from latticebound import (
    LatticeSimplex,
    canonical_form,
    enumerate_triangles,
    equivalent,
    filter_one_relint_facet,
    interior_points,
    pikhurko,
    qualifying_facets,
    t_simplex,
    verify_theorem_main_2d,
    volume,
    zpw_simplex,
)
from latticebound import survey
from latticebound.survey import _edge_lengths, _least_b, _pick_triples

F = Fraction


def brute_force_classes(k, cap):
    """Oracle: scan all triangles conv(o, q, r) with q, r in [0,12]^2.

    The window holds a triangle of every class of area <= cap with k
    interior points for k = 0 up to cap 6 and for k >= 1 up to cap 8
    (checked against the full triple scan), so the scan finds each class
    at least once (and usually many times).  Beyond that it misses
    classes: an edge in the window has lattice length at most 12, and at
    k = 0 the classes with a longer edge, such as conv(o, (1,0), (0,16)),
    have area only half that length, so cap 7 misses 2 and cap 8 misses 4.
    """
    if cap > (6 if k == 0 else 8):
        raise ValueError(f"the window does not hold every class at "
                         f"k={k}, cap={cap}")
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


def shortest_base(triple):
    """The base a of conv(o, (a,0), (b,c)) is a shortest edge."""
    a, b, c = triple
    return a <= gcd(b, c) and a <= gcd(b - a, c)


def first_of_class(triple):
    """The census's rule: a shortest base, and b is ``_least_b``."""
    return shortest_base(triple) and triple[1] == _least_b(*triple)


def oracle_caps(k):
    return (4 * (k + 1), 2 * (k + 1), 6 * (k + 1) + 3)


def has_length_2_edge(triple):
    """An edge of conv(o, (a,0), (b,c)) has lattice length 2."""
    a, b, c = triple
    return 2 in (a, gcd(b, c), gcd(b - a, c))


def cross_checks(monkeypatch, k, **options):
    """The interior-point cross-checks ``enumerate_triangles`` makes."""
    calls = []

    def counting(s, limit=None):
        calls.append(1)
        return interior_points(s, limit=limit)

    monkeypatch.setattr(survey, "interior_points", counting)
    enumerate_triangles(k, **options)
    return len(calls)


class TestEnumerateTriangles:
    @pytest.mark.parametrize("k", range(21))
    def test_skipped_pairs_have_no_triangle(self, k):
        for cap in oracle_caps(k):
            first = list(census_oracle.first_triples(k, cap).values())
            assert list(_pick_triples(k, cap)) == first
            assert list(_pick_triples(k, cap, True)) == list(
                filter(has_length_2_edge, first))

    @pytest.mark.parametrize("k", range(21))
    def test_least_b_is_the_canonical_form(self, k):
        for cap in oracle_caps(k):
            for a, b, c in filter(shortest_base,
                                  census_oracle.full_triple_scan(k, cap)):
                tri = LatticeSimplex([(0, 0), (a, 0), (b, c)])
                assert canonical_form(tri).key()[:2] == (a, _least_b(a, b, c))

    @pytest.mark.parametrize("k", range(21))
    def test_census_matches_full_scan_oracle(self, k):
        for cap in oracle_caps(k):
            assert enumerate_triangles(k, cap) == census_oracle.census(k, cap)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(2 * (k + 1), 8 * (k + 1) + 8))))
    def test_census_matches_full_scan_oracle_fuzz(self, k_cap):
        assert enumerate_triangles(*k_cap) == census_oracle.census(*k_cap)

    @pytest.mark.parametrize("k", range(41))
    def test_prefiltered_census_matches_filtered_oracle(self, k):
        for cap in oracle_caps(k):
            assert enumerate_triangles(k, cap, one_relint_edge=True) == (
                census_oracle.census(k, cap, one_relint_edge=True))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(2 * (k + 1), 8 * (k + 1) + 8))))
    def test_prefiltered_census_matches_filtered_oracle_fuzz(self, k_cap):
        assert enumerate_triangles(*k_cap, one_relint_edge=True) == (
            census_oracle.census(*k_cap, one_relint_edge=True))

    @pytest.mark.parametrize("k", range(0, 21, 4))
    def test_first_triple_of_each_class_passes_the_rule(self, k):
        for cap in oracle_caps(k):
            first = census_oracle.first_triples(k, cap).values()
            assert all(map(first_of_class, first))

    @pytest.mark.parametrize("k, checked", [(1, 5), (31, 43)])
    def test_cross_check_count(self, k, checked, monkeypatch):
        assert cross_checks(monkeypatch, k) == checked

    @pytest.mark.parametrize("k, checked", [(1, 3), (31, 31)])
    def test_prefiltered_cross_check_count(self, k, checked, monkeypatch):
        assert cross_checks(monkeypatch, k, one_relint_edge=True) == checked

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

    @pytest.mark.parametrize("k, cap", [(0, 7), (1, 9)])
    def test_window_scan_oracle_refuses_caps_it_cannot_hold(self, k, cap):
        with pytest.raises(ValueError):
            brute_force_classes(k, cap)

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

    @pytest.mark.parametrize("k", range(41))
    def test_edge_gcds_agree_with_qualifying_facets(self, k):
        census = enumerate_triangles(k)
        filtered = filter_one_relint_facet(census)
        assert filtered.representatives == tuple(
            t for t in census.representatives if qualifying_facets(t))
        assert filtered == enumerate_triangles(k, one_relint_edge=True)

    def test_edge_lengths_of_any_triangle(self):
        # the edges of conv((1,1), (5,3), (2,-1)) are (4,2), (1,-2), (-3,-4)
        assert _edge_lengths((1, 1), (5, 3), (2, -1)) == (2, 1, 1)
        tris = (LatticeSimplex([(1, 1), (5, 3), (2, -1)]),
                LatticeSimplex([(1, 1), (4, 3), (3, 0)]))
        filtered = filter_one_relint_facet(
            survey.TriangleCensus(0, tris, F(0), (), 2))
        assert filtered.representatives == tuple(
            t for t in tris if qualifying_facets(t)) == tris[:1]

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
for one_relint_edge in (False, True):
    try:
        survey.enumerate_triangles(1, one_relint_edge=one_relint_edge)
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
        "VerificationError: Pick and direct interior counts disagree\n" * 2
    )
