import pickle
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hrep_oracle
from latticebound import (
    DegeneracyError,
    Face,
    HullMembershipError,
    LatticePolygon,
    LatticeSimplex,
    LinAlgError,
    barycentric,
    canonical_form,
    collinear,
    facets,
    geometry,
    hrep,
    interior_points,
    polygon_counts,
    relint_points,
    solve,
    unimodular,
    volume,
    zpw_simplex,
)
from conftest import box_scan_interior
from latticebound.exact import det
from latticebound.geometry import _edge_det

F = Fraction


def unit_simplex(d):
    verts = [tuple(0 for _ in range(d))]
    for i in range(d):
        verts.append(tuple(1 if j == i else 0 for j in range(d)))
    return LatticeSimplex(verts)


class TestVolume:
    @pytest.mark.parametrize("d,fact", [(1, 1), (2, 2), (3, 6), (4, 24)])
    def test_unit_simplex(self, d, fact):
        assert volume(unit_simplex(d)) == F(1, fact)

    def test_s31(self):
        assert volume(zpw_simplex(3, 1)) == 12

    def test_s32(self):
        assert volume(zpw_simplex(3, 2)) == 18

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            LatticeSimplex([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(DegeneracyError, match="^no vertices$"):
            LatticeSimplex([])
        with pytest.raises(DegeneracyError, match="expected 3 vertices"):
            LatticeSimplex([(0, 0), (1, 0)])

    def test_zero_dimension(self):
        # one vertex of no coordinates: refused before any elimination
        with pytest.raises(DegeneracyError, match="need d >= 1"):
            LatticeSimplex([()])

    def test_reads_the_determinant_computed_at_construction(self, monkeypatch):
        s = LatticeSimplex([(0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 0, 5)])

        def recomputed(m):
            raise AssertionError("det was computed again")

        monkeypatch.setattr(geometry, "_adjugate", recomputed)
        assert volume(s) == F(31, 6)


class TestBarycentric:
    def test_vertex_is_indicator(self):
        s = zpw_simplex(3, 1)
        f = facets(s)[3]
        assert barycentric(s.vertices[1], f) == [0, 1, 0]

    def test_facet_point(self):
        s = zpw_simplex(3, 1)
        bottom = Face(s, (0, 1, 2))
        betas = barycentric([1, 1, 0], bottom)
        assert betas == [F(1, 6), F(1, 2), F(1, 3)]
        assert betas[0] * betas[1] * betas[2] * 6 == F(1, 6)

    def test_symmetric_triangle(self):
        s = LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        full = Face(s, (0, 1, 2))
        assert barycentric([1, 1], full) == [F(1, 3)] * 3

    def test_outside_affine_hull(self):
        s = zpw_simplex(3, 1)
        bottom = Face(s, (0, 1, 2))
        with pytest.raises(HullMembershipError):
            barycentric([1, 1, 1], bottom)

    def test_reconstruction(self):
        s = zpw_simplex(3, 2)
        full = Face(s, (0, 1, 2, 3))
        x = [1, 1, 2]
        betas = barycentric(x, full)
        assert sum(betas) == 1
        for i in range(3):
            assert sum(b * v[i] for b, v in zip(betas, s.vertices)) == x[i]

    def test_point_of_wrong_length_raises(self):
        s = LatticeSimplex([(0, 0), (4, 0), (0, 4)])
        for x in [(1,), (1, 1, 0)]:
            with pytest.raises(LinAlgError):
                barycentric(x, Face(s, (0, 1, 2)))


class TestFacets:
    def test_triangle(self):
        assert len(facets(unit_simplex(2))) == 3

    def test_tetrahedron_contains_bottom(self):
        s = zpw_simplex(3, 1)
        bottoms = [f for f in facets(s) if f.vertex_indices == (0, 1, 2)]
        assert len(bottoms) == 1
        assert bottoms[0].vertices == ((0, 0, 0), (2, 0, 0), (0, 3, 0))

    def test_segment(self):
        s = LatticeSimplex([(0,), (2,)])
        fs = facets(s)
        assert len(fs) == 2 and all(f.dim == 0 for f in fs)


class TestHrep:
    def test_unit_triangle(self):
        h = hrep(unit_simplex(2))
        assert h.contains([F(1, 4), F(1, 4)], strict=True)
        assert h.contains([0, 0]) and not h.contains([0, 0], strict=True)
        assert not h.contains([1, 1])

    def test_t2(self):
        # {y1 >= 0, y2 >= 0, y1/2 + y2/3 <= 1} up to row scaling
        h = hrep(LatticeSimplex([(0, 0), (2, 0), (0, 3)]))
        normalized = set()
        for ai, bi in zip(h.a, h.b):
            scale = abs(bi) if bi != 0 else abs(next(c for c in ai if c != 0))
            normalized.add(
                tuple(F(c, scale) for c in ai) + (F(bi, scale),)
            )
        assert normalized == {
            (-1, 0, 0),
            (0, -1, 0),
            (F(1, 2), F(1, 3), 1),
        }
        assert h.contains([2, 0]) and h.contains([0, 3])
        assert h.contains([1, 1], strict=True)
        assert not h.contains([2, 3])

    def test_s21(self):
        h = hrep(zpw_simplex(2, 1))
        assert h.contains([1, 1], strict=True)
        assert h.contains([2, 0]) and not h.contains([2, 1])

    def test_contains_point_of_wrong_length_raises(self):
        h = hrep(LatticeSimplex([(0, 0), (4, 0), (0, 4)]))
        for x in [(1, 1, 99), (1,)]:
            for strict in (False, True):
                with pytest.raises(LinAlgError):
                    h.contains(x, strict)

    def test_integer_rows(self):
        s = LatticeSimplex([(1, 2, 3), (4, 2, 3), (1, 7, 4), (2, 3, 9)])
        h = hrep(s)
        for ai, bi in zip(h.a, h.b):
            assert all(type(c) is int for c in ai + (bi,))
            assert gcd(bi, *ai) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-9, 9)] * d), min_size=d + 1,
        max_size=d + 1)))
    def test_matches_cofactor_oracle(self, verts):
        try:
            s = LatticeSimplex(verts)
        except DegeneracyError:
            assume(False)
        h = hrep(s)
        assert (h.a, h.b) == hrep_oracle.hrep(s)
        assert _edge_det(s) == det(s.edge_matrix())


class TestInteriorPoints:
    def test_unit_simplices_hollow(self):
        for d in range(1, 5):
            assert interior_points(unit_simplex(d)) == []

    def test_s21(self):
        assert interior_points(zpw_simplex(2, 1)) == [(1, 1)]

    def test_s32(self):
        assert interior_points(zpw_simplex(3, 2)) == [(1, 1, 1), (1, 1, 2)]

    def test_zpw_one_point_per_height(self):
        # the interior points of S_{d,k} sit one at each height 1..k
        for d, k in [(2, 2), (3, 2), (3, 3)]:
            heights = [p[-1] for p in interior_points(zpw_simplex(d, k))]
            assert heights == list(range(1, k + 1))

    @pytest.mark.parametrize(
        "verts",
        [
            [(0, 0), (2, 0), (0, 4)],
            [(0, 0), (3, 0), (0, 3)],
            [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 12)],
            [(0, 0, 0), (2, 0, 0), (0, 6, 0), (0, 0, 6)],
            [(-1, -1), (3, 0), (0, 3)],
            [(1, 2, 3), (4, 2, 3), (1, 7, 4), (2, 3, 9)],
        ],
    )
    def test_against_box_scan_oracle(self, verts):
        s = LatticeSimplex(verts)
        assert interior_points(s) == box_scan_interior(s)


class TestRelintPoints:
    def test_bottom_facet(self):
        s = zpw_simplex(3, 2)
        assert relint_points(Face(s, (0, 1, 2))) == [(1, 1, 0)]

    def test_edge_with_two(self):
        s = LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        edge = Face(s, (1, 2))
        assert relint_points(edge) == [(1, 2), (2, 1)]

    def test_primitive_edge(self):
        s = unit_simplex(2)
        assert relint_points(Face(s, (0, 1))) == []

    def test_vertex_face_is_itself(self):
        s = unit_simplex(2)
        assert relint_points(Face(s, (0,))) == [(0, 0)]

    def test_cross_validated_with_barycentric(self):
        s = zpw_simplex(3, 1)
        for f in facets(s):
            pts = set(relint_points(f))
            # every relint point has strictly positive coordinates
            for p in pts:
                assert all(b > 0 for b in barycentric(p, f))


def oracle_barycentric(x, verts):
    """Coordinates lam with [1...1; V] lam = [1; x], or None off aff(V).

    Solves the normal equations of the (d+1) x (m+1) system with
    ``exact.solve`` and keeps the solution only if it solves the system
    itself; independent of ``hrep``.
    """
    a = [[1] * len(verts)] + [list(col) for col in zip(*verts)]
    y = [1] + list(x)
    cols = range(len(verts))
    gram = [[sum(r[i] * r[j] for r in a) for j in cols] for i in cols]
    lam = solve(gram, [sum(r[i] * yr for r, yr in zip(a, y)) for i in cols])
    if any(sum(c * l for c, l in zip(r, lam)) != yr for r, yr in zip(a, y)):
        return None
    return lam


def all_faces(s):
    n = s.dim + 1
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            yield Face(s, idx)


def simplices(max_d):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-3, 3)] * d), min_size=d + 1,
            max_size=d + 1
        )
    )


small_simplex = simplices(3)


@settings(max_examples=40, deadline=None)
@given(small_simplex)
# Faces with several equalities, where a row of the sweep's upper level can
# equal the equality's opposite row as a level tuple: vertex 0 is [(0, 0, 0)],
# vertex 1 is [(0, 0, 1)] and edge (0, 1) has no relative-interior point.
@example([(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0)])
@example([(-1, 0, 0, 1), (1, -1, 1, 0), (0, 0, 0, 0), (-1, 1, 1, 1),
          (1, 0, 0, 1)])
def test_face_queries_match_box_scan_oracle(verts):
    try:
        s = LatticeSimplex(verts)
    except DegeneracyError:
        assume(False)
    for f in all_faces(s):
        w = f.vertices
        box = [range(min(c), max(c) + 1) for c in zip(*w)]
        relint = []
        for x in product(*box):
            lam = oracle_barycentric(x, w)
            if lam is None:
                with pytest.raises(HullMembershipError):
                    barycentric(x, f)
                continue
            betas = barycentric(x, f)
            assert betas == lam
            assert all(type(b) is Fraction for b in betas)
            if all(c > 0 for c in lam):
                relint.append(x)
        assert relint_points(f) == relint
        assert relint_points(f, limit=0) == relint[:1]


rational = st.fractions(-4, 4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(simplices(5), st.data())
def test_barycentric_map_on_rational_points(verts, data):
    # Both signs of det E: swapping two vertices flips it.
    try:
        pair = [LatticeSimplex(verts),
                LatticeSimplex([verts[1], verts[0], *verts[2:]])]
    except DegeneracyError:
        assume(False)
    assert _edge_det(pair[0]) == -_edge_det(pair[1])
    d = len(verts) - 1
    x = data.draw(st.tuples(*[rational] * d))
    for s in pair:
        full = Face(s, tuple(range(d + 1)))
        lam = oracle_barycentric(x, s.vertices)
        assert barycentric(x, full) == lam
        for i, v in enumerate(s.vertices):
            assert barycentric(v, full) == [int(j == i) for j in range(d + 1)]
        for f in facets(s):
            (i,) = set(range(d + 1)) - set(f.vertex_indices)
            centroid = [F(sum(c), d) for c in zip(*f.vertices)]
            assert barycentric(centroid, f) == [F(1, d)] * d
            with pytest.raises(HullMembershipError):
                barycentric(s.vertices[i], f)
            if lam[i]:
                with pytest.raises(HullMembershipError):
                    barycentric(x, f)
            else:
                assert barycentric(x, f) == lam[:i] + lam[i + 1:]

class TestCachedFacts:
    @settings(max_examples=40, deadline=None)
    @given(small_simplex, st.data())
    def test_any_order_of_limits_matches_a_fresh_simplex(self, verts, data):
        try:
            s = LatticeSimplex(verts)
        except DegeneracyError:
            assume(False)
        asks = [(f, limit) for f in [None, *all_faces(s)]
                for limit in (None, 0, 1, 2)]
        for f, limit in data.draw(st.permutations(asks)):
            fresh = LatticeSimplex(verts)
            if f is None:
                got = interior_points(s, limit)
                want = interior_points(fresh, limit)
            else:
                got = relint_points(f, limit)
                want = relint_points(Face(fresh, f.vertex_indices), limit)
            assert got == want

    def test_returned_lists_are_new(self):
        s = zpw_simplex(3, 2)
        bottom = Face(s, (0, 1, 2))
        for answer in (interior_points(s), interior_points(s, limit=0),
                       relint_points(bottom), relint_points(bottom, limit=1)):
            answer.clear()
            answer.append((9, 9, 9))
        assert interior_points(s) == [(1, 1, 1), (1, 1, 2)]
        assert interior_points(s, limit=0) == [(1, 1, 1)]
        assert relint_points(bottom) == [(1, 1, 0)]

    def test_limit_must_be_a_non_negative_int(self):
        s = zpw_simplex(3, 2)
        edge, vertex = Face(s, (0, 1)), Face(s, (3,))
        queries = [lambda limit: interior_points(s, limit),
                   lambda limit: relint_points(edge, limit),
                   lambda limit: relint_points(vertex, limit)]
        for _ in range(2):  # before and after the points are kept
            for query in queries:
                with pytest.raises(ValueError, match="^limit must be >= 0$"):
                    query(-1)
                with pytest.raises(TypeError):
                    query(0.5)
                assert len(query(0)) == 1 and query(None)

    def test_facts_survive_pickle(self, monkeypatch):
        s = zpw_simplex(3, 2)
        facts = (hrep(s), interior_points(s),
                 [relint_points(f) for f in facets(s)], canonical_form(s))
        t = pickle.loads(pickle.dumps(s))
        assert t == s and hash(t) == hash(s)

        def recomputed(*args, **kwargs):
            raise AssertionError("a cached fact was recomputed")

        monkeypatch.setattr(geometry, "_edge_adjugate", recomputed)
        monkeypatch.setattr(geometry, "integer_points", recomputed)
        monkeypatch.setattr(unimodular, "hnf", recomputed)
        monkeypatch.setattr(unimodular, "_hnf_column", recomputed)
        assert (hrep(t), interior_points(t),
                [relint_points(f) for f in facets(t)],
                canonical_form(t)) == facts


class TestCollinear:
    def test_vertical_line(self):
        assert collinear([(1, 1, 0), (1, 1, 1), (1, 1, 2)])

    def test_triangle_points(self):
        assert not collinear([(0, 0), (1, 0), (0, 1)])

    def test_single_point(self):
        assert collinear([(5, 7)])

    def test_no_points_raise(self):
        with pytest.raises(ValueError, match="at least one point"):
            collinear([])

    def test_rational_points(self):
        assert collinear([(F(1, 2), 0), (F(3, 2), 2), (F(5, 2), 4)])

    def test_points_of_different_lengths_raise(self):
        for pts in [[(0, 0), (1, 1), (2,)], [(0,), (1, 1)],
                    [(0, 0), (0, 0, 1)]]:
            with pytest.raises(LinAlgError):
                collinear(pts)


class TestPolygonCounts:
    def test_p21_maximizer(self):
        p = LatticePolygon([(0, 0), (3, 0), (0, 3)])
        assert polygon_counts(p) == (F(9, 2), 9, 1)

    def test_figure_triangle(self):
        # area 6 and 2 interior points; Pick then forces 10 boundary points
        p = LatticePolygon([(0, 0), (2, 0), (0, 6)])
        assert polygon_counts(p) == (6, 10, 2)

    def test_unit_square(self):
        p = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert polygon_counts(p) == (1, 4, 0)

    def test_non_convex_rejected(self):
        with pytest.raises(ValueError):
            LatticePolygon([(0, 0), (2, 0), (1, 1), (0, 2)])

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            LatticePolygon([(0, 0), (0, 3), (3, 0)])

    def test_triangle_interior_matches_enumeration(self):
        verts = [(0, 0), (4, 1), (1, 5)]
        p = LatticePolygon(verts)
        s = LatticeSimplex(verts)
        _, _, interior = polygon_counts(p)
        assert interior == len(interior_points(s))
