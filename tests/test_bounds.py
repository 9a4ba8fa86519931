from fractions import Fraction

import pytest

from latticebound import (
    ApplicabilityError,
    Face,
    Lattice,
    LatticeSimplex,
    best_facet_bound,
    collinear,
    equality_certificate,
    facet_bound,
    general_pk_bound,
    lift,
    pikhurko,
    proof_trace,
    qualifying_facets,
    sylvester,
    t_simplex,
    tau,
    vdc_check,
    volume,
    zpw_simplex,
)
from latticebound.exact import mat_inverse
from latticebound.io import ingest_census

F = Fraction


def bottom_facet(s):
    return Face(s, tuple(range(s.dim)))


class TestFacetBound:
    def test_s20_edge_tight(self):
        s = zpw_simplex(2, 0)
        r = facet_bound(s, bottom_facet(s))
        assert r.relint_point == (1, 0)
        assert r.betas == (F(1, 2), F(1, 2))
        assert r.bound == 2 and r.tight

    def test_s32_bottom_tight(self):
        s = zpw_simplex(3, 2)
        r = facet_bound(s, bottom_facet(s))
        assert r.relint_point == (1, 1, 0)
        assert r.betas == (F(1, 6), F(1, 2), F(1, 3))
        assert r.bound == 18 and r.tight

    def test_lift_with_two_relint_points_inapplicable(self):
        # the segment base has two interior points, so lift() refuses it
        s = LatticeSimplex([(-1, 0), (2, 0), (0, 2)])
        with pytest.raises(ApplicabilityError):
            facet_bound(s, bottom_facet(s))

    def test_lift_not_tight(self):
        s = lift(LatticeSimplex([(-1,), (1,)]), 1)
        r = facet_bound(s, bottom_facet(s))
        assert r.bound == 4 and volume(s) == 2 and not r.tight

    def test_non_facet_rejected(self):
        s = zpw_simplex(3, 1)
        with pytest.raises(ApplicabilityError):
            facet_bound(s, Face(s, (0, 1)))

    @pytest.mark.parametrize("d,k", [(2, 0), (2, 1), (3, 1), (3, 2), (4, 1)])
    def test_zpw_always_tight_on_bottom(self, d, k):
        s = zpw_simplex(d, k)
        r = facet_bound(s, bottom_facet(s))
        assert r.tight and r.bound == volume(s)

    def test_computed_once_per_facet(self):
        s = zpw_simplex(3, 2)
        r = facet_bound(s, bottom_facet(s))
        assert facet_bound(s, Face(s, (0, 1, 2))) is r
        assert proof_trace(s, bottom_facet(s)).box is r.betas

    def test_analysis_derives_each_relint_point_and_betas_once(
            self, monkeypatch):
        from latticebound import bounds
        from latticebound.io import analyze_simplex

        calls = {"barycentric": 0, "relint_points": 0}

        def counting(name):
            fn = getattr(bounds, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(bounds, name, counting(name))
        analyze_simplex(zpw_simplex(3, 2))
        # the facet bound: one relint query and one barycentric per
        # qualifying facet (2), which the proof trace of the best one
        # reuses; pikhurko reads the integer barycentric map, not
        # barycentric
        assert calls == {"barycentric": 2, "relint_points": 2}

    def test_proof_trace_raises_the_facet_bound_errors(self):
        s = zpw_simplex(3, 1)
        with pytest.raises(ApplicabilityError, match="^face is not a facet"):
            proof_trace(s, Face(s, (0, 1)))
        s = LatticeSimplex([(-1, 0), (2, 0), (0, 2)])
        with pytest.raises(ApplicabilityError,
                           match="^facet does not have exactly one"):
            proof_trace(s, bottom_facet(s))


class TestQualifyingFacets:
    def test_s21(self):
        s = zpw_simplex(2, 1)
        idx = {f.vertex_indices for f in qualifying_facets(s)}
        # the bottom edge and the slanted edge both have one relint point
        assert (0, 1) in idx

    def test_is_the_geometry_face_query(self):
        from latticebound import bounds, geometry

        assert bounds.qualifying_facets is geometry.qualifying_facets
        assert qualifying_facets is geometry.qualifying_facets

    def test_unit_simplex_none(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        assert qualifying_facets(s) == []
        with pytest.raises(ApplicabilityError):
            best_facet_bound(s)

    def test_best_is_minimum(self):
        s = zpw_simplex(3, 1)
        r = best_facet_bound(s)
        assert r.bound == volume(s) == 12


class TestPikhurko:
    def test_symmetric_triangle_tight(self):
        s = LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        r = pikhurko(s)
        assert r.nu == F(9, 2) == volume(s)
        assert r.per_point[(1, 1)].betas_desc == (F(1, 3), F(1, 3), F(1, 3))

    def test_t2_tight(self):
        r = pikhurko(t_simplex(2))
        assert r.nu == 3
        assert r.per_point[(1, 1)].betas_desc == (F(1, 2), F(1, 3), F(1, 6))

    def test_s22(self):
        s = zpw_simplex(2, 2)
        r = pikhurko(s)
        assert set(r.per_point) == {(1, 1), (1, 2)}
        assert r.nu == 6 == volume(s)

    def test_hollow_inapplicable(self):
        with pytest.raises(ApplicabilityError):
            pikhurko(LatticeSimplex([(0, 0), (1, 0), (0, 1)]))

    @pytest.mark.parametrize("d,k", [(2, 3), (3, 1), (3, 3), (4, 2)])
    def test_bound_dominates_volume(self, d, k):
        s = zpw_simplex(d, k)
        assert volume(s) <= pikhurko(s).nu


class TestTau:
    def test_t2(self):
        assert tau(t_simplex(2)) == F(1, 36)

    def test_t3(self):
        assert tau(t_simplex(3)) == F(1, 1764)

    def test_symmetric_triangle(self):
        assert tau(LatticeSimplex([(0, 0), (3, 0), (0, 3)])) == F(1, 27)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_td_formula(self, d):
        assert tau(t_simplex(d)) == F(1, (sylvester(d + 1) - 1) ** 2)

    def test_requires_unique_interior_point(self):
        with pytest.raises(ApplicabilityError):
            tau(zpw_simplex(2, 2))
        with pytest.raises(ApplicabilityError):
            tau(zpw_simplex(2, 0))

    def test_t2_minimizes_over_census(self):
        # tau is minimal exactly on the T_2 class among one-point triangles
        from latticebound import canonical_form, enumerate_triangles

        reps = enumerate_triangles(1).representatives
        taus = {canonical_form(t).encoding: tau(t) for t in reps}
        t2_key = canonical_form(t_simplex(2)).encoding
        for key, value in taus.items():
            assert value >= F(1, 36)
            assert (value == F(1, 36)) == (key == t2_key)


class TestLattice:
    def test_det(self):
        assert Lattice(((F(1, 2), 0), (0, 1))).det == F(1, 2)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Lattice(((1, 2), (2, 4)))

    def test_points_in_open_box_z2(self):
        lat = Lattice(((1, 0), (0, 1)))
        assert set(lat.points_in_open_box([2, 1])) == {(-1, 0), (0, 0), (1, 0)}

    def test_points_in_open_box_scaled(self):
        lat = Lattice(((F(1, 3), 0), (0, 1)))
        pts = lat.points_in_open_box([1, 1])
        assert len(pts) == 5 and all(p[1] == 0 for p in pts)

    def test_box_points_computed_once(self, monkeypatch):
        from latticebound import bounds

        calls = []
        enumerate_points = bounds.integer_points

        def counting(*args, **kwargs):
            calls.append(1)
            return enumerate_points(*args, **kwargs)

        monkeypatch.setattr(bounds, "integer_points", counting)
        lat = Lattice(((F(1, 3), 0), (0, 1)))
        # a truncated list is not kept: the complete one is enumerated next
        first = lat.points_in_open_box([1, 1], limit=0)
        full = lat.points_in_open_box([1, 1])
        again = lat.points_in_open_box((F(1), F(1)))
        assert len(calls) == 2
        assert first == full[:1] and again == full and again is not full
        again.clear()
        assert lat.points_in_open_box([1, 1]) == full
        assert lat.points_in_open_box([1, 1], limit=1) == full[:2]
        # another box on the same lattice is its own fact
        assert len(lat.points_in_open_box([F(1, 2), 1])) == 3
        assert len(calls) == 3

    def test_bad_box(self):
        lat = Lattice(((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            lat.points_in_open_box([1])
        with pytest.raises(ValueError):
            lat.points_in_open_box([1, 0])

    def test_negative_limit_raises(self):
        lat = Lattice(((1, 0), (0, 1)))
        for _ in range(2):  # before and after the box's points are kept
            with pytest.raises(ValueError, match="^limit must be >= 0$"):
                lat.points_in_open_box([2, 1], limit=-1)
            assert len(lat.points_in_open_box([2, 1])) == 3

    @pytest.mark.parametrize("width", [1.5, "3/2"], ids=["float", "str"])
    def test_non_rational_box_refused(self, width):
        lat = Lattice(((1, 0), (0, 1)))
        with pytest.raises(TypeError):
            lat.points_in_open_box([width, 1])
        with pytest.raises(TypeError):
            vdc_check(lat, [width, 1])

    def test_fraction_box_accepted(self):
        lat = Lattice(((1, 0), (0, 1)))
        assert len(lat.points_in_open_box([F(3, 2), 1])) == 3
        r = vdc_check(lat, [F(3, 2), 1])
        assert r.interior_count == 3 and r.lhs == 6


class TestVdcCheck:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_box_tight(self, d):
        basis = tuple(
            tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
        )
        r = vdc_check(Lattice(basis), [1] * d)
        assert r.holds and r.tight
        assert r.interior_count == 1 and r.points == ((0,) * d,)

    def test_small_box_slack(self):
        r = vdc_check(Lattice(((1, 0), (0, 1))), [F(1, 2), F(1, 2)])
        assert r.lhs == 1 and r.rhs == 4
        assert r.holds and not r.tight

    def test_refined_axis_tight(self):
        # (1/3)Z x Z against the unit box: five collinear points, equality
        r = vdc_check(Lattice(((F(1, 3), 0), (0, 1))), [1, 1])
        assert r.tight and r.interior_count == 5
        assert collinear(list(r.points))

    def test_rank_one_structure_when_tight(self):
        # engineered tight diagonal instances have all points on one line
        for m in (2, 3, 5):
            lat = Lattice(((F(1, m), 0, 0), (0, 1, 0), (0, 0, 1)))
            r = vdc_check(lat, [1, 1, 1])
            assert r.tight and collinear(list(r.points))

    def test_always_holds_random(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            d = rng.randint(1, 3)
            basis = [[0] * d for _ in range(d)]
            for i in range(d):
                basis[i][i] = F(rng.randint(1, 4), rng.randint(1, 4))
                for j in range(i):
                    basis[i][j] = F(rng.randint(-2, 2), rng.randint(1, 3))
            betas = [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d)]
            lat = Lattice(tuple(tuple(row) for row in basis))
            assert vdc_check(lat, betas).holds


class TestProofTrace:
    def test_s32_bottom(self):
        s = zpw_simplex(3, 2)
        tr = proof_trace(s, bottom_facet(s))
        assert tr.box == (F(1, 6), F(1, 2), F(1, 3))
        assert len(tr.y_set) == 5
        assert tr.h_minus_count == 2 and tr.h_zero_count == 1

    def test_s20_edge(self):
        s = zpw_simplex(2, 0)
        tr = proof_trace(s, bottom_facet(s))
        assert tr.y_set == ((0, 0),)
        assert tr.h_minus_count == 0 and tr.h_zero_count == 1

    def test_unit_simplex_inapplicable(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(ApplicabilityError):
            proof_trace(s, bottom_facet(s))

    def test_lattice_det_equals_inverse_volume_factor(self):
        s = zpw_simplex(3, 1)
        tr = proof_trace(s, bottom_facet(s))
        # the image lattice has determinant 1/|det V| = 1/(d! vol)
        assert tr.lattice.det == F(1, 72)

    def test_phi_is_the_inverse_edge_matrix(self, sample_census_path,
                                            monkeypatch):
        # phi from hrep equals V^{-1}, V the facet vertices minus the
        # opposite vertex as columns, on every qualifying facet; its
        # entries are built as Fractions, not divided into floats
        from latticebound import bounds

        built = []
        lattice = bounds.Lattice
        monkeypatch.setattr(
            bounds, "Lattice", lambda phi: built.append(phi) or lattice(phi))
        shapes = [zpw_simplex(d, k) for d, k in
                  [(2, 0), (2, 1), (2, 3), (3, 1), (3, 2), (4, 1)]]
        shapes += [t_simplex(d) for d in (2, 3, 4)]
        shapes += ingest_census(sample_census_path, 2)
        checked = 0
        for s in shapes:
            for f in qualifying_facets(s):
                (v0,) = (v for i, v in enumerate(s.vertices)
                         if i not in f.vertex_indices)
                v_mat = [[s.vertices[j][i] - v0[i] for j in f.vertex_indices]
                         for i in range(s.dim)]
                phi = tuple(map(tuple, mat_inverse(v_mat)))
                assert proof_trace(s, f).lattice.basis == phi
                assert all(type(c) is F for row in built.pop() for c in row)
                checked += 1
        assert checked >= len(shapes)

    @pytest.mark.parametrize("d,k", [(2, 1), (2, 3), (3, 2), (4, 1)])
    def test_y_count_budget(self, d, k):
        s = zpw_simplex(d, k)
        tr = proof_trace(s, bottom_facet(s))
        assert len(tr.y_set) <= 2 * k + 1
        assert len(tr.y_set) == 2 * tr.h_minus_count + tr.h_zero_count


class TestEqualityCertificate:
    def test_s32(self):
        s = zpw_simplex(3, 2)
        c = equality_certificate(s, bottom_facet(s))
        assert c.line_direction == (0, 0, 1)
        assert c.parallel_edge == (0, 3)
        assert c.collinear_ok and c.edge_ok

    def test_s21(self):
        s = zpw_simplex(2, 1)
        c = equality_certificate(s, bottom_facet(s))
        assert c.line_direction == (0, 1)
        assert c.parallel_edge == (0, 2)
        assert c.collinear_ok and c.edge_ok

    def test_s41(self):
        s = zpw_simplex(4, 1)
        c = equality_certificate(s, bottom_facet(s))
        assert c.line_direction == (0, 0, 0, 1)
        assert c.collinear_ok and c.edge_ok

    def test_not_tight_rejected(self):
        s = lift(LatticeSimplex([(-1,), (1,)]), 1)
        with pytest.raises(ApplicabilityError):
            equality_certificate(s, bottom_facet(s))

    def test_hollow_rejected(self):
        s = zpw_simplex(2, 0)
        with pytest.raises(ApplicabilityError):
            equality_certificate(s, bottom_facet(s))


class TestGeneralPkBound:
    def test_d1(self):
        assert general_pk_bound(1, 1) == 18

    def test_d2(self):
        assert general_pk_bound(2, 1) == 326163600

    def test_scaling_in_k(self):
        assert general_pk_bound(2, 5) == 5 * general_pk_bound(2, 1)

    def test_dominates_known_maximizers(self):
        for d, k in [(1, 1), (2, 1), (2, 2), (3, 1)]:
            s = zpw_simplex(d, k)
            from math import factorial

            assert volume(s) * factorial(d) <= general_pk_bound(d, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            general_pk_bound(0, 1)
        with pytest.raises(ValueError):
            general_pk_bound(2, 0)
