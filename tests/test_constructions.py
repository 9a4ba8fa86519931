from fractions import Fraction
from math import factorial

import pytest

from latticebound import (
    Face,
    LatticeSimplex,
    barycentric,
    exceptional_p31,
    equivalent,
    facets,
    hrep,
    inscribed_cube_scale,
    interior_points,
    lift,
    relint_points,
    sylvester,
    t_simplex,
    volume,
    zpw_simplex,
)

F = Fraction


class TestSylvester:
    def test_first_six(self):
        assert [sylvester(i) for i in range(1, 7)] == [
            2, 3, 7, 43, 1807, 3263443,
        ]

    def test_beyond_64_bit(self):
        assert sylvester(7) == 10650056950807

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sylvester(0)

    def test_product_identity(self):
        for d in range(2, 11):
            prod = 1
            for i in range(1, d):
                prod *= sylvester(i)
            assert prod == sylvester(d) - 1

    def test_egyptian_identity(self):
        for d in range(2, 11):
            assert sum(F(1, sylvester(i)) for i in range(1, d)) == 1 - F(
                1, sylvester(d) - 1
            )


@pytest.mark.parametrize("call, message", [
    (lambda: zpw_simplex(0, 1), "need d >= 1 and k >= 0"),
    (lambda: t_simplex(0), "need d >= 1"),
    (lambda: lift(t_simplex(1), -1), "need k >= 0"),
    (lambda: inscribed_cube_scale(1), "need d >= 2"),
])
def test_arguments_out_of_domain_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestZpwSimplex:
    def test_small_cases(self):
        assert zpw_simplex(2, 1).vertices == ((0, 0), (2, 0), (0, 4))
        assert zpw_simplex(3, 1).vertices == (
            (0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 12),
        )
        assert zpw_simplex(3, 0).vertices == (
            (0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 6),
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_volume_formula(self, d, k):
        s = zpw_simplex(d, k)
        assert volume(s) == F(
            (k + 1) * (sylvester(d) - 1) ** 2, factorial(d)
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_interior_point_structure(self, d, k):
        s = zpw_simplex(d, k)
        expected = [
            tuple([1] * (d - 1) + [j]) for j in range(1, k + 1)
        ]
        assert interior_points(s) == expected

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_bottom_facet_unique_relint_point(self, d, k):
        s = zpw_simplex(d, k)
        bottom = Face(s, tuple(range(d)))
        assert relint_points(bottom) == [tuple([1] * (d - 1) + [0])]


class TestTSimplex:
    def test_t2(self):
        s = t_simplex(2)
        assert s.vertices == ((0, 0), (2, 0), (0, 3))
        assert interior_points(s) == [(1, 1)]

    def test_t3(self):
        s = t_simplex(3)
        assert s.vertices == ((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 7))
        assert interior_points(s) == [(1, 1, 1)]

    def test_t1(self):
        s = t_simplex(1)
        assert s.vertices == ((0,), (2,))
        assert interior_points(s) == [(1,)]

    def test_t4_unique_interior(self):
        assert interior_points(t_simplex(4)) == [(1, 1, 1, 1)]


class TestExceptional:
    def test_volume_and_interior(self):
        s = exceptional_p31()
        assert volume(s) == 12
        assert interior_points(s) == [(1, 1, 1)]

    def test_not_equivalent_to_s31(self):
        assert not equivalent(exceptional_p31(), zpw_simplex(3, 1))


class TestLift:
    def test_segment_base(self):
        t = LatticeSimplex([(-1,), (1,)])
        s = lift(t, 2)
        assert s.vertices == ((-1, 0), (1, 0), (0, 3))
        assert len(interior_points(s)) == 2

    def test_t2_base_gives_s32_member(self):
        t2 = t_simplex(2)
        shifted = LatticeSimplex(
            [(v[0] - 1, v[1] - 1) for v in t2.vertices]
        )
        s = lift(shifted, 2)
        pts = interior_points(s)
        assert len(pts) == 2
        assert all(p[:2] == (0, 0) for p in pts)  # on the lift axis
        base = Face(s, (0, 1, 2))
        assert relint_points(base) == [(0, 0, 0)]

    def test_hollow_lift(self):
        t = LatticeSimplex([(-1,), (1,)])
        s = lift(t, 0)
        assert s.vertices == ((-1, 0), (1, 0), (0, 1))
        assert interior_points(s) == []

    def test_origin_not_interior(self):
        t = LatticeSimplex([(1,), (3,)])
        with pytest.raises(ValueError, match="not interior"):
            lift(t, 1)

    @pytest.mark.parametrize("verts", [[(-1,), (2,)],
                                       [(-1, -1), (5, -1), (-1, 5)]])
    def test_base_with_more_interior_points(self, verts):
        # the lift would have more than k interior points and a base
        # facet with more than one relint point
        with pytest.raises(ValueError, match="only interior point"):
            lift(LatticeSimplex(verts), 1)


class TestInscribedCubeScale:
    @pytest.mark.parametrize(
        "d,expected", [(2, F(2)), (3, F(6, 5)), (4, F(42, 41))]
    )
    def test_values(self, d, expected):
        assert inscribed_cube_scale(d) == expected

    def test_cube_fits(self):
        # the scaled cube's far corner lies on the slanted facet of T_{d-1}
        for d in [3, 4]:
            lam = inscribed_cube_scale(d)
            t = t_simplex(d - 1)
            h = hrep(t)
            corner = [lam] * (d - 1)
            assert h.contains(corner)
            assert not h.contains([lam + F(1, 1000)] * (d - 1))


class TestSpotChecksHighDim:
    """Dimensions 5 and 6: membership-only checks, no full enumeration."""

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("k", [1, 2])
    def test_predicted_interior_points(self, d, k):
        s = zpw_simplex(d, k)
        h = hrep(s)
        for j in range(1, k + 1):
            assert h.contains([1] * (d - 1) + [j], strict=True)
        assert not h.contains([1] * (d - 1) + [0], strict=True)

    @pytest.mark.parametrize("d", [5, 6])
    def test_predicted_facet_point(self, d):
        s = zpw_simplex(d, 1)
        bottom = Face(s, tuple(range(d)))
        betas = barycentric([1] * (d - 1) + [0], bottom)
        assert all(b > 0 for b in betas)
        assert sum(betas) == 1
