"""Named simplices: Sylvester sequence, S_{d,k}, T_d, and related objects."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .geometry import (Face, LatticeSimplex, barycentric, check,
                       interior_points, volume)


def sylvester(i: int) -> int:
    """i-th term of 2, 3, 7, 43, 1807, ... with s_i = 1 + s_1 ... s_{i-1}."""
    if i < 1:
        raise ValueError("Sylvester index must be >= 1")
    s, prod = 2, 1
    for _ in range(i - 1):
        prod *= s
        nxt = s * s - s + 1
        # the recurrence must agree with s_1 ... s_n = s_{n+1} - 1
        check(prod == nxt - 1, "Sylvester product identity fails")
        s = nxt
    return s


def _axis_simplex(scales) -> LatticeSimplex:
    d = len(scales)
    verts = [tuple(0 for _ in range(d))]
    for i, c in enumerate(scales):
        verts.append(tuple(c if j == i else 0 for j in range(d)))
    return LatticeSimplex(verts)


def zpw_simplex(d: int, k: int) -> LatticeSimplex:
    """conv(o, s_1 e_1, ..., s_{d-1} e_{d-1}, (k+1)(s_d - 1) e_d).

    Has k interior lattice points and volume (k+1)(s_d-1)^2 / d!.
    """
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    scales = [sylvester(i) for i in range(1, d)]
    scales.append((k + 1) * (sylvester(d) - 1))
    s = _axis_simplex(scales)
    expected = Fraction((k + 1) * (sylvester(d) - 1) ** 2, factorial(d))
    check(volume(s) == expected, "zpw simplex has the wrong volume")
    return s


def t_simplex(d: int) -> LatticeSimplex:
    """conv(o, s_1 e_1, ..., s_d e_d): one interior point, (1, ..., 1)."""
    if d < 1:
        raise ValueError("need d >= 1")
    s = _axis_simplex([sylvester(i) for i in range(1, d + 1)])
    # (1, ..., 1) is strictly interior: all barycentric coordinates positive.
    full = Face(s, tuple(range(d + 1)))
    check(all(b > 0 for b in barycentric([1] * d, full)),
          "(1, ..., 1) is not interior to T_d")
    return s


def exceptional_p31() -> LatticeSimplex:
    """The second volume maximizer with one interior point in dimension 3."""
    return LatticeSimplex([(0, 0, 0), (2, 0, 0), (0, 6, 0), (0, 0, 6)])


def lift(t: LatticeSimplex, k: int) -> LatticeSimplex:
    """conv(t x {0} union {(k+1) e_d}) for a base simplex whose only
    interior lattice point is the origin.

    For such a (d-1)-simplex t, the result has k interior lattice points
    (all on the last axis) and the base facet t x {0} has the origin as
    its unique relative-interior lattice point.  Any other base raises
    ``ValueError``.
    """
    if k < 0:
        raise ValueError("need k >= 0")
    origin = (0,) * t.dim
    if any(b <= 0 for b in barycentric(origin, Face(t, range(t.dim + 1)))):
        raise ValueError("origin is not interior to the base simplex")
    if len(interior_points(t, limit=1)) > 1:
        raise ValueError(
            "origin is not the only interior point of the base simplex")
    verts = [v + (0,) for v in t.vertices]
    verts.append(origin + (k + 1,))
    return LatticeSimplex(verts)


def inscribed_cube_scale(d: int) -> Fraction:
    """Edge scale (s_d - 1)/(s_d - 2) of the largest cube inside T_{d-1}."""
    if d < 2:
        raise ValueError("need d >= 2")
    lam = Fraction(sylvester(d) - 1, sylvester(d) - 2)
    # Egyptian-fraction identity: the cube's far corner hits the slanted
    # facet of T_{d-1} exactly.
    check(sum(lam / sylvester(i) for i in range(1, d)) == 1,
          "inscribed cube misses the slanted facet")
    return lam
