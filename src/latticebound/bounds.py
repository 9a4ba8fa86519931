"""Volume bounds for lattice simplices and their equality certificates.

Implements the facet bound through a distinguished facet with a unique
relative-interior lattice point, the per-interior-point bound and its
minimum nu, the barycentric product functional tau, the symmetric-box
lattice-point inequality check, and the full proof trace (map to the
standard simplex, image lattice, symmetric box, half-space split) that
witnesses why the facet bound holds instance by instance.  The facets
the facet bound applies through are found by ``geometry.qualifying_facets``,
imported here so that ``bounds.qualifying_facets`` names it too.  The
facet bound is computed once per facet and kept on the simplex, and the
proof trace and the equality certificate read their relative-interior
point and barycentric coordinates from it.

The per-record work is in integer arithmetic.  A ``Lattice`` keeps its
basis as integer rows W and one scale m, and walks the box |W z| < b m;
the proof trace runs its checks on those integer images and builds its
``Fraction`` points only for the ``ProofTrace`` it returns.  nu reads the
integer numerators of the barycentric coordinates off
``geometry._barycentric_map``, which share the denominator |det E|.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from .exact import _rat, det, mat_vec, primitive_direction, scaled
from .geometry import (
    Face,
    LatticeSimplex,
    _barycentric_map,
    _cached,
    _frozen,
    barycentric,
    check,
    collinear,
    integer_points,
    interior_points,
    qualifying_facets,
    relint_points,
    volume,
)


class ApplicabilityError(ValueError):
    """The hypotheses of the requested bound do not hold for this input."""


def _fraction(x) -> Fraction:
    """x as a ``Fraction``; a ``Fraction`` is kept, not rebuilt."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _half_widths(betas) -> tuple[Fraction, ...]:
    """Box half-widths as ``Fraction``s; as in the value classes, an entry
    that is not an ``int`` or a ``Fraction`` raises TypeError."""
    betas = tuple(betas)
    if not all(isinstance(b, (int, Fraction)) for b in betas):
        raise TypeError("box half-widths must be int or Fraction")
    return tuple(map(_fraction, betas))


@_frozen
class Lattice:
    """Rank-d lattice generated by the columns of a rational basis matrix.

    The basis is kept as integer rows W and one scale m, basis = W / m,
    so the box walk and the proof trace run in integer arithmetic.
    """

    basis: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        # scaled raises LinAlgError on a float entry, det on a ragged basis
        ints, m = scaled([c for row in self.basis for c in row])
        it = iter(ints)
        rows = tuple(tuple(next(it) for _ in row) for row in self.basis)
        d = det(rows)
        if d == 0:
            raise ValueError("lattice basis is singular")
        basis = tuple(tuple(map(_fraction, row)) for row in self.basis)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_ints", rows)
        object.__setattr__(self, "_scale", m)
        object.__setattr__(self, "_det", abs(d) / m ** len(rows))

    @property
    def det(self) -> Fraction:
        return self._det

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _images(self, betas, limit=None) -> list[tuple[int, ...]]:
        """The points of ``points_in_open_box(betas)`` times the scale m:
        the integer vectors Y = W z with |Y_i| < betas[i] m, for betas
        already checked by ``points_in_open_box``.  Computed once per box.
        """
        def compute():
            rows = []
            for row, b in zip(self._ints, betas):
                bound = b * self._scale
                rows.append((row, bound, True))
                rows.append((tuple(-c for c in row), bound, True))
            zs = integer_points(rows, self.dim, limit=limit)
            return [tuple(mat_vec(self._ints, z)) for z in zs]

        return _cached(self, ("images", betas), compute, limit)

    def points_in_open_box(self, betas, limit=None):
        """Lattice points y with |y_i| < betas[i] for all i.

        Enumerates integer preimages z with W z in the open box scaled by
        m, pushing the box constraints back through the integer rows W, and
        builds one ``Fraction`` per coordinate of each point found.
        ``limit`` truncates as in ``integer_points``; computed once per box.
        """
        d = self.dim
        betas = _half_widths(betas)
        if len(betas) != d or any(b <= 0 for b in betas):
            raise ValueError("box half-widths must be positive, one per axis")
        m = self._scale

        def compute():
            return [tuple(Fraction(c, m) for c in y)
                    for y in self._images(betas, limit)]

        return _cached(self, ("box", betas), compute, limit)


@_frozen
class FacetBoundResult:
    facet: Face
    relint_point: tuple[int, ...]
    betas: tuple[Fraction, ...]
    bound: Fraction
    tight: bool


@_frozen
class PointBound:
    betas_desc: tuple[Fraction, ...]
    bound: Fraction


@_frozen
class PikhurkoResult:
    per_point: dict
    nu: Fraction


@_frozen
class VdcResult:
    lhs: Fraction
    rhs: Fraction
    holds: bool
    tight: bool
    interior_count: int
    points: tuple


@_frozen
class ProofTrace:
    lattice: Lattice
    box: tuple[Fraction, ...]
    y_set: tuple
    h_minus_count: int
    h_zero_count: int


@_frozen
class EqualityCertificate:
    line_direction: tuple[int, ...]
    parallel_edge: tuple[int, int] | None
    collinear_ok: bool
    edge_ok: bool


def facet_bound(s: LatticeSimplex, f: Face) -> FacetBoundResult:
    """Volume bound (k+1)/(d! b_1 ... b_d) through a qualifying facet, where
    b_1..b_d are the barycentric coordinates of its unique
    relative-interior lattice point; computed once per facet."""
    if f.parent != s or f.dim != s.dim - 1:
        raise ApplicabilityError("face is not a facet of the given simplex")

    def compute():
        pts = relint_points(f, limit=1)
        if len(pts) != 1:
            raise ApplicabilityError("facet does not have exactly one "
                                     "relative-interior lattice point")
        betas = tuple(barycentric(pts[0], f))
        k = len(interior_points(s))
        bound = Fraction(k + 1) / (factorial(s.dim) * prod(betas))
        vol = volume(s)
        check(vol <= bound, "volume exceeds the facet bound")
        return FacetBoundResult(f, pts[0], betas, bound, vol == bound)

    return _cached(s, ("bound", f.vertex_indices), compute)


def best_facet_bound(s: LatticeSimplex) -> FacetBoundResult:
    """Strongest facet bound over all qualifying facets."""
    results = [facet_bound(s, f) for f in qualifying_facets(s)]
    if not results:
        raise ApplicabilityError(
            "no facet has exactly one relative-interior lattice point"
        )
    return min(results, key=lambda r: r.bound)


def pikhurko(s: LatticeSimplex) -> PikhurkoResult:
    """Per-interior-point volume bounds k/(d! b_1 ... b_d) and their min nu.

    For each interior lattice point the d+1 barycentric coordinates are
    sorted descendingly and the smallest one is dropped.  Ties among
    minimal coordinates are harmless: dropping any minimal coordinate
    yields the same product.  The coordinates share the denominator
    D = |det E|: that of vertex j is n_j / D with the integer numerator
    n_j = sign(det E) (w_j x - r_j) read off ``_barycentric_map``, so the
    bound is k D^d / (d! n_1 ... n_d) over the d largest numerators.
    """
    pts = interior_points(s)
    k = len(pts)
    if k == 0:
        raise ApplicabilityError("bound requires at least one interior point")
    d = s.dim
    w, r, det_e = _barycentric_map(s)
    sign, denom = (1, det_e) if det_e > 0 else (-1, -det_e)
    top = k * denom ** d
    per_point = {}
    for x in pts:
        nums = sorted((sign * (wx - rj) for wx, rj in zip(mat_vec(w, x), r)),
                      reverse=True)
        betas = tuple(Fraction(n, denom) for n in nums)
        bound = Fraction(top, factorial(d) * prod(nums[:d]))
        per_point[x] = PointBound(betas, bound)
    nu = min(pb.bound for pb in per_point.values())
    check(volume(s) <= nu, "volume exceeds nu")
    return PikhurkoResult(per_point, nu)


def tau(s: LatticeSimplex) -> Fraction:
    """Product of all barycentric coordinates of the unique interior point."""
    pts = interior_points(s, limit=1)
    if len(pts) != 1:
        raise ApplicabilityError("simplex must have exactly one interior point")
    return prod(barycentric(pts[0], Face(s, tuple(range(s.dim + 1)))))


def vdc_check(lat: Lattice, betas) -> VdcResult:
    """Symmetric-box instance of the lattice-point volume inequality.

    lhs = vol of the box [-b_1,b_1] x ... x [-b_d,b_d]; rhs counts the
    lattice points interior to the box.  holds must be true for every
    lattice and box; tight cases are the interesting ones.
    """
    betas = _half_widths(betas)
    d = lat.dim
    lhs = Fraction(2) ** d * prod(betas)
    pts = lat.points_in_open_box(betas)
    rhs = (len(pts) + 1) * Fraction(2) ** (d - 1) * lat.det
    return VdcResult(lhs, rhs, lhs <= rhs, lhs == rhs, len(pts), tuple(pts))


def proof_trace(s: LatticeSimplex, f: Face) -> ProofTrace:
    """Replays the facet-bound argument on a concrete (simplex, facet) pair.

    Translates the vertex opposite the facet to the origin, maps the
    facet vertices to the standard basis, and enumerates the image
    lattice inside the open symmetric box spanned by the barycentric
    coordinates of the facet's unique relative-interior lattice point.
    """
    betas = facet_bound(s, f).betas
    # phi, the inverse of the edge matrix at the vertex v0 opposite the
    # facet, maps x - v0 to the barycentric coordinates of x at the facet
    # vertices.  That of vertex j, (w_j x - r_j) / det E, is 0 at v0, so
    # the row of vertex j is w_j / det E.
    w, _, det_e = _barycentric_map(s)
    phi = [tuple(Fraction(c, det_e) for c in w[j]) for j in f.vertex_indices]
    lat = Lattice(tuple(phi))
    y_set = lat.points_in_open_box(betas)
    # The checks run on the integer images Y = m y of the box points, m the
    # lattice's scale, against the box half-widths scaled to integers,
    # B / q = betas: m y_i + m b_i > 0 iff q Y_i + m B_i > 0.
    ys = lat._images(betas)
    m = lat._scale
    bs, q = scaled(betas)
    # o-symmetry and the half-space split along sum of coordinates.
    y_lookup = set(ys)
    h_minus = [y for y in ys if sum(y) < 0]
    h_zero = [y for y in ys if sum(y) == 0]
    check(all(tuple(-c for c in y) in y_lookup for y in ys),
          "box points are not o-symmetric")
    check(len(ys) == 2 * len(h_minus) + len(h_zero),
          "box points do not split evenly across the hyperplane")
    check(len(h_zero) == 1 and not any(h_zero[0]),
          "the origin is not the only box point on the hyperplane")
    # Shifting the negative-side points by b lands them strictly inside
    # the standard simplex (positive coordinates, coordinate sum < 1).
    for y in h_minus:
        shifted = [q * yc + m * bc for yc, bc in zip(y, bs)]
        check(all(c > 0 for c in shifted) and sum(shifted) < q * m,
              "a shifted box point is not inside the standard simplex")
    k = len(interior_points(s))
    check(len(ys) <= 2 * k + 1, "more than 2k+1 box points")
    return ProofTrace(lat, betas, tuple(y_set), len(h_minus), len(h_zero))


def equality_certificate(s: LatticeSimplex, f: Face) -> EqualityCertificate:
    """Verify the equality-case structure for a tight facet bound.

    Checks that the facet's relative-interior point and all interior
    lattice points lie on one line g and that some edge of the simplex
    is parallel to g.
    """
    fb = facet_bound(s, f)
    pts = interior_points(s)
    if not fb.tight or not pts:
        raise ApplicabilityError(
            "certificate requires a tight bound and at least one interior point"
        )
    all_pts = [fb.relint_point] + pts
    collinear_ok = collinear(all_pts)
    direction = primitive_direction(
        [a - b for a, b in zip(pts[0], fb.relint_point)]
    )
    verts = s.vertices
    parallel_edge = next(
        ((i, j) for i, j in combinations(range(len(verts)), 2)
         if primitive_direction(
             [a - b for a, b in zip(verts[j], verts[i])]) == direction),
        None,
    )
    return EqualityCertificate(
        direction, parallel_edge, collinear_ok, parallel_edge is not None
    )


# The printed payloads of a facet bound and of a proof trace's vdc check,
# shared by ``bound --json`` and ``io.analyze_simplex``.  They live here, and
# not in ``io``, so that only the commands that bound compile them.

def facet_bound_payload(fb, volume=None) -> dict:
    """The facet bound ``fb`` as printed, with ``volume`` before ``tight``
    when given."""
    payload = {
        "facet": list(fb.facet.vertex_indices),
        "relintPoint": list(fb.relint_point),
        "betas": [_rat(b) for b in fb.betas],
        "bound": _rat(fb.bound),
    }
    if volume is not None:
        payload["volume"] = _rat(volume)
    payload["tight"] = fb.tight
    return payload


def vdc_payload(trace) -> dict:
    """The symmetric-box check on the lattice and box of a proof trace, as
    printed."""
    vdc = vdc_check(trace.lattice, trace.box)
    return {
        "lhs": _rat(vdc.lhs),
        "rhs": _rat(vdc.rhs),
        "holds": vdc.holds,
        "tight": vdc.tight,
        "ySize": len(trace.y_set),
    }


def general_pk_bound(d: int, k: int) -> int:
    """The cited coarse upper volume bound (d(2d+1)(s_{2d+1}-1))^d k."""
    from .constructions import sylvester

    if d < 1 or k < 1:
        raise ValueError("need d >= 1 and k >= 1")
    return (d * (2 * d + 1) * (sylvester(2 * d + 1) - 1)) ** d * k
