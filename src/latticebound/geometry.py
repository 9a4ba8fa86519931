"""Lattice simplices and convex lattice polygons in integer arithmetic.

Provides volumes, H-representations, barycentric coordinates and exact
enumeration of interior / relative-interior lattice points.  One
fraction-free Gauss-Jordan pass on the edge matrix E gives adj E and
det E, read as the integer barycentric map ``_barycentric_map``: the
coordinate of vertex j at x is (w_j x - r_j) / det E.  ``barycentric``
evaluates it, the integer H-representation ``hrep`` is its rows
gcd-reduced (row j is the facet opposite vertex j),
``bounds.proof_trace`` reads its map to the standard simplex from it and
``unimodular._invariants`` its vertex invariants.  Every face query
derives from ``hrep``: a face with vertex set I has the rows j in I
strict and the rows j not in I tight.  The pass, the map, the
H-representation and each face's relative-interior points (the interior
points are those of the face with every vertex) are computed once per
simplex and kept on the instance.  A ``Fraction`` is built only for a
value that is rational, such as a volume or a barycentric coordinate.
The enumeration is a recursive coordinate sweep driven by
Fourier-Motzkin bounds, so it never scans full bounding boxes (those
explode doubly exponentially for the simplices this library cares
about).  The sweep runs on integer rows, as in the integer elimination
step of Pugh's Omega test: ``integer_points`` scales each rational row
once to integers by ``exact.scaled``, a face query takes ``hrep``'s
integer rows as they are, a strict row a.x < b becomes a.x <= b - 1,
every row is divided by the gcd of its coefficients with the right-hand
side floored, an equality is substituted rather than paired, and the
bounds of each coordinate are floor divisions, so neither the
elimination nor the sweep does ``Fraction`` arithmetic.  Each
elimination step splits its rows by the sign of the eliminated
coefficient once, and that split is the level the sweep reads for the
coordinate.

``qualifying_facets``, the facets with exactly one relative-interior
lattice point, lives here as a face query, and ``bounds`` re-exports it.
``survey`` does not call it: a triangle's edge has one relative-interior
point when its lattice length, a gcd, is 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd
from operator import attrgetter, index, mul

from .exact import LinAlgError, _adjugate, mat_vec, primitive_direction, scaled


class DegeneracyError(ValueError):
    """Affinely dependent vertices where independence is required."""


class HullMembershipError(ValueError):
    """Point does not lie in the affine hull of the given face."""


class EnumerationError(ValueError):
    """Point enumeration over an unbounded region was requested."""


class VerificationError(ValueError):
    """A mathematical cross-check inside the library failed."""


def check(ok: bool, message: str) -> None:
    """Raise ``VerificationError(message)`` unless ``ok`` (kept under -O)."""
    if not ok:
        raise VerificationError(message)


# ---------------------------------------------------------------------------
# Fourier-Motzkin sweep enumeration
#
# A linear system is a list of rows (coeffs, rhs, strict) encoding
# coeffs . x <= rhs, or < if strict, with rational entries.  Equalities are
# passed as two opposite non-strict rows.  Internally each row is scaled
# once to integers, a strict row becomes coeffs . x <= rhs - 1 (the same
# integer points), and a system is a dict {coeffs: rhs}, so rows with the
# same normal merge into the tightest one.
# ---------------------------------------------------------------------------

def _add_row(system, a, b):
    """Add a . x <= b to ``system``; False if it is a violated constant.

    The row is divided by the gcd of its coefficients with the rhs floored,
    which keeps its integer points.  Constant rows that hold are dropped.
    """
    if not any(a):
        return b >= 0
    g = gcd(*a)
    if g > 1:
        a = tuple(c // g for c in a)
        b //= g
    old = system.get(a)
    if old is None or b < old:
        system[a] = b
    return True


def _system(rows):
    """Integer system of the rational rows, or None if trivially infeasible."""
    system = {}
    for a, b, strict in rows:
        ints, _ = scaled([*a, b])
        b = ints.pop()
        if not _add_row(system, tuple(ints), b - 1 if strict else b):
            return None
    return system


def _eliminate_last(system):
    """Split the system by its last variable and project out that variable.

    Returns (upper, lower, projection).  ``upper`` and ``lower`` hold the
    rows with a positive or a negative last coefficient c as
    (prefix coeffs, rhs, |c|): the bounds of the last variable, which the
    sweep reads.  ``projection`` is the system in the other variables.  If
    an equality (two opposite rows) has a nonzero last coefficient, it is
    substituted into every other row.  Otherwise every upper row is
    combined with every lower one (Fourier-Motzkin), and ``projection`` is
    None when a combined row is a violated constant, which a substitution
    never leaves.
    """
    out = {}
    upper, lower = [], []
    eq = None
    for a, b in system.items():
        c = a[-1]
        if c == 0:
            out[a[:-1]] = b
        elif c > 0:
            upper.append((a[:-1], b, c))
            if (
                (eq is None or c < eq[2])
                and system.get(tuple(-x for x in a)) == -b
            ):
                eq = upper[-1]
        else:
            lower.append((a[:-1], b, -c))
    if eq is not None:
        e, f, ce = eq
        # A lower row keeps |c| only, so an upper row can equal the
        # equality's opposite as a tuple: each is skipped in its own list.
        opposite = (tuple(-x for x in e), -f, ce)
        for rows, skip, sign in ((upper, eq, -1), (lower, opposite, 1)):
            for row in rows:
                if row == skip:
                    continue
                a, b, c = row
                c *= sign
                comb = tuple(ce * x + c * y for x, y in zip(a, e))
                # comb = 0 iff the row is parallel to the equality.  Every
                # key is primitive (``_add_row`` divides out the gcd, and a
                # copied row with no last term keeps its gcd), so then the
                # row is e or -e, which is skipped: no substituted row is a
                # constant.
                check(_add_row(out, comb, ce * b + c * f),
                      "an equality substitution left a violated constant row")
        return upper, lower, out
    for ap, bp, cp in upper:
        for an, bn, cn in lower:
            comb = tuple(cn * x + cp * y for x, y in zip(ap, an))
            if not _add_row(out, comb, cn * bp + cp * bn):
                return upper, lower, None
    return upper, lower, out


def _check_limit(limit):
    """A ``limit`` is None or an int >= 0 (a float raises TypeError)."""
    if limit is not None and index(limit) < 0:
        raise ValueError("limit must be >= 0")


def integer_points(rows, nvars, limit=None):
    """All integer solutions of the system, in lexicographic order.

    Each row is tightened for integer points (strict rows to rhs - 1,
    gcd-reduced with the rhs floored) and the sweep bounds are integer
    floor divisions.  ``limit``: stop as soon as more than ``limit`` points
    were found and return the truncated list (used for early-exit
    counting); it must be an int >= 0.  Raises ``EnumerationError`` when
    the sweep meets a coordinate without a lower or an upper bound, which
    it always does on an unbounded region with an integer point.
    """
    _check_limit(limit)
    return _sweep(_system(rows), nvars, limit)


def _sweep(system, nvars, limit):
    """The integer points of an integer system (None: no points), as
    ``integer_points`` returns them."""
    # levels[v]: the rows of the system in x_0..x_v that bound x_v, as
    # ``_eliminate_last`` splits them.  A row with no x_v term needs no
    # check: the elimination copies it, or a tighter row with its normal,
    # into the system in x_0..x_{v-1}, whose rows every prefix reaching
    # level v satisfies (the system in x_0 keeps no constant rows).  x_0 is
    # eliminated too, so crossed bounds on x_0 return [] before the sweep.
    levels = []
    while system is not None and len(levels) < nvars:
        upper, lower, system = _eliminate_last(system)
        levels.append((upper, lower))
    if system is None:
        return []
    if nvars == 0:
        return [()]
    levels.reverse()

    results = []

    def sweep(prefix, v):
        upper, lower = levels[v]
        if not upper or not lower:
            raise EnumerationError("region is unbounded")
        hi = min((b - sum(map(mul, a, prefix))) // c for a, b, c in upper)
        lo = max(-((b - sum(map(mul, a, prefix))) // c) for a, b, c in lower)
        if v + 1 == nvars:
            for x in range(lo, hi + 1):
                results.append(prefix + (x,))
                if limit is not None and len(results) > limit:
                    return True
        else:
            for x in range(lo, hi + 1):
                if sweep(prefix + (x,), v + 1):
                    return True
        return False

    sweep((), 0)
    return results


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _frozen(cls):
    """Make cls an immutable value class over its annotated fields.

    Stands in for ``dataclasses.dataclass(frozen=True)``, whose import
    (it pulls in ``inspect``) and per-class code generation every CLI
    process would pay at start-up.  Fields are the annotations in order, a
    class attribute is a field's default, and ``__post_init__`` (which sets
    fields with ``object.__setattr__``) runs after construction; a class's
    own ``__init__`` is kept.  Instances equal only same-class instances
    with equal fields, hash and repr by their fields and refuse assignment.
    Fields and cached facts live in ``__dict__``, which pickle copies.
    """
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    fields = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or values.keys() != set(names)
                    or kwargs.keys() & names[:len(args)]):
                raise TypeError(f"{cls.__name__} takes the fields {names}")
            args = map(values.get, names)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{cls.__qualname__}({body})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    if "__init__" not in cls.__dict__:
        cls.__init__ = __init__
    cls.__eq__, cls.__repr__ = __eq__, __repr__
    cls.__hash__ = lambda self: hash(fields(self))
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_frozen
class LatticeSimplex:
    """d+1 affinely independent integer points in Z^d."""

    vertices: tuple[tuple[int, ...], ...]

    def __init__(self, vertices):
        verts = tuple(tuple(map(index, v)) for v in vertices)
        if not verts:
            raise DegeneracyError("no vertices")
        d = len(verts[0])
        if d < 1:
            raise DegeneracyError("need d >= 1")
        if len(verts) != d + 1 or any(len(v) != d for v in verts):
            raise DegeneracyError(
                f"expected {d + 1} vertices of dimension {d}"
            )
        object.__setattr__(self, "vertices", verts)
        if _edge_det(self) == 0:
            raise DegeneracyError("vertices are affinely dependent")

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    def edge_matrix(self):
        """Columns are v_i - v_0 for i = 1..d."""
        v0 = self.vertices[0]
        return [
            [self.vertices[j + 1][i] - v0[i] for j in range(self.dim)]
            for i in range(self.dim)
        ]


@_frozen
class Face:
    parent: LatticeSimplex
    vertex_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.vertex_indices)
        n = len(self.parent.vertices)
        if not idx or any(i < 0 or i >= n for i in idx):
            raise ValueError("invalid vertex indices")
        if list(idx) != sorted(set(idx)):
            raise ValueError("vertex indices must be strictly increasing")
        object.__setattr__(self, "vertex_indices", idx)

    @property
    def vertices(self):
        return tuple(self.parent.vertices[i] for i in self.vertex_indices)

    @property
    def dim(self) -> int:
        return len(self.vertex_indices) - 1


@_frozen
class HalfspaceSystem:
    """Exact H-representation {x : a x <= b}."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]

    def contains(self, x, strict=False) -> bool:
        x, m = scaled(x)
        for lhs, bi in zip(mat_vec(self.a, x), self.b):
            if lhs > bi * m or (strict and lhs == bi * m):
                return False
        return True


@_frozen
class LatticePolygon:
    """Strictly convex lattice polygon, vertices counterclockwise."""

    vertices: tuple[tuple[int, int], ...]

    def __post_init__(self):
        verts = tuple(tuple(map(index, v)) for v in self.vertices)
        if len(verts) < 3 or any(len(v) != 2 for v in verts):
            raise ValueError("polygon needs at least 3 points in Z^2")
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross <= 0:
                raise ValueError(
                    "polygon is not strictly convex counterclockwise"
                )
        object.__setattr__(self, "vertices", verts)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def volume(s: LatticeSimplex) -> Fraction:
    """|det(edge matrix)| / d!, from the determinant computed when s was
    built."""
    return Fraction(abs(_edge_det(s)), factorial(s.dim))


def barycentric(x, f: Face) -> list[Fraction]:
    """Barycentric coordinates of x with respect to the face f.

    Read off ``_barycentric_map``: the coordinate of vertex j is
    (w_j x - r_j) / det E.  x lies in aff(f) iff the coordinate of every
    vertex not in f is 0, which is checked exactly.  x is scaled once to
    integers, so each coordinate is one ``Fraction``; an x of the wrong
    length raises ``LinAlgError``.
    """
    w, r, det_e = _barycentric_map(f.parent)
    x, m = scaled(x)
    betas = []
    for j, (wx, rj) in enumerate(zip(mat_vec(w, x), r)):
        if j in f.vertex_indices:
            betas.append(Fraction(wx - rj * m, det_e * m))
        elif wx != rj * m:
            raise HullMembershipError("point is outside the affine hull")
    return betas


def facets(s: LatticeSimplex) -> list[Face]:
    n = len(s.vertices)
    return [
        Face(s, tuple(j for j in range(n) if j != i)) for i in range(n)
    ]


def _cached(s, key, compute, limit=None):
    """The fact ``key`` about s, a simplex or a ``bounds.Lattice``,
    ``compute()`` once per instance.

    Facts live in a dict on the frozen instance: they pickle with it and
    take no part in ``==`` or ``hash``.  A point list computed under
    ``limit`` is kept only when complete, and answers any ``limit`` with
    its first limit + 1 points.  Lists are returned as new lists.
    """
    _check_limit(limit)
    facts = s.__dict__.setdefault("_facts", {})
    if key not in facts:
        value = compute()
        if limit is not None and len(value) > limit:
            return value
        facts[key] = value
    value = facts[key]
    if isinstance(value, list):
        return value[: None if limit is None else limit + 1]
    return value


def _edge_adjugate(s: LatticeSimplex) -> tuple:
    """(adj E, det E) for the edge matrix E; computed once per simplex."""
    return _cached(s, "adjugate", lambda: _adjugate(s.edge_matrix()))


def _edge_det(s: LatticeSimplex) -> int:
    """det of the edge matrix."""
    return _edge_adjugate(s)[1]


def _barycentric_map(s: LatticeSimplex) -> tuple:
    """(w, r, det E): the barycentric coordinate of vertex j at x is
    (w_j x - r_j) / det E.  Read off adj E, for E the edge matrix: w_j is
    row j-1 of adj E for j >= 1 and w_0 is minus their sum; r_j = w_j v_0
    (w_0 v_1 for j = 0), as the coordinate of vertex j is 0 at the other
    vertices.  Computed once per simplex.
    """
    def compute():
        adj, det_e = _edge_adjugate(s)
        w = [[-sum(col) for col in zip(*adj)], *adj]
        r = [sum(map(mul, wj, s.vertices[0 if j else 1]))
             for j, wj in enumerate(w)]
        return w, r, det_e

    return _cached(s, "barycentric", compute)


def hrep(s: LatticeSimplex) -> HalfspaceSystem:
    """d+1 integer inequalities; x in s iff all hold, x in int(s) iff all
    strict.  Row j is the facet opposite vertex j, where the barycentric
    coordinate (w_j x - r_j) / det E of ``_barycentric_map`` is >= 0: it
    is -sign(det E)·(w_j, r_j) divided by their gcd.  Computed once per
    simplex.
    """
    def compute():
        w, r, det_e = _barycentric_map(s)
        rows = []
        for wj, rj in zip(w, r):
            g = gcd(rj, *wj) if det_e < 0 else -gcd(rj, *wj)
            rows.append((tuple(x // g for x in wj), rj // g))
        return HalfspaceSystem(*zip(*rows))

    return _cached(s, "hrep", compute)


def _relint(s: LatticeSimplex, idx: tuple, limit) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior of the face of s with the
    vertex indices idx: the facets opposite its vertices are strict, the
    facets through it are equalities.  The integer system is built from
    ``hrep``'s rows and handed to the sweep.  Computed once per face.
    """
    def compute():
        h = hrep(s)
        system = {}
        for j, (aj, bj) in enumerate(zip(h.a, h.b)):
            if j in idx:
                _add_row(system, aj, bj - 1)
            else:
                _add_row(system, aj, bj)
                _add_row(system, tuple(-c for c in aj), -bj)
        return _sweep(system, s.dim, limit)

    return _cached(s, ("relint", idx), compute, limit)


def interior_points(s: LatticeSimplex, limit=None) -> list[tuple[int, ...]]:
    """All lattice points with strictly positive barycentric coordinates:
    the relative interior of the face with every vertex.  ``limit``
    truncates as in ``integer_points``; computed once per simplex.
    """
    return _relint(s, tuple(range(s.dim + 1)), limit)


def relint_points(f: Face, limit=None) -> list[tuple[int, ...]]:
    """Lattice points in the relative interior of the face f (a vertex is
    its own relative interior).  ``limit`` truncates as in
    ``integer_points``; computed once per face.
    """
    return _relint(f.parent, f.vertex_indices, limit)


def qualifying_facets(s: LatticeSimplex) -> list[Face]:
    """Facets with exactly one relative-interior lattice point: those
    through which ``bounds.facet_bound`` applies."""
    return [f for f in facets(s) if len(relint_points(f, limit=1)) == 1]


def collinear(points) -> bool:
    """True iff the points lie on one line: their nonzero differences from
    the first point share one ``primitive_direction``.  Points of different
    lengths raise ``LinAlgError``."""
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    if len(set(map(len, pts))) != 1:
        raise LinAlgError("points have different lengths")
    diffs = ([c - c0 for c, c0 in zip(p, pts[0])] for p in pts[1:])
    return len({primitive_direction(v) for v in diffs if any(v)}) <= 1


def polygon_counts(p: LatticePolygon):
    """(area, boundary count, interior count) via shoelace and Pick."""
    verts = p.vertices
    n = len(verts)
    twice_area = 0
    boundary = 0
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        twice_area += ax * by - bx * ay
        boundary += gcd(bx - ax, by - ay)
    area = Fraction(twice_area, 2)
    interior = area - Fraction(boundary, 2) + 1
    if interior.denominator != 1:
        raise ValueError("Pick count is not integral; invalid polygon")
    return area, boundary, int(interior)
