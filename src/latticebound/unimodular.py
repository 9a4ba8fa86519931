"""Affine unimodular maps and canonical forms for lattice simplices."""

from __future__ import annotations

from math import inf
from operator import index, mul

from .exact import _hnf_column, _xgcd, det, hnf, identity, mat_vec
from .geometry import (LatticeSimplex, _barycentric_map, _cached, _frozen,
                       check)


@_frozen
class AffineUnimodular:
    """x -> u x + t with integer u, |det u| = 1, integer translation t."""

    u: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]

    def __post_init__(self):
        u = tuple(tuple(map(index, row)) for row in self.u)
        t = tuple(map(index, self.t))
        if len(t) != len(u) or any(len(row) != len(u) for row in u):
            raise ValueError("shape mismatch between matrix and translation")
        if abs(det([list(r) for r in u])) != 1:
            raise ValueError("matrix is not unimodular")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t", t)

    @property
    def dim(self) -> int:
        return len(self.t)

    def __call__(self, point):
        img = mat_vec(self.u, list(map(index, point)))
        return tuple(a + b for a, b in zip(img, self.t))


def apply(phi: AffineUnimodular, s: LatticeSimplex) -> LatticeSimplex:
    if phi.dim != s.dim:
        raise ValueError("dimension mismatch")
    return LatticeSimplex([phi(v) for v in s.vertices])


@_frozen
class CanonicalForm:
    """Complete invariant under affine unimodular equivalence: the
    least HNF of the edge matrix over the class-respecting orderings of
    the vertices (every ordering at d <= 2), see ``canonical_form``."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def encoding(self) -> str:
        return " ".join(str(x) for row in self.matrix for x in row)

    def key(self):
        return tuple(x for row in self.matrix for x in row)


def _tables(h):
    """The column eliminations of the d×d edge matrix h (d >= 2) that its
    orderings share, as two functions built on first use and kept.

    A set S of columns is a bitmask.  Eliminating the columns of S, in
    any order, leaves below the pivots a basis of the row lattice of h
    cut by {y_S = 0}, which depends on S only: ``below`` keeps the first
    such basis built.  So ``pivot(S, j)``, the pivot row that column j
    gives after S, is one ``_hnf_column`` step on that basis, run once
    per (S, j); the basis it leaves is kept for S ∪ {j} unless one is
    there already.  ``pivot(S, j)`` needs the basis of S, which the calls
    along any path to S have built.  For |S| = d-2, with a, b the two
    columns left, ``end(S, a, b)`` is (p, x, q), where [[p, x], [0, q]]
    is the Hermite form of those two columns, a first: p and x mod q are
    read off ``pivot(S, a)``, and ±q off the one basis row of S ∪ {a}.
    """
    below, pivots = {0: h}, {}

    def pivot(S, j):
        row = pivots.get((S, j))
        if row is None:
            m = below[S][:]
            _hnf_column(m, j, 0)
            row = pivots[S, j] = m[0]
            below.setdefault(S | 1 << j, m[1:])
        return row

    def end(S, a, b):
        row = pivot(S, a)
        q = abs(below[S | 1 << a][0][b])
        return row[a], row[b] % q, q

    return pivot, end


def _step(upper, pivot, j):
    """The rows ``upper`` reduced by the pivot row of column j, which
    follows them.

    Each row is an (entries, row) pair: the row reduced by every pivot
    row after it, and its form entries from its own pivot on, which are
    final in the columns eliminated so far.
    """
    p = pivot[j]
    out = []
    for e, r in upper:
        q = r[j] // p
        if q:
            r = [y - q * z for y, z in zip(r, pivot)]
        out.append((e + (r[j],), r))
    out.append(((p,), pivot))
    return out


def _leaf(upper, end, a, b):
    """The form's rows, without their leading zeros, when the last two
    columns are a then b: the last two entries of each row in ``upper``
    reduced by ``end`` = (p, x, q), then the rows of that 2×2 block."""
    p, x, q = end
    rows = [e + (u % p, (r[b] - u // p * x) % q)
            for e, r in upper for u in (r[a],)]
    rows += (p, x), (q,)
    return rows


def _bound(rows):
    """The tuple that row 0 of an ordering, or any prefix e of it, must
    be less than for the ordering to give a form less than ``rows``.

    The entries after a prefix are >= 0, so its least completion is
    e + (0, ..., 0).  That must be at most ``rows[0]``, and less than it
    when the other rows are the least that any form with that row 0 has:
    unit rows (1, 0, ..., 0) above a last row that the volume fixes.  The
    bound is ``rows[0] + (0,)`` in the first case and ``rows[0]`` without
    its trailing zeros in the second; either way ``e < bound`` is the test.
    """
    first = rows[0]
    if any(r[0] != 1 or any(r[1:]) for r in rows[1:-1]):
        return first + (0,)
    while first and not first[-1]:
        first = first[:-1]
    return first


def _walk(upper, S, free, cls, pivot, end, best):
    """The least of ``best`` and the forms of the class-respecting orders
    of the columns ``free`` after the eliminated set S, whose ``_step``
    rows are ``upper``: the columns of the least class among them first,
    in any order, then the next class.  ``free`` is sorted by ``cls``,
    the invariant of each column's vertex.  A form is a pair (rows,
    ``_bound(rows)``), its rows without their leading zeros, which
    compare like the flattened forms.

    A branch and bound on row 0, which is compared first: its entries in
    the eliminated columns are final, so a child whose row 0 entries are
    not below the bound is cut with all its orders.  A leaf finishes row
    0 from ``end`` and builds its rows with ``_leaf`` only when that row
    is below the bound.
    """
    if len(free) == 2:
        a, b = free
        e, r = upper[0]
        for a, b in ((a, b), (b, a)) if cls[a] == cls[b] else ((a, b),):
            p, x, q = last = end(S, a, b)
            u = r[a]
            if e + (u % p, (r[b] - u // p * x) % q) < best[1]:
                rows = _leaf(upper, last, a, b)
                if rows < best[0]:
                    best = rows, _bound(rows)
        return best
    least = cls[free[0]]
    for j in free:
        if cls[j] != least:
            break
        child = _step(upper, pivot(S, j), j)
        if child[0][0] < best[1]:
            best = _walk(child, S | 1 << j, [c for c in free if c != j],
                         cls, pivot, end, best)
    return best


def _invariants(s: LatticeSimplex) -> list[tuple]:
    """A unimodular invariant of each vertex, read off the barycentric map.

    With V = |det E|, a lattice translation x has barycentric
    coordinates w_j(x)/det E, for w the rows of
    ``geometry._barycentric_map``.  Over Z^d, w_j takes the values u_j·Z
    mod V, with u_j = gcd(V, w_j(e_1), ..., w_j(e_d)) the normalized
    volume of the facet opposite v_j and h_j = V/u_j the lattice height
    of v_j.  An extended-gcd chain gives a translation with
    w_j ≡ u_j (mod V), and its w is g.  That translation is fixed up to
    one with w_j ≡ 0, which lies in the facet's lattice and moves every
    g_i by a multiple of h_j.  So vertex j's invariant is
    (u_j, sorted(g_i mod h_j for i != j)).  An affine unimodular map
    keeps the barycentric coordinates of lattice translations, so it
    keeps each vertex's invariant.  The sign of det E is left out:
    w(x)/V reads the coordinates of x or of -x, and x -> -x maps Z^d
    onto itself, so the invariant is the same.
    """
    w, _, det_e = _barycentric_map(s)  # w_j(e_k) as w[j][k]
    v = abs(det_e)
    out = []
    for j, wj in enumerate(w):
        u, c = v, [0] * len(wj)
        for k, x in enumerate(wj):
            u, a, b = _xgcd(u, x)
            c = [a * y % v for y in c]
            c[k] = b % v
        check(sum(map(mul, c, wj)) % v == u % v,
              "extended gcd chain misses the facet volume")
        h = v // u
        g = [sum(map(mul, c, wi)) % h for i, wi in enumerate(w) if i != j]
        out.append((u, tuple(sorted(g))))
    return out


def canonical_form(s: LatticeSimplex) -> CanonicalForm:
    """Least HNF of the edge matrix over the (base vertex, ordering)
    choices that respect the vertex classes.

    Basing the edge matrix at a vertex quotients out translations, and
    HNF quotients the left unimodular action.  At d <= 2 the least HNF
    over all (d+1)! orderings quotients vertex relabelling; each ordering
    is one direct ``hnf``.  At d >= 3 the vertices are split into classes
    by ``_invariants``, which no unimodular map or relabelling changes:
    the base comes from the least class, and the other columns follow
    class by class in invariant order, in any order within a class.
    Equivalent simplices have the same class-respecting orderings, up to
    the map, so the least HNF over them is again a complete invariant.
    Each base's orderings share their column eliminations through
    ``_tables``, built on first use: the pivot row of column j after a
    set S of columns is computed once per (S, j), whatever order S was
    eliminated in; the last two columns are read off the step for the
    first of them.  ``_walk`` searches the orderings by branch and bound
    on the form's first row, against the least form so far: it reduces
    the pivot rows of each path by the next pivot as it goes, cuts every
    ordering whose first entries already exceed the minimum's (or equal
    them, once the minimum's other rows are the least any form can
    have), and finishes the rows with ``_leaf`` only for the orderings
    left.  By uniqueness of the HNF the result is the least over the
    class-respecting orderings.  Computed once per simplex.
    """
    def compute():
        d, verts = s.dim, s.vertices

        def edges(b):
            v = verts[b]
            return [[w[i] - v[i] for w in verts[:b] + verts[b + 1:]]
                    for i in range(d)]

        # Row lists of one shape compare like their flattened entries.
        # At d = 1 an edge matrix has one ordering, at d = 2 two.
        if d <= 2:
            form = min(hnf(m) for h in map(edges, range(d + 1))
                       for m in (h, [r[::-1] for r in h])[:d])
        else:
            keys = _invariants(s)
            least = min(keys)
            best = [(inf,)], (inf,)  # above every form
            for b in range(d + 1):
                if keys[b] != least:
                    continue
                cls = keys[:b] + keys[b + 1:]
                free = sorted(range(d), key=cls.__getitem__)
                best = _walk([], 0, free, cls, *_tables(edges(b)), best)
            form = [(0,) * i + row for i, row in enumerate(best[0])]
        return CanonicalForm(tuple(map(tuple, form)))

    return _cached(s, "canonical", compute)


def equivalent(a: LatticeSimplex, b: LatticeSimplex) -> bool:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return canonical_form(a) == canonical_form(b)


def random_unimodular(d: int, seed: int, size: int = 4) -> AffineUnimodular:
    """Seeded product of elementary shears and permutations.

    ``size`` bounds the number of shear steps and the shear magnitudes,
    keeping entries small enough for downstream exact enumeration.
    """
    import random

    if d < 1:
        raise ValueError("need d >= 1")
    rng = random.Random(seed)
    u = identity(d)
    for _ in range(size):
        op = rng.choice(["shear", "swap", "negate"]) if d > 1 else "negate"
        if op == "shear":
            i, j = rng.sample(range(d), 2)
            c = rng.choice([-2, -1, 1, 2])
            for col in range(d):
                u[i][col] += c * u[j][col]
        elif op == "swap":
            i, j = rng.sample(range(d), 2)
            u[i], u[j] = u[j], u[i]
        else:
            i = rng.randrange(d)
            u[i] = [-x for x in u[i]]
    t = tuple(rng.randint(-size, size) for _ in range(d))
    return AffineUnimodular(tuple(tuple(row) for row in u), t)
