"""Affine unimodular maps and canonical forms for lattice simplices."""

from __future__ import annotations

from math import inf
from operator import index

from .exact import _hnf_column, _xgcd, det, hnf, identity, mat_vec
from .geometry import LatticeSimplex, _cached, _frozen


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
        img = mat_vec([list(r) for r in self.u], list(point))
        return tuple(int(a + b) for a, b in zip(img, self.t))


def apply(phi: AffineUnimodular, s: LatticeSimplex) -> LatticeSimplex:
    if phi.dim != s.dim:
        raise ValueError("dimension mismatch")
    return LatticeSimplex([phi(v) for v in s.vertices])


@_frozen
class CanonicalForm:
    """Complete invariant under affine unimodular equivalence."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def encoding(self) -> str:
        return " ".join(str(x) for row in self.matrix for x in row)

    def key(self):
        return tuple(x for row in self.matrix for x in row)


def _pivot_row(rows, j):
    """The pivot row that ``_hnf_column(rows, j, 0)`` leaves, without the
    rows below it: the extended-gcd chain down column j builds one row per
    entry the running pivot does not divide."""
    pivot = None
    for r in rows:
        c = r[j]
        if not c:
            continue
        if pivot is None:
            pivot = r
        elif c % pivot[j]:
            _, s, t = _xgcd(pivot[j], c)
            pivot = [s * x + t * y for x, y in zip(pivot, r)]
    return pivot if pivot[j] > 0 else [-x for x in pivot]


def _tables(h):
    """The column eliminations of the d×d edge matrix h (d >= 2) that its
    orderings share.

    A set S of columns is a bitmask.  Eliminating the columns of S, in
    any order, leaves below the pivots a basis of the row lattice of h
    cut by {y_S = 0}, which depends on S only: ``level`` keeps one such
    basis per set.  So the pivot row that column j gives after S is
    computed once: ``pivots[S][j]`` for |S| <= d-3.  Only the first j to
    reach the set S ∪ {j} needs the rows below its pivot, and gets them
    from one ``_hnf_column`` step; every other (S, j) builds its pivot
    row alone (``_pivot_row``), the same row that step would leave.  For
    |S| = d-2, with a, b the two columns left, ``ends[S][a]`` is
    (p, x, q), where [[p, x], [0, q]] is the ``hnf`` of those two
    columns, a first.
    """
    d = len(h)
    pivots, ends, level = {}, {}, {0: h}
    for _ in range(d - 2):
        below = {}
        for S, rows in level.items():
            pivots[S] = out = {}
            for j in range(d):
                if S >> j & 1:
                    continue
                if S | 1 << j in below:
                    out[j] = _pivot_row(rows, j)
                else:
                    m = rows[:]
                    _hnf_column(m, j, 0)
                    out[j] = m[0]
                    below[S | 1 << j] = m[1:]
        level = below
    for S, (r, t) in level.items():
        a, b = [j for j in range(d) if not S >> j & 1]
        (p, x), (_, q) = hnf([[r[a], r[b]], [t[a], t[b]]])
        (p1, x1), (_, q1) = hnf([[r[b], r[a]], [t[b], t[a]]])
        ends[S] = {a: (p, x, q), b: (p1, x1, q1)}
    return pivots, ends


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


def _rows(node):
    """The ``_step`` rows of the pivots on the path to ``node``, a list
    [rows, parent, pivot, j] whose rows are built on first use and kept."""
    if node[0] is None:
        node[0] = _step(_rows(node[1]), node[2], node[3])
    return node[0]


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


def _walk(e, r, node, S, free, pivots, ends, best):
    """The least of ``best`` and the forms of every order of the columns
    ``free`` after the eliminated set S.  A form is a pair (rows,
    ``_bound(rows)``), its rows without their leading zeros, which
    compare like the flattened forms.

    A branch and bound on row 0, which is compared first and depends only
    on the pivot rows along the path: ``r`` is row 0 reduced by each of
    them (None before the first) and ``e`` its entries in the eliminated
    columns, which are final.  A child whose entries are not below the
    bound is cut with all its orders.  A leaf finishes row 0 from
    ``ends`` and builds its rows with ``_leaf`` only when that row is
    below the bound; the rows above the pivots come from ``_rows(node)``,
    so each node's ``_step`` runs at most once, for the first leaf below
    it that needs it.
    """
    if len(free) == 2:
        for a, b in (free, free[::-1]):
            p, x, q = end = ends[S][a]
            u = r[a]
            if e + (u % p, (r[b] - u // p * x) % q) < best[1]:
                rows = _leaf(_rows(node), end, a, b)
                if rows < best[0]:
                    best = rows, _bound(rows)
        return best
    for j in free:
        pivot = pivots[S][j]
        if r is None:
            rj = pivot
        else:
            q = r[j] // pivot[j]
            rj = [y - q * z for y, z in zip(r, pivot)] if q else r
        ej = e + (rj[j],)
        if ej < best[1]:
            best = _walk(ej, rj, [None, node, pivot, j], S | 1 << j,
                         [c for c in free if c != j], pivots, ends, best)
    return best


def canonical_form(s: LatticeSimplex) -> CanonicalForm:
    """Minimal HNF over all (base vertex, ordering) choices.

    Basing the edge matrix at each candidate vertex quotients out
    translations; HNF quotients the left unimodular action; minimizing
    over all (d+1)! orderings quotients vertex relabelling.  At d >= 3
    each base's orderings share their column eliminations through
    ``_tables``: the pivot row of column j after a set S of columns is
    computed once per (S, j), whatever order S was eliminated in, and
    ``hnf`` runs once per (S, order) on the 2×2 block that the last two
    columns leave, (d+1)·d·(d-1) times per form.  ``_walk`` then searches
    the d! orderings of each base by branch and bound on the form's first
    row, against the least form so far: it reduces row 0 alone along each
    path, cuts every ordering whose first entries already exceed the
    minimum's (or equal them, once the minimum's other rows are the least
    any form can have), and builds the other rows only for the orderings
    left.  By uniqueness of the HNF the result
    is the exhaustive minimum.  At d <= 2 each ordering is one direct
    ``hnf``.  Computed once per simplex.
    """
    def compute():
        d, verts = s.dim, s.vertices
        edges = [[[w[i] - v[i] for w in verts[:b] + verts[b + 1:]]
                  for i in range(d)] for b, v in enumerate(verts)]
        # Row lists of one shape compare like their flattened entries.
        if d == 1:
            form = min(map(hnf, edges))
        elif d == 2:
            form = min(f for h in edges
                       for f in (hnf(h), hnf([r[::-1] for r in h])))
        else:
            best = [(inf,)], (inf,)  # above every form
            for h in edges:
                best = _walk((), None, [[]], 0, list(range(d)),
                             *_tables(h), best)
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
