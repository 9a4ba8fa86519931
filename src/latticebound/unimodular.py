"""Affine unimodular maps and canonical forms for lattice simplices."""

from __future__ import annotations

from .exact import _hnf_column, det, hnf, identity, mat_vec
from .geometry import LatticeSimplex, _cached, _frozen


@_frozen
class AffineUnimodular:
    """x -> u x + t with integer u, |det u| = 1, integer translation t."""

    u: tuple[tuple[int, ...], ...]
    t: tuple[int, ...]

    def __post_init__(self):
        u = tuple(tuple(int(x) for x in row) for row in self.u)
        t = tuple(int(x) for x in self.t)
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


def _moved(h, col, j):
    """The rows h with column j moved to position col."""
    return [r[:col] + [r[j]] + r[col:j] + r[j + 1:] for r in h]


def _reduced(h, col, j):
    h = _moved(h, col, j)
    _hnf_column(h, col)
    return h


def _finish(h, col, a, b):
    """hnf of h with a, b as its last two columns, when its first col = d-2
    columns are in Hermite form: rows col.. are zero in them, so it is the
    trailing 2×2 block's hnf, each row above reduced by the block's pivots."""
    (p, x), (_, q) = hnf([[a[col], b[col]], [a[col + 1], b[col + 1]]])
    rows = [r[:col] + [u % p, (v - u // p * x) % q]
            for r, u, v in zip(h[:col], a, b)]
    return rows + [[0] * col + [p, x], [0] * col + [0, q]]


def _least_hnf(h, col):
    """Least hnf over the orders of the columns col.. of the square h,
    whose columns before col are in Hermite form.

    Each column put at position col is reduced once for every order that
    continues from it.  The last two columns are not shared: each of their
    two orders ends in one ``hnf`` call on the trailing 2×2 block, through
    ``_finish``, or directly at d = 2, where that block is all of h.
    """
    left = len(h) - col
    if left == 1:
        return hnf(h)
    if left == 2 and col == 0:
        return min(hnf(h), hnf([r[::-1] for r in h]))
    if left == 2:
        a, b = [r[col] for r in h], [r[col + 1] for r in h]
        return min(_finish(h, col, a, b), _finish(h, col, b, a))
    return min(_least_hnf(_reduced(h, col, j), col + 1)
               for j in range(col, len(h)))


def canonical_form(s: LatticeSimplex) -> CanonicalForm:
    """Minimal HNF over all (base vertex, ordering) choices.

    Basing the edge matrix at each candidate vertex quotients out
    translations; HNF quotients the left unimodular action; minimizing
    over all (d+1)! orderings quotients vertex relabelling.  Orderings
    that share a prefix of edges share its elimination: since the HNF of
    u m is the HNF of m for unimodular u, a depth-first walk reduces each
    prefix's columns once, and ``hnf`` runs once per ordering, on the
    trailing 2×2 block.  Computed once per simplex.
    """
    d, verts = s.dim, s.vertices
    # Row lists of one shape compare like their flattened entries.
    forms = (
        _least_hnf([[w[i] - v[i] for w in verts[:b] + verts[b + 1:]]
                    for i in range(d)], 0)
        for b, v in enumerate(verts)
    )
    return _cached(
        s, "canonical", lambda: CanonicalForm(tuple(map(tuple, min(forms))))
    )


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
