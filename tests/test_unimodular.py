import random
import tracemalloc
from itertools import permutations
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hnf_oracle
from latticebound import (
    AffineUnimodular,
    DegeneracyError,
    LatticeSimplex,
    apply,
    canonical_form,
    enumerate_triangles,
    equivalent,
    exceptional_p31,
    interior_points,
    random_unimodular,
    t_simplex,
    volume,
    zpw_simplex,
)
from latticebound import unimodular
from latticebound.exact import _hnf_column, det, hnf


def _exhaustive_form(s):
    """The least HNF of the edge matrix over every (base, ordering) pair,
    each computed from scratch: the oracle for canonical_form."""
    d, verts = s.dim, s.vertices
    return min(
        hnf_oracle.hnf([[w[i] - v[i] for w in perm] for i in range(d)])
        for b, v in enumerate(verts)
        for perm in permutations(verts[:b] + verts[b + 1:])
    )


def _form(s):
    return [list(row) for row in canonical_form(s).matrix]


def _generic_simplex(d, seed):
    rng = random.Random(seed)
    while True:
        verts = [tuple(rng.randint(-9, 9) for _ in range(d))
                 for _ in range(d + 1)]
        try:
            return LatticeSimplex(verts)
        except DegeneracyError:
            continue


square_matrix = st.integers(2, 6).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-9, 9), min_size=d, max_size=d),
        min_size=d, max_size=d,
    )
)

small_simplex = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(-4, 4)] * d), min_size=d + 1, max_size=d + 1
    )
)


class TestApply:
    def test_identity(self):
        s = zpw_simplex(2, 1)
        phi = AffineUnimodular(((1, 0), (0, 1)), (0, 0))
        assert apply(phi, s) == s

    def test_coordinate_swap(self):
        s = zpw_simplex(2, 1)
        phi = AffineUnimodular(((0, 1), (1, 0)), (0, 0))
        assert apply(phi, s).vertices == ((0, 0), (0, 2), (4, 0))

    def test_shear(self):
        s = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        phi = AffineUnimodular(((1, 1), (0, 1)), (0, 0))
        assert apply(phi, s).vertices == ((0, 0), (1, 0), (1, 1))

    def test_dimension_mismatch(self):
        phi = AffineUnimodular(((1,),), (0,))
        with pytest.raises(ValueError):
            apply(phi, zpw_simplex(2, 1))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            AffineUnimodular(((2, 0), (0, 1)), (0, 0))


class TestCanonicalForm:
    def test_unimodular_triangles_agree(self):
        a = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        b = LatticeSimplex([(1, 0), (0, 0), (1, 1)])
        assert canonical_form(a) == canonical_form(b)

    def test_p31_maximizers_differ(self):
        assert canonical_form(zpw_simplex(3, 1)) != canonical_form(
            exceptional_p31()
        )

    def test_swap_invariance(self):
        s = zpw_simplex(2, 1)
        swapped = LatticeSimplex([(0, 0), (4, 0), (0, 2)])
        assert canonical_form(s) == canonical_form(swapped)

    def test_vertex_reordering(self):
        s = zpw_simplex(3, 1)
        reordered = LatticeSimplex(
            [s.vertices[i] for i in (2, 0, 3, 1)]
        )
        assert canonical_form(s) == canonical_form(reordered)

    def test_idempotent_encoding(self):
        cf = canonical_form(zpw_simplex(3, 2))
        rows = [list(cf.matrix[i]) for i in range(3)]
        # re-canonicalizing a simplex built from the canonical edge matrix
        verts = [(0, 0, 0)] + [tuple(r[i] for r in rows) for i in range(3)]
        assert canonical_form(LatticeSimplex(verts)) == cf

    @pytest.mark.parametrize("seed", range(25))
    def test_invariance_under_random_maps(self, seed):
        for s in [zpw_simplex(2, 1), t_simplex(2), zpw_simplex(3, 1)]:
            phi = random_unimodular(s.dim, seed)
            assert canonical_form(apply(phi, s)) == canonical_form(s)


class TestSharedPrefixForm:
    """canonical_form shares prefix eliminations; the exhaustive min over
    from-scratch HNFs is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(small_simplex)
    def test_matches_exhaustive_oracle(self, verts):
        try:
            s = LatticeSimplex(verts)
        except DegeneracyError:
            assume(False)
        assert _form(s) == _exhaustive_form(s)

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("k", range(3))
    def test_zpw(self, d, k):
        s = zpw_simplex(d, k)
        assert _form(s) == _exhaustive_form(s)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_t_simplex(self, d):
        s = t_simplex(d)
        assert _form(s) == _exhaustive_form(s)

    def test_exceptional_p31(self):
        s = exceptional_p31()
        assert _form(s) == _exhaustive_form(s)

    def test_generic_d6(self):
        s = _generic_simplex(6, 0)
        assert _form(s) == _exhaustive_form(s)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_one_hnf_per_ordering(self, d, monkeypatch):
        calls = []

        def counting(m):
            calls.append(1)
            return hnf(m)

        monkeypatch.setattr(unimodular, "hnf", counting)
        canonical_form(_generic_simplex(d, d))
        assert len(calls) == factorial(d + 1)

    def test_hnf_runs_on_the_trailing_block(self, monkeypatch):
        shapes = set()

        def recording(m):
            shapes.add((len(m), len(m[0])))
            return hnf(m)

        monkeypatch.setattr(unimodular, "hnf", recording)
        canonical_form(_generic_simplex(6, 0))
        assert shapes == {(2, 2)}

    @settings(max_examples=80, deadline=None)
    @given(square_matrix)
    def test_leaf_finish_matches_oracle(self, m):
        # the 2x2 finish of a prefix-reduced matrix is the hnf of the
        # original with its last two columns in either order
        assume(det(m) != 0)
        col = len(m) - 2
        h = [list(row) for row in m]
        for c in range(col):
            _hnf_column(h, c)
        a, b = [r[col] for r in h], [r[col + 1] for r in h]
        swapped = [r[:col] + [r[col + 1], r[col]] for r in m]
        assert unimodular._finish(h, col, a, b) == hnf_oracle.hnf(m)
        assert unimodular._finish(h, col, b, a) == hnf_oracle.hnf(swapped)

    def test_memory_stays_flat(self):
        # a running minimum, not a list of all 5040 forms
        s = _generic_simplex(6, 1)
        tracemalloc.start()
        try:
            canonical_form(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestEquivalent:
    def test_random_image(self):
        s = zpw_simplex(3, 2)
        phi = random_unimodular(3, 7)
        assert equivalent(s, apply(phi, s))

    def test_distinct_areas(self):
        assert not equivalent(
            zpw_simplex(2, 1), LatticeSimplex([(0, 0), (3, 0), (0, 3)])
        )
        assert not equivalent(t_simplex(2), zpw_simplex(2, 0))

    def test_equivalence_relation_on_census(self):
        reps = enumerate_triangles(1).representatives
        # reflexive and pairwise-distinct canonical keys imply symmetry and
        # transitivity on this finite family
        keys = [canonical_form(t).key() for t in reps]
        assert all(equivalent(t, t) for t in reps)
        assert len(set(keys)) == len(keys)


class TestRandomUnimodular:
    def test_deterministic(self):
        assert random_unimodular(3, 42) == random_unimodular(3, 42)

    @pytest.mark.parametrize("seed", range(20))
    def test_unimodular(self, seed):
        phi = random_unimodular(3, seed)
        assert abs(det([list(r) for r in phi.u])) == 1

    def test_entry_budget(self):
        phi = random_unimodular(3, 11, size=3)
        assert all(abs(x) <= 2**3 * 3 for row in phi.u for x in row)


class TestInvariance:
    """Volume and lattice-point data are preserved by unimodular maps."""

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_preserved(self, seed):
        for s in [t_simplex(2), zpw_simplex(3, 1), zpw_simplex(2, 2)]:
            phi = random_unimodular(s.dim, seed)
            img = apply(phi, s)
            assert volume(img) == volume(s)
            assert len(interior_points(img)) == len(interior_points(s))
