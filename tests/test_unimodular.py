import random
import tracemalloc
from itertools import permutations

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
from latticebound.exact import det, hnf


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


def _unit_simplex(d):
    return LatticeSimplex([(0,) * d] + [tuple(int(i == j) for j in range(d))
                                        for i in range(d)])


square_matrix = st.integers(2, 6).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-9, 9), min_size=d, max_size=d),
        min_size=d, max_size=d,
    )
)


def _simplex_verts(dims):
    return dims.flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-4, 4)] * d),
            min_size=d + 1, max_size=d + 1,
        )
    )


small_simplex = _simplex_verts(st.integers(1, 4))
wide_simplex = _simplex_verts(st.integers(3, 5))

# canonical_form calls hnf once per base at d = 1, twice at d = 2 and
# once per (base, set of d-2 columns, order of the other two) at d >= 3
HNF_CALLS = {1: 2, 2: 6, 3: 24, 4: 60, 5: 120, 6: 210}


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

    @settings(max_examples=8, deadline=None)
    @given(wide_simplex)
    def test_matches_exhaustive_oracle_up_to_d5(self, verts):
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

    @pytest.mark.parametrize("d", range(1, 7))
    def test_t_simplex(self, d):
        s = t_simplex(d)
        assert _form(s) == _exhaustive_form(s)

    def test_unit_simplex_d6(self):
        # every ordering gives the same form
        s = _unit_simplex(6)
        assert _form(s) == _exhaustive_form(s)

    def test_exceptional_p31(self):
        s = exceptional_p31()
        assert _form(s) == _exhaustive_form(s)

    def test_leaves_pruned(self, monkeypatch):
        # the branch and bound builds the rows of a tenth of the 5040
        # orderings at most on a generic d = 6 simplex
        calls = []
        leaf = unimodular._leaf

        def counting(*args):
            calls.append(1)
            return leaf(*args)

        monkeypatch.setattr(unimodular, "_leaf", counting)
        canonical_form(_generic_simplex(6, 0))
        assert 0 < len(calls) <= 504

    def test_identity_ends_the_search(self, monkeypatch):
        # the first ordering of the unit simplex gives the identity, which
        # no form is below, so every other ordering is cut: one walk from
        # each of the 7 roots, and 4 more down the first path
        calls = []
        walk = unimodular._walk

        def counting(*args):
            calls.append(1)
            return walk(*args)

        monkeypatch.setattr(unimodular, "_walk", counting)
        canonical_form(_unit_simplex(6))
        assert len(calls) == 7 + 4

    def test_generic_d6(self):
        for seed in range(3):
            s = _generic_simplex(6, seed)
            assert _form(s) == _exhaustive_form(s)

    @pytest.mark.parametrize("d", [5, 6])
    def test_unimodular_image(self, d):
        s = _generic_simplex(d, 10 + d)
        image = apply(random_unimodular(d, d), s)
        assert _form(image) == _form(s) == _exhaustive_form(s)

    def test_back_to_back(self):
        # no table outlives its base: each form of a run of simplices of
        # one and of different dimensions matches its oracle
        run = [_generic_simplex(5, 21), t_simplex(5), _generic_simplex(5, 22),
               _generic_simplex(4, 23), zpw_simplex(5, 1)]
        forms = [_form(s) for s in run]
        assert forms == [_exhaustive_form(s) for s in run]

    @pytest.mark.parametrize("d", sorted(HNF_CALLS))
    def test_hnf_count(self, d, monkeypatch):
        calls = []

        def counting(m):
            calls.append(1)
            return hnf(m)

        monkeypatch.setattr(unimodular, "hnf", counting)
        canonical_form(_generic_simplex(d, d))
        assert len(calls) == HNF_CALLS[d]

    def test_hnf_runs_on_the_trailing_block(self, monkeypatch):
        shapes = set()

        def recording(m):
            shapes.add((len(m), len(m[0])))
            return hnf(m)

        monkeypatch.setattr(unimodular, "hnf", recording)
        canonical_form(_generic_simplex(6, 0))
        assert shapes == {(2, 2)}

    @settings(max_examples=80, deadline=None)
    @given(square_matrix, st.data())
    def test_leaf_finish_matches_oracle(self, m, data):
        # the shared pivot rows of any d-2 columns, taken in any order,
        # and the 2x2 leaf give the hnf of m with its columns in that
        # order, the last two in either order
        assume(det(m) != 0)
        d = len(m)
        order = data.draw(st.permutations(range(d)))
        pivots, ends = unimodular._tables(m)
        upper, S = [], 0
        for j in order[:-2]:
            upper = unimodular._step(upper, pivots[S][j], j)
            S |= 1 << j
        a, b = order[-2:]
        for last in ([a, b], [b, a]):
            cols = order[:-2] + last
            rows = unimodular._leaf(upper, ends[S][last[0]], *last)
            assert [[0] * i + list(r) for i, r in enumerate(rows)] == (
                hnf_oracle.hnf([[r[c] for c in cols] for r in m]))

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
