import random
import tracemalloc
from fractions import Fraction
from itertools import pairwise, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hnf_oracle
import hrep_oracle
from latticebound import (
    AffineUnimodular,
    DegeneracyError,
    LatticeSimplex,
    apply,
    canonical_form,
    enumerate_triangles,
    equivalent,
    exceptional_p31,
    ingest_census,
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
    each computed from scratch: a complete invariant, and the oracle for
    the partition that canonical_form induces."""
    d, verts = s.dim, s.vertices
    return min(
        hnf_oracle.hnf([[w[i] - v[i] for w in perm] for i in range(d)])
        for b, v in enumerate(verts)
        for perm in permutations(verts[:b] + verts[b + 1:])
    )


def _restricted_form(s):
    """The least HNF, each computed from scratch, over every
    class-respecting (base, ordering) pair: the vertex invariants are
    non-decreasing from the base on.  At d <= 2 every pair counts."""
    d, verts = s.dim, s.vertices
    keys = unimodular._invariants(s) if d >= 3 else [0] * (d + 1)
    return min(
        hnf_oracle.hnf([[verts[w][i] - verts[b][i] for w in perm]
                        for i in range(d)])
        for b in range(d + 1)
        for perm in permutations([w for w in range(d + 1) if w != b])
        if all(keys[x] <= keys[y] for x, y in pairwise((b, *perm)))
    )


def _box_invariants(s):
    """Each vertex's invariant by brute force over the box points of
    Z^d / E Z^d, read with the cofactor adjugate.

    A basis of E Z^d in Hermite form has a box of coset representatives.
    u_j / V is the least positive λ_j of a box point (1 when there is
    none), and every box point with λ_j ≡ u_j / V (mod 1) must give the
    same multiset of V·λ_i mod V/u_j, i != j.
    """
    e = s.edge_matrix()
    adj, v = hrep_oracle.adjugate(e)
    basis = hnf_oracle.hnf([list(col) for col in zip(*e)])
    box = set()
    for x in product(*(range(basis[i][i]) for i in range(s.dim))):
        lam = [Fraction(sum(a * y for a, y in zip(row, x)), v) % 1
               for row in adj]
        box.add((-sum(lam) % 1, *lam))
    v = abs(v)
    assert len(box) == v
    out = []
    for j in range(s.dim + 1):
        u = int(v * min((p[j] for p in box if p[j]), default=1))
        h = v // u
        sets = {tuple(sorted(int(v * c) % h for i, c in enumerate(p)
                             if i != j))
                for p in box if p[j] == Fraction(u, v) % 1}
        assert len(sets) == 1
        out.append((u, sets.pop()))
    return out


def _shuffled_image(s, seed):
    """A seeded unimodular image of s with its vertices shuffled."""
    image = list(apply(random_unimodular(s.dim, seed), s).vertices)
    random.Random(seed).shuffle(image)
    return LatticeSimplex(image)


def _same_partition(simplices):
    """canonical_form and the exhaustive oracle split ``simplices`` into
    the same classes."""
    forms = [canonical_form(s).key() for s in simplices]
    oracle = [tuple(map(tuple, _exhaustive_form(s))) for s in simplices]
    return len(set(forms)) == len(set(oracle)) == len(set(zip(forms, oracle)))


def _form(s):
    return [list(row) for row in canonical_form(s).matrix]


def _work(s):
    """(orderings, leaves) of one computed form: the orderings whose row 0
    the walk finishes, and those whose rows ``_leaf`` builds."""
    counts = {"orderings": 0, "leaves": 0}
    tables, leaf = unimodular._tables, unimodular._leaf

    def counting_tables(h):
        pivot, end = tables(h)

        def counting_end(*args):
            counts["orderings"] += 1
            return end(*args)

        return pivot, counting_end

    def counting_leaf(*args):
        counts["leaves"] += 1
        return leaf(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unimodular, "_tables", counting_tables)
        mp.setattr(unimodular, "_leaf", counting_leaf)
        canonical_form(LatticeSimplex(s.vertices))
    return counts["orderings"], counts["leaves"]


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

# canonical_form calls hnf once per base at d = 1, twice at d = 2 and,
# at d >= 3, once per (set of d-2 columns, first of the other two) that a
# walk reaches: once on a generic simplex, whose vertices are each in a
# class of their own, so that one ordering is left
HNF_CALLS = {1: 2, 2: 6, 3: 1, 4: 1, 5: 1, 6: 1}

# a 5-simplex of normalized volume 45 whose six vertices share one class
ONE_CLASS_D5 = ((2, 0, 2, 0, -1), (0, 0, -1, 1, -2), (2, -1, 0, 0, -1),
                (0, 1, -1, 0, -1), (-1, 2, -1, -2, -2), (0, -2, -2, 1, 1))


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
    """canonical_form shares prefix eliminations and walks the
    class-respecting orderings only: the least from-scratch HNF over those
    orderings is its oracle, and the exhaustive minimum over all (d+1)!
    orderings is the oracle for the classes it induces."""

    @settings(max_examples=60, deadline=None)
    @given(small_simplex, st.integers(0, 10**6), st.data())
    def test_matches_exhaustive_oracle(self, verts, seed, data):
        self._check_drawn(verts, seed, data)

    @settings(max_examples=8, deadline=None)
    @given(wide_simplex, st.integers(0, 10**6), st.data())
    def test_matches_exhaustive_oracle_up_to_d5(self, verts, seed, data):
        self._check_drawn(verts, seed, data)

    @staticmethod
    def _check_drawn(verts, seed, data):
        # the drawn simplex, a shuffled image of it and a second drawn
        # simplex of its dimension
        try:
            s = LatticeSimplex(verts)
        except DegeneracyError:
            assume(False)
        image = _shuffled_image(s, seed)
        run = [s, image]
        try:
            run.append(LatticeSimplex(data.draw(_simplex_verts(
                st.just(s.dim)))))
        except DegeneracyError:
            pass
        assert _form(s) == _restricted_form(s)
        assert _form(image) == _form(s)
        assert _same_partition(run)

    @pytest.mark.parametrize("d", range(1, 6))
    @pytest.mark.parametrize("k", range(3))
    def test_zpw(self, d, k):
        s = zpw_simplex(d, k)
        assert _form(s) == _restricted_form(s)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_t_simplex(self, d):
        s = t_simplex(d)
        assert _form(s) == _restricted_form(s)

    def test_unit_simplex_d6(self):
        # one class: every ordering is walked, and gives the same form
        s = _unit_simplex(6)
        assert _form(s) == _restricted_form(s) == _exhaustive_form(s)

    def test_exceptional_p31(self):
        s = exceptional_p31()
        assert _form(s) == _restricted_form(s)

    def test_constructions_partition(self):
        # zpw, t and p31 up to d = 5, each with a shuffled image
        run = [exceptional_p31()]
        for d in range(1, 6):
            run += [zpw_simplex(d, k) for k in range(3)] + [t_simplex(d)]
        run += [_shuffled_image(s, seed) for seed, s in enumerate(run)]
        assert _same_partition(run)

    def test_sample_census_partition(self, sample_census_path):
        records = ingest_census(sample_census_path, 2)
        run = records + [_shuffled_image(s, seed)
                         for seed, s in enumerate(records)]
        assert _same_partition(run)
        assert len({canonical_form(s) for s in run}) == len(records)

    def test_leaves_pruned(self):
        # within one class the branch and bound on row 0 still cuts: of
        # the 720 orderings of a one-class 5-simplex it finishes row 0 of
        # 576 and builds the rows of 151
        s = LatticeSimplex(ONE_CLASS_D5)
        assert len(set(unimodular._invariants(s))) == 1
        assert _work(s) == (576, 151)
        assert _form(s) == _exhaustive_form(s)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_t_simplex_work(self, d):
        # every vertex of T_d is in a class of its own: one ordering
        assert _work(t_simplex(d)) == (1, 1)

    @pytest.mark.parametrize("k", range(3))
    def test_zpw_work(self, k):
        # the two vertices of S_{6,k} on the shortest axes share a class
        assert _work(zpw_simplex(6, k)) == (2, 2)

    def test_generic_d8_work(self):
        assert _work(_generic_simplex(8, 0)) == (1, 1)

    def test_identity_ends_the_search(self, monkeypatch):
        # the unit simplex is one class, and its first ordering gives the
        # identity, which no form is below, so every other ordering is
        # cut: one walk from each of the 7 roots, and 4 more down the
        # first path
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
            assert _form(s) == _restricted_form(s)
            assert _same_partition([s, _shuffled_image(s, seed)])

    @pytest.mark.parametrize("d", [5, 6])
    def test_unimodular_image(self, d):
        s = _generic_simplex(d, 10 + d)
        image = apply(random_unimodular(d, d), s)
        assert _form(image) == _form(s) == _restricted_form(s)

    def test_back_to_back(self):
        # no table outlives its base: each form of a run of simplices of
        # one and of different dimensions matches its oracle
        run = [_generic_simplex(5, 21), t_simplex(5), _generic_simplex(5, 22),
               _generic_simplex(4, 23), zpw_simplex(5, 1)]
        forms = [_form(s) for s in run]
        assert forms == [_restricted_form(s) for s in run]

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
        # the pivot rows of any d-2 columns, taken in any order, and the
        # 2x2 leaf give the hnf of m with its columns in that order, the
        # last two in either order; the tables are built on first use,
        # and the second order reaches sets whose basis the first built
        assume(det(m) != 0)
        d = len(m)
        pivot, end = unimodular._tables(m)
        for _ in range(2):
            order = data.draw(st.permutations(range(d)))
            upper, S = [], 0
            for j in order[:-2]:
                upper = unimodular._step(upper, pivot(S, j), j)
                S |= 1 << j
            a, b = order[-2:]
            for last in ([a, b], [b, a]):
                cols = order[:-2] + last
                rows = unimodular._leaf(upper, end(S, *last), *last)
                assert [[0] * i + list(r) for i, r in enumerate(rows)] == (
                    hnf_oracle.hnf([[r[c] for c in cols] for r in m]))

    def test_one_class_shares_each_step(self, monkeypatch):
        # 2·Δ_6 is one class and every form of it is 2I, so the walk
        # reaches every (S, j) with |S| <= 3 from each of the 7 bases:
        # one column step per (S, j), 156 of them, and one 2x2 hnf per
        # (S, first of the last two), 30 of them
        calls = {"column": 0, "hnf": 0}
        column = unimodular._hnf_column

        def counting_column(*args):
            calls["column"] += 1
            return column(*args)

        def counting_hnf(m):
            calls["hnf"] += 1
            return hnf(m)

        monkeypatch.setattr(unimodular, "_hnf_column", counting_column)
        monkeypatch.setattr(unimodular, "hnf", counting_hnf)
        s = LatticeSimplex([tuple(2 * x for x in v)
                            for v in _unit_simplex(6).vertices])
        assert _form(s) == [[2 * (i == j) for j in range(6)]
                            for i in range(6)]
        assert calls == {"column": 7 * 156, "hnf": 7 * 30}

    def test_one_class_d5(self):
        # 2·Δ_5 and conv(e_1, ..., e_5, -Σe_i) are one class, and the walk
        # finishes and builds all 720 orderings of each
        double = LatticeSimplex([tuple(2 * x for x in v)
                                 for v in _unit_simplex(5).vertices])
        cross = LatticeSimplex([*_unit_simplex(5).vertices[1:], (-1,) * 5])
        for s in (double, cross):
            assert len(set(unimodular._invariants(s))) == 1
            assert _work(s) == (720, 720)
            assert _form(s) == _exhaustive_form(s)

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


class TestInvariants:
    """The vertex invariants that split the orderings into classes."""

    @pytest.mark.parametrize("s", [
        zpw_simplex(2, 1), t_simplex(3), exceptional_p31(),
        *[zpw_simplex(3, k) for k in range(3)], LatticeSimplex(ONE_CLASS_D5),
    ], ids=["zpw21", "t3", "p31", "zpw30", "zpw31", "zpw32", "one-class"])
    def test_match_box_points(self, s):
        assert unimodular._invariants(s) == _box_invariants(s)

    def test_match_box_points_on_census(self, sample_census_path):
        for s in ingest_census(sample_census_path, 2):
            assert unimodular._invariants(s) == _box_invariants(s)

    @settings(max_examples=60, deadline=None)
    @given(small_simplex)
    def test_match_box_points_drawn(self, verts):
        try:
            s = LatticeSimplex(verts)
        except DegeneracyError:
            assume(False)
        assume(abs(det(s.edge_matrix())) <= 200)
        assert unimodular._invariants(s) == _box_invariants(s)

    def test_heights_and_facet_volumes(self):
        # u_j is the normalized volume of facet j, V/u_j the lattice
        # height of v_j above it
        for s in [exceptional_p31(), t_simplex(4), _generic_simplex(5, 3)]:
            a, b = hrep_oracle.hrep(s)
            v = abs(int(det(s.edge_matrix())))
            for j, (u, _) in enumerate(unimodular._invariants(s)):
                height = b[j] - sum(x * y for x, y in zip(a[j], s.vertices[j]))
                assert v // u == height and v % u == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_kept_by_maps_and_relabelling(self, seed):
        rng = random.Random(seed)
        for s in [_generic_simplex(3 + seed % 4, seed), zpw_simplex(4, 1),
                  exceptional_p31(), LatticeSimplex(ONE_CLASS_D5)]:
            phi = random_unimodular(s.dim, seed)
            perm = rng.sample(range(s.dim + 1), s.dim + 1)
            image = LatticeSimplex([phi(s.vertices[i]) for i in perm])
            keys = unimodular._invariants(s)
            assert unimodular._invariants(image) == [keys[i] for i in perm]


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

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            equivalent(zpw_simplex(2, 1), zpw_simplex(3, 1))

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

    def test_dimension_below_one_raises(self):
        with pytest.raises(ValueError, match="need d >= 1"):
            random_unimodular(0, 1)

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
