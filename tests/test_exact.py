from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hnf_oracle
import hrep_oracle
from conftest import mat_mul
from latticebound import (
    LinAlgError,
    det,
    exact,
    hnf,
    primitive_direction,
    solve,
)
from latticebound.exact import (
    _adjugate,
    _hnf_column,
    _xgcd,
    identity,
    mat_inverse,
    mat_vec,
    scaled,
)


def F(n, d=1):
    return Fraction(n, d)


class TestDet:
    def test_identity(self):
        assert det(identity(3)) == 1

    def test_diagonal(self):
        assert det([[2, 0], [0, 3]]) == 6

    def test_zpw_edge_matrix(self):
        # edge matrix of conv(o, 2e1, 3e2, 12e3)
        assert det([[2, 0, 0], [0, 3, 0], [0, 0, 12]]) == 72

    def test_rational_entries(self):
        assert det([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]) == F(1, 60)

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_non_square(self):
        with pytest.raises(LinAlgError):
            det([[1, 2, 3], [4, 5, 6]])


rational = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(rational, max_size=6))
def test_scaled_is_v_times_the_lcm_of_its_denominators(v):
    ints, m = scaled(v)
    dens = [Fraction(x).denominator for x in v]
    assert m == reduce(lambda a, b: a * b // gcd(a, b), dens, 1)
    assert all(type(x) is int for x in ints) and type(m) is int
    assert len(ints) == len(v)
    assert all(ints[i] == v[i] * m for i in range(len(v)))


def leibniz(m):
    """det as the signed sum over permutations, independent of Bareiss."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = Fraction(-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


rational_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(rational, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=80, deadline=None)
@given(rational_matrix)
def test_det_matches_leibniz_expansion(m):
    assert det(m) == leibniz(m)


def test_det_of_integer_matrix_builds_one_fraction(monkeypatch):
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    m = [[2, -1, 0, 3], [1, 4, 2, -2], [0, 5, -3, 1], [7, 0, 1, 1]]
    monkeypatch.setattr(exact, "Fraction", Counting)
    assert det(m) == leibniz(m)
    assert len(built) == 1


class TestSolve:
    def test_identity(self):
        assert solve(identity(2), [5, 7]) == [5, 7]

    def test_diagonal(self):
        assert solve([[2, 0], [0, 3]], [1, 1]) == [F(1, 2), F(1, 3)]

    def test_barycentric_system(self):
        # weights of (1,1) over the triangle conv(o, 2e1, 3e2)
        m = [[1, 1, 1], [0, 2, 0], [0, 0, 3]]
        assert solve(m, [1, 1, 1]) == [F(1, 6), F(1, 2), F(1, 3)]

    def test_singular(self):
        with pytest.raises(LinAlgError):
            solve([[1, 2], [2, 4]], [1, 1])
        with pytest.raises(LinAlgError):
            solve([[1, 0, 1], [0, 1, 1], [1, 1, 2]], [1, 2, 3])

    @pytest.mark.parametrize("rhs", [[1], [1, 2, 3]])
    def test_rhs_of_wrong_length(self, rhs):
        with pytest.raises(LinAlgError, match="right-hand side"):
            solve(identity(2), rhs)

    def test_row_swaps(self):
        # zero pivots in columns 0 and 1 make the pass swap rows twice
        m = [[0, 2, 1], [0, 0, 3], [4, 1, 0]]
        x = solve(m, [5, 6, 7])
        assert x == [F(11, 8), F(3, 2), 2]
        assert [sum(a * b for a, b in zip(row, x)) for row in m] == [5, 6, 7]


class TestMatVec:
    def test_longer_row_raises(self):
        with pytest.raises(LinAlgError):
            mat_vec([[1, 2], [3, 4, 5]], [1, 1])

    def test_shorter_row_raises(self):
        with pytest.raises(LinAlgError):
            mat_vec([[1, 2], [3]], [1, 1])


def left_factor(h, m):
    """The u with u m = h; unique for a nonsingular square m."""
    return mat_mul(h, mat_inverse(m))


class TestHnf:
    def test_identity(self):
        h = hnf(identity(2))
        u = left_factor(h, identity(2))
        assert h == identity(2) and u == identity(2)

    def test_reduction_above_pivot(self):
        # the off-diagonal entry reduces modulo the pivot of its column
        m = [[2, 1], [0, 1]]
        h = hnf(m)
        u = left_factor(h, m)
        assert h == [[2, 0], [0, 1]]
        assert mat_mul(u, m) == h

    def test_row_swap(self):
        m = [[0, 1], [1, 0]]
        h = hnf(m)
        assert h == identity(2)
        assert left_factor(h, m) == [[0, 1], [1, 0]]

    def test_rank_deficient(self):
        with pytest.raises(LinAlgError):
            hnf([[1, 2], [2, 4]])

    @pytest.mark.parametrize(
        "m",
        [
            [],
            [[1, 2], [3]],
            [[1, Fraction(1, 2)], [0, 1]],
            [[1, 0, 0], [0, 1, 0]],
            [[0, 0], [0, 0], [0, 0]],
            [[2.0, 0], [0, 1]],
        ],
        ids=["empty", "ragged", "non-integer", "wide", "zero-tall", "float"],
    )
    def test_invalid_input_raises(self, m):
        with pytest.raises(LinAlgError):
            hnf(m)

    def test_argument_unchanged(self):
        m = [[0, 3, 4], [2, -1, 5], [-4, 6, 1]]
        rows = [list(r) for r in m]
        ids = [id(r) for r in m]
        hnf(m)
        assert m == rows and [id(r) for r in m] == ids

    def test_tall_matrix(self):
        # more rows than columns: the rows below the last pivot vanish
        assert hnf([[2, 1], [4, 3], [6, 5]]) == [[2, 0], [0, 1], [0, 0]]

    def test_column_step_leaves_shared_rows_unchanged(self):
        m = [[0, 3, 4], [2, -1, 5], [-4, 6, 1]]
        h = [list(r) for r in m]
        shared = h[:]
        for col in range(3):
            _hnf_column(h, col, col)
        assert shared == m
        assert h == hnf(m)

    def test_uniqueness_brute_force(self):
        # minimal normal form over small unimodular left factors
        m = [[2, 1], [0, 1]]
        h = hnf(m)
        seen = []
        r = range(-3, 4)
        for a in r:
            for b in r:
                for c in r:
                    for d in r:
                        if abs(a * d - b * c) != 1:
                            continue
                        cand = mat_mul([[a, b], [c, d]], m)
                        if (
                            cand[1][0] == 0
                            and cand[0][0] > 0
                            and cand[1][1] > 0
                            and 0 <= cand[0][1] < cand[1][1]
                        ):
                            seen.append(cand)
        assert seen and all(cand == h for cand in seen)


small_int_matrix = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=60, deadline=None)
@given(small_int_matrix, small_int_matrix)
def test_det_multiplicative(a, b):
    if len(a) != len(b):
        return
    assert det(mat_mul(a, b)) == det(a) * det(b)


@settings(max_examples=60, deadline=None)
@given(small_int_matrix)
def test_hnf_invariants(m):
    if det(m) == 0:
        return
    h = hnf(m)
    u = left_factor(h, m)
    assert mat_mul(u, m) == h
    assert abs(det(u)) == 1 and all(x.denominator == 1 for r in u for x in r)
    assert hnf(h) == h
    # the shape that makes h the unique form of its left coset
    n = len(h)
    for i in range(n):
        assert h[i][i] > 0
        assert all(h[i][j] == 0 for j in range(i))
        assert all(0 <= h[r][i] < h[i][i] for r in range(i))


@settings(max_examples=60, deadline=None)
@given(small_int_matrix, st.data())
def test_solve_round_trip(m, data):
    if det(m) == 0:
        return
    rhs = data.draw(
        st.lists(st.integers(-9, 9), min_size=len(m), max_size=len(m))
    )
    x = solve(m, rhs)
    assert mat_vec(m, x) == [Fraction(r) for r in rhs]


def test_primitive_direction():
    assert primitive_direction([0, 0, 6]) == (0, 0, 1)
    assert primitive_direction([-4, 2]) == (2, -1)
    assert primitive_direction([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    with pytest.raises(LinAlgError):
        primitive_direction([0, 0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: det([[2.0, 0], [0, 1]]),
        lambda: solve([[2.0, 0], [0, 1]], [1, 1]),
        lambda: solve([[2, 0], [0, 1]], [1.0, 1]),
        lambda: mat_inverse([[1, 0.5], [0, 1]]),
        lambda: primitive_direction([1.0, 2]),
        lambda: scaled([F(1, 2), 0.25]),
    ],
    ids=["det", "solve", "solve-rhs", "mat_inverse", "primitive_direction",
         "scaled"],
)
def test_float_entry_raises(call):
    # a float raises LinAlgError before any arithmetic, as in hnf
    with pytest.raises(LinAlgError, match="int or Fraction"):
        call()


# Sparse entries: many zeros, so pivots are often not in the first row,
# next to small and very large ones.
sparse_entry = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-10**12, 10**12)
)


def _matrix(rows, cols):
    return st.lists(st.lists(sparse_entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square = st.integers(1, 6).flatmap(lambda n: _matrix(n, n))
tall = st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda s: _matrix(s[0] + s[1], s[0])
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(square, tall))
def test_hnf_matches_oracle(m):
    expected = hnf_oracle.hnf(m)
    if expected is None:
        with pytest.raises(LinAlgError):
            hnf(m)
    else:
        assert hnf(m) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: _matrix(n, n)), st.data())
def test_hnf_singular_raises(m, data):
    # the last row an integer combination of the others
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(m) - 1,
                                max_size=len(m) - 1))
    m[-1] = [sum(c * r[j] for c, r in zip(coeffs, m)) for j in range(len(m))]
    with pytest.raises(LinAlgError):
        hnf(m)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-30, 30), st.integers(-10**12, 10**12)),
       st.one_of(st.integers(-30, 30), st.integers(-10**12, 10**12)))
@example(0, 0)
@example(0, -5)
@example(-5, 0)
@example(-4, -6)
@example(6, -4)
@example(-1, 1)
def test_xgcd(a, b):
    g, s, t = _xgcd(a, b)
    assert g == s * a + t * b == gcd(a, b) >= 0


@settings(max_examples=200, deadline=None)
@given(square)
@example([[0, 1], [1, 0]])
@example([[0, 0], [1, 1]])
def test_adjugate_times_matrix_is_det(m):
    adj, d = _adjugate(m)
    assert d == det(m) and type(d) is int
    if d == 0:
        assert adj is None
    else:
        n = len(m)
        assert mat_mul(adj, m) == mat_mul(m, adj) == [
            [d if i == j else 0 for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matrix(2, 2), square))
@example([[0, 0], [0, 0]])
@example([[2, 4], [1, 2]])
@example([[0, 1], [1, 0]])
def test_adjugate_matches_cofactor_oracle(m):
    # every size, 2x2 included, takes the one Gauss-Jordan pass
    assert _adjugate(m) == hrep_oracle.adjugate(m)
