"""The integer Fourier-Motzkin kernel against the Fraction oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fm_oracle
from latticebound import (
    EnumerationError,
    facets,
    geometry,
    relint_points,
    zpw_simplex,
)
from latticebound.geometry import (
    VerificationError,
    _eliminate_last,
    _system,
    integer_points,
)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def bounded_systems(draw):
    """Rows (a, b, strict) in d <= 4 variables with a bounded solution set.

    A box |x_i| <= B_i (each side strict or not) keeps the region bounded;
    on top come random rational rows and equality pairs.
    """
    d = draw(st.integers(1, 4))
    rows = []
    for i in range(d):
        for sign in (1, -1):
            a = tuple(sign if j == i else 0 for j in range(d))
            b = draw(st.builds(Fraction, st.integers(0, 12), st.integers(1, 4)))
            rows.append((a, b, draw(st.booleans())))
    coeffs = st.tuples(*[rationals] * d)
    for a, b, strict in draw(
        st.lists(st.tuples(coeffs, rationals, st.booleans()), max_size=4)
    ):
        rows.append((a, b, strict))
    for a, b in draw(st.lists(st.tuples(coeffs, rationals), max_size=2)):
        rows.append((a, b, False))
        rows.append((tuple(-c for c in a), -b, False))
    return draw(st.permutations(rows)), d


@settings(max_examples=200, deadline=None)
@given(bounded_systems())
def test_integer_points_match_fraction_oracle(system):
    rows, d = system
    expected = fm_oracle.integer_points(rows, d)
    assert integer_points(rows, d) == expected
    for limit in (0, 1, 2):
        assert integer_points(rows, d, limit=limit) == expected[: limit + 1]


@settings(max_examples=200, deadline=None)
@given(bounded_systems())
def test_rows_free_of_the_last_variable_reach_the_next_level(system):
    """The levels the sweep reads, and why it checks no row without an
    x_v term at level v: ``upper`` and ``lower`` are exactly the rows with
    a positive or a negative last coefficient c, as (prefix, rhs, |c|);
    each row free of x_v reappears one level down with the same normal
    and a right-hand side no larger; and the system in x_0 keeps no
    constant row, which would reach the projection onto no variables."""
    rows, d = system
    level = _system(rows)
    for _ in range(d):
        if level is None:
            return
        upper, lower, projection = _eliminate_last(level)
        items = list(level.items())
        assert upper == [(a[:-1], b, a[-1]) for a, b in items if a[-1] > 0]
        assert lower == [(a[:-1], b, -a[-1]) for a, b in items if a[-1] < 0]
        if projection is None:
            return
        for a, b in items:
            if a[-1] == 0:
                assert projection[a[:-1]] <= b
        level = projection
    assert level == {}


def test_infeasible_system_is_empty():
    rows = [((1, 0), 3, False), ((-1, 0), 0, False), ((0, 1), 3, False),
            ((0, -1), 0, False), ((1, 1), 1, True), ((-1, -1), -1, True)]
    assert integer_points(rows, 2) == fm_oracle.integer_points(rows, 2) == []


def test_lattice_free_slab_is_empty():
    # 0 < 2x + 2y < 2 holds for real points but for no integer point
    rows = [((1, 0), 5, False), ((-1, 0), 5, False),
            ((2, 2), 2, True), ((-2, -2), 0, True)]
    assert integer_points(rows, 2) == fm_oracle.integer_points(rows, 2) == []


@pytest.mark.parametrize("rows, nvars", [
    ([((-1,), 0, False)], 1),
    ([((1, 0), 2, False), ((-1, 0), 0, False), ((0, -1), 0, True)], 2),
    ([], 2),
])
def test_unbounded_system_raises(rows, nvars):
    with pytest.raises(EnumerationError):
        fm_oracle.integer_points(rows, nvars)
    with pytest.raises(EnumerationError):
        integer_points(rows, nvars)


def test_no_variables():
    """With no variables only the constant rows remain: the empty point
    solves the system iff every one of them holds."""
    for rows, expected in [
        ([], [()]),
        ([((), 0, False)], [()]),
        ([((), 1, True)], [()]),
        ([((), -1, False)], []),  # 0 <= -1
        ([((), 0, True)], []),  # 0 < 0
        ([((), 1, False), ((), -1, False)], []),
    ]:
        assert integer_points(rows, 0) == expected
        assert fm_oracle.integer_points(rows, 0) == expected


@pytest.mark.parametrize("nvars", [0, 1, 2])
def test_negative_limit_raises(nvars):
    rows = [((1,) * nvars, 3, False)] + [
        (tuple(-int(i == j) for j in range(nvars)), 0, False)
        for i in range(nvars)]
    assert len(integer_points(rows, nvars, limit=0)) == 1
    with pytest.raises(ValueError, match="^limit must be >= 0$"):
        integer_points(rows, nvars, limit=-1)


@pytest.mark.parametrize("rows, nvars, expected", [
    # two strict rows touching at the single lattice point x = 1
    ([((2,), 2, True), ((-2,), -2, True)], 1, []),
    ([((2,), 2, False), ((-2,), -2, True)], 1, []),
    ([((2,), 2, False), ((-2,), -2, False)], 1, [(1,)]),
    # x + y < 2 touches the quadrant x, y >= 1 only at (1, 1)
    ([((1, 1), 2, True), ((-1, 0), -1, False),
      ((0, -1), -1, False)], 2, []),
    ([((1, 1), 2, False), ((-1, 0), -1, False),
      ((0, -1), -1, False)], 2, [(1, 1)]),
    # the corner of a strict cone: y > x and y < -x touch only at the origin
    ([((1, -1), 0, True), ((1, 1), 0, True), ((-1, 0), 0, False)], 2, []),
    ([((1, -1), 0, False), ((1, 1), 0, False), ((-1, 0), 0, False)], 2,
     [(0, 0)]),
])
def test_integer_points_on_strict_boundaries(rows, nvars, expected):
    """Strict rows that meet only at one lattice point exclude it."""
    assert fm_oracle.integer_points(rows, nvars) == expected
    assert integer_points(rows, nvars) == expected


def test_equality_is_substituted(monkeypatch):
    """A facet's equality with a nonzero last coefficient removes a row.

    Substitution emits one row per other row, so the first elimination of
    the relint system drops at least the two rows of the equality.
    """
    s = zpw_simplex(3, 2)
    seen = []

    def recording(rows, nvars, limit=None):
        seen.append((list(rows), nvars))
        return integer_points(rows, nvars, limit=limit)

    monkeypatch.setattr(geometry, "integer_points", recording)
    substituted = 0
    for f in facets(s):
        pts = relint_points(f)
        rows, nvars = seen.pop()
        assert pts == fm_oracle.integer_points(rows, nvars)
        eq = [a for a, _, strict in rows if not strict]
        if eq[0][-1] != 0:
            substituted += 1
            _, _, out = _eliminate_last(_system(rows))
            assert len(out) <= len(rows) - 2
    assert substituted == 2


def test_substitution_checks_that_no_row_turns_constant():
    # Keys are primitive, so only the equality's own rows are parallel to
    # it and no substituted row cancels to a constant.  The check stating
    # this fires on a system that breaks it: (2, 2) is parallel to e = (1, 1)
    # and substitutes to 0 <= 1 - 2*3.
    with pytest.raises(VerificationError, match="violated constant row"):
        _eliminate_last({(1, 1): 3, (-1, -1): -3, (2, 2): 1})
    assert _eliminate_last({(1, 1): 3, (-1, -1): -3, (1, 2): 1}) == (
        [((1,), 3, 1), ((1,), 1, 2)], [((-1,), -3, 1)], {(-1,): -5})


def test_substitution_keeps_an_upper_row_equal_to_the_opposite_level_row():
    # x + y = 3 and -x + y <= -3.  The last row's level tuple ((-1,), -3, 1)
    # equals that of the equality's opposite row -x - y <= -3, one in
    # ``upper`` and one in ``lower``; only the opposite row is skipped, so
    # the last row substitutes to -2x <= -6, that is x >= 3.
    upper, lower, projection = _eliminate_last(
        {(1, 1): 3, (-1, -1): -3, (-1, 1): -3})
    assert upper == [((1,), 3, 1), ((-1,), -3, 1)]
    assert lower == [((-1,), -3, 1)]
    assert projection == {(-1,): -3}
