"""The integer box walk, proof trace and nu against the Fraction oracle."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import box_oracle
import latticebound
from latticebound import (
    Face,
    Lattice,
    LatticeSimplex,
    LinAlgError,
    VerificationError,
    facet_bound,
    interior_points,
    pikhurko,
    proof_trace,
    qualifying_facets,
    vdc_check,
    zpw_simplex,
)
from latticebound.io import ingest_census

F = Fraction

entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
half_widths = st.one_of(
    st.integers(1, 2), st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))
)


@st.composite
def boxes(draw):
    """A nonsingular rational basis in d <= 4 and a box of int and
    Fraction half-widths holding a few dozen lattice points at most."""
    d = draw(st.integers(1, 4))
    basis = [[draw(entries) for _ in range(d)] for _ in range(d)]
    det = box_oracle.det(basis)
    assume(det != 0)
    betas = [draw(half_widths) for _ in range(d)]
    vol = Fraction(2) ** d
    for b in betas:
        vol *= b
    assume(vol <= 16 * abs(det))
    return basis, betas


@settings(max_examples=150, deadline=None)
@given(boxes())
def test_box_walk_matches_the_fraction_walk(box):
    basis, betas = box
    lat = Lattice(tuple(map(tuple, basis)))
    pts = lat.points_in_open_box(betas)
    assert pts == box_oracle.points_in_open_box(basis, betas)
    assert all(type(c) is F for p in pts for c in p)
    assert lat.det == abs(box_oracle.det(basis))
    r = vdc_check(lat, betas)
    assert (r.lhs, r.rhs, r.interior_count) == box_oracle.vdc(basis, betas)
    assert r.points == tuple(pts)


def _shapes(sample_census_path):
    shapes = [zpw_simplex(d, k) for d, ks in ((2, range(4)), (3, range(3)),
                                              (4, range(2))) for k in ks]
    return shapes + ingest_census(sample_census_path, 2)


def test_proof_trace_matches_the_oracle(sample_census_path):
    checked = 0
    for s in _shapes(sample_census_path):
        k = len(interior_points(s))
        for f in qualifying_facets(s):
            betas = facet_bound(s, f).betas
            tr = proof_trace(s, f)
            want = box_oracle.proof_trace(s, f, betas, k)
            assert list(tr.y_set) == want["y_set"]
            assert tr.h_minus_count == want["h_minus_count"]
            assert tr.h_zero_count == want["h_zero_count"]
            assert all(want[c] for c in ("symmetric", "even_split",
                                         "origin_only", "shifted_inside",
                                         "within_2k1"))
            r = vdc_check(tr.lattice, tr.box)
            want_vdc = box_oracle.vdc(box_oracle.phi(s, f), betas)
            assert (r.lhs, r.rhs, r.interior_count) == want_vdc
            checked += 1
    assert checked >= 20


def test_nu_matches_the_oracle(sample_census_path):
    # each shape and its mirror, whose edge matrix has the other sign
    checked = 0
    for s in _shapes(sample_census_path):
        mirror = LatticeSimplex([s.vertices[1], s.vertices[0],
                                 *s.vertices[2:]])
        for t in (s, mirror):
            pts = interior_points(t)
            if not pts:
                continue
            r = pikhurko(t)
            want = box_oracle.point_bounds(t, pts)
            assert {x: (pb.betas_desc, pb.bound)
                    for x, pb in r.per_point.items()} == want
            assert r.nu == min(b for _, b in want.values())
            checked += 1
    assert checked >= 30


# The integer images Y = m y that ``Lattice._images`` hands the proof trace
# of zpw_simplex(3, 2) through the facet (1, 2, 3), where m = 18 and the
# box is (1/2, 1/3, 1/6): any list of them, symmetrized or not.
images = st.builds(
    lambda vs, sym, origin: (vs + [tuple(-c for c in v) for v in vs] * sym
                             + [(0, 0, 0)] * origin),
    st.lists(st.tuples(*[st.integers(-10, 10)] * 3), max_size=3),
    st.booleans(), st.booleans(),
)

MESSAGES = {
    "symmetric": "box points are not o-symmetric",
    "even_split": "box points do not split evenly across the hyperplane",
    "origin_only": "the origin is not the only box point on the hyperplane",
    "shifted_inside": "a shifted box point is not inside the standard simplex",
    "within_2k1": "more than 2k+1 box points",
}


@settings(max_examples=200, deadline=None)
@given(images)
def test_trace_checks_match_the_oracle_on_any_images(ys):
    s = zpw_simplex(3, 2)
    f = Face(s, (1, 2, 3))
    betas = facet_bound(s, f).betas
    assert proof_trace(s, f).lattice._scale == 18
    want = box_oracle.checks([tuple(F(c, 18) for c in y) for y in ys],
                             betas, 2)
    failed = next((MESSAGES[c] for c, ok in want.items() if not ok), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Lattice, "_images", lambda self, betas, limit=None: ys)
        try:
            proof_trace(s, f)
        except VerificationError as exc:
            assert str(exc) == failed
        else:
            assert failed is None


def test_lattice_keeps_fractions_and_refuses_floats():
    third = F(1, 3)
    lat = Lattice(((third, 0), (0, 1)))
    assert lat.basis[0][0] is third
    assert lat.basis == ((F(1, 3), F(0)), (F(0), F(1)))
    assert all(type(c) is F for row in lat.basis for c in row)
    box = (F(1, 2), F(1))
    assert vdc_check(lat, box).points == tuple(lat.points_in_open_box(box))
    with pytest.raises(LinAlgError):
        Lattice(((1.5, 0), (0, 1)))
    with pytest.raises(LinAlgError):
        Lattice(((1, 0, 0), (0, 1)))
    with pytest.raises(TypeError):
        vdc_check(lat, [1.5, 1])


# Each check of the proof trace and of nu, fed points that break it, with
# asserts stripped: the integer images of the box points are replaced.
CORRUPT_TRACE = """
from latticebound import Face, VerificationError, bounds, zpw_simplex

assert False, "asserts must be stripped"
s = zpw_simplex(3, 2)
f = Face(s, (0, 1, 2))
images, interior = bounds.Lattice._images, bounds.interior_points
cases = [
    [(0, 0, 0), (1, 0, 0)],
    [(0, 0, 0), (1, 0, 0), (1, 0, 0), (-1, 0, 0)],
    [(0, 0, 0), (1, -1, 0), (-1, 1, 0)],
    [(0, 0, 0), (-1000, 0, 0), (1000, 0, 0)],
]
for ys in cases:
    bounds.Lattice._images = lambda self, betas, limit=None, ys=ys: list(ys)
    try:
        bounds.proof_trace(s, f)
    except VerificationError as exc:
        print("VerificationError:", exc)
bounds.Lattice._images = images  # five points, more than 2k+1 at k = 0
bounds.interior_points = lambda s, limit=None: []
try:
    bounds.proof_trace(s, f)
except VerificationError as exc:
    print("VerificationError:", exc)
bounds.interior_points = interior
bounds.volume = lambda s: 10 ** 9
try:
    bounds.pikhurko(s)
except VerificationError as exc:
    print("VerificationError:", exc)
"""


def test_trace_checks_survive_dash_O():
    src = str(Path(latticebound.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPT_TRACE],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "VerificationError: " + m for m in (
            "box points are not o-symmetric",
            "box points do not split evenly across the hyperplane",
            "the origin is not the only box point on the hyperplane",
            "a shifted box point is not inside the standard simplex",
            "more than 2k+1 box points",
            "volume exceeds nu",
        )
    ]
