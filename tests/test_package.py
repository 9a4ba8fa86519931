"""The package surface: lazy exports, per-command imports, value classes."""

import doctest
import importlib.util
import io
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import latticebound
from latticebound import (
    AffineUnimodular,
    CanonicalForm,
    EqualityCertificate,
    Face,
    FacetBoundResult,
    HalfspaceSystem,
    Lattice,
    LinAlgError,
    LatticePolygon,
    LatticeSimplex,
    PikhurkoResult,
    ProofTrace,
    SimplexRecord,
    TriangleCensus,
    VdcResult,
    enumerate_triangles,
    equality_certificate,
    facet_bound,
    facets,
    hrep,
    pikhurko,
    proof_trace,
    vdc_check,
    zpw_simplex,
)
from latticebound import cli
from latticebound.bounds import PointBound

SRC = str(Path(latticebound.__file__).resolve().parents[1])
S32 = "3\n0 0 0\n2 0 0\n0 3 0\n0 0 18\n"
T2 = "2\n0 0\n2 0\n0 3\n"


# ---------------------------------------------------------------------------
# Modules a fresh interpreter loads
# ---------------------------------------------------------------------------

PROBE = """
import atexit, contextlib, io, sys
before = set(sys.modules)
handlers = atexit._ncallbacks()
out = io.StringIO()
if sys.argv[1:] == ["--package"]:
    import latticebound
    code = 0
elif sys.argv[1:] == ["--cli"]:
    import latticebound.cli
    code = 0
else:
    from latticebound.cli import main
    with contextlib.redirect_stdout(out):
        code = main(sys.argv[1:])
print(code, atexit._ncallbacks() - handlers, *sorted(set(sys.modules) - before),
      file=sys.stderr)
sys.stdout.buffer.write(out.getvalue().encode())
"""


def fresh_env(threads=None):
    """The environment of a fresh interpreter: src/ first on PYTHONPATH, no
    LATTICEBOUND_* setting but ``threads``, and block-buffered stdout (no
    PYTHONUNBUFFERED), so output a process did not flush would be lost."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LATTICEBOUND_") and k != "PYTHONUNBUFFERED"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    if threads is not None:
        env["LATTICEBOUND_THREADS"] = str(threads)
    return env


def new_modules(argv, stdin="", threads=None):
    """Exit code, the modules that running argv imported and its stdout
    bytes, in a fresh interpreter; it asserts that argv registered no
    ``atexit`` handler, which ``cli.run`` would skip."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv],
                          input=stdin.encode(), capture_output=True,
                          env=fresh_env(threads), check=True)
    code, handlers, *modules = proc.stderr.decode().split()
    assert handlers == "0"
    return int(code), set(modules), proc.stdout


def test_importing_the_package_loads_no_submodule():
    code, modules, _ = new_modules(["--package"])
    assert code == 0
    assert "latticebound" in modules
    assert not [m for m in modules if m.startswith("latticebound.")]


def test_importing_the_cli_loads_only_geometry_and_exact():
    code, modules, _ = new_modules(["--cli"])
    assert code == 0
    assert {m for m in modules if m.startswith("latticebound")} == {
        "latticebound", "latticebound.cli", "latticebound.geometry",
        "latticebound.exact"}


def census():
    return str(Path(SRC, "latticebound", "data", "sample_census.txt"))


COMMANDS = {
    "construct": (["construct", "zpw", "--dim", "3", "--k", "1"], ""),
    "count-interior": (["count", "interior"], S32),
    "count-relint": (["count", "relint", "--facet", "3"], S32),
    "bound-facet": (["bound", "facet", "--json"], S32),
    "bound-pikhurko": (["bound", "pikhurko"], S32),
    "bound-tau": (["bound", "tau"], T2),
    "bound-vdc": (["bound", "vdc", "--json"], S32),
    "certify": (["certify", "equality", "--facet", "3"], S32),
    "canon": (["canon"], S32),
    "survey2d": (["survey2d", "--k", "1", "--filter", "--json"], ""),
    "survey2d-text": (["survey2d", "--k", "3"], ""),
    "survey2d-filter-text": (["survey2d", "--k", "12", "--filter"], ""),
    "verify": (["verify", "main2d", "--k", "1", "--json"], ""),
    "ingest": (["ingest", "--census", None, "--k", "2"], ""),
    "report": (["report", "outlook", "--census", None, "--k", "2", "--json"], ""),
    "bound-facet-text": (["bound", "facet"], S32),
    "bound-vdc-text": (["bound", "vdc"], S32),
    "report-text": (["report", "outlook", "--census", None, "--k", "2"], ""),
}
GOLDEN = Path(__file__).parent / "golden"
# modules a command never runs, so never loads: a command that reads or
# writes simplices takes the text format from `text`, without `io`
UNLOADED = {
    "construct": {"io"},
    "count-interior": {"bounds", "survey", "io"},
    "count-relint": {"io"},
    "canon": {"bounds", "survey", "io"},
    "survey2d": {"bounds", "io", "constructions", "text", "unimodular"},
    "survey2d-text": {"bounds", "io", "constructions", "unimodular"},
    "survey2d-filter-text": {"bounds", "io", "constructions", "unimodular"},
    "verify": {"bounds", "io", "text"},
    "report": {"constructions"},
    "report-text": {"constructions"},
    "certify": {"io"},
    **{name: {"io"} for name in COMMANDS if name.startswith("bound-")},
}


@pytest.mark.parametrize(
    "name, threads", [(n, None) for n in sorted(COMMANDS)] + [("report", 2)]
)
def test_commands_import_only_what_they_run(name, threads):
    """Each command imports only what it runs and prints, byte for byte,
    its output in tests/golden/."""
    argv, stdin = COMMANDS[name]
    argv = [census() if a is None else a for a in argv]
    code, modules, out = new_modules(argv, stdin, threads)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_bytes()
    assert not modules & {"dataclasses", "inspect"}
    assert not modules & {"concurrent.futures", "multiprocessing"}
    assert not modules & {f"latticebound.{m}" for m in UNLOADED.get(name, ())}


# ---------------------------------------------------------------------------
# The process entries, which end the process at its last flush
# ---------------------------------------------------------------------------

ENTRIES = ("latticebound.cli", "latticebound")


def python_m(module, argv, stdin=""):
    """``python -m module argv`` in a fresh interpreter."""
    env = dict(fresh_env(), COLUMNS="80")  # argparse's help width
    return subprocess.run([sys.executable, "-m", module, *argv],
                          input=stdin.encode(), capture_output=True, env=env)


@pytest.mark.parametrize("module", ENTRIES)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_entries_print_the_goldens(module, name):
    argv, stdin = COMMANDS[name]
    argv = [census() if a is None else a for a in argv]
    proc = python_m(module, argv, stdin)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()


OTHER_EXITS = {
    "bound-tau-S32": (["bound", "tau"], S32, 1),
    "parse-error": (["count", "interior"], "2\n0 0\n2 0\n", 2),
    "help": (["--help"], "", 0),
}


@pytest.mark.parametrize("module", ENTRIES)
@pytest.mark.parametrize("name", sorted(OTHER_EXITS))
def test_entries_exit_as_main_returns(module, name, capsys, monkeypatch):
    """A failing job and ``--help`` print what ``main`` prints in-process
    and exit with its code."""
    argv, stdin, code = OTHER_EXITS[name]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1
    else:
        assert out.startswith("usage: latticebound") and err == ""
    proc = python_m(module, argv, stdin)
    assert proc.returncode == code
    assert (proc.stdout.decode(), proc.stderr.decode()) == (out, err)


def test_console_script_is_cli_run():
    tomllib = pytest.importorskip("tomllib")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text(encoding="utf-8"))["project"]
    module, _, attr = project["scripts"]["latticebound"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run


# ---------------------------------------------------------------------------
# The lazy namespace
# ---------------------------------------------------------------------------

def test_every_export_is_its_module_attribute():
    for name in latticebound.__all__:
        value = getattr(latticebound, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("latticebound.")
        assert getattr(home, name) is value


def test_dir_lists_every_export():
    assert set(latticebound.__all__) <= set(dir(latticebound))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from latticebound import *", namespace)
    assert len(latticebound.__all__) == len(set(latticebound.__all__)) == 60
    assert set(latticebound.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        latticebound.no_such_name
    assert not hasattr(latticebound, "dataclass")


# ---------------------------------------------------------------------------
# Value classes: each kind built twice from scratch, with its field names
# ---------------------------------------------------------------------------

def s32():
    return zpw_simplex(3, 2)


def bottom(s):
    return Face(s, (0, 1, 2))


def census_k0():
    return enumerate_triangles(0, 2)


VALUES = {
    LatticeSimplex: (s32, ("vertices",)),
    Face: (lambda: bottom(s32()), ("parent", "vertex_indices")),
    HalfspaceSystem: (lambda: hrep(s32()), ("a", "b")),
    LatticePolygon: (lambda: LatticePolygon([(0, 0), (3, 0), (0, 3)]),
                     ("vertices",)),
    AffineUnimodular: (lambda: AffineUnimodular(((1, 2), (0, 1)), (3, -1)),
                       ("u", "t")),
    CanonicalForm: (lambda: CanonicalForm(((1, 0), (0, 2))), ("matrix",)),
    Lattice: (lambda: Lattice(((F(1, 2), 0), (0, 1))), ("basis",)),
    FacetBoundResult: (lambda: facet_bound(s32(), bottom(s32())),
                       ("facet", "relint_point", "betas", "bound", "tight")),
    PointBound: (lambda: next(iter(pikhurko(s32()).per_point.values())),
                 ("betas_desc", "bound")),
    PikhurkoResult: (lambda: pikhurko(s32()), ("per_point", "nu")),
    VdcResult: (lambda: vdc_check(Lattice(((1, 0), (0, 1))), [F(3, 2), 1]),
                ("lhs", "rhs", "holds", "tight", "interior_count", "points")),
    ProofTrace: (lambda: proof_trace(s32(), bottom(s32())),
                 ("lattice", "box", "y_set", "h_minus_count", "h_zero_count")),
    EqualityCertificate: (
        lambda: equality_certificate(s32(), bottom(s32())),
        ("line_direction", "parallel_edge", "collinear_ok", "edge_ok"),
    ),
    SimplexRecord: (lambda: SimplexRecord(2, ((0, 0), (1, 0), (0, 1)), "u"),
                    ("dim", "vertices", "label")),
    TriangleCensus: (census_k0, ("k", "representatives", "max_area",
                                 "maximizers", "search_cap")),
}
KINDS = pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)


def fields(value, names):
    return [getattr(value, n) for n in names]


@KINDS
def test_equal_within_the_class_only(cls):
    make, names = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    sub = type("Sub", (cls,), {})(*fields(a, names))
    assert a != sub and sub != a
    assert a != tuple(fields(a, names))
    if cls is not PikhurkoResult:  # per_point is a dict
        assert hash(a) == hash(b)


@KINDS
def test_positional_and_keyword_construction_agree(cls):
    make, names = VALUES[cls]
    a = make()
    values = fields(a, names)
    assert cls(*values) == a
    assert cls(**dict(zip(names, values))) == a


@KINDS
def test_fields_cannot_be_assigned(cls):
    make, names = VALUES[cls]
    a = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1


@KINDS
def test_repr_names_the_fields(cls):
    make, names = VALUES[cls]
    text = repr(make())
    assert text.startswith(f"{cls.__name__}(")
    for name in names:
        assert f"{name}=" in text


@KINDS
def test_pickle_round_trip(cls):
    a = VALUES[cls][0]()
    assert pickle.loads(pickle.dumps(a)) == a


def test_missing_or_unknown_fields_rejected():
    with pytest.raises(TypeError):
        CanonicalForm()
    with pytest.raises(TypeError):
        CanonicalForm(((1,),), ((1,),))
    with pytest.raises(TypeError):
        CanonicalForm(((1,),), matrix=((1,),))
    with pytest.raises(TypeError):
        CanonicalForm(grid=((1,),))


def test_simplex_record_label_defaults_to_none():
    rec = SimplexRecord(2, ((0, 0), (1, 0), (0, 1)))
    assert rec.label is None
    assert rec == SimplexRecord(dim=2, vertices=((0, 0), (1, 0), (0, 1)))


def test_post_init_still_validates():
    s = s32()
    for bad in [(), (1, 0), (0, 0), (4,)]:
        with pytest.raises(ValueError):
            Face(s, bad)
    assert Face(s, [0, 2]).vertex_indices == (0, 2)
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (0, 3), (3, 0)])
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        AffineUnimodular(((2, 0), (0, 1)), (0, 0))
    with pytest.raises(ValueError):
        AffineUnimodular(((1, 0), (0, 1)), (0,))
    with pytest.raises(ValueError):
        Lattice(((1, 2), (2, 4)))
    assert facets(s)[0] == Face(s, (1, 2, 3))


@pytest.mark.parametrize("make, error", [
    (lambda: LatticeSimplex([(0, 0), (1.9, 0), (0, 1)]), TypeError),
    (lambda: LatticePolygon([(0, 0), ("3", 0), (0, 3)]), TypeError),
    (lambda: AffineUnimodular(((1.0, 0), (0, 1)), (0, 0)), TypeError),
    (lambda: Lattice(((0.1, 0), (0, 1))), LinAlgError),
    (lambda: AffineUnimodular(((1, 0), (0, 1)), (0, 0))((0.5, 0)),
     TypeError),
    (lambda: AffineUnimodular(((1, 0), (0, 1)), (0, 0))((F(1, 2), 3)),
     TypeError),
], ids=["LatticeSimplex", "LatticePolygon", "AffineUnimodular", "Lattice",
        "AffineUnimodular-call-float", "AffineUnimodular-call-fraction"])
def test_non_integer_input_is_refused_not_converted(make, error):
    with pytest.raises(error):
        make()


# ---------------------------------------------------------------------------
# What perfbench/ reads off the library
# ---------------------------------------------------------------------------

def test_benchmark_span_names_resolve():
    """Every function and method perfbench/spans.py wraps exists, and
    analyze_simplex runs on bare vertices as perfbench/run.py calls it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, names in spans.FUNCTIONS.items():
        home = importlib.import_module(f"latticebound.{mod}")
        assert all(callable(getattr(home, name)) for name in names)
    for mod, cls, meth in spans.METHODS.values():
        home = importlib.import_module(f"latticebound.{mod}")
        assert meth in vars(getattr(home, cls))

    from latticebound.io import analyze_simplex

    detail = analyze_simplex(zpw_simplex(3, 2).vertices)
    assert "nuExceedsThreshold" not in detail
    # the report renders the bound and the box check as `bound` does
    facet = json.loads((GOLDEN / "bound-facet.txt").read_text())
    vdc = json.loads((GOLDEN / "bound-vdc.txt").read_text())
    del facet["volume"], facet["schemaVersion"], vdc["schemaVersion"]
    del vdc["hMinusCount"], vdc["hZeroCount"]
    assert detail["facetBound"] == facet and detail["vdc"] == vdc


# ---------------------------------------------------------------------------
# The README's quick-start example
# ---------------------------------------------------------------------------

def test_readme_python_example_runs():
    """The fenced ``python`` block of README.md, without its fences, passes
    as a doctest (with the fences, the closing one reads as expected
    output)."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(
        block, {}, "README.md", str(readme), 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples and runner.failures == 0
