"""Tests of the benchmark itself: deterministic generators, checks that
reject corrupted outputs, the independent oracle, and span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads
from latticebound import cli
from latticebound.constructions import zpw_simplex
from latticebound.geometry import LatticeSimplex, interior_points
from latticebound.bounds import ApplicabilityError, best_facet_bound, pikhurko
from latticebound.unimodular import canonical_form

SEED = 7


def _files(workdir: Path):
    return {p.name: p.read_text() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    plans = [workloads.WORKLOADS[name](seed, d) for seed, d in zip((SEED, SEED, SEED + 1), dirs)]

    def shape(plan, d):
        return [([a.replace(str(d), "") for a in j.argv], j.items) for j in plan.jobs]

    assert _files(dirs[0]) == _files(dirs[1])
    assert shape(plans[0], dirs[0]) == shape(plans[1], dirs[1])
    assert (_files(dirs[0]), shape(plans[0], dirs[0])) != (_files(dirs[2]), shape(plans[2], dirs[2]))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> (plan, {job name: stdout}) from real in-process CLI runs."""
    out = {}
    for name, make in workloads.WORKLOADS.items():
        plan = make(SEED, tmp_path_factory.mktemp(name))
        stdout = {}
        for job in plan.jobs:
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(job.argv) == 0
            stdout[job.name] = buf.getvalue()
        out[name] = (plan, stdout)
    return out


def test_real_outputs_pass_every_check(outputs):
    for plan, stdout in outputs.values():
        for job in plan.jobs:
            assert job.check(stdout[job.name]) == [], job.name


def _corrupt_json(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _corrupt_stream(text, edit):
    objs = workloads._json_objects(text)
    edit(objs[0])
    return "\n".join(json.dumps(o) for o in objs)


def _bump(value):
    return str(Fraction(value) + Fraction(1, 7))


def _first_sk1(data):
    return next(d for d in data["details"] if d["inSk1"])


CORRUPTIONS = {
    ("census-report", "ingest"): [lambda t: t.replace(" simplices", "0 simplices")],
    ("census-report", "report"): [
        lambda t: _corrupt_json(t, lambda d: d.update(total=d["total"] - 1)),
        lambda t: _corrupt_json(t, lambda d: d.update(inSk1=d["inSk1"] + 1)),
        lambda t: _corrupt_json(t, lambda d: d.update(nuExceeds=d["nuExceeds"] + 1)),
        lambda t: _corrupt_json(t, lambda d: d["details"].pop()),
        lambda t: _corrupt_json(t, lambda d: d["details"][0].update(
            volume=_bump(d["details"][0]["volume"]))),
        lambda t: _corrupt_json(t, lambda d: d["details"][0].update(interiorCount=3)),
        lambda t: _corrupt_json(t, lambda d: d["details"][0].update(
            nu=_bump(d["details"][0]["nu"]))),
        lambda t: _corrupt_json(t, lambda d: _first_sk1(d)["facetBound"].update(
            bound=_bump(_first_sk1(d)["facetBound"]["bound"]))),
        lambda t: _corrupt_json(t, lambda d: _first_sk1(d)["facetBound"].update(
            relintPoint=[c + 1 for c in _first_sk1(d)["facetBound"]["relintPoint"]])),
        lambda t: _corrupt_json(t, lambda d: _first_sk1(d)["vdc"].update(
            ySize=_first_sk1(d)["vdc"]["ySize"] + 2)),
        lambda t: t[: len(t) // 2],
    ],
    ("triangle-census", "survey2d"): [
        lambda t: _corrupt_json(t, lambda d: d.update(count=d["count"] + 1)),
        lambda t: _corrupt_json(t, lambda d: d.update(maxArea=_bump(d["maxArea"]))),
        lambda t: _corrupt_json(t, lambda d: d["maximizers"][0][2].__setitem__(
            1, d["maximizers"][0][2][1] + 1)),
        lambda t: _corrupt_json(t, lambda d: d["maximizers"].append(d["maximizers"][0])),
    ],
    ("triangle-census", "verify-main2d"): [
        lambda t: _corrupt_json(t, lambda d: d.update(passed=False)),
        lambda t: _corrupt_json(t, lambda d: d.update(censusSize=d["censusSize"] + 1)),
        lambda t: _corrupt_json(t, lambda d: d.update(maxArea="9")),
    ],
    ("skewed-4d", "count-interior"): [
        lambda t: t.replace(",", ",1", 1),
        lambda t: "\n".join(t.splitlines()[1:]),
    ],
    ("skewed-4d", "bound-facet"): [
        lambda t: _corrupt_stream(t, lambda d: d.update(bound=_bump(d["bound"]))),
        lambda t: _corrupt_stream(t, lambda d: d.update(volume=_bump(d["volume"]))),
        lambda t: _corrupt_stream(t, lambda d: d.update(tight=not d["tight"])),
    ],
    ("skewed-4d", "bound-pikhurko"): [
        lambda t: _corrupt_stream(t, lambda d: d.update(nu=_bump(d["nu"]))),
        lambda t: _corrupt_stream(t, lambda d: d["perPoint"].popitem()),
    ],
    ("skewed-4d", "bound-vdc"): [
        lambda t: _corrupt_stream(t, lambda d: d.update(ySize=d["ySize"] + 2)),
        lambda t: _corrupt_stream(t, lambda d: d.update(rhs=_bump(d["rhs"]))),
        lambda t: _corrupt_stream(t, lambda d: d.update(hZeroCount=2)),
    ],
    ("canon-highdim", "canon"): [
        lambda t: t.replace(" ", "  ", 1),  # a simplex and its image now differ
        lambda t: "\n".join([t.splitlines()[0]] * len(t.splitlines())),
        lambda t: "\n".join(t.splitlines()[:-1]),
    ],
}


@pytest.mark.parametrize("key", sorted(CORRUPTIONS), ids="/".join)
def test_checks_reject_corrupted_output(outputs, key):
    name, prefix = key
    plan, stdout = outputs[name]
    jobs = [j for j in plan.jobs if j.name.startswith(prefix)]
    assert jobs
    for job in jobs:
        for corrupt in CORRUPTIONS[key]:
            bad = corrupt(stdout[job.name])
            assert bad != stdout[job.name]
            assert job.check(bad), f"{job.name} accepted a corrupted output"


def test_verdicts_count_exit_codes_and_parallel_mismatch(outputs):
    plan, stdout = outputs["canon-highdim"]
    verdicts = run.Verdicts(plan)
    good = stdout["canon"]
    verdicts.record(run.JobRun("canon", 0, good, 1.0))
    verdicts.record(run.JobRun("canon", 0, good, 1.0), expected_stdout=good)
    assert (verdicts.attempted, verdicts.failed) == (2, 0)
    verdicts.record(run.JobRun("canon", 1, good, 1.0))
    verdicts.record(run.JobRun("canon", 0, good, 1.0), expected_stdout=good + "\n")
    assert (verdicts.attempted, verdicts.failed) == (4, 2)


def test_only_jobs_that_read_threads_are_rerun_with_workers(outputs):
    readers = [p.name for p in (run.SRC / "latticebound").rglob("*.py")
               if "LATTICEBOUND_THREADS" in p.read_text()]
    assert readers == ["io.py"]  # io.outlook_report, behind `report outlook`
    assert {name: plan.parallel for name, (plan, _) in outputs.items()} == {
        "census-report": ("report",), "triangle-census": (), "skewed-4d": (),
        "canon-highdim": ()}


def test_oracle_agrees_with_library_on_random_simplices():
    import random

    rng = random.Random(3)
    checked = 0
    while checked < 40:
        d = rng.randint(2, 3)
        verts = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1))
        if oracle.det(oracle.edge_matrix(verts)) == 0:
            continue
        s = LatticeSimplex(verts)
        fx = oracle.analyze(verts)
        assert fx.interior == tuple(sorted(interior_points(s)))
        if fx.interior:
            assert fx.nu == pikhurko(s).nu
        try:
            assert fx.facet_bound == best_facet_bound(s).bound
        except ApplicabilityError:
            assert fx.facet_bound is None
        checked += 1


def test_oracle_normal_form_is_a_complete_invariant():
    import random

    rng = random.Random(5)
    simplices = []
    while len(simplices) < 12:
        verts = tuple(tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(4))
        if oracle.det(oracle.edge_matrix(verts)):
            simplices.append(verts)
    for a in simplices:
        phi = workloads.AffineMap(((1, 2, 0), (0, 1, 0), (1, 2, 1)), (3, -1, 2))
        assert oracle.normal_form(a) == oracle.normal_form(tuple(phi(v) for v in a))
        for b in simplices:
            same_lib = canonical_form(LatticeSimplex(a)) == canonical_form(LatticeSimplex(b))
            assert (oracle.normal_form(a) == oracle.normal_form(b)) == same_lib


def test_skewed_images_map_back_to_their_originals():
    images = workloads.skewed_images(SEED)
    for orig, phi, image in images:
        inv = phi.inverse()
        assert tuple(inv(v) for v in image) == orig
    assert max(abs(c) for _, _, image in images for v in image for c in v) >= 100


def test_census_strata_and_extremal_record():
    records, facts = workloads.generate_census(SEED)
    assert workloads.ZPW_3_2 in records
    assert max(abs(oracle.det(oracle.edge_matrix(v))) for v in records) == 6 * 18
    assert all(len(facts[v].interior) == 2 for v in records)
    assert len({oracle.normal_form(v) for v in records}) == len(records)
    sk1 = sum(1 for v in records if facts[v].facet_bound is not None)
    assert sk1 == 1 + workloads.QUOTA * len(workloads.VOLUME_BANDS)


def test_self_time_subtracts_child_coverage():
    # parent [0, 10] with children [1, 3] and [2, 4] (covering [1, 4]) and
    # [5, 6]; the first child has a grandchild [1.5, 2].
    recorded = [
        ["p", 0.0, 10.0, -1],
        ["c", 1.0, 3.0, 0],
        ["c", 2.0, 4.0, 0],
        ["c", 5.0, 6.0, 0],
        ["g", 1.5, 2.0, 1],
    ]
    selfs = spans.self_times(recorded)
    assert selfs["p"] == pytest.approx(10 - 4)
    assert selfs["c"] == pytest.approx((2 - 0.5) + 2 + 1)
    assert selfs["g"] == pytest.approx(0.5)


def test_instrument_records_nested_spans_and_restores():
    from latticebound import geometry, unimodular

    before = (geometry.interior_points, geometry.hrep, unimodular.hnf,
              LatticeSimplex.__dict__["__init__"])
    rec = spans.Recorder()
    with spans.instrument(rec):
        s = zpw_simplex(3, 2)
        geometry.interior_points(s)
        unimodular.canonical_form(s)
    assert before == (geometry.interior_points, geometry.hrep, unimodular.hnf,
                      LatticeSimplex.__dict__["__init__"])
    names = [sp[0] for sp in rec.spans]
    parent_of = {i: rec.spans[sp[3]][0] if sp[3] >= 0 else None
                 for i, sp in enumerate(rec.spans)}
    hrep = names.index("geometry.hrep")
    assert parent_of[hrep] == "geometry.interior_points"
    metrics = spans.layer_metrics(rec)
    assert metrics["unimodular.canonical_form.calls"] == 1
    assert metrics["unimodular.hnf_per_form"] == 24
    assert metrics["geometry.integer_points.points"] == 2
    assert metrics["geometry.interior_points.repeat_ratio"] == 1


def test_speed_probe_scales_by_the_probes_taken_during_the_job():
    probe = run.SpeedProbe()
    time.sleep(10 * run.PROBE_INTERVAL_S)
    probe.close()
    assert probe.samples and all(s > 0 for _, s in probe.samples)
    ref = run.PROBE_REF_S
    # the job ran over [10, 12); probes at 9 and 12 fall outside it
    probe.samples = [(9.0, 9 * ref), (10.0, 2 * ref), (11.5, 2 * ref), (12.0, 9 * ref)]
    job = run.JobRun("job", 0, "", 2.0, start=10.0)
    probe.scale(job)
    assert job.scaled == pytest.approx(1.0)  # the CPU ran at half the reference speed
    early = run.JobRun("early", 0, "", 0.5, start=0.0)  # no probe during it
    probe.scale(early)
    assert early.scaled == pytest.approx(0.5 / 5.5)


def test_run_fails_without_sources(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canon-highdim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
