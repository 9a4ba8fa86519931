"""latticebound benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload census-report --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` (nothing is installed).  With ``--trace 0`` every job runs as
``python -m latticebound.cli`` in a subprocess, one at a time, on one
CPU next to a speed probe, and the end-to-end metrics are printed (times
scaled to a reference CPU speed, see SpeedProbe).  With ``--trace 1`` the same batch runs
in-process, alternately plain and with every public library function
wrapped in spans, and the per-layer metrics are printed.  Every job's
output is checked against independent arithmetic; the last stdout line
is the JSON result.  Details and spans go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MIN_ROUNDS = 3     # measured batches per run, even past --seconds
HARD_LIMIT = 150   # seconds after start: no new batch, running jobs are killed
IMPORT_REPEATS = 5
MICRO_BUDGET_S = 0.3  # per micro-timing row, at least MICRO_MIN_REPEATS calls
MICRO_MIN_REPEATS = 3
START = perf_counter()
PROBE_INTERVAL_S = 0.02
# Mean seconds of one probe_kernel() while jobs ran, on the machine the
# baseline was measured on: job times are scaled to that CPU speed.
PROBE_REF_S = 0.0012


@dataclass
class JobRun:
    name: str
    rc: int | None
    stdout: str
    seconds: float
    maxrss_kb: int = 0
    start: float = 0.0
    scaled: float = 0.0  # seconds at the CPU speed of PROBE_REF_S


def probe_kernel():
    """About a millisecond of pure-Python exact arithmetic from the oracle,
    which does not import latticebound: the normal form of zpw(3,2) (24
    small HNFs), twice."""
    for _ in range(2):
        oracle.normal_form(workloads.ZPW_3_2)


class SpeedProbe:
    """Samples the speed of the CPU the jobs run on, while they run.

    On a shared host a core's speed drops by up to ~1.7x for a second or
    so at a time as other tenants come and go, and the share of slow
    spells changes from minute to minute.  measure_cli pins itself and the
    serial jobs to one CPU; this thread wakes every PROBE_INTERVAL_S and
    times probe_kernel() on that CPU, between the job's time slices.  A
    job's time is scaled by PROBE_REF_S over the mean probe time during
    the job.  The kernel runs none of latticebound's code, so a change to
    the library moves scaled times as much as raw ones; the probes take a
    few percent of the CPU from every job alike."""

    def __init__(self):
        self.samples = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        probe_kernel()  # the first pass through the kernel runs slower
        while not self._stop.wait(PROBE_INTERVAL_S):
            t0 = perf_counter()
            probe_kernel()
            self.samples.append((t0, perf_counter() - t0))

    def close(self):
        self._stop.set()
        self._thread.join()

    def scale(self, run: JobRun):
        during = [s for t, s in self.samples if run.start <= t < run.start + run.seconds]
        probe_s = statistics.mean(during or [s for _, s in self.samples])
        run.scaled = run.seconds * PROBE_REF_S / probe_s


def job_env(threads: int | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("LATTICEBOUND_")}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["LATTICEBOUND_THREADS"] = str(threads)
    return env


def run_cli(name, argv, env, workdir: Path, cpus=None) -> JobRun:
    """One CLI job in a subprocess, allowed on `cpus` (default: those of
    this thread); max-RSS comes from wait4."""
    out_path = workdir / "job.stdout"
    with open(out_path, "w+b") as out, open(workdir / "job.stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "latticebound.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        if cpus is not None:  # before the job starts its workers
            try:
                os.sched_setaffinity(proc.pid, cpus)
            except ProcessLookupError:  # it has already exited
                pass
        watchdog = threading.Timer(max(1.0, HARD_LIMIT + 20 - (t0 - START)), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return JobRun(name, proc.returncode, stdout, seconds, usage.ru_maxrss, t0)


def run_inprocess(name, argv, cli) -> JobRun:
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # a crashing job is a failed operation
        print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = None
    return JobRun(name, rc, buf.getvalue(), perf_counter() - t0)


class Verdicts:
    """Checks each distinct output of a job once and counts operations."""

    def __init__(self, plan: workloads.Plan):
        self.checks = {j.name: j.check for j in plan.jobs}
        self.memo = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, run: JobRun, expected_stdout: str | None = None):
        self.attempted += 1
        key = (run.name, run.stdout)
        if key not in self.memo:
            self.memo[key] = self.checks[run.name](run.stdout)
        probs = list(self.memo[key])
        if run.rc != 0:
            probs.append(f"exit code {run.rc}")
        if expected_stdout is not None and run.stdout != expected_stdout:
            probs.append("output differs from the serial run")
        if probs:
            self.failed += 1
            self.problems += [f"{run.name}: {p}" for p in probs[:5]]


def warm_up(plan, workdir) -> JobRun:
    """One set-up: the workload's warm-up job in a fresh interpreter."""
    warm = run_cli("warmup", plan.warmup, job_env(None), workdir)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up job {plan.warmup} exited with {warm.rc}")
    return warm


def keep_going(rounds, started, seconds) -> bool:
    now = perf_counter()
    if now - START > HARD_LIMIT:
        return False
    if rounds < MIN_ROUNDS:
        return True
    per_round = (now - started) / rounds
    return now - started + per_round <= seconds


def measure_cli(plan, verdicts, seconds, workdir):
    """Repeat the batch for `seconds`; set-up times, per-job times, the jobs
    that read LATTICEBOUND_THREADS rerun with 2 workers, the largest max-RSS.

    A set-up runs before the first round and after every round, so that the
    set-up times sample the same phases of CPU speed as the job times.
    Serial jobs, set-ups and the SpeedProbe share one CPU; a 2-worker job
    may use every CPU this process may."""
    serial_env, par_env = job_env(None), job_env(2)
    by_name = {j.name: j for j in plan.jobs}
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})  # this thread, the probe and the jobs
    probe = SpeedProbe()
    done = []  # (run, stdout it must equal)
    try:
        setups = [warm_up(plan, workdir)]
        rounds, started = 0, perf_counter()
        while keep_going(rounds, started, seconds):
            runs = {j.name: run_cli(j.name, j.argv, serial_env, workdir) for j in plan.jobs}
            par = [run_cli(n, by_name[n].argv, par_env, workdir, allowed)
                   for n in plan.parallel]
            done += [(r, None) for r in runs.values()] + [(r, runs[r.name].stdout) for r in par]
            setups.append(warm_up(plan, workdir))
            rounds += 1
    finally:
        probe.close()
        os.sched_setaffinity(0, allowed)
    serial, parallel = {j.name: [] for j in plan.jobs}, {n: [] for n in plan.parallel}
    for run in setups:
        probe.scale(run)
    for run, expected in done:  # checked after the clock stops
        probe.scale(run)
        verdicts.record(run, expected)
        (serial if expected is None else parallel)[run.name].append(run)
    rss = max(run.maxrss_kb for run, _ in done)
    return setups, serial, parallel, rss, [s for _, s in probe.samples]


def end_to_end(plan, setups, serial, parallel, rss, attr):
    """The end-to-end metrics from the JobRun field `attr`: medians over
    the run's set-ups and over each job's runs."""
    def median(runs):
        return statistics.median(getattr(r, attr) for r in runs)

    wall = sum(map(median, serial.values()))
    return {
        "setup_s": median(setups),
        "wall_s": wall,
        "items_per_s": plan.items / wall,
        # No job but census-report's `report outlook` reads
        # LATTICEBOUND_THREADS; elsewhere the 2-worker batch is the serial one.
        "par_wall_s": sum(map(median, parallel.values())) if parallel else wall,
        "peak_rss_mb": rss / 1024,
    }


def import_seconds():
    code = ("import time; t = time.perf_counter(); import latticebound.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=job_env(None), cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def micro_timings():
    """The per-operation timings listed under 'Pre-harness timings' in
    ROADMAP.md, timed in-process without spans."""
    from latticebound.constructions import zpw_simplex
    from latticebound.geometry import facets, interior_points, relint_points
    from latticebound.io import analyze_simplex, ingest_census, outlook_report
    from latticebound.survey import verify_theorem_main_2d
    from latticebound.unimodular import canonical_form

    sample = ingest_census(SRC / "latticebound" / "data" / "sample_census.txt", 2)
    zpw32, zpw43 = zpw_simplex(3, 2), zpw_simplex(4, 3)
    rows = {
        "micro.interior_points.zpw4_3_s": lambda: interior_points(zpw43),
        "micro.relint_points.zpw3_2_facets_s":
            lambda: [relint_points(f) for f in facets(zpw32)],
        "micro.canonical_form.d3_s": lambda: canonical_form(zpw_simplex(3, 1)),
        "micro.canonical_form.d4_s": lambda: canonical_form(zpw_simplex(4, 1)),
        "micro.canonical_form.d5_s": lambda: canonical_form(zpw_simplex(5, 1)),
        "micro.analyze_simplex.zpw3_2_s": lambda: analyze_simplex(zpw32.vertices),
        "micro.verify_main_2d.k3_s": lambda: verify_theorem_main_2d(3),
        "micro.outlook.sample_census_s": lambda: outlook_report(sample),
    }
    out = {}
    for name, fn in rows.items():
        times, t_end = [], perf_counter() + MICRO_BUDGET_S
        while len(times) < MICRO_MIN_REPEATS or perf_counter() < t_end:
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        out[name] = statistics.median(times)
    return out


def measure_traced(plan, verdicts, seconds, workdir):
    sys.path.insert(0, str(SRC))
    os.environ.pop("LATTICEBOUND_THREADS", None)
    from latticebound import cli

    started = perf_counter()
    metrics = micro_timings()
    metrics["cli.import_s"] = import_seconds()

    def batch(recorder=None):
        t0 = perf_counter()
        if recorder is None:
            runs = [run_inprocess(j.name, j.argv, cli) for j in plan.jobs]
        else:
            with spans.instrument(recorder):
                runs = [run_inprocess(j.name, j.argv, cli) for j in plan.jobs]
        took = perf_counter() - t0
        for run in runs:
            verdicts.record(run)
        return took

    batch()  # warm-up: the first pass through the code runs slower
    plain, traced, layers = [], [], []
    while keep_going(len(traced), started, seconds):
        recorder = spans.Recorder()
        if len(traced) % 2:  # alternate the order so drift cancels
            plain.append(batch())
            traced.append(batch(recorder))
        else:
            traced.append(batch(recorder))
            plain.append(batch())
        layers.append(spans.layer_metrics(recorder))
    recorder.dump(workdir / "spans.json")
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        # Counts repeat exactly from batch to batch; times take the median.
        metrics[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def metadata():
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticebound" / "cli.py").is_file():
        print(f"error: no latticebound sources under {SRC}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if args.trace else "end_to_end"]}

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    plan = workloads.WORKLOADS[args.workload](args.seed, workdir)
    generate_s = perf_counter() - t0
    verdicts = Verdicts(plan)

    if args.trace:
        values = measure_traced(plan, verdicts, args.seconds, workdir)
        samples, unscaled = {}, {}
    else:
        setups, serial, parallel, rss, probes = measure_cli(plan, verdicts, args.seconds,
                                                            workdir)
        values = end_to_end(plan, setups, serial, parallel, rss, "scaled")
        unscaled = end_to_end(plan, setups, serial, parallel, rss, "seconds")
        samples = {"probe_s": probes}
        groups = {"setup": setups, **serial,
                  **{f"{n} (2 workers)": runs for n, runs in parallel.items()}}
        for name, runs in groups.items():
            samples[name] = [r.seconds for r in runs]
            samples[f"{name} scaled"] = [r.scaled for r in runs]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    meta = metadata()
    error_rate = verdicts.failed / verdicts.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={meta['commit']} python={meta['python']} nproc={meta['nproc']}")
    print(f"  items per batch: {plan.items}; operations: {verdicts.attempted} attempted, "
          f"{verdicts.failed} failed (error_rate {error_rate:g})")
    for p in verdicts.problems[:20]:
        print(f"  FAILED {p}")
    for name, unit in units.items():
        raw = f" (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name} = {values[name]:.6g} {unit}{raw}")
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(
        dict(result, meta=meta, workload=args.workload, seed=args.seed,
             error_rate=error_rate, generate_s=generate_s, unscaled=unscaled, samples=samples,
             problems=verdicts.problems),
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
