"""Seeded workloads: input generators and correctness checks.

Each workload turns a seed into input files and a batch of CLI jobs.
Every job carries a check that parses the job's stdout and compares its
mathematical content with the independent arithmetic in ``oracle``;
canonical-form strings are never compared with fixed values, so a change
of encoding does not fail a check.

The generators hold the amount of work per batch nearly fixed across
seeds, so that medians taken over different seeds agree:

* census-report fills fixed quotas of (volume band, has a one-relint
  facet) strata, which are what per-record cost depends on;
* triangle-census draws k values until the number of Hermite triangles
  the census has to classify, plain and weighted by the sweep length, is
  within 2% of a fixed target;
* skewed-4d images are D L U0 S + t, where U0 is a fixed skewing shear
  and the seed draws the lower unitriangular L, the sign flips D and the
  translation t.  A lexicographic sweep fixes x1, x2, ... in turn, and L
  maps each coordinate prefix unimodularly onto itself, so the seed
  changes every coordinate but not the number of sweep nodes;
* canon-highdim work is (d+1)! HNFs per form whatever the seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path
from typing import Callable

import oracle

CheckFn = Callable[[str], list]


@dataclass
class Job:
    name: str
    argv: list
    check: CheckFn
    items: int


@dataclass
class Plan:
    jobs: list
    warmup: list
    parallel: tuple = ()  # jobs that read LATTICEBOUND_THREADS: rerun with 2 workers

    @property
    def items(self) -> int:
        return sum(j.items for j in self.jobs)


def _frac(text) -> Fraction:
    return Fraction(str(text))


def _json_objects(text: str) -> list:
    """Every JSON value in a stream of concatenated values."""
    decoder = json.JSONDecoder()
    out, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return out
        value, pos = decoder.raw_decode(text, pos)
        out.append(value)


def _write_simplices(path: Path, simplices, labels=None):
    blocks = []
    for i, verts in enumerate(simplices):
        head = str(len(verts[0]))
        if labels:
            head += f"  # {labels[i]}"
        blocks.append(head + "\n" + "\n".join(" ".join(map(str, v)) for v in verts))
    path.write_text("\n\n".join(blocks) + "\n")


def _guarded(check: CheckFn) -> CheckFn:
    """A check that reports malformed output as a problem, not a crash."""

    def run(stdout):
        try:
            return check(stdout)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return [f"malformed output: {type(exc).__name__}: {exc}"]

    return run


# ---------------------------------------------------------------------------
# Unimodular maps
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _lower_mixing(d, rng, spread):
    """D L: random sign flips after a lower unitriangular shear."""
    lower = [
        [1 if i == j else (rng.randint(-spread, spread) if j < i else 0) for j in range(d)]
        for i in range(d)
    ]
    signs = [[rng.choice((-1, 1)) if i == j else 0 for j in range(d)] for i in range(d)]
    return _mat_mul(signs, lower)


@dataclass(frozen=True)
class AffineMap:
    """x -> m x + t with integer m, det m = +-1."""

    m: tuple
    t: tuple

    def __call__(self, x):
        return tuple(sum(a * b for a, b in zip(row, x)) + c for row, c in zip(self.m, self.t))

    def inverse(self):
        total = oracle.det(self.m)
        if abs(total) != 1:
            raise ValueError("map is not unimodular")
        inv = [[total * a for a in row] for row in oracle.adjugate(self.m)]
        t = tuple(-sum(a * b for a, b in zip(row, self.t)) for row in inv)
        return AffineMap(tuple(map(tuple, inv)), t)


# ---------------------------------------------------------------------------
# census-report
# ---------------------------------------------------------------------------

CENSUS_K = 2
ZPW_3_2 = ((0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 18))  # normalized volume 6*18
VOLUME_BANDS = ((24, 47), (48, 71), (72, 108))
QUOTA = 8  # records per (volume band, in Sk1) stratum
MAX_CANDIDATES = 40000


def _hermite_diagonals():
    """Hermite diagonals (a, c, f), each at least 2, by band of a c f."""
    top = VOLUME_BANDS[-1][1]
    by_band = {band: [] for band in VOLUME_BANDS}
    for a in range(2, top // 4 + 1):
        for c in range(2, top // (2 * a) + 1):
            for f in range(2, top // (a * c) + 1):
                for band in VOLUME_BANDS:
                    if band[0] <= a * c * f <= band[1]:
                        by_band[band].append((a, c, f))
    return by_band


def generate_census(seed: int):
    """Pairwise-inequivalent Hermite-shaped 3D simplices with exactly two
    interior points: zpw(3,2) plus QUOTA records per stratum."""
    rng = random.Random(seed)
    diagonals = _hermite_diagonals()
    need = {(band, sk1): QUOTA for band in VOLUME_BANDS for sk1 in (True, False)}
    facts = {ZPW_3_2: oracle.analyze(ZPW_3_2)}
    seen = {oracle.normal_form(ZPW_3_2)}
    for _ in range(MAX_CANDIDATES):
        if not any(need.values()):
            break
        band = rng.choice([b for b in VOLUME_BANDS if need[(b, True)] or need[(b, False)]])
        a, c, f = rng.choice(diagonals[band])
        verts = ((0, 0, 0), (a, 0, 0), (rng.randrange(a), c, 0),
                 (rng.randrange(a), rng.randrange(c), f))
        if oracle.interior_count(verts, CENSUS_K + 1) != CENSUS_K:
            continue
        fx = oracle.analyze(verts)
        stratum = (band, fx.facet_bound is not None)
        if not need[stratum]:
            continue
        key = oracle.normal_form(verts)
        if key in seen:
            continue
        seen.add(key)
        need[stratum] -= 1
        facts[verts] = fx
    else:
        raise RuntimeError(f"census quotas not met after {MAX_CANDIDATES} candidates")
    records = list(facts)
    rng.shuffle(records)
    return records, facts


def _check_ingest(n):
    def check(stdout):
        m = re.search(r"(\d+) simplices.*?(\d+) interior", stdout)
        if not m:
            return ["ingest did not report a record count"]
        got = (int(m.group(1)), int(m.group(2)))
        return [] if got == (n, CENSUS_K) else [f"ingest reported {got}, expected {(n, CENSUS_K)}"]

    return _guarded(check)


def _vdc_facts(fx: oracle.SimplexFacts, facet: oracle.FacetFacts):
    d = fx.dim
    ys = oracle.box_points(fx.vertices, facet.omit, facet.betas)
    lhs = Fraction(2) ** d * prod(facet.betas)
    rhs = Fraction((len(ys) + 1) * 2 ** (d - 1)) / (fx.volume * factorial(d))
    return {
        "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs, "tight": lhs == rhs,
        "ySize": len(ys),
        "hMinusCount": sum(1 for y in ys if sum(y) < 0),
        "hZeroCount": sum(1 for y in ys if sum(y) == 0),
    }


def _vdc_problems(fx, got, memo, keys):
    """got must match the vdc facts of one of the best facets."""
    for facet in fx.best_facets():
        if facet.omit not in memo:
            memo[facet.omit] = _vdc_facts(fx, facet)
        want = memo[facet.omit]
        if all(
            (_frac(got[k]) == want[k]) if k in ("lhs", "rhs") else got[k] == want[k]
            for k in keys
        ):
            return []
    return [f"{fx.vertices}: vdc {got} matches no best facet"]


def _facet_bound_problems(fx, got, to_original=lambda p: p):
    """Facet-bound payload against the brute-force facts of the original."""
    probs = []
    if _frac(got["bound"]) != fx.facet_bound:
        probs.append(f"{fx.vertices}: facet bound {got['bound']} != {fx.facet_bound}")
    omitted = set(range(fx.dim + 1)) - set(got["facet"])
    if len(omitted) != 1:
        return probs + [f"{fx.vertices}: {got['facet']} is not a facet"]
    facet = fx.facets[omitted.pop()]
    point = to_original(tuple(got["relintPoint"]))
    if facet.relint != (point,):
        probs.append(f"{fx.vertices}: {point} is not the unique relint point of facet {got['facet']}")
    elif [_frac(b) for b in got["betas"]] != list(facet.betas):
        probs.append(f"{fx.vertices}: betas {got['betas']} != {facet.betas}")
    if _frac(got["bound"]) != facet.bound:
        probs.append(f"{fx.vertices}: facet {got['facet']} does not give the reported bound")
    if got["tight"] != (fx.volume == fx.facet_bound):
        probs.append(f"{fx.vertices}: tight flag wrong")
    return probs


def _check_report(records, facts):
    threshold = Fraction(18)
    vdc_memo = {}

    def check(stdout):
        rep = json.loads(stdout)
        probs = []
        want_sk1 = sum(1 for v in records if facts[v].facet_bound is not None)
        want_exceeds = sum(1 for v in records if facts[v].nu > threshold)
        for key, want in (("total", len(records)), ("inSk1", want_sk1), ("nuExceeds", want_exceeds)):
            if rep[key] != want:
                probs.append(f"{key} = {rep[key]}, expected {want}")
        if _frac(rep["threshold"]) != threshold:
            probs.append(f"threshold {rep['threshold']} != 18")
        reported = [tuple(map(tuple, d["vertices"])) for d in rep["details"]]
        if sorted(reported) != sorted(records):
            return probs + ["details do not list each census record exactly once"]
        for d, verts in zip(rep["details"], reported):
            fx = facts[verts]
            vol, nu = _frac(d["volume"]), _frac(d["nu"])
            if vol != fx.volume or d["interiorCount"] != len(fx.interior):
                probs.append(f"{verts}: volume/interior count wrong")
            if nu != fx.nu or d["nuHolds"] is not True or not vol <= nu:
                probs.append(f"{verts}: nu {d['nu']} != {fx.nu} or vol > nu")
            if d["nuExceedsThreshold"] != (fx.nu > threshold):
                probs.append(f"{verts}: nuExceedsThreshold wrong")
            if d["inSk1"] != (fx.facet_bound is not None):
                probs.append(f"{verts}: inSk1 wrong")
            elif d["inSk1"]:
                probs += _facet_bound_problems(fx, d["facetBound"])
                probs += _vdc_problems(fx, d["vdc"], vdc_memo.setdefault(verts, {}),
                                       ("lhs", "rhs", "holds", "tight", "ySize"))
        return probs

    return _guarded(check)


def census_report(seed: int, workdir: Path) -> Plan:
    records, facts = generate_census(seed)
    census = workdir / "census.txt"
    _write_simplices(census, records, [f"rec-{i}" for i in range(len(records))])
    warm = workdir / "warmup.txt"
    _write_simplices(warm, [ZPW_3_2])
    n = len(records)
    ingest = Job("ingest", ["ingest", "--census", str(census), "--k", str(CENSUS_K)],
                 _check_ingest(n), 0)
    report = Job("report", ["report", "outlook", "--census", str(census),
                            "--k", str(CENSUS_K), "--json"],
                 _check_report(records, facts), n)
    return Plan([ingest, report], ["ingest", "--census", str(warm), "--k", str(CENSUS_K)],
                ("report",))


# ---------------------------------------------------------------------------
# triangle-census
# ---------------------------------------------------------------------------

K_RANGE = range(10, 41)
K_COUNT = 3
VERIFY_K = 3
TRIANGLE_TOLERANCE = 0.02


def triangle_count(k: int) -> int:
    """Hermite triangles the census for k classifies."""
    return sum(1 for _ in oracle.hermite_triangles(k))


def choose_ks(seed: int) -> list:
    """K_COUNT values of k whose total triangle count, and total weighted by
    the k + 30 steps of each triangle's interior-point sweep, are both within
    TRIANGLE_TOLERANCE of their mean over K_RANGE."""
    rng = random.Random(seed)
    count = {k: triangle_count(k) for k in K_RANGE}
    work = {k: n * (k + 30) for k, n in count.items()}
    targets = [(m, K_COUNT * sum(m.values()) / len(m)) for m in (count, work)]
    while True:
        ks = sorted(rng.sample(list(K_RANGE), K_COUNT))
        if all(abs(sum(m[k] for k in ks) - t) <= TRIANGLE_TOLERANCE * t for m, t in targets):
            return ks, count


def _triangle_facts(k, memo):
    if k not in memo:
        memo[k] = oracle.triangle_census(k)
    return memo[k]


def _pick(verts):
    """(twice the area, interior points, lattice lengths of the edges)."""
    (x0, y0), (x1, y1), (x2, y2) = verts
    twice = abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
    edges = [gcd(x1 - x0, y1 - y0), gcd(x2 - x1, y2 - y1), gcd(x0 - x2, y0 - y2)]
    return twice, (twice - sum(edges) + 2) // 2, edges


def _check_survey(k, memo):
    def check(stdout):
        out = json.loads(stdout)
        classes, filtered = _triangle_facts(k, memo)
        best = max(a * c for a, _, c in filtered.values())
        probs = []
        if out["k"] != k or out["count"] != len(filtered):
            probs.append(f"k={k}: count {out['count']}, expected {len(filtered)}")
        if _frac(out["maxArea"]) != Fraction(best, 2) or best != 4 * (k + 1):
            probs.append(f"k={k}: maxArea {out['maxArea']}, expected {Fraction(best, 2)}")
        if len(out["maximizers"]) != sum(1 for a, _, c in filtered.values() if a * c == best):
            probs.append(f"k={k}: wrong number of maximizers")
        for tri in out["maximizers"]:
            twice, interior, edges = _pick(tri)
            if interior != k or twice != best or 2 not in edges:
                probs.append(f"k={k}: maximizer {tri} has {interior} interior points, "
                             f"twice-area {twice}, edge lengths {edges}")
        return probs

    return _guarded(check)


def _check_verify(k, memo):
    def check(stdout):
        out = json.loads(stdout)
        classes, filtered = _triangle_facts(k, memo)
        want = {"k": k, "censusSize": len(classes), "filteredSize": len(filtered),
                "maximizerCount": 1, "passed": True}
        probs = [f"verify {key} = {out[key]}, expected {v}" for key, v in want.items()
                 if out[key] != v]
        if _frac(out["maxArea"]) != 2 * (k + 1):
            probs.append(f"verify maxArea {out['maxArea']} != {2 * (k + 1)}")
        return probs

    return _guarded(check)


def triangle_census(seed: int, workdir: Path) -> Plan:
    memo = {}
    ks, count = choose_ks(seed)
    jobs = [
        Job(f"survey2d-k{k}", ["survey2d", "--k", str(k), "--filter", "--json"],
            _check_survey(k, memo), count[k])
        for k in ks
    ]
    jobs.append(Job("verify-main2d", ["verify", "main2d", "--k", str(VERIFY_K), "--json"],
                    _check_verify(VERIFY_K, memo), triangle_count(VERIFY_K)))
    return Plan(jobs, ["verify", "main2d", "--k", "1"])


# ---------------------------------------------------------------------------
# skewed-4d
# ---------------------------------------------------------------------------

def _axis_simplex(scales):
    d = len(scales)
    return tuple([(0,) * d] + [tuple(c if j == i else 0 for j in range(d))
                               for i, c in enumerate(scales)])


# zpw(4,k) = conv(o, 2e1, 3e2, 7e3, 42(k+1)e4); t(4) = conv(o, 2e1, 3e2, 7e3, 43e4).
ORIGINALS = (
    _axis_simplex((2, 3, 7, 84)),
    _axis_simplex((2, 3, 7, 126)),
    _axis_simplex((2, 3, 7, 43)),
)
# An upper unitriangular shear that makes the FM sweep about 10x the work
# it does on the axis-aligned original (coordinates in the hundreds).
SKEW_CORE = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))
MIX_SPREAD = 1
SHIFT = 20


def skewed_images(seed: int):
    """[(original, phi, image)], one image of every original."""
    rng = random.Random(seed)
    out = []
    for orig in ORIGINALS:
        m = _mat_mul(_lower_mixing(4, rng, MIX_SPREAD), SKEW_CORE)
        t = tuple(rng.randint(-SHIFT, SHIFT) for _ in range(4))
        phi = AffineMap(tuple(map(tuple, m)), t)
        out.append((orig, phi, tuple(phi(v) for v in orig)))
    return out


def _points(text):
    return [tuple(int(c) for c in p.split(",")) for p in text.split()]


def _check_count(images, memo):
    def check(stdout):
        lines = stdout.strip().splitlines()
        if len(lines) != len(images):
            return [f"{len(lines)} lines for {len(images)} simplices"]
        probs = []
        for line, (orig, phi, _) in zip(lines, images):
            head, _, rest = line.partition(":")
            pts = _points(rest)
            back = sorted(map(phi.inverse(), pts))
            if int(head) != len(pts) or tuple(back) != memo(orig).interior:
                probs.append(f"{orig}: interior points {line!r} do not map back")
        return probs

    return _guarded(check)


def _check_bound(kind, images, memo):
    vdc_memo = {}

    def check(stdout):
        outs = _json_objects(stdout)
        if len(outs) != len(images):
            return [f"{len(outs)} payloads for {len(images)} simplices"]
        probs = []
        for got, (orig, phi, _) in zip(outs, images):
            fx = memo(orig)
            if "volume" in got and _frac(got["volume"]) != fx.volume:
                probs.append(f"{orig}: volume {got['volume']} != {fx.volume}")
            if kind == "facet":
                probs += _facet_bound_problems(fx, got, phi.inverse())
            elif kind == "pikhurko":
                per = {phi.inverse()(tuple(map(int, p.split(",")))): _frac(b)
                       for p, b in got["perPoint"].items()}
                if _frac(got["nu"]) != fx.nu or per != fx.per_point:
                    probs.append(f"{orig}: nu / per-point bounds differ from the original")
            else:
                probs += _vdc_problems(fx, got, vdc_memo.setdefault(orig, {}),
                                       ("lhs", "rhs", "holds", "tight", "ySize",
                                        "hMinusCount", "hZeroCount"))
        return probs

    return _guarded(check)


def skewed_4d(seed: int, workdir: Path) -> Plan:
    images = skewed_images(seed)
    facts = {}

    def memo(orig):
        if orig not in facts:
            facts[orig] = oracle.analyze(orig)
        return facts[orig]

    path = workdir / "images.txt"
    _write_simplices(path, [img for _, _, img in images])
    warm = workdir / "warmup.txt"
    _write_simplices(warm, [ORIGINALS[-1]])
    n = len(images)
    jobs = [Job("count-interior", ["count", "interior", "--input", str(path)],
                _check_count(images, memo), n)]
    for kind in ("facet", "pikhurko", "vdc"):
        jobs.append(Job(f"bound-{kind}", ["bound", kind, "--json", "--input", str(path)],
                        _check_bound(kind, images, memo), n))
    return Plan(jobs, ["count", "interior", "--input", str(warm)])


# ---------------------------------------------------------------------------
# canon-highdim
# ---------------------------------------------------------------------------

CANON_BASES = {5: 2, 6: 1}  # dimension -> number of generic simplices
CANON_RANGE = 2


def canon_inputs(seed: int):
    """[(base index, simplex)]: each generic simplex followed by one seeded
    unimodular image of it.  Bases of one dimension have distinct
    normalized volumes, so they are pairwise inequivalent."""
    rng = random.Random(seed)
    out, index = [], 0
    for d, count in CANON_BASES.items():
        volumes = set()
        while len(volumes) < count:
            verts = tuple(
                tuple(rng.randint(-CANON_RANGE, CANON_RANGE) for _ in range(d))
                for _ in range(d + 1)
            )
            vol = abs(oracle.det(oracle.edge_matrix(verts)))
            if vol == 0 or vol in volumes:
                continue
            volumes.add(vol)
            upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0)
                      for j in range(d)] for i in range(d)]
            m = _mat_mul(_lower_mixing(d, rng, 1), upper)
            phi = AffineMap(tuple(map(tuple, m)),
                            tuple(rng.randint(-SHIFT, SHIFT) for _ in range(d)))
            out += [(index, verts), (index, tuple(phi(v) for v in verts))]
            index += 1
    return out


def _check_canon(inputs):
    def check(stdout):
        lines = stdout.strip().splitlines()
        if len(lines) != len(inputs):
            return [f"{len(lines)} forms for {len(inputs)} simplices"]
        by_base = {}
        for line, (base, _) in zip(lines, inputs):
            by_base.setdefault(base, set()).add(line)
        probs = [f"base {b}: simplex and image differ" for b, s in by_base.items() if len(s) != 1]
        if len(set(lines)) != len(by_base):
            probs.append("inequivalent bases share a form")
        return probs

    return _guarded(check)


def canon_highdim(seed: int, workdir: Path) -> Plan:
    inputs = canon_inputs(seed)
    path = workdir / "canon.txt"
    _write_simplices(path, [s for _, s in inputs])
    warm = workdir / "warmup.txt"
    _write_simplices(warm, [ZPW_3_2])
    job = Job("canon", ["canon", "--input", str(path)], _check_canon(inputs), len(inputs))
    return Plan([job], ["canon", "--input", str(warm)])


WORKLOADS = {
    "census-report": census_report,
    "triangle-census": triangle_census,
    "skewed-4d": skewed_4d,
    "canon-highdim": canon_highdim,
}
