"""Span recorder for the traced in-process run.

Wraps the public functions of each latticebound module in every module
namespace that bound them (modules import each other's functions with
``from .geometry import interior_points`` and the like), records one span
(name, start, end, parent) per call in memory, and restores the originals
on exit.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "latticebound"

FUNCTIONS = {
    "exact": ("det", "solve", "mat_inverse", "hnf"),
    "geometry": ("integer_points", "interior_points", "relint_points", "hrep", "barycentric"),
    "unimodular": ("canonical_form",),
    "bounds": ("pikhurko", "best_facet_bound", "qualifying_facets", "facet_bound",
               "proof_trace", "vdc_check"),
    "survey": ("enumerate_triangles", "filter_one_relint_facet"),
    "io": ("parse_simplices", "ingest_census", "outlook_report", "analyze_simplex"),
    "cli": ("main",),
}
# span name -> (module, class, method)
METHODS = {
    "geometry.LatticeSimplex": ("geometry", "LatticeSimplex", "__init__"),
    "bounds.Lattice.points_in_open_box": ("bounds", "Lattice", "points_in_open_box"),
}


def _observe_points(rec, args, result):
    rec.counts["geometry.integer_points.points"] += len(result)


def _observe_simplex(name):
    def observe(rec, args, result):
        rec.distinct[name].add(args[0].vertices)

    return observe


def _observe_census(rec, args, result):
    rec.counts["survey.classes"] += len(result.representatives)


OBSERVERS = {
    "geometry.integer_points": _observe_points,
    "geometry.hrep": _observe_simplex("geometry.hrep"),
    "geometry.interior_points": _observe_simplex("geometry.interior_points"),
    "survey.enumerate_triangles": _observe_census,
}


class Recorder:
    """Spans as [name, start, end, parent index] plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.distinct = defaultdict(set)

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}, fh)


@contextmanager
def instrument(recorder: Recorder):
    """Route every call of the traced functions through recorder spans."""
    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    patches = []
    try:
        for modname, names in FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = recorder.wrap(f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        for span, (modname, clsname, meth) in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{modname}"], clsname)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, recorder.wrap(span, original))
        yield recorder
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def self_times(spans) -> dict:
    """name -> total self time: each span's duration minus the part of its
    interval that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def _quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer metric values of one traced batch."""
    spans = recorder.spans
    calls = Counter(s[0] for s in spans)
    selfs = self_times(spans)
    out = {}
    names = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs] + list(METHODS)
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    out["geometry.integer_points.points"] = recorder.counts["geometry.integer_points.points"]
    for name in ("geometry.hrep", "geometry.interior_points"):
        distinct = len(recorder.distinct[name])
        out[f"{name}.repeat_ratio"] = calls[name] / distinct if distinct else 0.0

    def under(child, parent):
        return sum(1 for s in spans if s[0] == child and s[3] >= 0 and spans[s[3]][0] == parent)

    forms = calls["unimodular.canonical_form"]
    out["unimodular.hnf_per_form"] = (
        under("exact.hnf", "unimodular.canonical_form") / forms if forms else 0.0)
    survey_forms = under("unimodular.canonical_form", "survey.enumerate_triangles")
    out["survey.classes_per_canonical_call"] = (
        recorder.counts["survey.classes"] / survey_forms if survey_forms else 0.0)
    record_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "io.analyze_simplex"]
    out["io.analyze_simplex.p50_ms"] = _quantile(record_ms, 50)
    out["io.analyze_simplex.p90_ms"] = _quantile(record_ms, 90)
    return out
