"""Census ingestion and the outlook report.

A census file is a list of records in the simplex text format of
``latticebound.text``, which this module reads with ``parse_simplices``.
The report checks and analyzes every census record in one ``fork_map``
pass over forked worker processes.  This process then runs the census
checks of ingestion on the facts the pass returned, in file order; when
the pass raises, it first runs them again record by record, so a census
fault outranks an analysis error, as when the census was checked first.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial

from . import SCHEMA_VERSION
from .exact import _rat
from .geometry import LatticeSimplex, interior_points, volume
from .text import SimplexRecord, parse_simplices

# The outlook's threshold: vol(S_{3,2}) = vol(zpw_simplex(3, 2)).
_THRESHOLD = Fraction(18)


class DataIntegrityError(ValueError):
    pass


def read_census(path) -> list[SimplexRecord]:
    """The records of a census file, parsed but not yet checked."""
    with open(path, encoding="utf-8") as fh:
        return parse_simplices(fh.read())


def _census_facts(rec: SimplexRecord, k: int):
    """What the census checks read of a record: its interior count, found
    with ``limit=k``, and its canonical key where that count is k."""
    from .unimodular import canonical_form

    s = rec.to_simplex()
    count = len(interior_points(s, limit=k))
    return count, canonical_form(s).key() if count == k else None


def _check_census(records, k: int, facts=None) -> None:
    """Raise ``DataIntegrityError`` at the first record, in file order,
    without exactly k interior lattice points or unimodularly equivalent to
    an earlier one.  ``facts`` holds each record's ``_census_facts``;
    without it they are computed in turn, so the first fault ends the work.
    """
    seen = {}
    facts = facts or map(partial(_census_facts, k=k), records)
    for idx, (rec, (count, key)) in enumerate(zip(records, facts), 1):
        name = rec.label or f"record {idx}"
        if count != k:
            found = f"more than {k}" if count > k else count
            raise DataIntegrityError(
                f"{name}: expected {k} interior lattice points, found {found}")
        if key in seen:
            raise DataIntegrityError(
                f"{name}: duplicate of {seen[key]} under unimodular equivalence")
        seen[key] = name


def ingest_census(path, expected_k: int) -> list[LatticeSimplex]:
    """Load and validate a census file.

    Every record must have exactly expected_k interior lattice points and
    no two records may be unimodularly equivalent.
    """
    records = read_census(path)
    _check_census(records, expected_k)
    return [rec.to_simplex() for rec in records]


def analyze_simplex(s, threshold=None) -> dict:
    """Full per-simplex bound report (the unit of CLI/JSON output) of a
    ``LatticeSimplex``, whose cached facts it reuses, or of its vertices.
    Given a ``threshold``, it ends with ``nuExceedsThreshold``: nu exists
    and exceeds it."""
    from .bounds import (ApplicabilityError, best_facet_bound,
                         facet_bound_payload, pikhurko, proof_trace,
                         vdc_payload)
    from .unimodular import canonical_form

    s = s if isinstance(s, LatticeSimplex) else LatticeSimplex(s)
    k = len(interior_points(s))
    vol = volume(s)
    detail = {
        "vertices": [list(v) for v in s.vertices],
        "canonical": canonical_form(s).encoding,
        "volume": _rat(vol),
        "interiorCount": k,
    }
    if k >= 1:
        pik = pikhurko(s)
        detail["nu"] = _rat(pik.nu)
        detail["nuHolds"] = vol <= pik.nu
    try:
        fb = best_facet_bound(s)
        detail["inSk1"] = True
        detail["facetBound"] = facet_bound_payload(fb)
        detail["vdc"] = vdc_payload(proof_trace(s, fb.facet))
    except ApplicabilityError:
        detail["inSk1"] = False
    if threshold is not None:
        detail["nuExceedsThreshold"] = k >= 1 and pik.nu > threshold
    return detail


def _cpus():
    """CPUs this process may run on (``os.cpu_count()`` without affinity)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count()


def _worker_count(n) -> int:
    raw = os.environ.get("LATTICEBOUND_THREADS", "")
    try:
        return max(1, min(int(raw), n, _cpus() or 1))
    except ValueError:
        return 1


def _map_share(fn, items, i, w):
    """``list(map(fn, items[i::w]))``, or (index, exception) of its failure."""
    out = []
    try:
        for x in items[i::w]:
            out.append(fn(x))
    except Exception as exc:
        return i + len(out) * w, exc
    return out


def fork_map(fn, items) -> list:
    """``list(map(fn, items))`` over w = ``_worker_count`` processes: the
    parent maps items[0::w] and forks a child per share items[i::w], which
    pickles its ``_map_share`` down a pipe.  Every child is reaped, and
    killed first if item 0 fails or one dies without a result (which
    raises ``ChildProcessError``); then the lowest failing item raises,
    as in the serial map.  Serial without ``os.fork``.  ``outlook_report``
    calls it once per census, and each call of fn there computes a
    record's census facts and its analysis, so the census checks' work is
    split over the workers too."""
    w = _worker_count(len(items))
    if w == 1 or not hasattr(os, "fork"):
        return list(map(fn, items))
    import pickle

    children, shares = [], []
    try:
        for i in range(1, w):
            fh, out = map(open, os.pipe(), ("rb", "wb"))
            if not (pid := os.fork()):
                try:
                    with out:
                        pickle.dump(_map_share(fn, items, i, w), out)
                finally:
                    os._exit(0)
            out.close()
            children.append((pid, fh))
        shares.append(_map_share(fn, items, 0, w))
        if isinstance(shares[0], tuple) and shares[0][0] == 0:
            raise shares[0][1]
        for pid, fh in children:
            try:
                shares.append(pickle.load(fh))
            except Exception:
                raise ChildProcessError(
                    f"worker process {pid} ended without a result") from None
    finally:
        for pid, fh in children:
            fh.close()
            if len(shares) < w:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    if failed := [share for share in shares if isinstance(share, tuple)]:
        raise min(failed)[1]
    return [shares[j % w][j // w] for j in range(len(items))]


def _outlook_item(rec, k):
    """A record's ``_census_facts`` and, if its count is k, its analysis."""
    facts = _census_facts(rec, k)
    return facts, facts[0] == k and analyze_simplex(rec.to_simplex(),
                                                    _THRESHOLD)


def outlook_report(census, k=None) -> dict:
    """Count census members with a one-relint-point facet and those whose
    per-interior-point bound strictly exceeds vol(S_{3,2}) = 18.

    ``census`` is a list of checked simplices or, given ``k``, the records
    of a census file, which one ``fork_map`` pass checks and analyzes: each
    worker computes a record's ``_census_facts`` and analyzes it if its
    count is k, and then this process runs the checks of ``ingest_census``
    on those facts in file order.  If the pass raises, the checks first run
    again here, record by record, so that a census fault outranks the
    error, as when the census was checked before any analysis.
    """
    # Imported here, before fork_map forks, so the workers inherit them.
    from . import bounds, unimodular  # noqa: F401

    if k is None:
        details = fork_map(partial(analyze_simplex, threshold=_THRESHOLD),
                           census)
    else:
        try:
            done = fork_map(partial(_outlook_item, k=k), census)
        except Exception:
            _check_census(census, k)
            raise
        _check_census(census, k, [facts for facts, _ in done])
        details = [detail for _, detail in done]
    details.sort(key=lambda d: d["canonical"])
    return {
        "schemaVersion": SCHEMA_VERSION,
        "total": len(details),
        "inSk1": sum(1 for d in details if d["inSk1"]),
        "nuExceeds": sum(1 for d in details if d["nuExceedsThreshold"]),
        "threshold": _rat(_THRESHOLD),
        "details": details,
    }
