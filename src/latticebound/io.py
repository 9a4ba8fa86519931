"""Simplex text format, census ingestion, the printed facet-bound and vdc
payloads, and the outlook report, whose per-record analyses ``fork_map``
splits over forked worker processes.

Text format (UTF-8): one record is a dimension line ``d`` followed by
d+1 lines of d space-separated integers; records are separated by blank
lines and ``#`` starts a comment.  A comment on the dimension line
becomes the record's label.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial

from . import SCHEMA_VERSION
from .exact import _rat
from .geometry import (DegeneracyError, LatticeSimplex, _cached, _frozen,
                       interior_points, volume)


class ParseError(ValueError):
    def __init__(self, message, line=None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{message}")
        self.line = line


class DataIntegrityError(ValueError):
    pass


@_frozen
class SimplexRecord:
    dim: int
    vertices: tuple[tuple[int, ...], ...]
    label: str | None = None

    def to_simplex(self) -> LatticeSimplex:
        """The record's simplex, built once (by ``parse_simplices``)."""
        return _cached(self, "simplex", lambda: LatticeSimplex(self.vertices))


def parse_simplices(text: str) -> list[SimplexRecord]:
    records = []
    lines = enumerate(text.splitlines(), 1)
    for dim_no, raw in lines:
        content, _, comment = raw.partition("#")
        if not content.strip():
            continue
        try:
            dim = int(content.strip())
        except ValueError:
            raise ParseError(f"expected a dimension, got {content.strip()!r}",
                             dim_no)
        if dim < 1:
            raise ParseError("dimension must be >= 1", dim_no)
        label = comment.strip() or None
        verts = []
        # the vertex lines share the iterator: a blank line ends the record
        for no, line in lines:
            stripped = line.partition("#")[0].strip()
            if not stripped:
                if "#" in line:
                    continue
                break
            parts = stripped.split()
            if len(parts) != dim:
                raise ParseError(
                    f"expected {dim} coordinates, got {len(parts)}", no
                )
            try:
                verts.append(tuple(int(p) for p in parts))
            except ValueError:
                raise ParseError(f"malformed integer in {stripped!r}", no)
            if len(verts) == dim + 1:
                break
        if len(verts) != dim + 1:
            raise ParseError(
                f"expected {dim + 1} vertices for dimension {dim}, "
                f"got {len(verts)}",
                dim_no,
            )
        records.append(SimplexRecord(dim, tuple(verts), label))
        try:
            records[-1].to_simplex()
        except DegeneracyError as exc:
            raise ParseError(str(exc), dim_no)
    return records


def format_simplex(s: LatticeSimplex, label: str | None = None) -> str:
    head = str(s.dim) + (f"  # {label}" if label else "")
    body = "\n".join(" ".join(str(c) for c in v) for v in s.vertices)
    return f"{head}\n{body}\n"


def format_census(simplices, k: int, cap) -> str:
    header = f"# k={k} cap={cap} count={len(simplices)}\n"
    return header + "\n".join(format_simplex(s) for s in simplices)


def ingest_census(path, expected_k: int) -> list[LatticeSimplex]:
    """Load and validate a census file.

    Every record must have exactly expected_k interior lattice points and
    no two records may be unimodularly equivalent.
    """
    from .unimodular import canonical_form

    with open(path, encoding="utf-8") as fh:
        records = parse_simplices(fh.read())
    simplices = []
    seen = {}
    for idx, rec in enumerate(records, 1):
        s = rec.to_simplex()
        name = rec.label or f"record {idx}"
        count = len(interior_points(s, limit=expected_k))
        if count != expected_k:
            found = f"more than {expected_k}" if count > expected_k else count
            raise DataIntegrityError(
                f"{name}: expected {expected_k} interior lattice points, "
                f"found {found}"
            )
        key = canonical_form(s).key()
        if key in seen:
            raise DataIntegrityError(
                f"{name}: duplicate of {seen[key]} under unimodular equivalence"
            )
        seen[key] = name
        simplices.append(s)
    return simplices


def facet_bound_payload(fb, volume=None) -> dict:
    """The facet bound ``fb`` as printed, with ``volume`` before ``tight``
    when given."""
    payload = {
        "facet": list(fb.facet.vertex_indices),
        "relintPoint": list(fb.relint_point),
        "betas": [_rat(b) for b in fb.betas],
        "bound": _rat(fb.bound),
    }
    if volume is not None:
        payload["volume"] = _rat(volume)
    payload["tight"] = fb.tight
    return payload


def vdc_payload(trace) -> dict:
    """The symmetric-box check on the lattice and box of a proof trace, as
    printed."""
    from .bounds import vdc_check

    vdc = vdc_check(trace.lattice, trace.box)
    return {
        "lhs": _rat(vdc.lhs),
        "rhs": _rat(vdc.rhs),
        "holds": vdc.holds,
        "tight": vdc.tight,
        "ySize": len(trace.y_set),
    }


def analyze_simplex(s, threshold=None) -> dict:
    """Full per-simplex bound report (the unit of CLI/JSON output) of a
    ``LatticeSimplex``, whose cached facts it reuses, or of its vertices.
    Given a ``threshold``, it ends with ``nuExceedsThreshold``: nu exists
    and exceeds it."""
    from .bounds import (ApplicabilityError, best_facet_bound, pikhurko,
                         proof_trace)
    from .unimodular import canonical_form

    s = s if isinstance(s, LatticeSimplex) else LatticeSimplex(s)
    pts = interior_points(s)
    k = len(pts)
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
    as in the serial map.  Serial without ``os.fork``."""
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


def outlook_report(census) -> dict:
    """Count census members with a one-relint-point facet and those whose
    per-interior-point bound strictly exceeds vol(S_{3,2}) = 18."""
    # Imported here, before fork_map forks, so the workers inherit them.
    from . import bounds, unimodular  # noqa: F401

    threshold = Fraction(18)  # vol(S_{3,2}) = vol(zpw_simplex(3, 2))
    details = fork_map(partial(analyze_simplex, threshold=threshold), census)
    details.sort(key=lambda d: d["canonical"])
    return {
        "schemaVersion": SCHEMA_VERSION,
        "total": len(details),
        "inSk1": sum(1 for d in details if d["inSk1"]),
        "nuExceeds": sum(1 for d in details if d["nuExceedsThreshold"]),
        "threshold": _rat(threshold),
        "details": details,
    }
