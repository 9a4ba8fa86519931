"""The simplex text format: parse records and format simplices.

One record is a dimension line ``d`` followed by d+1 lines of d
space-separated integers; records are separated by blank lines and ``#``
starts a comment.  A comment on the dimension line becomes the record's
label.  Files in this format are UTF-8.

This module imports only ``geometry``, so a command that reads or writes
simplices loads the format without census ingestion and the report,
which live in ``io``.
"""

from __future__ import annotations

import sys

from .geometry import DegeneracyError, LatticeSimplex, _cached, _frozen


class ParseError(ValueError):
    def __init__(self, message, line=None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{message}")
        self.line = line


def _int_error(text: str, otherwise: str) -> str:
    """The error for the tokens of ``text``, which ``int`` refused: that one
    has more digits than Python reads (not echoed), or else ``otherwise``."""
    limit = sys.get_int_max_str_digits()
    digits = (t[1:] if t[:1] in "+-" else t for t in text.split())
    if any(d.isdecimal() and len(d) > limit for d in digits):
        return f"integer of more than the {limit} digits Python reads"
    return otherwise


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
            raise ParseError(_int_error(content, "expected a dimension, got "
                                        f"{content.strip()!r}"), dim_no)
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
                raise ParseError(_int_error(
                    stripped, f"malformed integer in {stripped!r}"), no)
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
