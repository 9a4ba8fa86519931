"""The index-walking simplex parser, kept as the oracle for the one in text.

It walks the lines by an index ``i`` and remembers the dimension line.
``latticebound.text.parse_simplices``, which walks one shared line iterator,
must give the same records, or raise the same error class with the same
message and ``line``.
"""

import re
import sys

from latticebound.geometry import DegeneracyError
from latticebound.text import ParseError, SimplexRecord


def _int_error(tokens, otherwise):
    """The digit-limit message when a token is a decimal integer longer
    than Python reads, else ``otherwise``."""
    limit = sys.get_int_max_str_digits()
    if any(re.fullmatch(r"[+-]?\d{%d,}" % (limit + 1), t) for t in tokens):
        return f"integer of more than the {limit} digits Python reads"
    return otherwise


def parse_simplices(text):
    records = []
    lines = text.splitlines()
    i = 0
    n = len(lines)
    while i < n:
        raw = lines[i]
        content, _, comment = raw.partition("#")
        if not content.strip():
            i += 1
            continue
        dim_line = i + 1
        try:
            dim = int(content.strip())
        except ValueError:
            raise ParseError(_int_error(
                [content.strip()],
                f"expected a dimension, got {content.strip()!r}"), dim_line)
        if dim < 1:
            raise ParseError("dimension must be >= 1", dim_line)
        label = comment.strip() or None
        verts = []
        i += 1
        while len(verts) < dim + 1 and i < n:
            content, _, _ = lines[i].partition("#")
            stripped = content.strip()
            if not stripped:
                if "#" in lines[i]:
                    i += 1
                    continue
                break
            parts = stripped.split()
            if len(parts) != dim:
                raise ParseError(
                    f"expected {dim} coordinates, got {len(parts)}", i + 1
                )
            try:
                verts.append(tuple(int(p) for p in parts))
            except ValueError:
                raise ParseError(_int_error(
                    parts, f"malformed integer in {stripped!r}"), i + 1)
            i += 1
        if len(verts) != dim + 1:
            raise ParseError(
                f"expected {dim + 1} vertices for dimension {dim}, "
                f"got {len(verts)}",
                dim_line,
            )
        records.append(SimplexRecord(dim, tuple(verts), label))
        try:
            records[-1].to_simplex()
        except DegeneracyError as exc:
            raise ParseError(str(exc), dim_line)
    return records
