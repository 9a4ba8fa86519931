"""Command-line interface.

All numeric output is exact rational, rendered as ``p/q`` (or ``n`` when
integral).  Exit status: 0 on success, 1 on verification failure, 2 on
usage or parse errors.  ``main(argv)`` runs one command in-process and
returns that status; ``run()``, the process entry point, ends the
process with it at its last flush.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import SCHEMA_VERSION
from .exact import _rat
from .geometry import (Face, LatticeSimplex, facets, interior_points,
                       relint_points, volume)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_in_range(low, high=None):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}"
            )
        return value

    return parse


def _read_simplices(path) -> list[LatticeSimplex]:
    from .text import ParseError, parse_simplices

    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    records = parse_simplices(text)
    if not records:
        raise ParseError("no simplex records in input")
    return [r.to_simplex() for r in records]


def _facet(s: LatticeSimplex, index: int | None) -> Face:
    if index is not None:
        if index < 0 or index > s.dim:
            raise UsageError(f"--facet must be in 0..{s.dim}, got {index}")
        return facets(s)[index]
    from .bounds import best_facet_bound

    return best_facet_bound(s).facet


def _emit(payload, as_json):
    """Print the payload as JSON, with its ``schemaVersion``, or as
    ``key: value`` lines."""
    if as_json:
        import json

        payload = dict(payload)
        payload["schemaVersion"] = SCHEMA_VERSION
        print(json.dumps(payload, indent=2, default=str))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_construct(args):
    from .constructions import exceptional_p31, lift, t_simplex, zpw_simplex
    from .text import format_simplex

    if args.what == "zpw":
        s = zpw_simplex(args.dim, args.k)
    elif args.what == "t":
        s = t_simplex(args.dim)
    elif args.what == "exceptional":
        s = exceptional_p31()
    else:  # lift
        base = _read_simplices(args.input)[0]
        s = lift(base, args.k)
    sys.stdout.write(format_simplex(s))
    print(f"# volume = {_rat(volume(s))}")
    return EXIT_OK


def cmd_count(args):
    for s in _read_simplices(args.input):
        if args.what == "interior":
            pts = interior_points(s)
        else:
            pts = relint_points(_facet(s, args.facet))
        print(f"{len(pts)}: " + " ".join(",".join(str(c) for c in p) for p in pts))
    return EXIT_OK


def cmd_bound(args):
    from .bounds import (facet_bound, facet_bound_payload, pikhurko,
                         proof_trace, tau, vdc_payload)

    ok = True
    for s in _read_simplices(args.input):
        if args.what == "facet":
            r = facet_bound(s, _facet(s, args.facet))
            payload = facet_bound_payload(r, volume(s))
            ok = ok and volume(s) <= r.bound
        elif args.what == "pikhurko":
            r = pikhurko(s)
            payload = {
                "nu": _rat(r.nu),
                "volume": _rat(volume(s)),
                "perPoint": {
                    ",".join(str(c) for c in p): _rat(pb.bound)
                    for p, pb in sorted(r.per_point.items())
                },
            }
            ok = ok and volume(s) <= r.nu
        elif args.what == "tau":
            payload = {"tau": _rat(tau(s))}
        else:  # vdc on the proof-trace lattice and box
            trace = proof_trace(s, _facet(s, args.facet))
            payload = vdc_payload(trace)
            payload["hMinusCount"] = trace.h_minus_count
            payload["hZeroCount"] = trace.h_zero_count
            ok = ok and payload["holds"]
        _emit(payload, args.json)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_certify(args):
    from .bounds import equality_certificate

    ok = True
    for s in _read_simplices(args.input):
        cert = equality_certificate(s, _facet(s, args.facet))
        payload = {
            "lineDirection": list(cert.line_direction),
            "parallelEdge": list(cert.parallel_edge) if cert.parallel_edge else None,
            "collinearOk": cert.collinear_ok,
            "edgeOk": cert.edge_ok,
        }
        _emit(payload, args.json)
        ok = ok and cert.collinear_ok and cert.edge_ok
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_canon(args):
    from .unimodular import canonical_form

    for s in _read_simplices(args.input):
        print(canonical_form(s).encoding)
    return EXIT_OK


def cmd_survey2d(args):
    from .survey import enumerate_triangles

    census = enumerate_triangles(args.k, args.cap, one_relint_edge=args.filter)
    if args.json:
        _emit({
            "schemaVersion": SCHEMA_VERSION,
            "k": census.k,
            "cap": census.search_cap,
            "count": len(census.representatives),
            "maxArea": _rat(census.max_area),
            "maximizers": [
                [list(v) for v in t.vertices] for t in census.maximizers
            ],
        }, True)
    else:
        from .text import format_census

        sys.stdout.write(
            format_census(census.representatives, census.k, census.search_cap)
        )
    return EXIT_OK


def cmd_verify(args):
    from .survey import verify_theorem_main_2d

    report = verify_theorem_main_2d(args.k, args.cap)
    _emit(report, args.json)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def cmd_ingest(args):
    from .io import ingest_census

    simplices = ingest_census(args.census, args.k)
    print(f"ok: {len(simplices)} simplices, each with {args.k} interior points")
    return EXIT_OK


def cmd_report(args):
    from .io import outlook_report, read_census

    report = outlook_report(read_census(args.census), args.k)
    if args.json:
        _emit(report, True)
    else:
        print(f"total: {report['total']}")
        print(f"inSk1: {report['inSk1']}")
        print(f"nuExceeds: {report['nuExceeds']} (threshold {report['threshold']})")
    sound = all(d["nuHolds"] for d in report["details"] if "nuHolds" in d)
    return EXIT_OK if sound else EXIT_VERIFICATION


def _add_input(p):
    p.add_argument("--input", default=None,
                   help="simplex record file (default: stdin)")


def _add_json(p):
    p.add_argument("--json", action="store_true")


def _construct_args(p):
    p.add_argument("what", choices=["zpw", "t", "exceptional", "lift"])
    p.add_argument("--dim", type=_int_in_range(1, 14), default=3,
                   help="at most 14 (from 15 on, the volume has more than "
                        "the 4300 digits Python prints)")
    p.add_argument("--k", type=_int_in_range(0), default=1)
    _add_input(p)


def _count_args(p):
    p.add_argument("what", choices=["interior", "relint"])
    p.add_argument("--facet", type=int, default=None,
                   help="index of the omitted vertex")
    _add_input(p)


def _bound_args(p):
    p.add_argument("what", choices=["facet", "pikhurko", "tau", "vdc"])
    p.add_argument("--facet", type=int, default=None)
    _add_input(p)
    _add_json(p)


def _certify_args(p):
    p.add_argument("what", choices=["equality"])
    p.add_argument("--facet", type=int, default=None)
    _add_input(p)
    _add_json(p)


def _survey2d_args(p):
    p.add_argument("--k", type=_int_in_range(0), required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--filter", action="store_true",
                   help="keep only triangles with a one-relint-point edge")
    _add_json(p)


def _verify_args(p):
    p.add_argument("what", choices=["main2d"])
    p.add_argument("--k", type=_int_in_range(0, 3), required=True,
                   help="at most 3 (desk-scale verification)")
    p.add_argument("--cap", type=int, default=None)
    _add_json(p)


def _ingest_args(p):
    p.add_argument("--census", required=True)
    p.add_argument("--k", type=_int_in_range(0), required=True)


def _report_args(p):
    p.add_argument("what", choices=["outlook"])
    p.add_argument("--census", required=True)
    p.add_argument("--k", type=_int_in_range(0), default=2)
    _add_json(p)


# (name, help, function, add-arguments function) of each command
COMMANDS = (
    ("construct", "build a named simplex", cmd_construct, _construct_args),
    ("count", "enumerate lattice points", cmd_count, _count_args),
    ("bound", "evaluate a volume bound", cmd_bound, _bound_args),
    ("certify", "equality-case certificate", cmd_certify, _certify_args),
    ("canon", "canonical form encoding", cmd_canon, _add_input),
    ("survey2d", "triangle census", cmd_survey2d, _survey2d_args),
    ("verify", "run a theorem verification", cmd_verify, _verify_args),
    ("ingest", "validate a census file", cmd_ingest, _ingest_args),
    ("report", "census statistics report", cmd_report, _report_args),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, when ``command`` names one, of that
    command only: it parses, and rejects, that command's arguments as the
    whole parser does, and a job builds no subparser it does not run."""
    parser = _Parser(
        prog="latticebound",
        description="Exact volume bounds for lattice simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = {name for name, *_ in COMMANDS}
    for name, summary, func, add_arguments in COMMANDS:
        if command not in names or name == command:
            p = sub.add_parser(name, help=summary)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        cap = getattr(args, "cap", None)
        if cap is not None and cap < 2 * (args.k + 1):
            raise UsageError(
                f"{parser.prog} {args.command}: argument --cap: must be at"
                f" least 2(k+1) = {2 * (args.k + 1)}, got {cap}"
            )
        return args.func(args)
    except SystemExit as exc:  # --help; argparse's errors raise UsageError
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (UsageError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # ParseError, DataIntegrityError, ...
        from .text import ParseError

        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ParseError) else EXIT_VERIFICATION


def run():
    """The process entry point: ``main()`` on ``sys.argv``, then the
    process ends at its last flush, with ``os._exit``, and skips the
    interpreter's teardown.  The library registers no ``atexit`` handler
    and ``fork_map`` reaps its workers before ``main`` returns, so the
    teardown has nothing left to do.  If a flush raises (a closed pipe),
    ``sys.exit`` leaves the failure to the interpreter's shutdown, which
    reports it as for any script, with exit code 120.  An exception that
    escapes ``main`` propagates."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
