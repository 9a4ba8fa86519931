import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticebound
from latticebound import (LatticeSimplex, format_simplex, t_simplex,
                          zpw_simplex)
from latticebound import cli
from latticebound.cli import (EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION,
                              UsageError, _read_simplices, build_parser, main)
from test_package import COMMANDS as GOLDEN_COMMANDS

S21 = "2\n0 0\n2 0\n0 4\n"
S32 = "3\n0 0 0\n2 0 0\n0 3 0\n0 0 18\n"
UNIT = "2\n0 0\n1 0\n0 1\n"


def run(argv, stdin="", capsys=None, monkeypatch=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestConstruct:
    def test_zpw(self, capsys):
        code, out, _ = run(["construct", "zpw", "--dim", "3", "--k", "1"],
                           capsys=capsys)
        assert code == EXIT_OK
        assert "0 0 12" in out and "# volume = 12" in out

    def test_t(self, capsys):
        code, out, _ = run(["construct", "t", "--dim", "2"], capsys=capsys)
        assert code == EXIT_OK and "0 3" in out

    def test_exceptional(self, capsys):
        code, out, _ = run(["construct", "exceptional"], capsys=capsys)
        assert code == EXIT_OK and out.startswith("3\n0 0 0\n")
        assert out.endswith("# volume = 12\n")

    def test_lift(self, capsys, monkeypatch):
        code, out, _ = run(
            ["construct", "lift", "--k", "1"],
            stdin="1\n-1\n1\n", capsys=capsys, monkeypatch=monkeypatch,
        )
        assert code == EXIT_OK
        assert "0 2" in out and "# volume = 2" in out

    def test_lift_invalid_base(self, capsys, monkeypatch):
        code, _, err = run(
            ["construct", "lift", "--k", "1"],
            stdin="1\n1\n3\n", capsys=capsys, monkeypatch=monkeypatch,
        )
        assert code == EXIT_VERIFICATION and "error" in err

    def test_lift_base_with_more_interior_points(self, capsys, monkeypatch):
        code, out, err = run(
            ["construct", "lift", "--k", "1"],
            stdin="2\n-1 -1\n5 -1\n-1 5\n", capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == EXIT_VERIFICATION and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCount:
    def test_interior(self, capsys, monkeypatch):
        code, out, _ = run(["count", "interior"], stdin=S21,
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK and out.strip() == "1: 1,1"

    def test_relint_facet(self, capsys, monkeypatch):
        code, out, _ = run(["count", "relint", "--facet", "3"], stdin=S32,
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK and out.strip() == "1: 1,1,0"

    def test_empty_input(self, capsys, monkeypatch):
        code, _, err = run(["count", "interior"], stdin="",
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_USAGE and "error" in err

    def test_each_record_builds_its_simplex_once(self, tmp_path, monkeypatch):
        path = tmp_path / "three.txt"
        path.write_text("\n".join([S21, S32, UNIT]))
        calls = []
        init = LatticeSimplex.__init__

        def counting(self, vertices):
            calls.append(1)
            init(self, vertices)

        monkeypatch.setattr(LatticeSimplex, "__init__", counting)
        simplices = _read_simplices(str(path))
        assert [s.dim for s in simplices] == [2, 3, 2]
        assert len(calls) == 3


class TestBound:
    def test_facet_json(self, capsys, monkeypatch):
        code, out, _ = run(["bound", "facet", "--json", "--facet", "3"],
                           stdin=S32, capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schemaVersion"] == 2
        assert payload["bound"] == "18" and payload["tight"] is True
        assert payload["betas"] == ["1/6", "1/2", "1/3"]

    def test_facet_exact_rational(self, capsys, monkeypatch):
        code, out, _ = run(["bound", "facet", "--facet", "2"], stdin=S21,
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK and "bound: 4" in out

    def test_pikhurko(self, capsys, monkeypatch):
        code, out, _ = run(["bound", "pikhurko", "--json"],
                           stdin="2\n0 0\n3 0\n0 3\n",
                           capsys=capsys, monkeypatch=monkeypatch)
        payload = json.loads(out)
        assert code == EXIT_OK and payload["nu"] == "9/2"
        assert payload["perPoint"] == {"1,1": "9/2"}

    def test_tau(self, capsys, monkeypatch):
        code, out, _ = run(["bound", "tau"], stdin="2\n0 0\n2 0\n0 3\n",
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK and out.strip() == "tau: 1/36"

    def test_vdc(self, capsys, monkeypatch):
        code, out, _ = run(["bound", "vdc", "--json"], stdin=S32,
                           capsys=capsys, monkeypatch=monkeypatch)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["holds"] and payload["ySize"] == 5
        assert payload["hMinusCount"] == 2 and payload["hZeroCount"] == 1

    def test_inapplicable(self, capsys, monkeypatch):
        code, _, err = run(["bound", "facet"], stdin=UNIT,
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_VERIFICATION and "error" in err


class TestCertify:
    def test_tight_case(self, capsys, monkeypatch):
        code, out, _ = run(["certify", "equality", "--json", "--facet", "3"],
                           stdin=S32, capsys=capsys, monkeypatch=monkeypatch)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["lineDirection"] == [0, 0, 1]
        assert payload["collinearOk"] and payload["edgeOk"]

    def test_not_tight(self, capsys, monkeypatch):
        code, _, err = run(["certify", "equality", "--facet", "2"],
                           stdin="2\n-1 0\n1 0\n0 2\n",
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_VERIFICATION and "error" in err


class TestCanon:
    def test_equivalent_simplices_same_encoding(self, capsys, monkeypatch):
        shifted = "2\n1 1\n3 1\n1 5\n"
        _, out1, _ = run(["canon"], stdin=S21, capsys=capsys,
                         monkeypatch=monkeypatch)
        _, out2, _ = run(["canon"], stdin=shifted, capsys=capsys,
                         monkeypatch=monkeypatch)
        assert out1 == out2 and out1.strip()

    def test_t_simplex_9(self, capsys, monkeypatch):
        # T_9 has a class per vertex, so one ordering of 10! is walked
        code, out, _ = run(["canon"], stdin=format_simplex(t_simplex(9)),
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_OK and len(out.split()) == 81


class TestSurvey2d:
    def test_census_text(self, capsys):
        code, out, _ = run(["survey2d", "--k", "1"], capsys=capsys)
        assert code == EXIT_OK
        assert out.startswith("# k=1 cap=8 count=5\n")

    def test_census_json(self, capsys):
        code, out, _ = run(["survey2d", "--k", "1", "--filter", "--json"],
                           capsys=capsys)
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["count"] == 3 and payload["maxArea"] == "4"

    def test_bad_cap(self, capsys):
        code, _, err = run(["survey2d", "--k", "1", "--cap", "1"],
                           capsys=capsys)
        assert code == EXIT_USAGE and "error" in err


class TestVerify:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_main2d(self, capsys, k):
        code, out, _ = run(["verify", "main2d", "--k", str(k), "--json"],
                           capsys=capsys)
        assert code == EXIT_OK
        assert json.loads(out)["passed"] is True

    def test_out_of_scale(self, capsys):
        code, out, err = run(["verify", "main2d", "--k", "9"], capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--k" in err and "at most 3" in err


class TestIngestReport:
    def test_ingest_ok(self, capsys, sample_census_path):
        code, out, _ = run(
            ["ingest", "--census", sample_census_path, "--k", "2"],
            capsys=capsys,
        )
        assert code == EXIT_OK and out.startswith("ok: 10 simplices")

    @pytest.mark.parametrize("k, flags, count", [
        (0, [], 9), (0, ["--filter"], 2), (1, [], 5), (1, ["--filter"], 3),
        (2, [], 5), (2, ["--filter"], 3),
    ])
    def test_ingest_reads_a_survey2d_census(self, capsys, tmp_path, k,
                                            flags, count):
        code, out, _ = run(["survey2d", "--k", str(k), *flags],
                           capsys=capsys)
        assert code == EXIT_OK
        assert out.startswith(f"# k={k} cap={4 * (k + 1)} count={count}\n")
        path = tmp_path / "census.txt"
        path.write_text(out)
        code, out, _ = run(["ingest", "--census", str(path), "--k", str(k)],
                           capsys=capsys)
        assert code == EXIT_OK
        assert out == f"ok: {count} simplices, each with {k} interior points\n"

    def test_ingest_wrong_k(self, capsys, sample_census_path):
        code, _, err = run(
            ["ingest", "--census", sample_census_path, "--k", "1"],
            capsys=capsys,
        )
        assert code == EXIT_VERIFICATION and "error" in err

    def test_ingest_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            ["ingest", "--census", str(tmp_path / "nope.txt"), "--k", "2"],
            capsys=capsys,
        )
        assert code == EXIT_USAGE and "error" in err

    def test_report_text(self, capsys, sample_census_path):
        code, out, _ = run(
            ["report", "outlook", "--census", sample_census_path, "--k", "2"],
            capsys=capsys,
        )
        assert code == EXIT_OK
        assert "total: 10" in out
        assert "inSk1: 7" in out
        assert "nuExceeds: 4 (threshold 18)" in out

    def test_report_json(self, capsys, sample_census_path):
        code, out, _ = run(
            ["report", "outlook", "--census", sample_census_path,
             "--k", "2", "--json"],
            capsys=capsys,
        )
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["schemaVersion"] == 2
        assert payload["total"] == 10
        assert len(payload["details"]) == 10


OUT_OF_RANGE = [
    ["survey2d", "--k", "-1"],
    ["survey2d", "--k", "1", "--cap", "3"],
    ["verify", "main2d", "--k", "-1"],
    ["verify", "main2d", "--k", "1", "--cap", "3"],
    ["ingest", "--census", "CENSUS", "--k", "-1"],
    ["report", "outlook", "--census", "CENSUS", "--k", "-1"],
    ["survey2d", "--k", "x"],
]
FACET_ARGVS = [
    ["count", "relint"],
    ["bound", "facet"],
    ["bound", "vdc"],
    ["certify", "equality"],
]
NOT_UTF8 = [
    ["count", "interior", "--input", "FILE"],
    ["ingest", "--census", "FILE", "--k", "2"],
    ["report", "outlook", "--census", "FILE"],
]
MALFORMED = [
    ["ingest", "--census", "FILE", "--k", "2"],
    ["report", "outlook", "--census", "FILE"],
]
USAGE = ([["frobnicate"], ["survey2d"], ["--help"], ["count", "interior"],
          ["construct", "zpw", "--dim", "0"], ["bound", "facet", "--facet", "2"]]
         + OUT_OF_RANGE + [argv + ["--facet", facet] for argv in FACET_ARGVS
                           for facet in ("-1", "4")]
         + NOT_UTF8 + MALFORMED)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"], capsys=capsys)[0] == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert run(["survey2d"], capsys=capsys)[0] == EXIT_USAGE

    def test_help_exits_ok(self, capsys):
        assert run(["--help"], capsys=capsys)[0] == EXIT_OK

    def test_parse_error_is_usage(self, capsys, monkeypatch):
        code, _, err = run(["count", "interior"], stdin="2\n0 0\n2 0\n",
                           capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_USAGE and "error" in err

    def test_out_of_range_dimension_is_usage(self, capsys):
        code, out, err = run(["construct", "zpw", "--dim", "0"], capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--dim" in err and "Traceback" not in err

    @pytest.mark.parametrize("dim", ["15", "40"])
    @pytest.mark.parametrize("what", ["zpw", "t"])
    def test_dimension_above_14_is_usage(self, capsys, monkeypatch, what,
                                         dim):
        from latticebound import constructions

        def built(*args):
            raise AssertionError("a simplex was built")

        monkeypatch.setattr(constructions, "zpw_simplex", built)
        monkeypatch.setattr(constructions, "t_simplex", built)
        code, out, err = run(["construct", what, "--dim", dim, "--k", "1"],
                             capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--dim" in err and "at most 14" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("what", ["zpw", "t"])
    def test_dimension_14_prints(self, capsys, what):
        code, out, err = run(["construct", what, "--dim", "14", "--k", "1"],
                             capsys=capsys)
        assert code == EXIT_OK and err == ""
        assert out.startswith("14\n") and "# volume = " in out

    def test_k_past_the_printed_digits_is_usage(self, capsys):
        # at d = 14 the volume (k+1)(s_14 - 1)^2/14! of zpw passes the
        # 4300 digits Python prints; nothing is printed before the error
        k = str(10 ** 1000)
        code, out, err = run(["construct", "zpw", "--dim", "14", "--k", k],
                             capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--k" in err and "4300 digits" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["survey2d", "--k", "9" * 5000],
        ["construct", "zpw", "--dim", "3", "--k", "9" * 5000],
    ])
    def test_k_past_the_digit_limit_is_usage(self, capsys, argv):
        # a well-formed --k longer than Python reads is not echoed
        code, out, err = run(argv, capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: latticebound {argv[0]}: argument --k: integer"
                       f" of more than the 4300 digits Python reads\n")

    def test_coordinate_past_the_digit_limit_is_usage(self, capsys,
                                                       monkeypatch):
        code, out, err = run(["count", "interior"],
                             stdin=f"2\n0 0\n1 0\n0 {'9' * 5000}\n",
                             capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: line 4: integer of more than the 4300 digits"
                       " Python reads\n")

    @pytest.mark.parametrize("argv, message", [
        (["survey2d", "--k", "100000"], "at most 2048"),
        (["survey2d", "--k", "1", "--cap", "1000000000"], "at most 2048"),
        (["verify", "main2d", "--k", "1", "--cap", "1000000000"],
         "at most 2048"),
        # 2(k+1) has more digits than Python prints: it is not printed
        (["survey2d", "--k", "9" * 4300, "--cap", "5"],
         "at least 2(k+1), got 5"),
    ])
    def test_census_cap_out_of_range_is_usage(self, capsys, monkeypatch,
                                              argv, message):
        # the cap the census would use, given or 4(k+1), is checked
        # before any census table is built
        from latticebound import survey

        def built(*args):
            raise AssertionError("a census was built")

        monkeypatch.setattr(survey, "_pick_triples", built)
        code, out, err = run(argv, capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert argv[-2] in err and message in err

    def test_huge_k_at_dimension_3_prints(self, capsys):
        k = 10 ** 1000
        code, out, err = run(["construct", "zpw", "--dim", "3", "--k", str(k)],
                             capsys=capsys)
        assert code == EXIT_OK and err == ""
        assert out.startswith("3\n")
        assert f"# volume = {6 * (k + 1)}\n" in out

    @pytest.mark.parametrize("argv", OUT_OF_RANGE)
    def test_out_of_range_is_usage(self, capsys, argv, sample_census_path):
        argv = [sample_census_path if a == "CENSUS" else a for a in argv]
        code, out, err = run(argv, capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert argv[-2] in err and "Traceback" not in err

    @pytest.mark.parametrize("facet", ["-1", "4"])
    @pytest.mark.parametrize("argv", FACET_ARGVS)
    def test_facet_out_of_range_is_usage(self, capsys, monkeypatch, argv,
                                         facet):
        code, out, err = run(argv + ["--facet", facet], stdin=S32,
                             capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--facet" in err and "0..3" in err

    def test_facet_without_one_relint_point_fails(self, capsys, monkeypatch):
        code, out, err = run(["bound", "facet", "--facet", "2"], stdin=UNIT,
                             capsys=capsys, monkeypatch=monkeypatch)
        assert code == EXIT_VERIFICATION and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unreadable_input_is_usage(self, capsys, tmp_path):
        code, out, err = run(["count", "interior", "--input", str(tmp_path)],
                             capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", NOT_UTF8)
    def test_input_that_is_not_utf8_is_usage(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run([str(path) if a == "FILE" else a for a in argv],
                             capsys=capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "decode" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", MALFORMED)
    def test_malformed_census_is_usage(self, capsys, tmp_path, argv):
        # the ParseError is raised inside text, which the CLI loads lazily:
        # in-process and in a fresh interpreter alike it exits 2
        path = tmp_path / "bad.txt"
        path.write_text(S32 + "\n3\n0 0 0\n1 0 0\n")
        argv = [str(path) if a == "FILE" else a for a in argv]
        expected = "error: line 7: expected 4 vertices for dimension 3, got 2\n"
        assert run(argv, capsys=capsys) == (EXIT_USAGE, "", expected)
        proc = python_m_latticebound(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_USAGE, "", expected)


def parsed(parser, argv, capsys):
    """What ``parse_args`` makes of argv: the namespace, the usage error,
    or the exit code with what was printed (``--help``)."""
    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


@pytest.mark.parametrize("argv", USAGE + [
    argv for argv, _ in GOLDEN_COMMANDS.values()] + [
    [name, "--help"] for name, *_ in cli.COMMANDS])
def test_one_subparser_parses_as_every_subparser(argv, capsys, monkeypatch):
    """The parser a job builds, with only the subparser its first argument
    names, gives the namespace, the error text and the help of the parser
    of every command."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["CENSUS" if a is None else a for a in argv]
    every = parsed(build_parser(), argv, capsys)
    assert parsed(build_parser(argv[0]), argv, capsys) == every


def test_a_job_builds_only_its_subparser(capsys, monkeypatch):
    built = []

    def spy(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(["canon"], stdin=S32, capsys=capsys,
               monkeypatch=monkeypatch)[0] == EXIT_OK
    assert run(["frobnicate"], capsys=capsys)[0] == EXIT_USAGE
    assert built == ["canon", "frobnicate"]
    with pytest.raises(UsageError, match="invalid choice: 'count'"):
        build_parser("canon").parse_args(["count", "interior"])


def src_env():
    """os.environ with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(latticebound.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def python_m_latticebound(argv):
    """``python -m latticebound argv`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "latticebound", *argv],
                          capture_output=True, text=True, env=src_env())


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["construct", "t", "--dim", "2"]
    proc = python_m_latticebound(argv)
    code, out, _ = run(argv, capsys=capsys)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == out and proc.stderr == ""


@pytest.mark.parametrize("module", ["latticebound.cli", "latticebound"])
@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe(module, unbuffered):
    """With the read end of its stdout pipe closed, a job fails without a
    traceback.  Unbuffered, the first write raises inside main: exit 2
    and one error line.  Buffered, the last flush raises, and the
    interpreter's shutdown reports it: exit 120."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", module, "construct", "zpw", "--dim", "3",
             "--k", "2"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    if unbuffered:
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"
    else:
        assert proc.returncode == 120
        assert proc.stderr.startswith(
            "Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
        assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")
    assert "Traceback" not in proc.stderr


def test_console_script_installed():
    import shutil
    import subprocess

    exe = shutil.which("latticebound")
    assert exe is not None
    proc = subprocess.run(
        [exe, "construct", "t", "--dim", "2"],
        capture_output=True, text=True,
        input=format_simplex(zpw_simplex(2, 1)),
    )
    assert proc.returncode == 0 and "0 3" in proc.stdout
