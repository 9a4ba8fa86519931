import gc
import os
import re
import signal
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
from latticebound import (
    DataIntegrityError,
    LatticeSimplex,
    ParseError,
    format_simplex,
    ingest_census,
    outlook_report,
    parse_simplices,
    volume,
    zpw_simplex,
)
from latticebound import io as lb_io
from latticebound.cli import EXIT_USAGE, EXIT_VERIFICATION, main
from latticebound.geometry import VerificationError
from latticebound.io import _worker_count
from latticebound.text import format_census

F = Fraction


class TestParse:
    def test_single_record(self):
        recs = parse_simplices("2\n0 0\n2 0\n0 4\n")
        assert len(recs) == 1
        assert recs[0].dim == 2
        assert recs[0].to_simplex() == zpw_simplex(2, 1)

    def test_label_comment(self):
        recs = parse_simplices("2  # axis triangle\n0 0\n2 0\n0 4\n")
        assert recs[0].label == "axis triangle"

    def test_multiple_records(self):
        text = "2\n0 0\n2 0\n0 4\n\n1\n0\n2\n"
        recs = parse_simplices(text)
        assert [r.dim for r in recs] == [2, 1]

    def test_comments_and_blanks_skipped(self):
        text = "# census\n\n2\n0 0\n# inline note\n2 0\n0 4\n"
        assert len(parse_simplices(text)) == 1

    def test_empty_input(self):
        assert parse_simplices("") == []
        assert parse_simplices("# only a comment\n\n") == []

    def test_wrong_vertex_count(self):
        with pytest.raises(ParseError):
            parse_simplices("2\n0 0\n2 0\n")

    def test_wrong_coordinate_count(self):
        with pytest.raises(ParseError) as exc:
            parse_simplices("2\n0 0 0\n2 0\n0 4\n")
        assert exc.value.line == 2

    def test_non_integer(self):
        with pytest.raises(ParseError):
            parse_simplices("2\n0 0\n2 x\n0 4\n")

    def test_bad_dimension(self):
        with pytest.raises(ParseError):
            parse_simplices("0\n")
        with pytest.raises(ParseError):
            parse_simplices("two\n0 0\n1 0\n0 1\n")

    @pytest.mark.parametrize("text, line", [
        ("2\n0 0\n1 {big}\n0 1\n", 3),
        ("{big}\n0 0\n1 0\n0 1\n", 1),
    ], ids=["coordinate", "dimension"])
    def test_integer_past_the_digit_limit(self, text, line):
        # a well-formed integer longer than Python reads: said in one short
        # line, without echoing its digits, as the oracle says it
        text = text.format(big="9" * 5000)
        with pytest.raises(ParseError) as exc:
            parse_simplices(text)
        assert str(exc.value) == (
            f"line {line}: integer of more than the 4300 digits Python reads")
        assert (_outcome(parse_simplices, text)
                == _outcome(parse_oracle.parse_simplices, text))

    def test_degenerate_rejected(self):
        with pytest.raises(ParseError):
            parse_simplices("2\n0 0\n1 1\n2 2\n")


# Lines a census text may hold: comments, blanks, dimension lines with and
# without labels, and vertex lines of any length with small or bad entries.
_entry = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "1.5"]))
_coordinate = st.sampled_from(["-1", "0", "1", "2", "3"] * 10 + ["x"])
_comment = st.sampled_from(["", "", "#", "# note", "  # axis triangle"])
_filler = st.sampled_from(["", "   ", "# only a comment", "\t#"])
_line = st.one_of(
    _filler,
    st.tuples(st.sampled_from(["0", "1", "2", "3", "-1", "two"]), _comment)
    .map("".join),
    st.tuples(st.lists(_entry, max_size=4).map(" ".join), _comment)
    .map("".join),
)


@st.composite
def _record(draw):
    """A dimension line and d + 1 vertex lines, give or take one, with a
    comment-only or blank line among them now and then."""
    d = draw(st.integers(1, 3))
    n = d + 1 + draw(st.sampled_from([-1, 0, 0, 0, 1]))
    lines = [str(d) + draw(_comment)]
    for _ in range(n):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(_filler))
        v = draw(st.lists(_coordinate, min_size=d, max_size=d))
        lines.append(" ".join(v) + draw(_comment))
    return lines


_text = st.tuples(
    st.lists(st.one_of(_record(), _record(), _filler.map(lambda x: [x]),
                       _line.map(lambda x: [x])), max_size=6),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
).map(lambda t: t[1].join(sum(t[0], [])) + (t[1] if t[2] else ""))


def _outcome(parse, text):
    """The records as (dim, vertices, label), or the error's class,
    message and ``line``."""
    try:
        return [(r.dim, r.vertices, r.label) for r in parse(text)]
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=300, deadline=None)
@given(_text)
def test_parse_matches_the_index_walking_oracle(text):
    assert (_outcome(parse_simplices, text)
            == _outcome(parse_oracle.parse_simplices, text))


class TestFormat:
    def test_round_trip(self):
        for s in [zpw_simplex(2, 1), zpw_simplex(3, 2)]:
            recs = parse_simplices(format_simplex(s))
            assert recs[0].to_simplex() == s

    def test_label_round_trip(self):
        text = format_simplex(zpw_simplex(2, 1), label="axis")
        assert parse_simplices(text)[0].label == "axis"

    def test_census_header(self):
        text = format_census([zpw_simplex(2, 1)], 1, 8)
        assert text.startswith("# k=1 cap=8 count=1\n")
        assert len(parse_simplices(text)) == 1


class TestIngest:
    def test_bundled_census(self, sample_census_path):
        simplices = ingest_census(sample_census_path, 2)
        assert len(simplices) == 10
        assert all(s.dim == 3 for s in simplices)

    def test_wrong_interior_count(self, tmp_path):
        p = tmp_path / "census.txt"
        p.write_text(format_simplex(zpw_simplex(3, 1)))
        with pytest.raises(DataIntegrityError) as exc:
            ingest_census(str(p), 2)
        assert str(exc.value).endswith(
            "expected 2 interior lattice points, found 1")

    def test_too_many_interior_points(self, tmp_path):
        # conv(o, 8e1, 8e2, 8e3) has 35 interior points; only k+1 are
        # enumerated, so the message does not pretend to know the count
        p = tmp_path / "census.txt"
        p.write_text(format_simplex(LatticeSimplex(
            [(0, 0, 0), (8, 0, 0), (0, 8, 0), (0, 0, 8)])))
        with pytest.raises(DataIntegrityError) as exc:
            ingest_census(str(p), 3)
        assert str(exc.value).endswith(
            "expected 3 interior lattice points, found more than 3")

    def test_duplicate_class(self, tmp_path):
        s = zpw_simplex(3, 2)
        shifted = LatticeSimplex([(v[0] + 1, v[1], v[2]) for v in s.vertices])
        p = tmp_path / "census.txt"
        p.write_text(format_simplex(s) + "\n" + format_simplex(shifted))
        with pytest.raises(DataIntegrityError) as exc:
            ingest_census(str(p), 2)
        assert "duplicate" in str(exc.value)


class TestOutlookReport:
    def test_bundled_census_statistics(self, sample_census_path):
        report = outlook_report(ingest_census(sample_census_path, 2))
        assert report["schemaVersion"] == 2
        assert report["total"] == 10
        assert report["inSk1"] == 7
        assert report["nuExceeds"] == 4
        # the threshold is the constant vol(S_{3,2})
        assert report["threshold"] == "18" == str(volume(zpw_simplex(3, 2)))

    def test_detail_content(self, sample_census_path):
        report = outlook_report(ingest_census(sample_census_path, 2))
        by_volume = {}
        for d in report["details"]:
            by_volume.setdefault(d["volume"], []).append(d)
        # the axis simplex S_{3,2} is the unique volume-18 member
        (axis,) = by_volume["18"]
        assert axis["interiorCount"] == 2
        assert axis["nu"] == "18" and axis["nuHolds"]
        assert axis["inSk1"] and axis["facetBound"]["tight"]
        assert axis["vdc"]["holds"]

    def test_details_sorted_and_order_independent(self, sample_census_path):
        census = ingest_census(sample_census_path, 2)
        a = outlook_report(census)
        b = outlook_report(list(reversed(census)))
        assert a == b
        keys = [d["canonical"] for d in a["details"]]
        assert keys == sorted(keys)

    def test_thread_parity(self, sample_census_path, monkeypatch):
        census = ingest_census(sample_census_path, 2)
        serial = outlook_report(census)
        monkeypatch.setenv("LATTICEBOUND_THREADS", "2")
        assert outlook_report(census) == serial

    def test_pool_not_larger_than_census(self, sample_census_path,
                                         monkeypatch):
        # 64 workers asked for and 64 CPUs, but 3 records: the parent
        # works one share and forks a child for each of the other two
        census = ingest_census(sample_census_path, 2)[:3]
        assert forks_for(census, "64", lambda: 64, monkeypatch) == 2

    def test_each_fact_computed_once(self, sample_census_path, monkeypatch):
        # one canonical form per record, shared by ingest and report: the
        # column steps of each record's form computed once on a fresh copy;
        # interior points once per record, each facet's relint points
        # once, one box enumeration per record with a facet bound
        from latticebound import bounds, geometry, unimodular

        monkeypatch.delenv("LATTICEBOUND_THREADS", raising=False)
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        points = counting("integer_points", geometry.integer_points)
        monkeypatch.setattr(geometry, "integer_points", points)
        monkeypatch.setattr(bounds, "integer_points", points)
        monkeypatch.setattr(unimodular, "_hnf_column",
                            counting("column", unimodular._hnf_column))
        records = ingest_census(sample_census_path, 2)
        report = outlook_report(records)
        assert report["total"] == 10
        once = calls["column"]
        for s in records:
            unimodular.canonical_form(LatticeSimplex(s.vertices))
        assert 0 < once == calls["column"] - once
        assert calls["integer_points"] <= 64

    def test_vdc_reuses_the_proof_trace_box(self, sample_census_path,
                                            monkeypatch):
        # vdc_check reads the box points proof_trace enumerated on the same
        # lattice: one box enumeration fewer per record with a facet bound
        from latticebound import bounds, geometry

        monkeypatch.delenv("LATTICEBOUND_THREADS", raising=False)
        calls = []
        enumerate_points = geometry.integer_points

        def counting(*args, **kwargs):
            calls.append(1)
            return enumerate_points(*args, **kwargs)

        monkeypatch.setattr(geometry, "integer_points", counting)
        monkeypatch.setattr(bounds, "integer_points", counting)
        outlook_report(ingest_census(sample_census_path, 2))
        assert len(calls) <= 57

    def test_hollow_member(self):
        hollow = LatticeSimplex([(0, 0), (1, 0), (0, 1)])
        report = outlook_report([hollow])
        d = report["details"][0]
        assert d["interiorCount"] == 0
        assert "nu" not in d and not d["inSk1"]
        assert report["nuExceeds"] == 0


def assert_no_children():
    # waitpid(-1) raises ChildProcessError only when this process has no
    # child at all, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def four_cpus(monkeypatch):
    """Worker counts that do not depend on the machine's CPUs."""
    monkeypatch.setattr(lb_io, "_cpus", lambda: 4)


def patch_analyze(monkeypatch, in_parent=None, in_child=None):
    """Make ``analyze_simplex`` call ``in_parent()`` in this process, or
    ``in_child()`` in a forked child, before it analyzes."""
    parent = os.getpid()
    analyze = lb_io.analyze_simplex

    def patched(s, threshold=None):
        action = in_parent if os.getpid() == parent else in_child
        if action is not None:
            action()
        return analyze(s, threshold)

    monkeypatch.setattr(lb_io, "analyze_simplex", patched)


def fail():
    raise VerificationError("cross-check failed in a worker")


def forks_for(census, threads, cpus, monkeypatch):
    """How many children ``outlook_report(census)`` forks when
    ``LATTICEBOUND_THREADS`` is threads and ``cpus`` stands in for
    ``io._cpus``; checks the report against the serial one and that all
    are reaped."""
    monkeypatch.delenv("LATTICEBOUND_THREADS", raising=False)
    serial = outlook_report(census)
    forked = []
    fork = os.fork

    def counting_fork():
        forked.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(lb_io, "_cpus", cpus)
    monkeypatch.setenv("LATTICEBOUND_THREADS", threads)
    assert outlook_report(census) == serial
    assert_no_children()
    return len(forked)


class TestWorkers:
    @pytest.mark.parametrize(
        "threads, cpus, forks",
        [("5000", 2, 1), ("3", 4, 2), ("3", 1, 0), ("3", None, 0)],
        ids=["two-cpus", "three-of-four", "one-cpu", "cpu-count-unknown"],
    )
    def test_no_more_processes_than_cpus(self, sample_census_path,
                                         monkeypatch, threads, cpus, forks):
        census = ingest_census(sample_census_path, 2)
        assert forks_for(census, threads, lambda: cpus, monkeypatch) == forks

    def test_affinity_of_one_cpu_forks_nothing(self, sample_census_path,
                                               monkeypatch):
        # the machine has 4 CPUs, but this process may run on one of them
        census = ingest_census(sample_census_path, 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2},
                            raising=False)
        assert forks_for(census, "3", lb_io._cpus, monkeypatch) == 0

    def test_cpus_counts_the_affinity_where_there_is_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3},
                            raising=False)
        assert lb_io._cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert lb_io._cpus() == 8

    @pytest.mark.parametrize(
        "threads, n, cpus, expected",
        [("5000", 5000, 2, 2), ("5000", 3, 8, 3), ("3", 10, 8, 3),
         ("", 10, 8, 1), ("two", 10, 8, 1), ("0", 10, 8, 1),
         ("-2", 10, 8, 1), ("4", 10, None, 1), ("4", 0, 8, 1)],
    )
    def test_worker_count(self, monkeypatch, threads, n, cpus, expected):
        monkeypatch.setattr(lb_io, "_cpus", lambda: cpus)
        monkeypatch.setenv("LATTICEBOUND_THREADS", threads)
        assert _worker_count(n) == expected

    @pytest.mark.parametrize(
        "threads, records",
        [(None, 10), ("1", 10), ("2", 10), ("3", 10), ("5", 3)],
        ids=["unset", "1", "2", "3-uneven", "more-than-records"],
    )
    def test_output_independent_of_workers(self, sample_census_path,
                                           tmp_path, capsys, monkeypatch,
                                           four_cpus, threads, records):
        census = ingest_census(sample_census_path, 2)[:records]
        path = tmp_path / "census.txt"
        path.write_text(format_census(census, 2, None))
        argv = ["report", "outlook", "--census", str(path), "--k", "2",
                "--json"]
        monkeypatch.delenv("LATTICEBOUND_THREADS", raising=False)
        serial = outlook_report(census)
        assert main(argv) == 0
        expected = capsys.readouterr()
        if threads is not None:
            monkeypatch.setenv("LATTICEBOUND_THREADS", threads)
        assert outlook_report(census) == serial
        assert main(argv) == 0
        assert capsys.readouterr() == expected
        assert_no_children()

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_lowest_failing_item_raises(self, monkeypatch, four_cpus,
                                        threads):
        # items 1 and 2 fail; at 2 workers item 2 is in the parent's share
        def square(x):
            if x in (1, 2):
                raise ValueError(f"item {x}")
            return x * x

        monkeypatch.setenv("LATTICEBOUND_THREADS", threads)
        with pytest.raises(ValueError, match="^item 1$"):
            lb_io.fork_map(square, list(range(6)))
        assert_no_children()
        assert lb_io.fork_map(square, [0, 3, 4, 5]) == [0, 9, 16, 25]
        assert_no_children()

    def test_the_freeze_is_undone_on_return(self, sample_census_path,
                                            monkeypatch, four_cpus):
        # every object alive at the call is collectable again afterwards,
        # also after a failure, and a caller's own freeze is left alone
        def fail(x):
            raise ValueError("item")

        monkeypatch.setenv("LATTICEBOUND_THREADS", "2")
        census = lb_io.read_census(sample_census_path)
        assert gc.get_freeze_count() == 0
        outlook_report(census, 2)
        assert gc.get_freeze_count() == 0
        with pytest.raises(ValueError):
            lb_io.fork_map(fail, [1, 2])
        assert gc.get_freeze_count() == 0
        assert_no_children()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            outlook_report(census, 2)
            assert gc.get_freeze_count() >= frozen > 0
        finally:
            gc.unfreeze()
        assert_no_children()

    def test_serial_without_fork(self, sample_census_path, monkeypatch,
                                 four_cpus):
        census = ingest_census(sample_census_path, 2)
        serial = outlook_report(census)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setenv("LATTICEBOUND_THREADS", "2")
        assert outlook_report(census) == serial

    def test_child_error_reaches_the_cli(self, sample_census_path, capsys,
                                         monkeypatch, four_cpus):
        patch_analyze(monkeypatch, in_child=fail)
        monkeypatch.setenv("LATTICEBOUND_THREADS", "3")
        with pytest.raises(VerificationError,
                           match="^cross-check failed in a worker$"):
            outlook_report(ingest_census(sample_census_path, 2))
        assert_no_children()
        code = main(["report", "outlook", "--census", sample_census_path,
                     "--k", "2"])
        out, err = capsys.readouterr()
        assert code == EXIT_VERIFICATION
        assert (out, err) == ("", "error: cross-check failed in a worker\n")
        assert_no_children()

    def test_parent_error_kills_and_reaps_children(self, sample_census_path,
                                                   monkeypatch, four_cpus):
        # the children would work for a minute: the parent's failure must
        # not wait for them
        patch_analyze(monkeypatch, in_parent=fail,
                      in_child=lambda: time.sleep(60))
        census = ingest_census(sample_census_path, 2)
        monkeypatch.setenv("LATTICEBOUND_THREADS", "3")
        start = time.monotonic()
        with pytest.raises(VerificationError):
            outlook_report(census)
        assert time.monotonic() - start < 30
        assert_no_children()

    def test_killed_child_is_one_error_line(self, sample_census_path,
                                            capsys, monkeypatch, four_cpus):
        patch_analyze(monkeypatch,
                      in_child=lambda: os.kill(os.getpid(), signal.SIGKILL))
        monkeypatch.setenv("LATTICEBOUND_THREADS", "2")
        code = main(["report", "outlook", "--census", sample_census_path,
                     "--k", "2", "--json"])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: worker process ")
        assert err.endswith(" ended without a result\n")
        assert err.count("\n") == 1
        assert_no_children()


def census_file(tmp_path, simplices):
    """A census file of the unlabeled simplices: its records are named
    ``record 1``, ``record 2``, ..."""
    path = tmp_path / "census.txt"
    path.write_text("\n".join(format_simplex(s) for s in simplices))
    return str(path)


def moved(s):
    """A unimodular image of s: the same class, other vertices."""
    return LatticeSimplex([(v[0] + 1, *v[1:]) for v in s.vertices])


def set_threads(monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("LATTICEBOUND_THREADS", raising=False)
    else:
        monkeypatch.setenv("LATTICEBOUND_THREADS", threads)


@pytest.mark.parametrize("threads", [None, "2", "3"])
class TestOnePass:
    """``report outlook`` checks the census in the pass that analyzes it
    and raises what checking it first, as ``ingest`` does, raised: the
    first census fault in file order, before any analysis error."""

    def assert_fault(self, path, message, monkeypatch, capsys, threads):
        set_threads(monkeypatch, threads)
        with pytest.raises(DataIntegrityError, match=f"^{re.escape(message)}$"):
            outlook_report(lb_io.read_census(path), 2)
        assert_no_children()
        code = main(["report", "outlook", "--census", path, "--k", "2"])
        assert code == EXIT_VERIFICATION
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert_no_children()

    @pytest.mark.parametrize("failing", [1, 2])
    def test_duplicate_outranks_an_earlier_analysis_error(
            self, sample_census_path, tmp_path, capsys, monkeypatch,
            four_cpus, threads, failing):
        # record 1 is in this process's share, record 2 in a child's
        # (with 2 or 3 workers); either one's analysis fails
        a, b, c, d = ingest_census(sample_census_path, 2)[:4]
        census = [a, b, moved(a), c, d]
        analyze = lb_io.analyze_simplex

        def patched(s, threshold=None):
            if s.vertices == census[failing - 1].vertices:
                fail()
            return analyze(s, threshold)

        monkeypatch.setattr(lb_io, "analyze_simplex", patched)
        self.assert_fault(
            census_file(tmp_path, census),
            "record 3: duplicate of record 1 under unimodular equivalence",
            monkeypatch, capsys, threads)

    def test_count_fault_outranks_a_later_duplicate(
            self, sample_census_path, tmp_path, capsys, monkeypatch,
            four_cpus, threads):
        a, b = ingest_census(sample_census_path, 2)[:2]
        path = census_file(tmp_path, [a, zpw_simplex(3, 1), b, moved(a)])
        self.assert_fault(
            path, "record 2: expected 2 interior lattice points, found 1",
            monkeypatch, capsys, threads)

    @pytest.mark.parametrize("fault", ["too-few", "too-many", "duplicate"])
    def test_single_fault_reads_as_in_ingest(
            self, sample_census_path, tmp_path, capsys, monkeypatch,
            four_cpus, threads, fault):
        census = ingest_census(sample_census_path, 2)[:4]
        census.insert(2, {
            "too-few": zpw_simplex(3, 1),
            "too-many": zpw_simplex(3, 5),
            "duplicate": moved(census[1]),
        }[fault])
        path = census_file(tmp_path, census)
        assert main(["ingest", "--census", path, "--k", "2"]) == 1
        _, err = capsys.readouterr()
        assert err.startswith("error: record 3: ")
        self.assert_fault(path, err[len("error: "):-1], monkeypatch, capsys,
                          threads)


class TestOnePassMechanism:
    def test_one_fork_and_this_process_works_only_its_share(
            self, sample_census_path, monkeypatch, four_cpus):
        # the interior counts and canonical forms of ingest are computed in
        # the pass: this process computes those of its own share only
        from latticebound import unimodular

        records = lb_io.read_census(sample_census_path)
        seen = {}

        def recording(module, name):
            fn = getattr(module, name)
            seen[name] = set()

            def wrapper(s, *args, **kwargs):
                seen[name].add(s.vertices)
                return fn(s, *args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        recording(lb_io, "interior_points")
        recording(unimodular, "canonical_form")
        forked = []
        fork = os.fork

        def counting_fork():
            forked.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setenv("LATTICEBOUND_THREADS", "2")
        assert outlook_report(records, 2)["total"] == 10
        assert_no_children()
        assert len(forked) == 1
        share = {rec.vertices for rec in records[0::2]}
        assert seen == {"interior_points": share, "canonical_form": share}

    def test_ingest_forks_nothing(self, sample_census_path, capsys,
                                  monkeypatch, four_cpus):
        def no_fork():
            raise AssertionError("ingest forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setenv("LATTICEBOUND_THREADS", "3")
        assert len(ingest_census(sample_census_path, 2)) == 10
        assert main(["ingest", "--census", sample_census_path,
                     "--k", "2"]) == 0
        assert capsys.readouterr().out == (
            "ok: 10 simplices, each with 2 interior points\n")
