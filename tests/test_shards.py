"""A large flight table split across forked processes: row spans, exact merge,
the same bytes and messages as one process, and no process or file left."""

import contextlib
import csv
import errno
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeroemit import cli, ingest, pipeline
from aeroemit.config import ConfigError
from conftest import build_corpus, in_shards, write_config

ROW = b"2021-09-01,DL,2441,N815DN,PHL,ATL,124,7.43,15.42,666"
HEADER = (b"flight_date,carrier,flight_number,tail_number,origin,dest,air_time_min,"
          b"taxi_in_min,taxi_out_min,distance_mi")
# Rows a span may start with: accepted, refused, a byte-order mark, bytes
# that are not UTF-8, a blank line and a short row.
ROWS = [ROW, ROW.replace(b"124", b"nan"), b"\xef\xbb\xbf" + ROW, ROW.replace(b"DL", b"D\xff"),
        b"", ROW[:20], b"\xef\xbb\xbf"]
ENDINGS = [b"\n", b"\r\n", b"\r"]


def read_in_spans(path, spans):
    """The records of every span, in order, and their merged report."""
    records, report = [], ingest.IngestReport(ingest.ONTIME_TABLE.table)
    for span in spans:
        with ingest.stream_table(ingest.ONTIME_TABLE, path, span) as (accepted, part):
            records += accepted
        report.merge(part)
    return records, report


class TestRowSpans:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ROWS), st.sampled_from(ENDINGS)), max_size=30),
           st.sampled_from(ENDINGS), st.sampled_from([b"", ROW]), st.integers(1, 5),
           st.sampled_from([1, 3, 64]))
    def test_spans_read_as_the_whole_table(self, tmp_path_factory, rows, header_end, unended,
                                           parts, scan):
        """Whatever the line ends, read span by span the table gives the
        records and the rejections, with their file lines, of one read."""
        path = tmp_path_factory.mktemp("spans") / "ontime.csv"
        body = b"".join(row + end for row, end in rows) + unended
        path.write_bytes(b"\xef\xbb\xbf" + HEADER + header_end + body)
        with mock.patch.object(ingest, "_SCAN_BYTES", scan):
            spans = ingest.row_spans(path, parts)
        assert spans[0][:2] == (0, 0) and spans[-1][2] is None and 1 <= len(spans) <= parts
        for (start, first, lines), (after, next_first, _) in zip(spans, spans[1:]):
            assert start < after and first + lines == next_first
            assert path.read_bytes()[after - 1:after] == b"\n"
        assert read_in_spans(path, spans) == ingest.read_table(ingest.ONTIME_TABLE, path)

    def test_cut_after_the_first_lf_from_each_quarter(self, tmp_path):
        """A 109-byte header line and 99 rows of 54 bytes, 5455 bytes: the
        quarters fall at 1363, 2727 and 4091, in rows 24, 49 and 74, which end
        at 1405, 2755 and 4105."""
        path = tmp_path / "ontime.csv"
        path.write_bytes(HEADER + b"\r\n" + (ROW + b"\r\n") * 99)
        assert ingest.row_spans(path, 4) == [
            (0, 0, 25), (1405, 25, 25), (2755, 50, 25), (4105, 75, None)]

    def test_quote_anywhere_gives_no_spans(self, tmp_path):
        path = tmp_path / "ontime.csv"
        path.write_bytes(HEADER + b"\n" + (ROW + b"\n") * 99 + b'"' + ROW + b"\n")
        assert ingest.row_spans(path, 2) is None


def dirty_corpus(tmp_path, ending=b"\n", every=23):
    """A 300-flight corpus whose flight table rejects every `every`th row from
    the sixth, 13 in all by default, with `ending` ending each line."""
    paths = build_corpus(tmp_path, n_flights=300, missing_tails=4, unknown_tails=3)
    header, *rows = paths["ontime"].read_bytes().splitlines()
    for i in range(5, len(rows), every):
        rows[i] += b",1"
    paths["ontime"].write_bytes(b"".join(line + ending for line in [header, *rows]))
    return paths


def shard_starts(paths, shards):
    """The byte each span but the first starts at."""
    spans = ingest.row_spans(paths["ontime"], shards)
    assert len(spans) == shards
    return [start for start, _, _ in spans[1:]]


class TestValidateInShards:
    @pytest.mark.parametrize("ending", ENDINGS, ids=["lf", "crlf", "cr"])
    def test_same_output_for_one_two_and_three(self, tmp_path, monkeypatch, capsys, ending):
        paths = dirty_corpus(tmp_path, ending)
        split = ending != b"\r"  # a table with no LF is one line for `row_spans`
        if split:
            # Rows that start a span: two begin with a byte-order mark, and
            # one holds a byte that is not UTF-8. No byte moves.
            data = bytearray(paths["ontime"].read_bytes())
            half, = shard_starts(paths, 2)
            third, two_thirds = shard_starts(paths, 3)
            data[half:half + 3] = data[two_thirds:two_thirds + 3] = b"\xef\xbb\xbf"
            data[third + 15] = 0xFF
            paths["ontime"].write_bytes(bytes(data))
        config = str(write_config(tmp_path, paths, tmp_path / "out"))
        printed = {}
        for shards in (1, 2, 3):
            forked = in_shards(monkeypatch, shards)
            assert cli.main(["validate", "--config", config]) == 0
            assert len(forked) == (shards - 1 if split else 0)
            printed[shards] = capsys.readouterr().out
        assert printed[1] == printed[2] == printed[3]
        if split:
            assert "ontime: 284 accepted, 16 rejected" in printed[1]
            assert printed[1].count("flight_date must be YYYY-MM-DD, got '\\ufeff1-") == 2
            assert printed[1].count("field holds bytes that are not UTF-8") == 1
        else:
            assert "ontime: 287 accepted, 13 rejected" in printed[1]

    def test_more_rejections_than_a_report_keeps(self, tmp_path, monkeypatch, capsys):
        """43 rejected rows, on lines 7, 14, ..., 301, some in every span of two
        and of three: the counts are exact, and the 20 printed are the first."""
        paths = dirty_corpus(tmp_path, every=7)
        for shards in (2, 3):
            for _, lines_before, lines in ingest.row_spans(paths["ontime"], shards)[:-1]:
                assert 7 < lines_before + lines < 301
        config = str(write_config(tmp_path, paths, tmp_path / "out"))
        printed = {}
        for shards in (1, 2, 3):
            forked = in_shards(monkeypatch, shards)
            assert cli.main(["validate", "--config", config]) == 0
            assert len(forked) == shards - 1
            printed[shards] = capsys.readouterr().out
        assert printed[1] == printed[2] == printed[3]
        assert ("ontime: 257 accepted, 43 rejected\n"
                + "".join(f"  line {7 * k}: expected 10 fields, got 11\n" for k in range(1, 21))
                + "b43: ") in printed[1]

    def test_line_ends_give_one_output(self, tmp_path, monkeypatch, capsys):
        printed = set()
        for ending in ENDINGS:
            (tmp_path / repr(ending)).mkdir()
            paths = dirty_corpus(tmp_path / repr(ending), ending)
            in_shards(monkeypatch, 3)
            config = str(write_config(tmp_path / repr(ending), paths, tmp_path / "out"))
            assert cli.main(["validate", "--config", config]) == 0
            printed.add(capsys.readouterr().out)
        assert len(printed) == 1

    def test_table_holding_a_quote_never_forks(self, tmp_path, monkeypatch, capsys):
        paths = dirty_corpus(tmp_path)
        header, first, *rows = paths["ontime"].read_bytes().splitlines(keepends=True)
        quoted = first.split(b",")
        quoted[1] = b'"D\nL"'
        paths["ontime"].write_bytes(header + b",".join(quoted) + b"".join(rows))
        config = str(write_config(tmp_path, paths, tmp_path / "out"))
        in_shards(monkeypatch, 3)

        def no_fork():
            raise AssertionError("a table holding a quote was split")
        monkeypatch.setattr(os, "fork", no_fork)
        for command in ("validate", "run"):
            assert cli.main([command, "--config", config]) == 0
        # The first row holds a line break, so the sixth starts on line 8.
        assert "line 8: expected 10 fields, got 11" in capsys.readouterr().out


class TestQuotedFlightTable:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_same_bytes_as_unquoted(self, tmp_path, monkeypatch, capsys, shards):
        """BTS quotes every field. The flight table with every field quoted
        (`csv.QUOTE_ALL`, LF line ends) gives the seven outputs and the
        `validate` output of the same table unquoted."""
        paths = dirty_corpus(tmp_path)
        quoted = tmp_path / "ontime_quoted.csv"
        with open(paths["ontime"], newline="", encoding="utf-8") as plain, \
                open(quoted, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
                csv.reader(plain))
        printed, written, forks = [], [], []
        for table in (paths["ontime"], quoted):
            config = str(write_config(tmp_path, {**paths, "ontime": table}, tmp_path / "out"))
            forks.append(in_shards(monkeypatch, shards))
            assert cli.main(["validate", "--config", config]) == 0
            assert cli.main(["run", "--config", config]) == 0
            printed.append(capsys.readouterr().out)
            written.append(outputs(tmp_path / "out"))
        assert len(forks[0]) == 2 * (shards - 1)
        assert "ontime: 287 accepted, 13 rejected" in printed[0]
        assert printed[0] == printed[1]
        assert written[0] == written[1]


class TestProcessCount:
    def test_capped_by_cpus(self, tmp_path, monkeypatch):
        paths = dirty_corpus(tmp_path)
        monkeypatch.setattr(pipeline, "SHARD_BYTES", 256)
        for cpus, count in ((1, 1), (2, 2), (64, 64)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            assert len(pipeline._shard_spans(paths["ontime"])) == count

    def test_capped_by_table_size(self, tmp_path, monkeypatch):
        paths = dirty_corpus(tmp_path)
        size = paths["ontime"].stat().st_size
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        for shard_bytes, count in ((size, 1), (size // 2, 2), (size // 5, 5),
                                   (size + 1, 1)):
            monkeypatch.setattr(pipeline, "SHARD_BYTES", shard_bytes)
            assert len(pipeline._shard_spans(paths["ontime"])) == count

    def test_one_process_without_fork(self, tmp_path, monkeypatch):
        paths = dirty_corpus(tmp_path)
        monkeypatch.setattr(pipeline, "SHARD_BYTES", 256)
        monkeypatch.delattr(os, "fork")
        assert pipeline._shard_spans(paths["ontime"]) == [None]

    def test_default_size_keeps_small_tables_in_one_process(self, tmp_path):
        paths = build_corpus(tmp_path, n_flights=1000)
        assert paths["ontime"].stat().st_size < 2 * pipeline.SHARD_BYTES
        assert pipeline._shard_spans(paths["ontime"]) == [None]


def outputs(outdir):
    return {name: (outdir / name).read_bytes() for name in pipeline.OUTPUT_FILES}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFailingShard:
    @pytest.fixture
    def second_run(self, tmp_path):
        """A finished run's output directory, the config of a second run into
        it, which would change every file (fewer flights and the baseline
        column), and the flight numbers of that run's first and last rows."""
        paths = build_corpus(tmp_path, n_flights=300)
        outdir = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, paths, outdir))]) == 0
        header, *rows = paths["ontime"].read_text(encoding="utf-8").splitlines(keepends=True)
        later = tmp_path / "ontime_later.csv"
        later.write_text(header + "".join(rows[30:]), encoding="utf-8")
        config = write_config(tmp_path, {**paths, "ontime": later}, outdir,
                              extra={"unep_short": "0.2", "unep_long": "0.1",
                                     "unep_cutoff_mi": "700"})
        return outdir, str(config), rows[30].split(",")[2], rows[-1].split(",")[2]

    def failing_at(self, monkeypatch, flight_number, error, method="compute"):
        real = getattr(pipeline.TailPlans, method)

        def failing(self, flight):
            if flight.flight_number == flight_number:
                raise error(f"stopped at flight {flight_number}")
            return real(self, flight)
        monkeypatch.setattr(pipeline.TailPlans, method, failing)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_error_in_last_shard_as_in_one_process(self, second_run, monkeypatch, capsys,
                                                   shards):
        outdir, config, _, last = second_run
        before = outputs(outdir)
        capsys.readouterr()
        self.failing_at(monkeypatch, last, ConfigError)
        forked = in_shards(monkeypatch, shards)
        assert cli.main(["run", "--config", config]) == 2
        assert len(forked) == shards - 1
        assert capsys.readouterr().err.endswith(f"error: stopped at flight {last}\n")
        assert outputs(outdir) == before
        assert sorted(p.name for p in outdir.iterdir()) == sorted(pipeline.OUTPUT_FILES)
        assert_no_child_left()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_validate_error_in_last_shard_as_in_one_process(self, second_run, monkeypatch,
                                                            capsys, shards):
        """`resolve`, which `validate` calls per flight, fails on the last row."""
        _, config, _, last = second_run
        capsys.readouterr()
        self.failing_at(monkeypatch, last, ConfigError, "resolve")
        forked = in_shards(monkeypatch, shards)
        assert cli.main(["validate", "--config", config]) == 2
        assert len(forked) == shards - 1
        assert capsys.readouterr() == ("", f"error: stopped at flight {last}\n")
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["last-shard", "this-process"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_interrupt_leaves_no_process_and_no_file(self, second_run, monkeypatch, where,
                                                     shards):
        outdir, config, first, last = second_run
        before = outputs(outdir)
        self.failing_at(monkeypatch, last if where == "last-shard" else first,
                        KeyboardInterrupt)
        forked = in_shards(monkeypatch, shards)
        with pytest.raises(KeyboardInterrupt, match="stopped at flight"):
            cli.main(["run", "--config", config])
        assert len(forked) == shards - 1
        assert outputs(outdir) == before
        assert sorted(p.name for p in outdir.iterdir()) == sorted(pipeline.OUTPUT_FILES)
        assert_no_child_left()

    @pytest.mark.parametrize("where", ["last-shard", "this-process"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_sigterm_stops_a_run_as_an_interrupt(self, second_run, monkeypatch, where, shards):
        """SIGTERM exits 143 with the previous outputs kept and no process
        left; the caller's own handler is back once `main` returns."""
        outdir, config, first, last = second_run
        before = outputs(outdir)

        def terminated(message):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(60)  # the handler raises here at the latest
            return AssertionError(f"SIGTERM did not stop the run ({message})")

        def callers(signum, frame):
            raise AssertionError("SIGTERM reached the caller's handler")

        self.failing_at(monkeypatch, last if where == "last-shard" else first, terminated)
        forked = in_shards(monkeypatch, shards)
        previous = signal.signal(signal.SIGTERM, callers)
        try:
            with pytest.raises(SystemExit) as stopped:
                cli.main(["run", "--config", config])
            assert signal.getsignal(signal.SIGTERM) is callers
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert stopped.value.code == 143
        assert len(forked) == shards - 1
        assert outputs(outdir) == before
        assert sorted(p.name for p in outdir.iterdir()) == sorted(pipeline.OUTPUT_FILES)
        assert_no_child_left()

    def test_child_traceback_kept(self, second_run, monkeypatch):
        """An unexpected error in a shard process is raised here from one
        holding the child's traceback, which names the failing function."""
        _, config, _, last = second_run
        self.failing_at(monkeypatch, last, ZeroDivisionError)
        in_shards(monkeypatch, 3)
        with pytest.raises(ZeroDivisionError, match=f"stopped at flight {last}") as raised:
            cli.main(["run", "--config", config])
        cause = str(raised.value.__cause__)
        assert "Traceback (most recent call last)" in cause and ", in failing\n" in cause
        assert_no_child_left()

    @pytest.mark.parametrize("where, shards", [
        ("this-process", 1), ("this-process", 3), ("last-shard", 1), ("last-shard", 3),
        ("commit", 1), ("commit", 3), ("new-fragment", 3), ("append", 3)])
    def test_full_disk_exits_2_and_keeps_outputs(self, second_run, monkeypatch, capsys,
                                                 where, shards):
        """From a chosen flight on, the staged streams, here or in the last
        shard, write to /dev/full, which refuses every write with ENOSPC; or
        `commit` cannot write a roll-up table, a fragment file cannot be made
        or a fragment cannot be appended. The run exits 2 with one error line,
        the previous outputs kept and no file or process left."""
        outdir, config, first, last = second_run
        before = outputs(outdir)
        capsys.readouterr()

        def refused(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        if where == "commit":
            monkeypatch.setattr(ingest, "write_table", refused)
        elif where == "new-fragment":
            real = tempfile.TemporaryFile
            monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, dir=None, **kwargs:
                                refused() if dir else real(*args, **kwargs))
        elif where == "append":
            monkeypatch.setattr(shutil, "copyfileobj", refused)
        else:
            at = first if where == "this-process" else last
            add = pipeline.OutputWriter.add

            def filling(self, flight, plan, row):
                if flight.flight_number == at:
                    full = os.open("/dev/full", os.O_WRONLY)
                    for stream in self.streams:
                        os.dup2(full, stream.fileno())
                    os.close(full)
                add(self, flight, plan, row)
            monkeypatch.setattr(pipeline.OutputWriter, "add", filling)
        forked = in_shards(monkeypatch, shards)
        assert cli.main(["run", "--config", config]) == 2
        assert len(forked) == (0 if where == "new-fragment" else shards - 1)
        assert capsys.readouterr() == (
            "", f"error: output_dir: {outdir}: {os.strerror(errno.ENOSPC)}\n")
        assert outputs(outdir) == before
        assert sorted(p.name for p in outdir.iterdir()) == sorted(pipeline.OUTPUT_FILES)
        assert_no_child_left()

    def test_child_that_sends_nothing(self, second_run, monkeypatch):
        """A child that dies before it sends a result fails the run."""
        outdir, config, _, last = second_run
        before = outputs(outdir)
        real = pipeline.TailPlans.compute

        def compute(self, flight):
            if flight.flight_number == last:
                os._exit(1)
            return real(self, flight)
        monkeypatch.setattr(pipeline.TailPlans, "compute", compute)
        in_shards(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"ended without a result \(exit code 1\)"):
            cli.main(["run", "--config", config])
        assert outputs(outdir) == before
        assert_no_child_left()


# `validate` with every flight taking at least 100 µs, so a shard child's span
# of thousands of flights takes seconds.
SLOW_VALIDATE = """
import sys, time
from aeroemit import cli, pipeline
resolve = pipeline.TailPlans.resolve
def slow(self, flight):
    end = time.perf_counter() + 1e-4
    while time.perf_counter() < end:
        pass
    return resolve(self, flight)
pipeline.TailPlans.resolve = slow
sys.exit(cli.main(sys.argv[1:]))
"""


def proc_stat(pid):
    """The fields of /proc/<pid>/stat after the command name, or None once
    the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()
    except OSError:
        return None


def children_of(pid):
    return [int(entry) for entry in os.listdir("/proc")
            if entry.isdigit() and (stat := proc_stat(entry)) and int(stat[1]) == pid]


def running(pid):
    """Whether `pid` runs: it exists and is not a zombie, which has exited
    and waits only to be reaped."""
    stat = proc_stat(pid)
    return stat is not None and stat[0] != b"Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self") or not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs /proc and two CPUs")
def test_children_end_with_a_killed_parent(tmp_path):
    """A split `validate` killed by SIGKILL cannot kill its shard children;
    each leaves on its own within a second."""
    paths = build_corpus(tmp_path, n_flights=60000)
    config = write_config(tmp_path, paths, tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    children = []
    with subprocess.Popen([sys.executable, "-c", SLOW_VALIDATE, "validate", "--config",
                           str(config)], stdout=subprocess.DEVNULL, env=env) as proc:
        try:
            deadline = time.monotonic() + 60
            while not children and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
                children = children_of(proc.pid)
            proc.kill()
            proc.wait()
            assert children, "the run made no shard process"
            deadline = time.monotonic() + 1
            while time.monotonic() < deadline and any(map(running, children)):
                time.sleep(0.01)
            left = list(filter(running, children))
            assert not left, f"shard processes {left} outlived their parent by a second"
        finally:
            for pid in filter(running, children):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


# `validate` split at every 256 bytes, counting the forks; it prints its exit
# code, the forks and whether `traceback` was imported.
COUNTED_VALIDATE = """
import os, sys
from aeroemit import cli, pipeline
pipeline.SHARD_BYTES = 256
fork, forks = os.fork, []
def counted():
    forks.append(fork())
    return forks[-1]
os.fork = counted
code = cli.main(sys.argv[1:])
print(code, len(forks), "traceback" in sys.modules)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs")
def test_split_validate_imports_no_traceback(tmp_path):
    """Only a shard child that failed imports `traceback`: a split `validate`
    that succeeds, started without `site`, ends without it."""
    config = write_config(tmp_path, dirty_corpus(tmp_path), tmp_path / "out")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-S", "-c", COUNTED_VALIDATE, "validate",
                           "--config", str(config)], capture_output=True, encoding="utf-8",
                          env=env, check=True)
    code, forks, imported = done.stdout.splitlines()[-1].split()
    assert (code, imported) == ("0", "False") and int(forks) >= 1
