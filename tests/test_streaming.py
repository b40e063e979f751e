"""One pass over the flight table: streamed reading, staged outputs, bounded memory."""

import contextlib
import dataclasses
import tracemalloc

import pytest

from aeroemit import cli, emissions, ingest, pipeline
from aeroemit.config import load_config
from conftest import build_corpus, coverage_report, write_config, write_csv, write_outputs

ONTIME_HEADER = ["flight_date", "carrier", "flight_number", "tail_number", "origin",
                 "dest", "air_time_min", "taxi_in_min", "taxi_out_min", "distance_mi"]
ROW = ["2021-09-01", "DL", "2441", "N815DN", "PHL", "ATL", "124", "7.43", "15.42", "666"]
UNEP_CONSTANTS = {"unep_short": "0.2", "unep_long": "0.1", "unep_cutoff_mi": "700"}


def outputs(outdir):
    return {name: (outdir / name).read_bytes() for name in pipeline.OUTPUT_FILES}


class TestStreamTable:
    def dirty_ontime(self, tmp_path):
        rows = [ROW, ROW[:5], [*ROW[:6], "nan", *ROW[7:]], ROW, [*ROW[:5], "PHL", *ROW[6:]]]
        path = tmp_path / "ontime.csv"
        write_csv(path, ONTIME_HEADER, rows)
        return path

    def test_same_records_and_report_as_read_table(self, tmp_path):
        path = self.dirty_ontime(tmp_path)
        records, report = ingest.read_table(ingest.ONTIME_TABLE, path)
        with ingest.stream_table(ingest.ONTIME_TABLE, path) as (streamed, streamed_report):
            assert list(streamed) == records
        assert streamed_report == report
        assert (report.accepted, report.rejected) == (2, 3)
        assert [r.line for r in report.rejections] == [3, 4, 6]

    def test_header_checked_on_entry(self, tmp_path):
        path = tmp_path / "ontime.csv"
        write_csv(path, ["wrong", "header"], [ROW])
        with pytest.raises(ingest.HeaderMismatchError):
            with ingest.stream_table(ingest.ONTIME_TABLE, path):
                pytest.fail("entered the block before the header was checked")

    @pytest.mark.parametrize("leave", ["partly-read", "raise"])
    def test_file_closed_when_left_early(self, tmp_path, monkeypatch, leave):
        path = self.dirty_ontime(tmp_path)
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(ingest, "open", recording_open, raising=False)
        with pytest.raises(KeyError) if leave == "raise" else contextlib.nullcontext():
            with ingest.stream_table(ingest.ONTIME_TABLE, path) as (records, _):
                next(records)
                if leave == "raise":
                    raise KeyError("stop")
        (handle,) = handles
        assert handle.closed


def test_run_writes_what_the_list_functions_write(tmp_path, capsys):
    """`run` streams; `write_outputs` over the list API gives the same bytes,
    and `validate_inputs` the same reports and coverage."""
    paths = build_corpus(tmp_path, n_flights=300, missing_tails=5, missing_airtimes=4,
                         unknown_tails=3)
    config = write_config(tmp_path, paths, tmp_path / "run", extra=UNEP_CONSTANTS)
    assert cli.main(["run", "--config", str(config)]) == 0
    cfg = load_config(config)
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    coverage = coverage_report(resolved)
    write_outputs(pipeline.compute_outcomes(resolved, data, cfg),
                           dataclasses.replace(cfg, output_dir=tmp_path / "lists"), coverage)
    assert outputs(tmp_path / "run") == outputs(tmp_path / "lists")
    assert pipeline.validate_inputs(cfg) == (data.reports, coverage)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("stage", ["compute", "commit"])
def test_interrupted_run_leaves_previous_outputs(tmp_path, monkeypatch, capsys,
                                                 stage, error):
    paths = build_corpus(tmp_path, n_flights=300)
    outdir = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path, paths, outdir))]) == 0
    before = outputs(outdir)

    # The second run would change every file: fewer flights, and the baseline column.
    header, *rows = paths["ontime"].read_bytes().splitlines(keepends=True)
    fewer = tmp_path / "ontime_fewer.csv"
    fewer.write_bytes(header + b"".join(rows[:250]))
    config = write_config(tmp_path, {**paths, "ontime": fewer}, outdir, extra=UNEP_CONSTANTS)
    calls = 0
    if stage == "compute":
        real = emissions.flight_emissions

        def failing(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 100:
                raise error("stopped at flight 100")
            return real(*args, **kwargs)
        monkeypatch.setattr(emissions, "flight_emissions", failing)
    else:
        def failing(self):
            nonlocal calls
            calls += 1
            raise error("stopped before the commit")
        monkeypatch.setattr(pipeline.CoverageReport, "to_dict", failing)

    with pytest.raises(error):
        cli.main(["run", "--config", str(config)])
    assert calls == (100 if stage == "compute" else 1)
    assert outputs(outdir) == before
    assert sorted(p.name for p in outdir.iterdir()) == sorted(pipeline.OUTPUT_FILES)


def test_peak_memory_does_not_grow_with_flights(tmp_path, capsys):
    """tracemalloc's peak for `run` and `validate` over 2k and 20k flights,
    with the same reference tables, differs by less than a fixed 2 MB."""
    paths = build_corpus(tmp_path, n_flights=20000)
    header, *rows = paths["ontime"].read_bytes().splitlines(keepends=True)
    small = tmp_path / "ontime_2k.csv"
    small.write_bytes(header + b"".join(rows[:2000]))
    configs = {}
    for name, ontime in (("2k", small), ("20k", paths["ontime"])):
        (tmp_path / name).mkdir()
        configs[name] = str(write_config(tmp_path / name, {**paths, "ontime": ontime},
                                         tmp_path / name / "out"))

    for command in ("run", "validate"):
        assert cli.main([command, "--config", configs["2k"]]) == 0  # warm-up
        peaks = {}
        for name, config in configs.items():
            tracemalloc.start()
            try:
                assert cli.main([command, "--config", config]) == 0
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks["20k"] - peaks["2k"]) < 2 * 2**20, (command, peaks)
