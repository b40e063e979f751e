"""One pass over the flight table: streamed reading, staged outputs, bounded memory."""

import contextlib
import dataclasses
import datetime
import gc
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeroemit import cli, emissions, ingest, matching, pipeline
from aeroemit.config import RunConfig, load_config
from aeroemit.ingest import AirframeRecord, EngineLtoFactors, FlightRecord, TailEngineRecord
from conftest import (CFM56_7B27E_RATES, build_corpus, coverage_report, make_b739er_profile,
                      row_of, write_config, write_csv, write_outputs)

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


def plan_test_tables() -> matching.LookupTables:
    """One tail per resolution path: exact, Jaccard and popular engine, family
    fallback, no type match, no CCD profile and no engine match."""
    airframes = [AirframeRecord("N1", "B739ER", 180, 2), AirframeRecord("N2", "737-8X", 172, 2),
                 AirframeRecord("N3", "B739ER", 160, 2), AirframeRecord("N4", "ZZZ", 90, 1),
                 AirframeRecord("N5", "A320", 150, 2), AirframeRecord("N6", "B739ER", 400, 3),
                 AirframeRecord("N7", "737-7X", 140, 4)]
    registry = [TailEngineRecord("N1", "CFM56-7B27E"), TailEngineRecord("N2", "CFM56-7B27E"),
                TailEngineRecord("N4", "CFM56-7B27E"), TailEngineRecord("N6", "CFM56 7B26 X"),
                TailEngineRecord("N7", "PW4000")]
    databank = [EngineLtoFactors(uid, {k: v * scale for k, v in CFM56_7B27E_RATES.items()})
                for uid, scale in (("CFM56-7B27E", 1.0), ("CFM56-7B26", 0.9))]
    rules = matching.NormalizationRuleSet([
        matching.NormalizationRule("B739ER", "737-900ER"),
        matching.NormalizationRule("737-8*", "737-8"),
        matching.NormalizationRule("737-7*", "737-7"),
        matching.NormalizationRule("A320", "A320")])
    fallback = {"737-8": matching.FamilyFallback("737-900ER", 0.85),
                "737-7": matching.FamilyFallback("737-900ER", 0.8)}
    return matching.LookupTables.build(airframes, registry, [], databank,
                                       [make_b739er_profile()], rules, fallback)


PLAN_TEST_TABLES = plan_test_tables()
# N0 is not in the inventory, None is a blank tail.
tails = st.sampled_from(["N1", "N2", "N3", "N4", "N5", "N6", "N7", "N0", None])
times = st.one_of(st.none(), st.floats(min_value=0.0, max_value=600.0),
                  st.sampled_from([22.0, 410.0, 1e300]))
taxis = st.one_of(st.none(), st.floats(min_value=0.0, max_value=60.0))


@st.composite
def plan_flights(draw):
    tail = draw(tails)
    return FlightRecord(datetime.date(2021, 9, 1), draw(st.sampled_from(["DL", "AA"])), "1",
                        tail, "PHL", "ATL", draw(times), draw(taxis), draw(taxis),
                        draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=3000.0),
                                       st.just(1e300))))


def first_flight_incomplete():
    """N1's first flight lacks an air time, its second a distance; then a
    complete one, which must not inherit either cause."""
    base = FlightRecord(datetime.date(2021, 9, 1), "DL", "1", "N1", "PHL", "ATL",
                        124.0, 7.43, 15.42, 666.0)
    return [base._replace(air_time_min=None),
            base._replace(distance_mi=None), base]


def bits(value):
    return value.hex() if isinstance(value, float) else value


class TestPlanPathEqualsReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(plan_flights(), max_size=40), st.sampled_from(["time", "distance"]),
           st.sampled_from(["paper-compatible", "per-engine"]))
    @example(first_flight_incomplete(), "time", "paper-compatible")
    @example(first_flight_incomplete(), "distance", "per-engine")
    def test_every_flight(self, flights, key, mode):
        """`TailPlans.compute` (run) and `TailPlans.resolve` (validate) give each
        flight the cause, flags, seats and emissions of `resolve_flight` and
        `flight_emissions`, the reference the list functions use."""
        tables = PLAN_TEST_TABLES
        cfg = RunConfig(*(Path("unused.csv"),) * 6, interpolation_key=key,
                        engine_multiplier_mode=mode)
        resolved = [matching.resolve_flight(f, tables) for f in flights]
        outcomes = pipeline.compute_outcomes(
            resolved, pipeline.LoadedData(flights, tables, {}), cfg)
        run, validate = pipeline.TailPlans(tables, cfg), pipeline.TailPlans(tables, cfg)
        for flight, rf, outcome in zip(flights, resolved, outcomes):
            plan, cause, row = run.compute(flight)
            assert cause == outcome.resolved.incomputable_cause
            assert plan.flags == tuple(sorted(rf.provenance))
            assert plan.seats == (rf.seat_count or 0)
            expected = row_of(outcome.result)
            assert (row is None) == (expected is None)
            if row is not None:
                assert list(map(bits, row)) == list(map(bits, expected))
            plan, cause = validate.resolve(flight)
            assert (cause, plan.flags) == (rf.incomputable_cause, tuple(sorted(rf.provenance)))
        # Only inventory tails get an entry.
        assert set(run.by_tail) <= {f.tail_number for f in flights} - {"N0", None}

    def test_tables_cover_every_path(self):
        """The tables above reach each fallback and cause the property needs."""
        causes, flags = set(), set()
        for tail in ("N1", "N2", "N3", "N4", "N5", "N6", "N7", "N0", None):
            base = first_flight_incomplete()[-1]
            rf = matching.resolve_flight(base._replace(tail_number=tail),
                                         PLAN_TEST_TABLES)
            causes.add(rf.incomputable_cause)
            flags |= rf.provenance
        assert causes == {None, matching.NO_TYPE_MATCH, matching.NO_CCD_PROFILE,
                          matching.NO_ENGINE_MATCH, matching.NO_AIRFRAME,
                          matching.MISSING_TAIL}
        assert flags == {matching.ENGINE_EXACT, matching.ENGINE_JACCARD,
                         matching.ENGINE_POPULAR_FALLBACK, matching.FAMILY_FALLBACK}

    def test_engine_missing_from_hand_built_tables(self):
        """Tables not made by LookupTables.build can name an engine the databank
        lacks: like flight_emissions, the plan path computes nothing for it, and
        `run` gives it NONFINITE_EMISSIONS."""
        tables = PLAN_TEST_TABLES._replace(databank_by_uid={})
        cfg = RunConfig(*(Path("unused.csv"),) * 6)
        flight = first_flight_incomplete()[-1]
        rf = matching.resolve_flight(flight, tables)
        (outcome,) = pipeline.compute_outcomes([rf], pipeline.LoadedData([], tables, {}), cfg)
        plan, cause, row = pipeline.TailPlans(tables, cfg).compute(flight)
        assert (cause, row) == (outcome.resolved.incomputable_cause, None)
        assert cause == matching.NONFINITE_EMISSIONS

    def test_unknown_and_blank_tails_add_no_entry(self):
        cfg = RunConfig(*(Path("unused.csv"),) * 6)
        plans = pipeline.TailPlans(PLAN_TEST_TABLES, cfg)
        base = first_flight_incomplete()[-1]
        seen = {plans.compute(base._replace(tail_number=tail))[0]
                for tail in [f"X{i}" for i in range(100)] + [None] * 3}
        assert plans.by_tail == {} and len(seen) == 2
        plans.compute(base)
        plans.compute(base._replace(tail_number="N7"))
        assert list(plans.by_tail) == ["N1", "N7"]


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
        real = emissions.emissions_row

        def failing(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 100:
                raise error("stopped at flight 100")
            return real(*args, **kwargs)
        monkeypatch.setattr(emissions, "emissions_row", failing)
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


class ParsedList(list):
    """A list that a weakref can watch."""


def test_parsed_reference_lists_freed_before_flights_stream(tmp_path, monkeypatch):
    """Inside `open_inputs`, no list returned by the five `ingest.parse_*`
    functions is alive: the lookup tables keep only the records they need."""
    watched = []

    def watching(parse):
        def parse_and_watch(path):
            records, report = parse(path)
            records = ParsedList(records)
            watched.append(weakref.ref(records))
            return records, report
        return parse_and_watch

    for name in ("parse_b43", "parse_tail_registry", "parse_engine_codes",
                 "parse_icao_databank", "parse_bada_ccd"):
        monkeypatch.setattr(ingest, name, watching(getattr(ingest, name)))
    paths = build_corpus(tmp_path, n_flights=50)
    cfg = load_config(str(write_config(tmp_path, paths, tmp_path / "out")))
    with pipeline.open_inputs(cfg) as data:
        gc.collect()
        assert len(watched) == 5
        assert [ref() for ref in watched] == [None] * 5
        assert data.tables.airframes_by_tail and sum(1 for _ in data.flights) == 50


def test_peak_memory_does_not_grow_with_rejected_rows(tmp_path):
    """tracemalloc's peak while streaming 5k and 50k flight rows, every one
    rejected, differs by less than a fixed 1 MB."""
    peaks = {}
    for rows in (5000, 50000):
        path = tmp_path / f"ontime_{rows}.csv"
        write_csv(path, ONTIME_HEADER, [[*ROW[:5], "PHL", *ROW[6:]]] * rows)
        tracemalloc.start()
        try:
            with ingest.stream_table(ingest.ONTIME_TABLE, path) as (records, report):
                assert next(records, None) is None
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.accepted, report.rejected) == (0, rows)
    assert abs(peaks[50000] - peaks[5000]) < 2**20, peaks


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
