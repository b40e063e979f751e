"""Pipeline orchestration: ingest -> resolve -> compute -> aggregate -> write.

`run_pipeline` is one pass over the flight table: each flight is read,
resolved, computed, written and added to the exact roll-up, then dropped, so
memory does not grow with the number of flights. The per-flight work is pure
Python, so one driver, `_split`, splits a large table into row spans
(`ingest.row_spans`) for `run` and `validate` alike, one per CPU this process
may use: once the lookup tables are built, a forked child streams each span
but the first, which this process streams itself, and pickles its exact sums
and counts to an anonymous result file; its per-flight rows go to anonymous
fragment files that are appended in span order. Integer sums merge with `+`,
so the outputs do not depend on the number of processes. Resolution
runs once per tail (`TailPlans`); per flight only the air time and distance
checks and the `emissions.emissions_row` kernel remain, and its flat tuple
goes straight to the writers. The outputs are replaced together after the last
flight (`OutputWriter`). Output bytes depend on the inputs alone; every CSV
line is `ingest.csv_line`'s, and the roll-up tables are `aggregate`'s
(`RollUpAccumulator.rows` through `ROLLUP_TABLES`). `load_data`,
`resolve_all` and `compute_outcomes` are the same steps over lists, through
the reference `resolve_flight` and `flight_emissions`.
"""

from __future__ import annotations

import contextlib
import json
import logging
import operator
import os
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import aggregate as agg
from . import emissions, ingest, matching
from .config import ConfigError, RunConfig
from .ingest import CcdKnot, CcdProfile, IngestReport, csv_cell, csv_line

FLIGHT_EMISSIONS_HEADER = [
    "flight_date", "carrier", "flight_number", "tail_number", "origin", "dest",
    "distance_mi", "air_time_min", "canonical_type", "emissions_type",
    "engine_uid", "provenance",
    "lto_hc_kg", "lto_co2_kg", "lto_co_kg", "lto_nox_kg",
    "ccd_hc_kg", "ccd_co2_kg", "ccd_co_kg", "ccd_nox_kg",
    "lto_co2e_kg", "ccd_co2e_kg", "total_co2e_kg",
    "per_seat_co2e_kg", "per_seat_mile_co2_kg",
]
SCATTER_CO2E_HEADER = ["distance_mi", "co2e_kg", "canonical_type", "engine_uid",
                       "carrier"]
SCATTER_SEAT_MILE_HEADER = ["distance_mi", "co2_per_seat_mile", "canonical_type",
                            "engine_uid", "carrier"]

logger = logging.getLogger(__name__)

OUTPUT_FILES = ("flight_emissions.csv", "airline_summary.csv", "airport_lto.csv",
                "gas_breakdown.csv", "scatter_co2e.csv", "scatter_seat_mile.csv",
                "coverage.json")

@dataclass
class CoverageReport:
    total_flights: int = 0
    computed_flights: int = 0
    causes: Counter[str] = field(default_factory=Counter)
    fallback_flags: Counter[str] = field(default_factory=Counter)

    @property
    def coverage(self) -> float:
        if self.total_flights == 0:
            return 0.0
        return self.computed_flights / self.total_flights

    def add(self, cause: str | None, flags: Iterable[str]) -> None:
        """Count one flight by its incomputable cause and provenance flags,
        resolved or, in `run`, also computed: a flight whose emissions are not
        finite has the cause NONFINITE_EMISSIONS."""
        self.total_flights += 1
        if cause is None:
            self.computed_flights += 1
        else:
            self.causes[cause] += 1
        for flag in flags:
            self.fallback_flags[flag] += 1

    def merge(self, other: CoverageReport) -> None:
        """Add the counts of `other`, a report of other flights."""
        self.total_flights += other.total_flights
        self.computed_flights += other.computed_flights
        self.causes.update(other.causes)
        self.fallback_flags.update(other.fallback_flags)

    def to_dict(self) -> dict:
        return {
            "total_flights": self.total_flights,
            "computed_flights": self.computed_flights,
            "coverage": self.coverage,
            "incomputable_causes": dict(sorted(self.causes.items())),
            "fallback_flags": dict(sorted(self.fallback_flags.items())),
        }


class LoadedData(NamedTuple):
    """The flights, the lookup tables and every table's ingest report. The
    flights are a one-pass iterator inside `open_inputs`, a list from
    `load_data`."""

    flights: Iterable[ingest.FlightRecord]
    tables: matching.LookupTables
    reports: dict[str, IngestReport]


@contextlib.contextmanager
def open_inputs(cfg: RunConfig, span: tuple[int, int, int] | None = None,
                ) -> Iterator[LoadedData]:
    """The inputs, the flights read as they are iterated, those of `span` only
    if it is given. The flight table's header is checked before any reference
    table is read."""
    cfg.validate_paths()
    with ingest.stream_table(ingest.ONTIME_TABLE, cfg.ontime, span) as (flights, ontime_report):
        tables, reports = _reference_data(cfg)
        yield LoadedData(flights, tables, {r.table: r for r in (ontime_report, *reports)})


def _reference_data(cfg: RunConfig) -> tuple[matching.LookupTables, list[IngestReport]]:
    """The lookup tables and the five reference tables' reports. The parsed
    lists are locals here, so they are freed before any flight is read."""
    airframes, b43_report = ingest.parse_b43(cfg.b43)
    registry, registry_report = ingest.parse_tail_registry(cfg.tail_registry)
    codes, codes_report = ingest.parse_engine_codes(cfg.engine_codes)
    databank, icao_report = ingest.parse_icao_databank(cfg.icao_engines)
    profiles, bada_report = ingest.parse_bada_ccd(cfg.bada_ccd)
    if cfg.interpolation_key == "distance":
        profiles = _rekey_profiles_by_distance(profiles)
    rules = matching.NormalizationRuleSet.from_csv(cfg.normalization_rules)
    fallback = matching.load_family_fallback(cfg.family_fallback)
    override = None
    if cfg.popular_engine_override is not None:
        override = matching.load_popular_engine_override(cfg.popular_engine_override)
    tables = matching.LookupTables.build(
        airframes, registry, codes, databank, profiles, rules, fallback,
        jaccard_threshold=cfg.jaccard_threshold, popular_engine_override=override)
    return tables, [b43_report, registry_report, codes_report, icao_report, bada_report]


def load_data(cfg: RunConfig) -> LoadedData:
    """`open_inputs` with every flight read into a list."""
    with open_inputs(cfg) as data:
        return data._replace(flights=list(data.flights))


def _rekey_profiles_by_distance(profiles: list[CcdProfile]) -> list[CcdProfile]:
    rekeyed = []
    for profile in profiles:
        if any(k.distance_mi is None for k in profile.knots):
            raise ConfigError(
                f"interpolation_key=distance requires a distance_mi column; "
                f"missing for type {profile.canonical_type}")
        knots = tuple(sorted(
            (CcdKnot(k.distance_mi, k.emissions_kg, k.distance_mi)
             for k in profile.knots),
            key=lambda k: k.duration_min))
        for a, b in zip(knots, knots[1:]):
            if a.duration_min == b.duration_min:
                raise ConfigError(
                    f"interpolation_key=distance: type {profile.canonical_type} has "
                    f"two knots at distance_mi {a.duration_min}")
        rekeyed.append(CcdProfile(profile.canonical_type, knots))
    return rekeyed


def resolve_all(data: LoadedData) -> list[matching.ResolvedFlight]:
    return [matching.resolve_flight(f, data.tables) for f in data.flights]


def _outcome(rf: matching.ResolvedFlight, tables: matching.LookupTables,
             cfg: RunConfig) -> agg.FlightOutcome:
    """One resolved flight with its emissions, None when it is incomputable. A
    resolvable flight whose emissions are not finite gets NONFINITE_EMISSIONS."""
    per_engine = cfg.engine_multiplier_mode == "per-engine"
    result = emissions.flight_emissions(
        rf, tables.databank_by_uid, tables.ccd_by_type, cfg.co2e_factors,
        engine_multiplier=float(rf.engine_count or 1) if per_engine else 1.0,
        interpolation_key=cfg.interpolation_key)
    if result is None and rf.incomputable_cause is None:
        rf = rf._replace(incomputable_cause=matching.NONFINITE_EMISSIONS)
    return agg.FlightOutcome(rf, result)


def compute_outcomes(resolved: list[matching.ResolvedFlight], data: LoadedData,
                     cfg: RunConfig, threads: int | None = None,
                     ) -> list[agg.FlightOutcome]:
    """Per-flight emissions, in input order. `threads` is ignored; it is removed
    once perfbench/spans.py stops passing `threads=1`."""
    return [_outcome(rf, data.tables, cfg) for rf in resolved]


# --- the per-tail plan: resolution once per tail ---

# Rates for an engine the databank lacks, possible only in tables not made by
# LookupTables.build: the kernel drops such a flight by its finite check, as
# flight_emissions drops it, and `run` gives it NONFINITE_EMISSIONS.
_NAN_RATES = (float("nan"),) * 16
_FLIGHT_CAUSES = (matching.MISSING_AIRTIME, matching.MISSING_DISTANCE)


class TailPlan(NamedTuple):
    """What `run` and `validate` need of one tail: `resolve_flight`'s result
    for any flight of it, less the flight-level causes, and the kernel inputs."""

    cause: str | None  # the tail-level incomputable cause
    flags: tuple[str, ...]  # the provenance flags, sorted
    seats: int  # the seat count, 0 when unknown
    cells: str  # ",type,emissions type,engine UID,provenance", CSV-quoted
    scatter_cells: str  # ",type,engine UID", CSV-quoted
    terms: tuple[float, ...] | None  # emissions.kernel_terms; None when incomputable
    ccd: tuple | None  # the CCD profile's table; None when incomputable

    @classmethod
    def of(cls, rf: matching.ResolvedFlight, cause: str | None,
           terms: tuple[float, ...] | None, ccd: tuple | None,
           texts: dict[str, str]) -> TailPlan:
        """The plan of `rf`; its CSV cells are those of `texts` that equal
        them, and are added to it otherwise."""
        flags = tuple(sorted(rf.provenance))
        canonical_type = csv_cell(rf.canonical_type or "")
        engine_uid = csv_cell(rf.engine_uid or "")
        cells = (f",{canonical_type},{csv_cell(rf.emissions_type or '')},"
                 f"{engine_uid},{csv_cell('|'.join(flags))}")
        scatter_cells = f",{canonical_type},{engine_uid}"
        return cls(cause, flags, rf.seat_count or 0, texts.setdefault(cells, cells),
                   texts.setdefault(scatter_cells, scatter_cells), terms, ccd)


class TailPlans:
    """Each tail's `TailPlan`, built on its first flight by `resolve_flight`.

    Only tails of the airframe inventory get an entry; a blank tail and an
    unknown tail each share one plan and add no entry, so dirty data does not
    grow the dict. Equal plans are one object, and so are equal CSV cells.
    Two plans with equal cells have one engine UID and one CCD profile, and
    their kernel terms are one object unless the multiplier or the efficiency
    factor differs, so plan equality never merges floats that are equal but
    differ in the sign of a zero.
    """

    def __init__(self, tables: matching.LookupTables, cfg: RunConfig) -> None:
        self.tables = tables
        self.cfg = cfg
        self.by_tail: dict[str, TailPlan] = {}
        self._untracked: dict[bool, TailPlan] = {}
        self._shared: dict[TailPlan, TailPlan] = {}
        self._texts: dict[str, str] = {}
        self._terms: dict[tuple[str, float, float], tuple[float, ...]] = {}
        self._ccd_key = operator.attrgetter(
            "air_time_min" if cfg.interpolation_key == "time" else "distance_mi")

    def resolve(self, flight: ingest.FlightRecord) -> tuple[TailPlan, str | None]:
        """The flight's tail plan and its cause, that of `resolve_flight`."""
        plan = self.by_tail.get(flight.tail_number) or self._build(flight)
        cause = plan.cause
        if cause is None:
            if flight.air_time_min is None:
                cause = matching.MISSING_AIRTIME
            elif flight.distance_mi is None:
                cause = matching.MISSING_DISTANCE
        return plan, cause

    def compute(self, flight: ingest.FlightRecord,
                ) -> tuple[TailPlan, str | None, tuple | None]:
        """`resolve`, then the flight's `emissions.emissions_row`, None when it
        is incomputable; a resolvable flight whose emissions are not finite
        gets NONFINITE_EMISSIONS."""
        plan, cause = self.resolve(flight)
        row = None
        if cause is None:
            row = emissions.emissions_row(plan.terms, plan.ccd, plan.seats, flight.taxi_in_min,
                                          flight.taxi_out_min, self._ccd_key(flight),
                                          flight.distance_mi)
            if row is None:
                cause = matching.NONFINITE_EMISSIONS
        return plan, cause, row

    def _build(self, flight: ingest.FlightRecord) -> TailPlan:
        airframe = self.tables.airframes_by_tail.get(flight.tail_number)
        if airframe is None:  # the plan depends only on whether the tail is blank
            blank = flight.tail_number is None
            plan = self._untracked.get(blank)
            if plan is None:
                plan = self._untracked[blank] = self._plan(flight)
            return plan
        # Keyed by the inventory's own string, so no flight's is kept.
        plan = self.by_tail[airframe.tail_number] = self._plan(flight)
        return plan

    def _plan(self, flight: ingest.FlightRecord) -> TailPlan:
        rf = matching.resolve_flight(flight, self.tables)
        cause = None if rf.incomputable_cause in _FLIGHT_CAUSES else rf.incomputable_cause
        terms = ccd = None
        if cause is None:  # then the engine UID is set and its CCD profile exists
            multiplier = 1.0
            if self.cfg.engine_multiplier_mode == "per-engine":
                multiplier = float(rf.engine_count or 1)
            key = (rf.engine_uid, multiplier, rf.efficiency_factor)
            terms = self._terms.get(key)
            if terms is None:
                factors = self.tables.databank_by_uid.get(rf.engine_uid)
                terms = self._terms[key] = emissions.kernel_terms(
                    _NAN_RATES if factors is None else factors.flat_rates, multiplier,
                    rf.efficiency_factor, self.cfg.co2e_factors)
            ccd = self.tables.ccd_by_type[rf.emissions_type].table
        plan = TailPlan.of(rf, cause, terms, ccd, self._texts)
        return self._shared.setdefault(plan, plan)


# --- serialization ---

# The numeric cells of a flight_emissions.csv row, from emissions_row's [8:21].
_FLIGHT_NUMBERS = ",%.2f" * 12 + ",%.6f"


class OutputWriter:
    """The seven output files of one run, staged and then committed together.

    ``with OutputWriter(cfg) as out``: `add` each flight in input order, then
    `commit`. Each file is staged as `<name>.tmp` in the output directory,
    which entering creates, and replaces its target only in `commit`. Leaving
    the block without a commit removes every staged file, so an error or an
    interrupt leaves the previous outputs as they were.
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self.outdir = Path(cfg.output_dir)
        self.rollup = agg.RollUpAccumulator()
        self._files = contextlib.ExitStack()
        self._committed = False

    def _staged(self, name: str) -> Path:
        return self.outdir / (name + ".tmp")

    def __enter__(self) -> OutputWriter:
        seat_mile_header = list(SCATTER_SEAT_MILE_HEADER)
        self._unep_cells = None
        if self.cfg.unep is not None:
            seat_mile_header.append("unep_baseline")
            unep = self.cfg.unep
            self._unep_cells = (f",{unep.short_haul_co2_per_seat_mile:.6f}",
                                f",{unep.long_haul_co2_per_seat_mile:.6f}", unep.cutoff_mi)
        else:
            logger.warning("no UNEP baseline constants configured; "
                           "scatter_seat_mile.csv omits the baseline column")
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
            try:
                self.streams = tuple(
                    self._files.enter_context(open(self._staged(name), "w", encoding="utf-8"))
                    for name in ("flight_emissions.csv", "scatter_co2e.csv",
                                 "scatter_seat_mile.csv"))
                for stream, header in zip(self.streams, (
                        FLIGHT_EMISSIONS_HEADER, SCATTER_CO2E_HEADER, seat_mile_header)):
                    stream.write(csv_line(header))
            except BaseException:
                self.__exit__()
                raise
        except OSError as exc:
            raise ConfigError(f"output_dir: {self.outdir}: {exc.strerror or exc}") from None
        return self

    def add(self, flight: ingest.FlightRecord, plan: TailPlan, row: tuple | None) -> None:
        """Roll up one flight and, if it was computed (`row`, the tuple of
        `emissions.emissions_row`, is not None), write its three rows."""
        self.rollup.add(flight, plan.seats, row)
        if row is None:
            return
        distance = repr(flight.distance_mi)
        carrier = flight.carrier_code
        flights, co2e, seat_mile = self.streams
        flights.write(csv_line(
            [flight.flight_date.isoformat(), carrier, flight.flight_number,
             flight.tail_number or "", flight.origin, flight.destination],
            f",{distance},{flight.air_time_min!r}{plan.cells}" + _FLIGHT_NUMBERS % row[8:21]))
        scatter = f"{plan.scatter_cells},{csv_cell(carrier)}"
        co2e.write("%s,%.2f%s\n" % (distance, row[18], scatter))
        unep = self._unep_cells  # the cell of agg.unep_baseline
        if unep is not None:
            short, long, cutoff = unep
            scatter += short if flight.distance_mi < cutoff else long
        seat_mile.write("%s,%.6f%s\n" % (distance, row[20], scatter))

    def commit(self, coverage: CoverageReport) -> None:
        """Write the roll-up files and coverage.json, then replace all seven
        outputs with their staged files."""
        for schema, rows in zip(agg.ROLLUP_TABLES, self.rollup.rows(self.cfg.co2e_factors)):
            name = f"{schema.table}.csv"
            try:  # the rows are made here; a total beyond a double overflows
                ingest.write_table(schema, rows, self._staged(name))
            except OverflowError:
                raise ConfigError(f"{self.outdir / name}: a total is too large for a "
                                  f"float; check the input values") from None
        self._staged("coverage.json").write_text(
            json.dumps(coverage.to_dict(), indent=2) + "\n", encoding="utf-8")
        self._files.close()
        for name in OUTPUT_FILES:
            os.replace(self._staged(name), self.outdir / name)
        self._committed = True

    def __exit__(self, *exc_info) -> None:
        try:
            self._files.close()
        finally:
            if not self._committed:
                for name in OUTPUT_FILES:
                    self._staged(name).unlink(missing_ok=True)


def _check_output_dir(outdir: Path) -> None:
    """Raise ConfigError when `outdir` or its nearest existing ancestor is not a
    directory, so a run fails before it loads anything."""
    for path in (outdir, *outdir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output_dir: {path} is not a directory")
            return


# The least flight-table bytes worth a process of their own: a smaller
# shard costs about as much to fork and merge as it saves.
SHARD_BYTES = 128 * 1024


def _shard_spans(path: Path) -> list:
    """The flight table's row spans, one per process; [None], the whole table
    here, without `os.fork` or CPU affinity, on one CPU, and for a table
    under two SHARD_BYTES or holding a `"`."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return [None]
    try:
        parts = min(len(os.sched_getaffinity(0)), os.path.getsize(path) // SHARD_BYTES)
    except OSError:  # open_inputs reports the missing table
        return [None]
    return (parts > 1 and ingest.row_spans(path, parts)) or [None]


def _split(cfg: RunConfig, data: LoadedData, spans: list,
           shard: Callable[[Iterable[ingest.FlightRecord], Sequence], tuple],
           streams: Sequence = ()) -> tuple:
    """Stream the flight table, span by span, through ``shard(flights, files)``
    and return the first span's results with each later span's merged into
    them in span order: the objects `shard` returns, each with a `merge`, and
    the span's ingest report. This process streams the first span,
    `data.flights`, with `files` = `streams`; a forked child streams each other
    span with `files` its own anonymous text files in the output directory,
    one per stream, which are then appended to `streams`. The child pickles
    its results, or the exception it raised and its traceback's text, to an
    anonymous result file and leaves by `os._exit`, so none of this process's
    cleanup runs there; here the exception is raised again, from a
    RuntimeError holding that text. SIGINT and SIGTERM wait out each fork. On
    exit every child is killed and reaped and every file closed. Fork, not
    spawn: a child inherits the lookup tables instead of building them again,
    and the package starts no thread that a fork could break."""
    running: list[int] = []
    with contextlib.ExitStack() as stack:
        try:
            children = []
            if len(spans) > 1:
                import pickle, signal, traceback  # only a run that splits imports them
                # Else a child's copy of a buffer is written out again.
                for stream in (sys.stdout, sys.stderr, *streams):
                    stream.flush()
            for span in spans[1:]:
                files = [stack.enter_context(tempfile.TemporaryFile(
                    "w+", encoding="utf-8", dir=cfg.output_dir)) for _ in streams]
                # Not in the output directory, which `validate` does not create.
                result = stack.enter_context(tempfile.TemporaryFile())
                # An interrupt waits until the child is in its `try` and its pid is kept.
                mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                              {signal.SIGINT, signal.SIGTERM})
                try:
                    pid = os.fork()
                    if pid == 0:
                        try:
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                            try:
                                with ingest.stream_table(ingest.ONTIME_TABLE, cfg.ontime,
                                                         span) as (flights, report):
                                    message = (*shard(flights, files), report)
                                for file in files:
                                    file.flush()
                            except BaseException as exc:
                                message = exc, traceback.format_exc()
                            result.write(pickle.dumps(message))
                            result.flush()
                        finally:
                            os._exit(0)
                    running.append(pid)
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                children.append((pid, files, result))
            merged = (*shard(data.flights, streams), data.reports[ingest.ONTIME_TABLE.table])
            for pid, files, result in children:
                _, status = os.waitpid(pid, 0)
                running.remove(pid)
                result.seek(0)
                message = result.read()
                if not message:
                    raise RuntimeError(f"flight-table shard process {pid} ended without a "
                                       f"result (exit code {os.waitstatus_to_exitcode(status)})")
                message = pickle.loads(message)
                if isinstance(message[0], BaseException):  # and the child's traceback
                    raise message[0] from RuntimeError(f"in shard process {pid}: {message[1]}")
                for stream, fragment in zip(streams, files):
                    stream.flush()
                    fragment.seek(0)
                    shutil.copyfileobj(fragment.buffer, stream.buffer)
                for mine, theirs in zip(merged, message):
                    mine.merge(theirs)
            return merged
        finally:
            for pid in running:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_pipeline(cfg: RunConfig) -> CoverageReport:
    """Every stage in one pass over the flight table, split across processes
    when it is large; the outputs are committed after the last flight."""
    _check_output_dir(Path(cfg.output_dir))
    spans = _shard_spans(cfg.ontime)
    with open_inputs(cfg, spans[0]) as data, OutputWriter(cfg) as out:
        def run_shard(flights: Iterable[ingest.FlightRecord], streams: Sequence) -> tuple:
            out.streams = streams  # in a forked child, its fragment files
            coverage = CoverageReport()
            compute = TailPlans(data.tables, cfg).compute
            for flight in flights:
                plan, cause, row = compute(flight)
                coverage.add(cause, plan.flags)
                out.add(flight, plan, row)
            return coverage, out.rollup

        coverage, _, _ = _split(cfg, data, spans, run_shard, out.streams)
        out.commit(coverage)
    return coverage


def validate_inputs(cfg: RunConfig) -> tuple[dict[str, IngestReport], CoverageReport]:
    """Every table's report and the coverage of resolution, in one pass split
    as `run_pipeline` splits it."""
    spans = _shard_spans(cfg.ontime)
    with open_inputs(cfg, spans[0]) as data:
        def validate_shard(flights: Iterable[ingest.FlightRecord], _: Sequence) -> tuple:
            coverage = CoverageReport()
            resolve = TailPlans(data.tables, cfg).resolve
            for flight in flights:
                plan, cause = resolve(flight)
                coverage.add(cause, plan.flags)
            return coverage,

        coverage, _ = _split(cfg, data, spans, validate_shard)
    return data.reports, coverage
