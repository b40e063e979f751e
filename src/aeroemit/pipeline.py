"""Pipeline orchestration: ingest -> resolve -> compute -> aggregate -> write.

`run_pipeline` is one pass over the flight table, read `aggregate.BLOCK`
flights at a time: each flight is resolved, computed and written, then the
block is added to the exact roll-up and dropped, so memory does not grow
with the number of flights. The per-flight work is pure Python, so one
driver, `_split`, splits a large table into row spans (`ingest.row_spans`)
for `run` and `validate` alike, one per CPU this process may use: once the
lookup tables are built, a forked child streams each span but the first,
which this process streams itself, and pickles its exact sums and counts to
an anonymous result file; its per-flight rows go to anonymous fragment files
that are appended in span order. Integer sums merge with `+`,
so the outputs do not depend on the number of processes. Resolution runs
once per tail (`TailPlans`), whose plan holds the engine's kernel terms and
the lookup tables' own CCD profile; per flight only the air time and distance
checks and the `emissions.emissions_row` kernel remain, its flat tuple going
straight to the writers. The outputs are replaced together after the last
flight (`OutputWriter`). Output bytes depend on the inputs alone; every CSV
line is `ingest.csv_line`'s, and the roll-up tables are `aggregate`'s
(`RollUpAccumulator.rows` through `ROLLUP_TABLES`). `load_data`,
`resolve_all` and `compute_outcomes` are the same steps over lists, through
the reference `resolve_flight` and `flight_emissions`, the kernel for one
resolved flight.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import aggregate as agg
from . import emissions, ingest, matching
from .config import ConfigError, RunConfig
from .ingest import CcdProfile, IngestReport, Record, csv_cell, csv_line

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

OUTPUT_FILES = ("flight_emissions.csv", "airline_summary.csv", "airport_lto.csv",
                "gas_breakdown.csv", "scatter_co2e.csv", "scatter_seat_mile.csv",
                "coverage.json")


class CoverageReport(Record):
    __slots__ = _fields = ("total_flights", "computed_flights", "causes", "fallback_flags")

    def __init__(self, total_flights: int = 0, computed_flights: int = 0,
                 causes: Counter[str] | None = None,
                 fallback_flags: Counter[str] | None = None) -> None:
        self.total_flights = total_flights
        self.computed_flights = computed_flights
        self.causes = Counter() if causes is None else causes
        self.fallback_flags = Counter() if fallback_flags is None else fallback_flags

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
    lists are locals here, so they are freed before any flight is read; the
    registry's and the codes' pairs become their maps as each is read."""
    airframes, b43_report = ingest.read_table(ingest.B43_TABLE, cfg.b43)
    registry, registry_report = ingest.read_table(ingest.TAIL_REGISTRY_TABLE, cfg.tail_registry)
    registry = dict(registry)
    codes, codes_report = ingest.read_table(ingest.ENGINE_CODES_TABLE, cfg.engine_codes)
    codes = dict(codes)
    databank, icao_report = ingest.read_table(ingest.ICAO_ENGINES_TABLE, cfg.icao_engines)
    profiles, bada_report = ingest.read_table(ingest.BADA_CCD_TABLE, cfg.bada_ccd)
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
        if None in profile.distances:
            raise ConfigError(
                f"interpolation_key=distance requires a distance_mi column; "
                f"missing for type {profile.canonical_type}")
        distances, masses = zip(*sorted(zip(profile.distances, profile.masses)))
        for a, b in zip(distances, distances[1:]):
            if a == b:
                raise ConfigError(
                    f"interpolation_key=distance: type {profile.canonical_type} has "
                    f"two knots at distance_mi {a}")
        rekeyed.append(CcdProfile(profile.canonical_type, distances, masses, distances))
    return rekeyed


def resolve_all(data: LoadedData) -> list[matching.ResolvedFlight]:
    return [matching.resolve_flight(f, data.tables) for f in data.flights]


def _outcome(rf: matching.ResolvedFlight, tables: matching.LookupTables,
             cfg: RunConfig) -> tuple[matching.ResolvedFlight, tuple | None]:
    """One resolved flight and its `emissions_row`, None when it is
    incomputable. A resolvable flight whose emissions are not finite gets
    NONFINITE_EMISSIONS."""
    row = emissions.flight_emissions(
        rf, tables.databank_by_uid, tables.ccd_by_type, cfg.co2e_factors,
        engine_multiplier=_engine_multiplier(rf, cfg), interpolation_key=cfg.interpolation_key)
    if row is None and rf.incomputable_cause is None:
        rf = rf._replace(incomputable_cause=matching.NONFINITE_EMISSIONS)
    return rf, row


def _engine_multiplier(rf: matching.ResolvedFlight, cfg: RunConfig) -> float:
    """What the LTO rates are multiplied by: the engine count under
    `per-engine`, else 1."""
    return float(rf.engine_count or 1) if cfg.engine_multiplier_mode == "per-engine" else 1.0


def compute_outcomes(resolved: list[matching.ResolvedFlight], data: LoadedData,
                     cfg: RunConfig, threads: int | None = None,
                     ) -> list[tuple[matching.ResolvedFlight, tuple | None]]:
    """Each resolved flight and its emissions, as `_outcome` pairs them, in
    input order. `threads` is ignored; it is removed once perfbench/spans.py
    stops passing `threads=1`."""
    return [_outcome(rf, data.tables, cfg) for rf in resolved]


# --- the per-tail plan: resolution once per tail ---

class TailCause(NamedTuple):
    """What `validate` needs of one tail: `resolve_flight`'s cause for any
    flight of it, less the flight-level causes, and its provenance flags."""

    cause: str | None  # the tail-level incomputable cause
    flags: tuple[str, ...]  # the provenance flags, sorted


class TailPlan(NamedTuple):
    """What `run` needs of one tail: its `TailCause` fields, and the seats,
    the CSV cells and the kernel inputs of its flights: terms and CCD profile."""

    cause: str | None  # the tail-level incomputable cause
    flags: tuple[str, ...]  # the provenance flags, sorted
    seats: int  # the seat count, 0 when unknown
    cells: str  # ",type,emissions type,engine UID,provenance", CSV-quoted
    scatter_cells: str  # ",type,engine UID", CSV-quoted
    terms: tuple[float, ...] | None  # emissions.kernel_terms; None when incomputable
    ccd: CcdProfile | None  # None when incomputable

    @classmethod
    def of(cls, rf: matching.ResolvedFlight, cause: str | None,
           terms: tuple[float, ...] | None, ccd: CcdProfile | None,
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
    """Each tail's resolution, made on its first flight by one
    `resolve_flight`: a `TailCause` for `resolve`, which `validate` calls,
    or a `TailPlan`, with the kernel inputs, for `compute`, which `run`
    calls. An instance serves one of the two, as their entries share
    `by_tail`.

    Only tails of the airframe inventory get an entry; a blank tail and an
    unknown tail each share one entry and add none, so dirty data does not
    grow the dict. Equal entries are one object, and so are equal CSV cells.
    Two plans with equal cells have one engine UID and one CCD profile, and
    their kernel terms are one object unless the multiplier or the efficiency
    factor differs, so plan equality never merges floats that are equal but
    differ in the sign of a zero.
    """

    def __init__(self, tables: matching.LookupTables, cfg: RunConfig) -> None:
        self.tables = tables
        self.cfg = cfg
        self.by_tail: dict[str, TailPlan | TailCause] = {}
        self._untracked: dict[bool, TailPlan | TailCause] = {}
        self._shared: dict[TailPlan | TailCause, TailPlan | TailCause] = {}
        self._texts: dict[str, str] = {}
        self._terms: dict[tuple[str, float, float], tuple[float, ...]] = {}
        self._ccd_key = operator.attrgetter(
            "air_time_min" if cfg.interpolation_key == "time" else "distance_mi")

    def resolve(self, flight: ingest.FlightRecord) -> tuple[TailCause, str | None]:
        """The flight's `TailCause` and its cause, that of `resolve_flight`."""
        entry = self.by_tail.get(flight.tail_number) or self._entry(flight, self._cause)
        return entry, matching.flight_cause(entry.cause, flight)

    def compute(self, flight: ingest.FlightRecord,
                ) -> tuple[TailPlan, str | None, tuple | None]:
        """The flight's `TailPlan`, its cause, that of `resolve_flight`, and its
        `emissions.emissions_row`, None when it is incomputable; a resolvable
        flight whose emissions are not finite gets NONFINITE_EMISSIONS."""
        plan = self.by_tail.get(flight.tail_number) or self._entry(flight, self._plan)
        cause = matching.flight_cause(plan.cause, flight)
        row = None
        if cause is None:
            row = emissions.emissions_row(plan.terms, plan.ccd, plan.seats, flight.taxi_in_min,
                                          flight.taxi_out_min, self._ccd_key(flight),
                                          flight.distance_mi)
            if row is None:
                cause = matching.NONFINITE_EMISSIONS
        return plan, cause, row

    def _entry(self, flight: ingest.FlightRecord,
               make: Callable[[matching.ResolvedFlight, str | None], TailPlan | TailCause],
               ) -> TailPlan | TailCause:
        """What `make` gives for the flight's resolution and tail-level cause,
        kept for the tail's later flights."""
        airframe = self.tables.airframes_by_tail.get(flight.tail_number)
        blank = flight.tail_number is None
        if airframe is None and blank in self._untracked:  # the entry depends only on that
            return self._untracked[blank]
        rf = matching.resolve_flight(flight, self.tables)
        entry = make(rf, None if rf.incomputable_cause in matching.FLIGHT_CAUSES
                     else rf.incomputable_cause)
        entry = self._shared.setdefault(entry, entry)
        if airframe is None:
            self._untracked[blank] = entry
        else:  # keyed by the inventory's own string, so no flight's is kept
            self.by_tail[airframe.tail_number] = entry
        return entry

    def _cause(self, rf: matching.ResolvedFlight, cause: str | None) -> TailCause:
        return TailCause(cause, tuple(sorted(rf.provenance)))

    def _plan(self, rf: matching.ResolvedFlight, cause: str | None) -> TailPlan:
        terms = ccd = None
        if cause is None:  # then the engine UID is a databank key and its CCD profile exists
            multiplier = _engine_multiplier(rf, self.cfg)
            key = (rf.engine_uid, multiplier, rf.efficiency_factor)
            terms = self._terms.get(key)
            if terms is None:
                terms = self._terms[key] = emissions.kernel_terms(
                    self.tables.databank_by_uid[rf.engine_uid].rates, multiplier,
                    rf.efficiency_factor, self.cfg.co2e_factors)
            ccd = self.tables.ccd_by_type[rf.emissions_type]
        return TailPlan.of(rf, cause, terms, ccd, self._texts)


# --- serialization ---

@contextlib.contextmanager
def _writing(outdir: Path) -> Iterator[None]:
    """An OSError from writing a file in `outdir`, staged output or fragment,
    raised as the ConfigError of an output directory that cannot be written."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output_dir: {outdir}: {exc.strerror or exc}") from None


# The numeric cells of a flight_emissions.csv row, from emissions_row's [8:21].
_FLIGHT_NUMBERS = ",%.2f" * 12 + ",%.6f"


class OutputWriter:
    """The seven output files of one run, staged and then committed together.

    ``with OutputWriter(cfg) as out``: `add` each flight in input order and
    hand every flight, in blocks, to `rollup.add`, then `commit`. Each file
    is staged as `<name>.tmp` in the output directory, which entering
    creates, and replaces its target only in `commit`. Leaving the `with`
    block without a commit removes every staged file, so an error or an
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
            import logging  # only a run without UNEP constants pays for the import
            logging.getLogger(__name__).warning(
                "no UNEP baseline constants configured; "
                "scatter_seat_mile.csv omits the baseline column")
        with _writing(self.outdir):
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
        return self

    def add(self, flight: ingest.FlightRecord, plan: TailPlan, row: tuple | None) -> None:
        """Write one flight's three rows if it was computed (`row`, the tuple
        of `emissions.emissions_row`, is not None). The flight is rolled up
        apart from this, through `rollup.add`."""
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
        unep = self._unep_cells  # the UNEP step rule: short haul below the cutoff
        if unep is not None:
            short, long, cutoff = unep
            scatter += short if flight.distance_mi < cutoff else long
        seat_mile.write("%s,%.6f%s\n" % (distance, row[20], scatter))

    def commit(self, coverage: CoverageReport) -> None:
        """Write the roll-up files and coverage.json, then replace all seven
        outputs with their staged files."""
        import json  # here, so that `validate` does not pay for the import
        with _writing(self.outdir):
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
            with contextlib.suppress(OSError):  # a staged file left unflushed is dropped
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
        return (parts > 1 and ingest.row_spans(path, parts)) or [None]
    except OSError:  # open_inputs reports the missing or unreadable table
        return [None]


PARENT_CHECK = 4096  # flights between a shard child's checks that its parent lives


def _while_parent_lives(flights: Iterator[ingest.FlightRecord], parent: int,
                        ) -> Iterator[ingest.FlightRecord]:
    """`flights`; after every PARENT_CHECK of them, a shard child whose
    parent, pid `parent`, is gone (SIGKILL leaves it no time to kill its
    children) leaves by `os._exit`."""
    for flight in flights:
        yield flight
        yield from itertools.islice(flights, PARENT_CHECK - 1)
        if os.getppid() != parent:
            os._exit(1)


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
    exit every child is killed and reaped and every file closed; a child whose
    parent was killed by SIGKILL leaves on its own. Fork, not spawn: a child
    inherits the lookup tables instead of building them again, and the
    package starts no thread that a fork could break."""
    running: list[int] = []
    parent = os.getpid()
    with contextlib.ExitStack() as stack:
        try:
            children = []
            if len(spans) > 1:
                import pickle, signal  # only a run that splits imports them
                # Else a child's copy of a buffer is written out again.
                for stream in (sys.stdout, sys.stderr, *streams):
                    stream.flush()
            for span in spans[1:]:
                with _writing(cfg.output_dir):
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
                                    message = (*shard(_while_parent_lives(flights, parent),
                                                       files), report)
                                with _writing(cfg.output_dir):
                                    for file in files:
                                        file.flush()
                            except BaseException as exc:
                                import traceback  # only a child that failed imports it
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
                with _writing(cfg.output_dir):
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
            with _writing(out.outdir):
                while block := list(itertools.islice(flights, agg.BLOCK)):
                    seats, rows = [], []
                    for flight in block:
                        plan, cause, row = compute(flight)
                        coverage.add(cause, plan.flags)
                        out.add(flight, plan, row)
                        seats.append(plan.seats)
                        rows.append(row)
                    out.rollup.add(block, seats, rows)
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
