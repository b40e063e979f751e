"""Pipeline orchestration: ingest -> resolve -> compute -> aggregate -> write.

`run_pipeline` is one pass over the flight table, in one thread: each
flight is read, resolved, computed, written and added to the exact roll-up,
then dropped, so memory does not grow with the number of flights. A thread
pool cannot speed up the per-flight work, which is pure Python. Resolution
runs once per tail (`TailPlans`); per flight only the air time and distance
checks and the `emissions.emissions_row` kernel remain, and its flat tuple
goes straight to the writers. The outputs are replaced together after the last
flight (`OutputWriter`). Output bytes depend on the inputs alone; every CSV
line is `ingest.csv_line`'s, and the roll-ups are written through the schemas
`aeroemit report` reads them with (`ROLLUP_TABLES`). `load_data`,
`resolve_all` and `compute_outcomes` are the same steps over lists, through
the reference `resolve_flight` and `flight_emissions`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from . import aggregate as agg
from . import emissions, ingest, matching
from .config import ConfigError, RunConfig
from .ingest import (CcdKnot, CcdProfile, IngestReport, TableSchema, choice, csv_cell, csv_line,
                     integer, number, text)

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

# The roll-up outputs, `<table>.csv`. A record is one row's values; `commit`
# passes each cell already formatted, as text. The masses have no lower bound:
# a flight below its profile's first CCD knot extrapolates to negative masses.
_ROW = dict(build=lambda *values: values, rows=lambda values: [values])
AIRLINE_SUMMARY_TABLE = TableSchema(
    "airline_summary",
    (text("carrier"), integer("total_flights", 0), integer("emission_flights", 0),
     integer("total_seats", 0), number("total_co2_kg"), number("total_co2e_kg"),
     number("co2_per_seat_mile", optional=True), number("co2e_per_seat_mile", optional=True)),
    **_ROW)
AIRPORT_LTO_TABLE = TableSchema(
    "airport_lto",
    (text("airport"), *(number(f"{gas.lower()}_kg") for gas in agg.GASES),
     number("lto_co2e_kg")), **_ROW)
GAS_BREAKDOWN_TABLE = TableSchema(
    "gas_breakdown",
    (choice("cycle", ("LTO", "CCD")), choice("gas", agg.GASES), number("raw_kg"),
     number("co2e_kg")), **_ROW)
ROLLUP_TABLES = (AIRLINE_SUMMARY_TABLE, AIRPORT_LTO_TABLE, GAS_BREAKDOWN_TABLE)


@dataclass
class CoverageReport:
    total_flights: int = 0
    computed_flights: int = 0
    causes: dict[str, int] = field(default_factory=dict)
    fallback_flags: dict[str, int] = field(default_factory=dict)

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
            self.causes[cause] = self.causes.get(cause, 0) + 1
        for flag in flags:
            self.fallback_flags[flag] = self.fallback_flags.get(flag, 0) + 1

    def to_dict(self) -> dict:
        return {
            "total_flights": self.total_flights,
            "computed_flights": self.computed_flights,
            "coverage": self.coverage,
            "incomputable_causes": dict(sorted(self.causes.items())),
            "fallback_flags": dict(sorted(self.fallback_flags.items())),
        }


@dataclass
class LoadedData:
    """The flights, the lookup tables and every table's ingest report. The
    flights are a one-pass iterator inside `open_inputs`, a list from
    `load_data`."""

    flights: Iterable[ingest.FlightRecord]
    tables: matching.LookupTables
    reports: dict[str, IngestReport]


@contextlib.contextmanager
def open_inputs(cfg: RunConfig) -> Iterator[LoadedData]:
    """The inputs, the flights read as they are iterated. The flight table's
    header is checked before any reference table is read."""
    cfg.validate_paths()
    with ingest.stream_table(ingest.ONTIME_TABLE, cfg.ontime) as (flights, ontime_report):
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
        return dataclasses.replace(data, flights=list(data.flights))


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
        rf = dataclasses.replace(rf, incomputable_cause=matching.NONFINITE_EMISSIONS)
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
           terms: tuple[float, ...] | None, ccd: tuple | None) -> TailPlan:
        flags = tuple(sorted(rf.provenance))
        canonical_type = csv_cell(rf.canonical_type or "")
        engine_uid = csv_cell(rf.engine_uid or "")
        return cls(cause, flags, rf.seat_count or 0,
                   sys.intern(f",{canonical_type},{csv_cell(rf.emissions_type or '')},"
                              f"{engine_uid},{csv_cell('|'.join(flags))}"),
                   sys.intern(f",{canonical_type},{engine_uid}"), terms, ccd)


class TailPlans:
    """Each tail's `TailPlan`, built on its first flight by `resolve_flight`.

    Only tails of the airframe inventory get an entry; a blank tail and an
    unknown tail each share one plan and add no entry, so dirty data does not
    grow the dict. Equal plans are one object, and `TailPlan.of` interns the CSV cells.
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
        plan = TailPlan.of(rf, cause, terms, ccd)
        return self._shared.setdefault(plan, plan)


# --- serialization ---

def _mass(value: float) -> str:
    return f"{value:.2f}"


def _ratio(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


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
        self.rollup = agg.RollUpAccumulator(cfg.co2e_factors)
        self._files = contextlib.ExitStack()
        self._committed = False

    def _staged(self, name: str) -> Path:
        return self.outdir / (name + ".tmp")

    def __enter__(self) -> OutputWriter:
        self.outdir.mkdir(parents=True, exist_ok=True)
        seat_mile_header = list(SCATTER_SEAT_MILE_HEADER)
        self._unep_cells = None
        if self.cfg.unep is not None:
            seat_mile_header.append("unep_baseline")
            unep = self.cfg.unep
            self._unep_cells = ("," + _ratio(unep.short_haul_co2_per_seat_mile),
                                "," + _ratio(unep.long_haul_co2_per_seat_mile),
                                unep.cutoff_mi)
        else:
            logger.warning("no UNEP baseline constants configured; "
                           "scatter_seat_mile.csv omits the baseline column")
        try:
            self._flights, self._co2e, self._seat_mile = (
                self._files.enter_context(open(self._staged(name), "w", encoding="utf-8"))
                for name in ("flight_emissions.csv", "scatter_co2e.csv",
                             "scatter_seat_mile.csv"))
            self._flights.write(csv_line(FLIGHT_EMISSIONS_HEADER))
            self._co2e.write(csv_line(SCATTER_CO2E_HEADER))
            self._seat_mile.write(csv_line(seat_mile_header))
        except BaseException:
            self.__exit__()
            raise
        return self

    def add(self, flight: ingest.FlightRecord, plan: TailPlan, row: tuple | None) -> None:
        """Roll up one flight and, if it was computed (`row`, the tuple of
        `emissions.emissions_row`, is not None), write its three rows."""
        self.rollup.add(flight, plan.seats, row)
        if row is None:
            return
        distance = repr(flight.distance_mi)
        carrier = flight.carrier_code
        self._flights.write(csv_line(
            [flight.flight_date.isoformat(), carrier, flight.flight_number,
             flight.tail_number or "", flight.origin, flight.destination],
            f",{distance},{flight.air_time_min!r}{plan.cells}" + _FLIGHT_NUMBERS % row[8:21]))
        scatter = f"{plan.scatter_cells},{csv_cell(carrier)}"
        self._co2e.write("%s,%.2f%s\n" % (distance, row[18], scatter))
        unep = self._unep_cells  # the cell of agg.unep_baseline
        if unep is not None:
            short, long, cutoff = unep
            scatter += short if flight.distance_mi < cutoff else long
        self._seat_mile.write("%s,%.6f%s\n" % (distance, row[20], scatter))

    def commit(self, coverage: CoverageReport) -> None:
        """Write the roll-up files and coverage.json, then replace all seven
        outputs with their staged files."""
        rollup = self.rollup.finish()
        factors = self.cfg.co2e_factors
        airline_rows = (
            [s.carrier_code, str(s.total_flights), str(s.emission_flights),
             str(s.total_seats), _mass(s.total_co2_kg), _mass(s.total_co2e_kg),
             _ratio(s.co2_per_seat_mile), _ratio(s.co2e_per_seat_mile)]
            for s in rollup.airlines)
        airport_rows = (
            [a.airport, *(_mass(a.gas_totals.kg(gas)) for gas in agg.GASES),
             _mass(a.lto_co2e_kg)]
            for a in rollup.airports)
        bd_rows = ([cycle, gas, _mass(totals.kg(gas)), _mass(totals.co2e_kg(gas, factors))]
                   for cycle, totals in (("LTO", rollup.lto), ("CCD", rollup.ccd))
                   for gas in agg.GASES)
        for schema, rows in zip(ROLLUP_TABLES, (airline_rows, airport_rows, bd_rows)):
            name = f"{schema.table}.csv"
            try:  # the rows are generated here; a total beyond a double overflows
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


def run_pipeline(cfg: RunConfig) -> CoverageReport:
    """Every stage in one pass over the flight table; the outputs are
    committed after the last flight."""
    _check_output_dir(Path(cfg.output_dir))
    coverage = CoverageReport()
    with open_inputs(cfg) as data, OutputWriter(cfg) as out:
        compute = TailPlans(data.tables, cfg).compute
        for flight in data.flights:
            plan, cause, row = compute(flight)
            coverage.add(cause, plan.flags)
            out.add(flight, plan, row)
        out.commit(coverage)
    return coverage


def validate_inputs(cfg: RunConfig) -> tuple[dict[str, IngestReport], CoverageReport]:
    """Every table's report and the coverage of resolution, in one pass."""
    coverage = CoverageReport()
    with open_inputs(cfg) as data:
        resolve = TailPlans(data.tables, cfg).resolve
        for flight in data.flights:
            plan, cause = resolve(flight)
            coverage.add(cause, plan.flags)
    return data.reports, coverage
