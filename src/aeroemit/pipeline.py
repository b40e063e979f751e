"""Pipeline orchestration: ingest -> resolve -> compute -> aggregate -> write.

`run_pipeline` is one pass over the flight table, in one thread: each
flight is read, resolved, computed, written and added to the exact roll-up,
then dropped, so memory does not grow with the number of flights. A thread
pool cannot speed up the per-flight work, which is pure Python. The outputs
are replaced together after the last flight (`OutputWriter`). Output bytes
depend on the inputs alone. `load_data`, `resolve_all` and `compute_outcomes`
are the same steps over lists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from . import aggregate as agg
from . import emissions, ingest, matching
from .config import ConfigError, RunConfig
from .ingest import CcdKnot, CcdProfile, IngestReport

FLIGHT_EMISSIONS_HEADER = [
    "flight_date", "carrier", "flight_number", "tail_number", "origin", "dest",
    "distance_mi", "air_time_min", "canonical_type", "emissions_type",
    "engine_uid", "provenance",
    "lto_hc_kg", "lto_co2_kg", "lto_co_kg", "lto_nox_kg",
    "ccd_hc_kg", "ccd_co2_kg", "ccd_co_kg", "ccd_nox_kg",
    "lto_co2e_kg", "ccd_co2e_kg", "total_co2e_kg",
    "per_seat_co2e_kg", "per_seat_mile_co2_kg",
]
AIRLINE_HEADER = ["carrier", "total_flights", "emission_flights", "total_seats",
                  "total_co2_kg", "total_co2e_kg", "co2_per_seat_mile",
                  "co2e_per_seat_mile"]
AIRPORT_HEADER = ["airport", "hc_kg", "co2_kg", "co_kg", "nox_kg", "lto_co2e_kg"]
GAS_BREAKDOWN_HEADER = ["cycle", "gas", "raw_kg", "co2e_kg"]
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
    causes: dict[str, int] = field(default_factory=dict)
    fallback_flags: dict[str, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        if self.total_flights == 0:
            return 0.0
        return self.computed_flights / self.total_flights

    def add(self, rf: matching.ResolvedFlight) -> None:
        """Count one flight, resolved or, in `run`, also computed: a flight
        whose emissions are not finite carries NONFINITE_EMISSIONS."""
        self.total_flights += 1
        cause = rf.incomputable_cause
        if cause is None:
            self.computed_flights += 1
        else:
            self.causes[cause] = self.causes.get(cause, 0) + 1
        for flag in rf.provenance:
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
            jaccard_threshold=cfg.jaccard_threshold,
            popular_engine_override=override,
        )
        reports = {r.table: r for r in (ontime_report, b43_report, registry_report,
                                        codes_report, icao_report, bada_report)}
        yield LoadedData(flights, tables, reports)


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


# --- serialization ---

def _mass(value: float) -> str:
    return f"{value:.2f}"


def _ratio(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _quoted(cell: str) -> str:
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_line(row: list[str], numbers: str = "") -> str:
    """One CSV row: the cells of `row`, then `numbers`, formatted cells that
    need no quoting, each led by a comma. A cell of `row` holding a comma, a
    quote or a line break is quoted with its quotes doubled; a row with none is
    a plain join."""
    line = ",".join(row)
    if line.count(",") >= len(row) or '"' in line or "\r" in line or "\n" in line:
        line = ",".join(map(_quoted, row))
    return line + numbers + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    return "".join(map(_csv_line, [header, *rows]))


class OutputWriter:
    """The seven output files of one run, staged and then committed together.

    ``with OutputWriter(cfg) as out``: `add` each outcome in input order, then
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
        if self.cfg.unep is not None:
            seat_mile_header.append("unep_baseline")
            unep = self.cfg.unep
            self._unep_cells = (_ratio(unep.short_haul_co2_per_seat_mile),
                                _ratio(unep.long_haul_co2_per_seat_mile))
        else:
            logger.warning("no UNEP baseline constants configured; "
                           "scatter_seat_mile.csv omits the baseline column")
        try:
            self._flights, self._co2e, self._seat_mile = (
                self._files.enter_context(open(self._staged(name), "w", encoding="utf-8"))
                for name in ("flight_emissions.csv", "scatter_co2e.csv",
                             "scatter_seat_mile.csv"))
            self._flights.write(_csv_line(FLIGHT_EMISSIONS_HEADER))
            self._co2e.write(_csv_line(SCATTER_CO2E_HEADER))
            self._seat_mile.write(_csv_line(seat_mile_header))
        except BaseException:
            self.__exit__()
            raise
        return self

    def add(self, outcome: agg.FlightOutcome) -> None:
        """Roll up one flight and, if it was computed, write its three rows."""
        self.rollup.add(outcome)
        result = outcome.result
        if result is None:
            return
        rf = outcome.resolved
        flight = rf.flight
        distance = repr(flight.distance_mi)
        canonical_type, engine_uid = rf.canonical_type or "", rf.engine_uid or ""
        lto, ccd = result.lto, result.ccd
        total_co2e = f"{result.total_co2e_kg:.2f}"
        per_seat_mile = f"{result.per_seat_mile_co2_kg:.6f}"
        self._flights.write(_csv_line([
            flight.flight_date.isoformat(), flight.carrier_code,
            flight.flight_number, flight.tail_number or "", flight.origin,
            flight.destination, distance, repr(flight.air_time_min),
            canonical_type, rf.emissions_type or "", engine_uid,
            "|".join(sorted(rf.provenance))],
            f",{lto.hc:.2f},{lto.co2:.2f},{lto.co:.2f},{lto.nox:.2f}"
            f",{ccd.hc:.2f},{ccd.co2:.2f},{ccd.co:.2f},{ccd.nox:.2f}"
            f",{result.lto_co2e_kg:.2f},{result.ccd_co2e_kg:.2f},{total_co2e}"
            f",{result.per_seat_co2e_kg:.2f},{per_seat_mile}"))
        self._co2e.write(_csv_line([distance, total_co2e, canonical_type, engine_uid,
                                    flight.carrier_code]))
        sm_row = [distance, per_seat_mile, canonical_type, engine_uid,
                  flight.carrier_code]
        if self.cfg.unep is not None:  # the cell of agg.unep_baseline
            short, long = self._unep_cells
            sm_row.append(short if flight.distance_mi < self.cfg.unep.cutoff_mi else long)
        self._seat_mile.write(_csv_line(sm_row))

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
        for name, header, rows in (("airline_summary.csv", AIRLINE_HEADER, airline_rows),
                                   ("airport_lto.csv", AIRPORT_HEADER, airport_rows),
                                   ("gas_breakdown.csv", GAS_BREAKDOWN_HEADER, bd_rows)):
            try:  # the rows are generated here; a total beyond a double overflows
                text = _csv_text(header, rows)
            except OverflowError:
                raise ConfigError(f"{self.outdir / name}: a total is too large for a "
                                  f"float; check the input values") from None
            self._staged(name).write_text(text, encoding="utf-8")
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
        for flight in data.flights:
            outcome = _outcome(matching.resolve_flight(flight, data.tables),
                               data.tables, cfg)
            coverage.add(outcome.resolved)
            out.add(outcome)
        out.commit(coverage)
    return coverage


def validate_inputs(cfg: RunConfig) -> tuple[dict[str, IngestReport], CoverageReport]:
    """Every table's report and the coverage of resolution, in one pass."""
    coverage = CoverageReport()
    with open_inputs(cfg) as data:
        for flight in data.flights:
            coverage.add(matching.resolve_flight(flight, data.tables))
    return data.reports, coverage
