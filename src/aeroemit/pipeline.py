"""Pipeline orchestration: ingest -> resolve -> compute -> aggregate -> write.

Compute is one in-order pass over the resolved flights in one thread: the
per-flight work is pure Python, which a thread pool cannot run in parallel.
Output bytes depend on the inputs alone.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path

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
    flights: list[ingest.FlightRecord]
    tables: matching.LookupTables
    reports: dict[str, IngestReport]


def load_data(cfg: RunConfig) -> LoadedData:
    cfg.validate_paths()
    flights, ontime_report = ingest.parse_ontime(cfg.ontime)
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
    return LoadedData(flights, tables, reports)


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


def compute_outcomes(resolved: list[matching.ResolvedFlight], data: LoadedData,
                     cfg: RunConfig, threads: int | None = None,
                     ) -> list[agg.FlightOutcome]:
    """Per-flight emissions, in input order. `threads` is ignored; it is removed
    once perfbench/spans.py stops passing `threads=1`."""
    engines = data.tables.databank_by_uid
    profiles = data.tables.ccd_by_type
    per_engine = cfg.engine_multiplier_mode == "per-engine"
    return [agg.FlightOutcome(rf, emissions.flight_emissions(
                rf, engines, profiles, cfg.co2e_factors,
                engine_multiplier=float(rf.engine_count or 1) if per_engine else 1.0,
                interpolation_key=cfg.interpolation_key))
            for rf in resolved]


def coverage_report(resolved: list[matching.ResolvedFlight]) -> CoverageReport:
    """Computable flights, incomputable causes and resolution flags.

    `resolve_flight` only marks a flight computable when its engine and CCD
    profile exist, so every computable flight gets emissions.
    """
    report = CoverageReport()
    for rf in resolved:
        report.total_flights += 1
        if rf.is_computable:
            report.computed_flights += 1
        elif rf.incomputable_cause is not None:
            report.causes[rf.incomputable_cause] = report.causes.get(
                rf.incomputable_cause, 0) + 1
        for flag in rf.provenance:
            if flag != matching.INCOMPUTABLE:
                report.fallback_flags[flag] = report.fallback_flags.get(flag, 0) + 1
    return report


# --- serialization ---

def _mass(value: float) -> str:
    return f"{value:.2f}"


def _ratio(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_outputs(outcomes: list[agg.FlightOutcome], cfg: RunConfig,
                  coverage: CoverageReport) -> None:
    """Write all run artifacts; each file lands atomically (temp then rename)."""
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    factors = cfg.co2e_factors

    rows = []
    for outcome in outcomes:
        result = outcome.result
        if result is None:
            continue
        rf = outcome.resolved
        flight = rf.flight
        rows.append([
            flight.flight_date.isoformat(), flight.carrier_code,
            flight.flight_number, flight.tail_number or "", flight.origin,
            flight.destination, repr(flight.distance_mi), repr(flight.air_time_min),
            rf.canonical_type or "", rf.emissions_type or "", rf.engine_uid or "",
            "|".join(sorted(rf.provenance)),
            _mass(result.lto.hc), _mass(result.lto.co2), _mass(result.lto.co),
            _mass(result.lto.nox),
            _mass(result.ccd.hc), _mass(result.ccd.co2), _mass(result.ccd.co),
            _mass(result.ccd.nox),
            _mass(result.lto_co2e_kg), _mass(result.ccd_co2e_kg),
            _mass(result.total_co2e_kg),
            _mass(result.per_seat_co2e_kg), _ratio(result.per_seat_mile_co2_kg),
        ])
    _atomic_write(outdir / "flight_emissions.csv",
                  _csv_text(FLIGHT_EMISSIONS_HEADER, rows))

    rollup = agg.roll_up(outcomes, factors)
    airline_rows = []
    for s in rollup.airlines:
        airline_rows.append([
            s.carrier_code, str(s.total_flights), str(s.emission_flights),
            str(s.total_seats), _mass(s.total_co2_kg), _mass(s.total_co2e_kg),
            _ratio(s.co2_per_seat_mile), _ratio(s.co2e_per_seat_mile),
        ])
    _atomic_write(outdir / "airline_summary.csv",
                  _csv_text(AIRLINE_HEADER, airline_rows))

    airport_rows = []
    for a in rollup.airports:
        masses = [_mass(a.gas_totals.kg(gas)) for gas in agg.GASES]
        airport_rows.append([a.airport, *masses, _mass(a.lto_co2e_kg)])
    _atomic_write(outdir / "airport_lto.csv", _csv_text(AIRPORT_HEADER, airport_rows))

    bd_rows = []
    for breakdown in (rollup.lto, rollup.ccd):
        for gas in agg.GASES:
            bd_rows.append([breakdown.cycle, gas, _mass(breakdown.raw.kg(gas)),
                            _mass(breakdown.co2e_kg(gas, factors))])
    _atomic_write(outdir / "gas_breakdown.csv",
                  _csv_text(GAS_BREAKDOWN_HEADER, bd_rows))

    co2e_rows = [[repr(p.distance_mi), _mass(p.value), p.canonical_type,
                  p.engine_uid, p.carrier_code] for p in rollup.co2e_points]
    _atomic_write(outdir / "scatter_co2e.csv",
                  _csv_text(SCATTER_CO2E_HEADER, co2e_rows))

    header = list(SCATTER_SEAT_MILE_HEADER)
    if cfg.unep is not None:
        header.append("unep_baseline")
    else:
        logger.warning("no UNEP baseline constants configured; "
                       "scatter_seat_mile.csv omits the baseline column")
    sm_rows = []
    for p in rollup.seat_mile_points:
        row = [repr(p.distance_mi), _ratio(p.value), p.canonical_type,
               p.engine_uid, p.carrier_code]
        if cfg.unep is not None:
            row.append(_ratio(agg.unep_baseline(p.distance_mi, cfg.unep)))
        sm_rows.append(row)
    _atomic_write(outdir / "scatter_seat_mile.csv", _csv_text(header, sm_rows))

    _atomic_write(outdir / "coverage.json",
                  json.dumps(coverage.to_dict(), indent=2) + "\n")


def _check_output_dir(outdir: Path) -> None:
    """Raise ConfigError when `outdir` or its nearest existing ancestor is not a
    directory, so a run fails before it loads anything."""
    for path in (outdir, *outdir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output_dir: {path} is not a directory")
            return


def run_pipeline(cfg: RunConfig) -> tuple[list[agg.FlightOutcome], CoverageReport]:
    _check_output_dir(Path(cfg.output_dir))
    data = load_data(cfg)
    resolved = resolve_all(data)
    outcomes = compute_outcomes(resolved, data, cfg)
    coverage = coverage_report(resolved)
    write_outputs(outcomes, cfg, coverage)
    return outcomes, coverage
