"""Parsers for the six delimited-text input tables.

Every table is comma-delimited UTF-8 with a fixed header row. Malformed rows
are rejected with a line number and reason; only a missing file, a header
mismatch, or a duplicate primary key aborts a parse. Numbers must be finite
(inf and nan reject the row). Missing numeric fields are represented as None,
never 0.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

GASES = ("HC", "CO2", "CO", "NOX")
MODES = ("TAKEOFF", "CLIMBOUT", "APPROACH", "IDLE")

ONTIME_HEADER = [
    "flight_date", "carrier", "flight_number", "tail_number", "origin",
    "dest", "air_time_min", "taxi_in_min", "taxi_out_min", "distance_mi",
]
B43_HEADER = ["tail_number", "type_designator", "seat_count", "engine_count"]
TAIL_REGISTRY_HEADER = ["tail_number", "engine_designation"]
ENGINE_CODES_HEADER = ["faa_code", "designation"]
ICAO_HEADER = ["engine_uid", "gas", "mode", "rate_kg_per_s"]
BADA_HEADER = ["canonical_type", "duration_min", "hc_kg", "co2_kg", "co_kg", "nox_kg"]
# Optional trailing column enabling distance-keyed CCD interpolation.
BADA_DISTANCE_COLUMN = "distance_mi"


class IngestError(Exception):
    """Fatal ingest failure (missing file, bad header, duplicate key)."""


class HeaderMismatchError(IngestError):
    pass


class DuplicateKeyError(IngestError):
    pass


@dataclass(frozen=True)
class FlightRecord:
    flight_date: datetime.date
    carrier_code: str
    flight_number: str
    tail_number: str | None
    origin: str
    destination: str
    air_time_min: float | None
    taxi_in_min: float | None
    taxi_out_min: float | None
    distance_mi: float | None

    @property
    def incomputable(self) -> bool:
        """True when required inputs for the emissions pipeline are absent."""
        return self.tail_number is None or self.air_time_min is None


@dataclass
class AirframeRecord:
    tail_number: str
    raw_type_designator: str
    seat_count: int
    engine_count: int
    canonical_type: str = ""


@dataclass(frozen=True)
class TailEngineRecord:
    tail_number: str
    faa_engine_designation: str


@dataclass(frozen=True)
class EngineCodeRecord:
    faa_code: str
    designation_text: str


@dataclass(frozen=True)
class EngineLtoFactors:
    engine_uid: str
    rate_kg_per_s: dict[tuple[str, str], float]

    def rate(self, gas: str, mode: str) -> float:
        return self.rate_kg_per_s[(gas, mode)]


@dataclass(frozen=True)
class CcdKnot:
    duration_min: float
    emissions_kg: dict[str, float]
    distance_mi: float | None = None


@dataclass(frozen=True)
class CcdProfile:
    canonical_type: str
    knots: tuple[CcdKnot, ...]


@dataclass
class RowRejection:
    line: int
    reason: str


@dataclass
class IngestReport:
    table: str
    accepted: int = 0
    rejected: int = 0
    rejections: list[RowRejection] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def reject(self, line: int, reason: str) -> None:
        self.rejected += 1
        self.rejections.append(RowRejection(line, reason))


def _read_rows(path: str | Path, expected_header: list[str],
               optional_trailing: str | None = None) -> tuple[list[list[str]], bool]:
    """Read all rows, enforcing the header. Returns (rows, has_optional_column)."""
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMismatchError(f"{path}: empty file, expected header {expected_header}")
        has_optional = False
        if header != expected_header:
            if optional_trailing is not None and header == expected_header + [optional_trailing]:
                has_optional = True
            else:
                raise HeaderMismatchError(
                    f"{path}: header mismatch, expected {expected_header}, got {header}")
        return list(reader), has_optional


def _finite(text: str, name: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _opt_float(text: str, name: str, minimum: float | None = None,
               strict_min: bool = False) -> float | None:
    if text == "":
        return None
    value = _finite(text, name)
    if minimum is not None:
        if strict_min and not value > minimum:
            raise ValueError(f"{name} must be > {minimum}, got {value}")
        if not strict_min and not value >= minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def parse_ontime(path: str | Path) -> tuple[list[FlightRecord], IngestReport]:
    rows, _ = _read_rows(path, ONTIME_HEADER)
    report = IngestReport("ontime")
    records: list[FlightRecord] = []
    for lineno, row in enumerate(rows, start=2):
        try:
            records.append(_parse_ontime_row(row))
            report.accepted += 1
        except (ValueError, IndexError) as exc:
            report.reject(lineno, str(exc))
    return records, report


def _parse_ontime_row(row: list[str]) -> FlightRecord:
    if len(row) != len(ONTIME_HEADER):
        raise ValueError(f"expected {len(ONTIME_HEADER)} fields, got {len(row)}")
    (date_s, carrier, number, tail, origin, dest,
     air_time_s, taxi_in_s, taxi_out_s, distance_s) = row
    flight_date = datetime.date.fromisoformat(date_s)
    if not carrier:
        raise ValueError("carrier must be non-empty")
    if not origin or not dest:
        raise ValueError("origin and dest must be non-empty")
    if origin == dest:
        raise ValueError(f"origin equals destination ({origin})")
    return FlightRecord(
        flight_date=flight_date,
        carrier_code=carrier,
        flight_number=number,
        tail_number=tail or None,
        origin=origin,
        destination=dest,
        air_time_min=_opt_float(air_time_s, "air_time_min", 0.0),
        taxi_in_min=_opt_float(taxi_in_s, "taxi_in_min", 0.0),
        taxi_out_min=_opt_float(taxi_out_s, "taxi_out_min", 0.0),
        distance_mi=_opt_float(distance_s, "distance_mi", 0.0, strict_min=True),
    )


def parse_b43(path: str | Path) -> tuple[list[AirframeRecord], IngestReport]:
    rows, _ = _read_rows(path, B43_HEADER)
    report = IngestReport("b43")
    records: list[AirframeRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != len(B43_HEADER):
                raise ValueError(f"expected {len(B43_HEADER)} fields, got {len(row)}")
            tail, designator, seats_s, engines_s = row
            if not tail:
                raise ValueError("tail_number must be non-empty")
            if tail in seen:
                raise DuplicateKeyError(f"b43 line {lineno}: duplicate tail_number {tail}")
            if not designator:
                raise ValueError("type_designator must be non-empty")
            seats = int(seats_s)
            if seats < 1:
                raise ValueError(f"seat_count must be >= 1, got {seats}")
            engines = int(engines_s) if engines_s else 2
            if engines not in (1, 2, 3, 4):
                raise ValueError(f"engine_count must be in 1..4, got {engines}")
            seen.add(tail)
            records.append(AirframeRecord(tail, designator, seats, engines))
            report.accepted += 1
        except ValueError as exc:
            report.reject(lineno, str(exc))
    records.sort(key=lambda r: r.tail_number)
    return records, report


def parse_tail_registry(path: str | Path) -> tuple[list[TailEngineRecord], IngestReport]:
    rows, _ = _read_rows(path, TAIL_REGISTRY_HEADER)
    report = IngestReport("tail_registry")
    records: list[TailEngineRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != 2:
                raise ValueError(f"expected 2 fields, got {len(row)}")
            tail, designation = row
            if not tail:
                raise ValueError("tail_number must be non-empty")
            if not designation:
                raise ValueError("engine_designation must be non-empty")
            if tail in seen:
                raise DuplicateKeyError(
                    f"tail_registry line {lineno}: duplicate tail_number {tail}")
            seen.add(tail)
            records.append(TailEngineRecord(tail, designation))
            report.accepted += 1
        except ValueError as exc:
            report.reject(lineno, str(exc))
    records.sort(key=lambda r: r.tail_number)
    return records, report


def parse_engine_codes(path: str | Path) -> tuple[list[EngineCodeRecord], IngestReport]:
    rows, _ = _read_rows(path, ENGINE_CODES_HEADER)
    report = IngestReport("engine_codes")
    records: list[EngineCodeRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != 2:
                raise ValueError(f"expected 2 fields, got {len(row)}")
            code, text = row
            if not code:
                raise ValueError("faa_code must be non-empty")
            if not text:
                raise ValueError("designation must be non-empty")
            if code in seen:
                raise DuplicateKeyError(
                    f"engine_codes line {lineno}: duplicate faa_code {code}")
            seen.add(code)
            records.append(EngineCodeRecord(code, text))
            report.accepted += 1
        except ValueError as exc:
            report.reject(lineno, str(exc))
    records.sort(key=lambda r: r.faa_code)
    return records, report


def parse_icao_databank(path: str | Path) -> tuple[list[EngineLtoFactors], IngestReport]:
    """Parse long-form engine factors: 16 (gas, mode) rows per engine UID.

    A duplicate (uid, gas, mode) cell is fatal. Rows of engines that end up
    with fewer than all 16 rates are reclassified as rejected.
    """
    rows, _ = _read_rows(path, ICAO_HEADER)
    report = IngestReport("icao_engines")
    cells: dict[str, dict[tuple[str, str], float]] = {}
    lines_by_uid: dict[str, list[int]] = {}
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            uid, gas, mode, rate_s = row
            if not uid:
                raise ValueError("engine_uid must be non-empty")
            if gas not in GASES:
                raise ValueError(f"unknown gas {gas!r}")
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}")
            rate = _finite(rate_s, "rate_kg_per_s")
            if rate < 0:
                raise ValueError(f"negative rate {rate} for {uid} {gas}/{mode}")
            engine = cells.setdefault(uid, {})
            if (gas, mode) in engine:
                raise DuplicateKeyError(
                    f"icao_engines line {lineno}: duplicate cell for {uid} {gas}/{mode}")
            engine[(gas, mode)] = rate
            lines_by_uid.setdefault(uid, []).append(lineno)
            report.accepted += 1
        except DuplicateKeyError:
            raise
        except ValueError as exc:
            report.reject(lineno, str(exc))
    records: list[EngineLtoFactors] = []
    for uid in sorted(cells):
        engine = cells[uid]
        if len(engine) != 16:
            report.accepted -= len(engine)
            for lineno in lines_by_uid[uid]:
                report.reject(lineno, f"engine {uid} incomplete: {len(engine)}/16 rates")
            continue
        records.append(EngineLtoFactors(uid, dict(engine)))
    return records, report


def parse_bada_ccd(path: str | Path) -> tuple[list[CcdProfile], IngestReport]:
    """Parse CCD profiles; knots are sorted by duration per airframe type.

    Row order in the file is irrelevant. A duplicate duration within a type
    rejects the later occurrence; a type with fewer than 2 valid knots is
    rejected entirely.
    """
    rows, has_distance = _read_rows(path, BADA_HEADER, optional_trailing=BADA_DISTANCE_COLUMN)
    report = IngestReport("bada_ccd")
    expected_len = len(BADA_HEADER) + (1 if has_distance else 0)
    knots: dict[str, dict[float, CcdKnot]] = {}
    lines: dict[str, dict[float, int]] = {}
    for lineno, row in enumerate(rows, start=2):
        try:
            if len(row) != expected_len:
                raise ValueError(f"expected {expected_len} fields, got {len(row)}")
            ctype = row[0]
            if not ctype:
                raise ValueError("canonical_type must be non-empty")
            duration = _finite(row[1], "duration_min")
            if duration <= 0:
                raise ValueError(f"duration_min must be positive, got {duration}")
            emissions = {}
            for gas, text in zip(("HC", "CO2", "CO", "NOX"), row[2:6]):
                mass = _finite(text, f"{gas} mass")
                if mass < 0:
                    raise ValueError(f"negative {gas} mass {mass}")
                emissions[gas] = mass
            distance = None
            if has_distance:
                distance = _opt_float(row[6], BADA_DISTANCE_COLUMN, 0.0, strict_min=True)
            per_type = knots.setdefault(ctype, {})
            if duration in per_type:
                raise ValueError(f"duplicate duration {duration} for type {ctype}")
            per_type[duration] = CcdKnot(duration, emissions, distance)
            lines.setdefault(ctype, {})[duration] = lineno
            report.accepted += 1
        except ValueError as exc:
            report.reject(lineno, str(exc))
    profiles: list[CcdProfile] = []
    for ctype in sorted(knots):
        per_type = knots[ctype]
        if len(per_type) < 2:
            report.accepted -= len(per_type)
            for duration, lineno in lines[ctype].items():
                report.reject(lineno, f"type {ctype} has fewer than 2 knots")
            continue
        ordered = tuple(per_type[d] for d in sorted(per_type))
        profiles.append(CcdProfile(ctype, ordered))
    return profiles, report


# --- serializers (round-trip counterparts of the parsers) ---

def _fmt(value: float | int | None) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str | Path, header: list[str], rows: Iterable[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_ontime(records: list[FlightRecord], path: str | Path) -> None:
    _write_csv(path, ONTIME_HEADER, (
        [r.flight_date.isoformat(), r.carrier_code, r.flight_number,
         r.tail_number or "", r.origin, r.destination,
         _fmt(r.air_time_min), _fmt(r.taxi_in_min), _fmt(r.taxi_out_min),
         _fmt(r.distance_mi)]
        for r in records))


def write_b43(records: list[AirframeRecord], path: str | Path) -> None:
    _write_csv(path, B43_HEADER, (
        [r.tail_number, r.raw_type_designator, str(r.seat_count), str(r.engine_count)]
        for r in records))


def write_tail_registry(records: list[TailEngineRecord], path: str | Path) -> None:
    _write_csv(path, TAIL_REGISTRY_HEADER, (
        [r.tail_number, r.faa_engine_designation] for r in records))


def write_engine_codes(records: list[EngineCodeRecord], path: str | Path) -> None:
    _write_csv(path, ENGINE_CODES_HEADER, (
        [r.faa_code, r.designation_text] for r in records))


def write_icao_databank(records: list[EngineLtoFactors], path: str | Path) -> None:
    rows = []
    for r in sorted(records, key=lambda e: e.engine_uid):
        for gas in GASES:
            for mode in MODES:
                rows.append([r.engine_uid, gas, mode, _fmt(r.rate_kg_per_s[(gas, mode)])])
    _write_csv(path, ICAO_HEADER, rows)


def write_bada_ccd(profiles: list[CcdProfile], path: str | Path) -> None:
    has_distance = any(k.distance_mi is not None for p in profiles for k in p.knots)
    header = BADA_HEADER + ([BADA_DISTANCE_COLUMN] if has_distance else [])
    rows = []
    for p in sorted(profiles, key=lambda p: p.canonical_type):
        for k in p.knots:
            row = [p.canonical_type, _fmt(k.duration_min),
                   _fmt(k.emissions_kg["HC"]), _fmt(k.emissions_kg["CO2"]),
                   _fmt(k.emissions_kg["CO"]), _fmt(k.emissions_kg["NOX"])]
            if has_distance:
                row.append(_fmt(k.distance_mi))
            rows.append(row)
    _write_csv(path, header, rows)
