"""Tables: one declarative `TableSchema` per table, one reader, one writer.

Every table is comma-delimited UTF-8 (a leading byte-order mark is skipped)
with a fixed header row; the package's CSV and number text rules live here.
A schema lists the table's columns, each with a converter that raises
ValueError, a record builder that may raise it too or a grouping step for
long-form tables, and may add a primary key and an optional trailing column.
`read_table` rejects a malformed row (wrong arity, bytes that are not UTF-8,
an oversized field, a refused value) with the file line it starts on and the
reason; only a missing file, a header mismatch, or a repeated primary key of
a table whose keys must be unique aborts a parse.
Numbers must be finite (inf and nan reject the row); -0 is stored as 0.0.
Missing numeric fields are represented as None, never 0. `stream_table` is
the reader itself, one record at a time, so a flight table of any length is
read in constant memory, whole or one `row_spans` span of it;
`read_strict` makes the first rejected row fatal.
`write_table` is the reader's inverse, through the line encoder `csv_line`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import datetime
import functools
import io
import itertools
import math
import os
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

GASES = ("HC", "CO2", "CO", "NOX")
MODES = ("TAKEOFF", "CLIMBOUT", "APPROACH", "IDLE")
REJECTIONS_KEPT = 20  # per IngestReport: all that `validate` prints


class IngestError(Exception):
    """Fatal ingest failure (missing file, bad header, duplicate key)."""


class HeaderMismatchError(IngestError):
    pass


class DuplicateKeyError(IngestError):
    pass


class FlightRecord(NamedTuple):
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


@dataclass(frozen=True)  # not a NamedTuple: the traced benchmark reads it with vars()
class AirframeRecord:
    tail_number: str
    raw_type_designator: str
    seat_count: int
    engine_count: int


@dataclass(frozen=True)  # not a NamedTuple: the traced benchmark reads it with vars()
class TailEngineRecord:
    tail_number: str
    faa_engine_designation: str


@dataclass(frozen=True)  # not a NamedTuple: the traced benchmark reads it with vars()
class EngineCodeRecord:
    faa_code: str
    designation_text: str


@dataclass(frozen=True)  # not a NamedTuple: read with vars(); has a cached_property
class EngineLtoFactors:
    engine_uid: str
    rate_kg_per_s: dict[tuple[str, str], float]

    def rate(self, gas: str, mode: str) -> float:
        return self.rate_kg_per_s[(gas, mode)]

    @functools.cached_property
    def flat_rates(self) -> tuple[float, ...]:
        """The 16 rates flat, the four MODES of each gas in GASES order."""
        return tuple(self.rate_kg_per_s[(gas, mode)] for gas in GASES for mode in MODES)


class CcdKnot(NamedTuple):
    duration_min: float
    emissions_kg: dict[str, float]
    distance_mi: float | None = None


@dataclass(frozen=True)  # not a NamedTuple: read with vars(); has a cached_property
class CcdProfile:
    canonical_type: str
    knots: tuple[CcdKnot, ...]

    @functools.cached_property
    def table(self) -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
        """The knots' durations, ascending, and each knot's masses in GASES
        order: what the interpolation reads."""
        return (tuple(k.duration_min for k in self.knots),
                tuple(tuple(k.emissions_kg[gas] for gas in GASES) for k in self.knots))


class RowRejection(NamedTuple):
    line: int
    reason: str


@dataclass
class IngestReport:
    """A table's exact row counts and its first REJECTIONS_KEPT rejections,
    in the order found, so bad rows do not grow memory."""
    table: str
    accepted: int = 0
    rejected: int = 0
    rejections: list[RowRejection] = field(default_factory=list)

    def reject(self, line: int, reason: str) -> None:
        self.rejected += 1
        if len(self.rejections) < REJECTIONS_KEPT:
            self.rejections.append(RowRejection(line, reason))

    def merge(self, other: IngestReport) -> None:
        """Add `other`, the report of the rows after this one's in the same table."""
        self.accepted += other.accepted
        self.rejected += other.rejected
        self.rejections += other.rejections[:REJECTIONS_KEPT - len(self.rejections)]


# --- columns: a header name and a converter that raises ValueError ---

class Column(NamedTuple):
    name: str
    convert: Callable[[str], Any]


def text(name: str, upper: bool = False) -> Column:
    """Non-empty text, optionally uppercased."""
    def convert(value: str) -> str:
        if not value:
            raise ValueError(f"{name} must be non-empty")
        return value.upper() if upper else value
    return Column(name, convert)


def number(name: str, minimum: float | None = None, strict: bool = False,
           optional: bool = False) -> Column:
    """A finite float, at least (or, strict, above) `minimum`; "" is None if
    optional. -0 gives +0.0, so no output prints a negative zero."""
    bound = f"{'>' if strict else '>='} {minimum}"

    def convert(value: str) -> float | None:
        if optional and value == "":
            return None
        try:
            result = float(value)
        except ValueError:
            raise ValueError(f"{name} must be a number, got {value!r}") from None
        if not math.isfinite(result):
            raise ValueError(f"{name} must be finite, got {result}")
        if minimum is not None and not (result > minimum if strict else result >= minimum):
            raise ValueError(f"{name} must be {bound}, got {result}")
        return result or 0.0  # -0.0 is falsy, so it becomes +0.0
    return Column(name, convert)


def integer(name: str, lo: int, hi: int | None = None, default: int | None = None) -> Column:
    """An int in lo..hi (no upper bound if hi is None); "" is `default` if given."""
    bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"

    def convert(value: str) -> int:
        if default is not None and value == "":
            return default
        try:
            result = int(value)
            float(result)  # an int beyond a double would overflow the arithmetic
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        if result < lo or hi is not None and result > hi:
            raise ValueError(f"{name} must be {bound}, got {result}")
        return result
    return Column(name, convert)


def choice(name: str, options: tuple[str, ...]) -> Column:
    def convert(value: str) -> str:
        if value not in options:
            raise ValueError(f"unknown {name} {value!r}")
        return value
    return Column(name, convert)


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(name: str) -> Column:
    """Exactly YYYY-MM-DD, on every Python version."""
    # A flight table repeats few distinct dates; the cache keeps the format check cheap.
    @functools.lru_cache(maxsize=4096)
    def convert(value: str) -> datetime.date:
        if not _ISO_DATE.fullmatch(value):
            raise ValueError(f"{name} must be YYYY-MM-DD, got {value!r}")
        try:
            return datetime.date.fromisoformat(value)
        except ValueError as exc:  # a day, month or year out of range
            raise ValueError(f"{name} must be a real date, got {value!r}: {exc}") from None
    return Column(name, convert)


def shared(column: Column) -> Column:
    """`column` whose equal values are one object: a table of many rows and
    few distinct values keeps one string of each."""
    return Column(column.name, functools.lru_cache(maxsize=4096)(column.convert))


# --- the schema, its reader and its writer ---

def _fields(record: Any) -> list[tuple]:
    """The one row of a flat record, a NamedTuple or a dataclass."""
    return [record if isinstance(record, tuple) else dataclasses.astuple(record)]


class TableSchema(NamedTuple):
    """How one table is read and written.

    A flat table makes one record per row with `build(*values)`, the values
    in column order; a ValueError from `build` rejects the row, and such a
    row adds no key. A long-form table sets `group` instead: the rows sharing
    their first column make one record, and a ValueError from `group` rejects
    every one of those rows. `rows` is the inverse of either: the value rows
    of one record; values beyond the columns written (an absent optional
    column) are dropped.
    """
    table: str
    columns: tuple[Column, ...]
    build: Callable[..., Any] | None = None
    group: Callable[[str, list[list]], Any] | None = None
    rows: Callable[[Any], list[tuple]] = _fields
    key: tuple[str, ...] = ()
    repeat_fatal: bool = True  # a repeated key aborts the parse, else rejects the row
    optional: Column | None = None  # trailing column a file may add

    @property
    def header(self) -> list[str]:
        return [c.name for c in self.columns]

    def columns_for(self, path: Path, header: list[str] | str | None,
                    ) -> tuple[Column, ...]:  # str: why csv could not split it
        if header == self.header:
            return self.columns
        if self.optional is not None and header == self.header + [self.optional.name]:
            return self.columns + (self.optional,)
        if header is None:
            raise HeaderMismatchError(f"{path}: empty file, expected header {self.header}")
        raise HeaderMismatchError(
            f"{path}: header mismatch, expected {self.header}, got {header}")


# surrogateescape decodes a byte that is not UTF-8 to one of these.
_UNDECODED = re.compile("[\udc80-\udcff]")


# Bytes `row_spans` reads at a time.
_SCAN_BYTES = 1 << 20


def row_spans(path: str | Path, parts: int) -> list[tuple[int, int, int | None]] | None:
    """The table cut into at most `parts` spans of whole rows and about equal
    size, each (start byte, lines before it, its lines; None for the last,
    which reads to the end), or None when the table holds a `"`.

    Each span but the first starts just after an LF. A `"` may open a quoted
    field, in which a line break does not end the row, so a table holding
    one is not cut. Lines end as `csv` ends them: at a CR, an LF or a CRLF.
    """
    size = os.path.getsize(path)
    spans, lines, piece = [], 0, b""
    with open(path, "rb") as fh:
        for target in [size * i // parts for i in range(1, parts)] + [size]:
            start, first = fh.tell(), lines
            while fh.tell() < target or piece[-1:] not in (b"\n", b""):  # then to an LF
                after_cr = piece.endswith(b"\r")
                piece = (fh.read(min(_SCAN_BYTES, target - fh.tell())) if fh.tell() < target
                         else fh.readline(_SCAN_BYTES))
                if b'"' in piece:
                    return None
                lines += (piece.count(b"\n") + piece.count(b"\r") - piece.count(b"\r\n")
                          - (after_cr and piece.startswith(b"\n")))
            if fh.tell() > start:
                spans.append((start, first, lines - first))
    start, first, _ = spans.pop() if spans else (0, 0, 0)
    return [*spans, (start, first, None)]


@contextlib.contextmanager
def stream_table(schema: TableSchema, path: str | Path,
                 span: tuple[int, int, int | None] | None = None,
                 ) -> Iterator[tuple[Iterator, IngestReport]]:
    """A table's accepted records one at a time, in file order, and its report:
    ``with stream_table(schema, path) as (records, report)``.

    The header is checked on entry and the file closed when the block exits.
    Each rejected row goes to the report as it is read, so the counts are
    final once the records are exhausted. A long-form table gives the
    (line, values) of each accepted row, for `read_table` to group.

    `span`, one of `row_spans`, reads only its rows. A span past byte 0 has
    no header and takes the schema's own columns; a byte-order mark there is
    a character of its first row.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    start, lines_before, lines = span or (0, 0, None)
    with open(path, "rb") as raw:
        raw.seek(start)
        with io.TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig",
                              errors="surrogateescape", newline="") as fh:
            reader = csv.reader(itertools.islice(fh, lines))
            try:
                header = None if start else next(reader, None)
            except csv.Error as exc:
                header = str(exc)
            columns = schema.columns if start else schema.columns_for(path, header)
            report = IngestReport(schema.table)
            yield _accepted(schema, columns, reader, lines_before, report), report


def _accepted(schema: TableSchema, columns: tuple[Column, ...], reader: Any,
              lines_before: int, report: IngestReport) -> Iterator:
    converters = [c.convert for c in columns]
    arity = len(columns)
    key_at = [schema.header.index(name) for name in schema.key]
    key_of = itemgetter(*key_at) if key_at else None
    seen: set = set()
    build = schema.build
    while True:
        line = lines_before + reader.line_num + 1
        try:
            row = next(reader, None)
            if row is None:
                return
            if len(row) != arity:
                raise ValueError(f"expected {arity} fields, got {len(row)}")
            joined = "".join(row)
            if not joined.isascii() and _UNDECODED.search(joined):
                raise ValueError("field holds bytes that are not UTF-8")
            values = [convert(value) for convert, value in zip(converters, row)]
            record = build(*values) if build is not None else (line, values)
            if key_of is not None:
                key = key_of(values)
                if key in seen:
                    repeat = "duplicate " + ", ".join(
                        f"{name} {values[i]}" for name, i in zip(schema.key, key_at))
                    if schema.repeat_fatal:
                        raise DuplicateKeyError(f"{schema.table} line {line}: {repeat}")
                    raise ValueError(repeat)
                seen.add(key)
        except (ValueError, csv.Error) as exc:
            report.reject(line, str(exc))
            continue
        report.accepted += 1
        yield record


def read_table(schema: TableSchema, path: str | Path) -> tuple[list, IngestReport]:
    """Parse one table; a rejection gives the file line its row starts on."""
    with stream_table(schema, path) as (accepted, report):
        records = (list(accepted) if schema.build is not None
                   else _grouped(schema, accepted, report))
    return records, report


def read_strict(schema: TableSchema, path: str | Path) -> list:
    """`read_table`'s records; the first rejected row raises IngestError
    "<path> line N: <reason>"."""
    records, report = read_table(schema, path)
    if report.rejected:
        first = report.rejections[0]
        raise IngestError(f"{path} line {first.line}: {first.reason}")
    return records


def _grouped(schema: TableSchema, accepted: Iterator[tuple[int, list]],
             report: IngestReport) -> list:
    """One record per first-column value, in sorted order; a ValueError from
    `schema.group` rejects every row of that record."""
    groups: dict[str, list[tuple[int, list]]] = {}
    for line, values in accepted:
        groups.setdefault(values[0], []).append((line, values))
    records = []
    for name in sorted(groups):
        members = groups[name]
        try:
            records.append(schema.group(name, [values for _, values in members]))
        except ValueError as exc:
            report.accepted -= len(members)
            for line, _ in members:
                report.reject(line, str(exc))
    return records


def csv_cell(cell: str) -> str:
    """A cell holding a comma, a quote or a line break quoted, its quotes
    doubled, as `csv.reader` reads it; any other cell as it is."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def csv_line(row: list[str], numbers: str = "") -> str:
    """One CSV line: the cells of `row`, then `numbers`, formatted cells that
    need no quoting, each led by a comma. A row whose cells need no quoting
    is a plain join."""
    line = ",".join(row)
    if line.count(",") >= len(row) or '"' in line or "\r" in line or "\n" in line:
        line = ",".join(map(csv_cell, row))
    return line + numbers + "\n"


def _format(value: Any) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_table(schema: TableSchema, records: Iterable, path: str | Path) -> None:
    """Write records so that `read_table` parses them back to equal records."""
    rows = [row for record in records for row in schema.rows(record)]
    columns = list(schema.columns)
    if schema.optional is not None and any(row[len(columns)] is not None for row in rows):
        columns.append(schema.optional)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_line([c.name for c in columns]))
        fh.writelines(csv_line([_format(v) for v in row[:len(columns)]]) for row in rows)


# --- the six input tables ---

def _flight(*values: Any) -> FlightRecord:
    if values[4] == values[5]:
        raise ValueError(f"origin equals destination ({values[4]})")
    return FlightRecord(*values)


def _engine_factors(uid: str, rows: list[list]) -> EngineLtoFactors:
    if len(rows) != 16:  # the key makes every (gas, mode) cell distinct
        raise ValueError(f"engine {uid} incomplete: {len(rows)}/16 rates")
    return EngineLtoFactors(uid, {(gas, mode): rate for _, gas, mode, rate in rows})


def _ccd_profile(canonical_type: str, rows: list[list]) -> CcdProfile:
    if len(rows) < 2:
        raise ValueError(f"type {canonical_type} has fewer than 2 knots")
    knots = (CcdKnot(row[1], dict(zip(GASES, row[2:6])), row[6] if len(row) > 6 else None)
             for row in rows)
    return CcdProfile(canonical_type, tuple(sorted(knots, key=attrgetter("duration_min"))))


ONTIME_TABLE = TableSchema(
    "ontime",
    (iso_date("flight_date"), text("carrier"), Column("flight_number", str),
     Column("tail_number", lambda value: value or None), text("origin"), text("dest"),
     number("air_time_min", 0.0, optional=True), number("taxi_in_min", 0.0, optional=True),
     number("taxi_out_min", 0.0, optional=True),
     number("distance_mi", 0.0, strict=True, optional=True)),
    build=_flight)
B43_TABLE = TableSchema(
    "b43",
    (text("tail_number"), shared(text("type_designator")), integer("seat_count", 1),
     integer("engine_count", 1, 4, default=2)),
    build=AirframeRecord, key=("tail_number",))
TAIL_REGISTRY_TABLE = TableSchema(
    "tail_registry", (text("tail_number"), text("engine_designation")),
    build=TailEngineRecord, key=("tail_number",))
ENGINE_CODES_TABLE = TableSchema(
    "engine_codes", (text("faa_code"), text("designation")),
    build=EngineCodeRecord, key=("faa_code",))
ICAO_ENGINES_TABLE = TableSchema(
    "icao_engines",
    (text("engine_uid"), choice("gas", GASES), choice("mode", MODES),
     number("rate_kg_per_s", 0.0)),
    group=_engine_factors,
    rows=lambda e: [(e.engine_uid, gas, mode, e.rate_kg_per_s[(gas, mode)])
                    for gas in GASES for mode in MODES],
    key=("engine_uid", "gas", "mode"))
BADA_CCD_TABLE = TableSchema(
    "bada_ccd",
    (text("canonical_type"), number("duration_min", 0.0, strict=True),
     *(number(f"{gas.lower()}_kg", 0.0) for gas in GASES)),
    group=_ccd_profile,
    rows=lambda p: [(p.canonical_type, k.duration_min,
                     *(k.emissions_kg[gas] for gas in GASES), k.distance_mi)
                    for k in p.knots],
    key=("duration_min", "canonical_type"), repeat_fatal=False,
    optional=number("distance_mi", 0.0, strict=True, optional=True))
INPUT_TABLES = (ONTIME_TABLE, B43_TABLE, TAIL_REGISTRY_TABLE, ENGINE_CODES_TABLE,
                ICAO_ENGINES_TABLE, BADA_CCD_TABLE)


def parse_b43(path: str | Path) -> tuple[list[AirframeRecord], IngestReport]:
    return read_table(B43_TABLE, path)


def parse_tail_registry(path: str | Path) -> tuple[list[TailEngineRecord], IngestReport]:
    return read_table(TAIL_REGISTRY_TABLE, path)


def parse_engine_codes(path: str | Path) -> tuple[list[EngineCodeRecord], IngestReport]:
    return read_table(ENGINE_CODES_TABLE, path)


def parse_icao_databank(path: str | Path) -> tuple[list[EngineLtoFactors], IngestReport]:
    """16 (gas, mode) rows per engine UID; an engine missing any is rejected whole."""
    return read_table(ICAO_ENGINES_TABLE, path)


def parse_bada_ccd(path: str | Path) -> tuple[list[CcdProfile], IngestReport]:
    """Knots sorted by duration per type, whatever the row order. A repeated
    duration rejects the later row; a type with fewer than 2 knots is rejected."""
    return read_table(BADA_CCD_TABLE, path)
