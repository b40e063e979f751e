"""Tables: one declarative `TableSchema` per table, one reader, one writer.

Every table is comma-delimited UTF-8 (a leading byte-order mark is skipped)
with a fixed header row; the package's CSV and number text rules live here.
A schema lists the table's columns, each with a converter that raises
ValueError, a record builder that may raise it too or a grouping step for
long-form tables, and may add a primary key and an optional trailing column.
The flight table adds a kernel that reads most rows whole; a row it cannot
settle goes through the columns. The ICAO table adds one that reads the whole
table a column at a time, in chunks of whole engines; a table with any row it
cannot settle is read again through the columns. The columns stay the one
definition of what is accepted and of every rejection message.
`read_table(schema, path)` reads every table and rejects a malformed row
(wrong arity, a NUL, bytes that are not UTF-8, an oversized field, a refused
value) with the file line it starts on and the reason; only a missing or unreadable
file, a header mismatch, or a repeated primary key of a table whose keys must
be unique aborts a parse.
Numbers must be finite (inf and nan reject the row); -0 is stored as 0.0.
Missing numeric fields are represented as None, never 0. `stream_table` is
the reader itself, one record at a time, so a flight table of any length is
read in constant memory, whole or one `row_spans` span of it, into an
`IngestReport`, a mutable `Record`; `read_strict` makes the first rejected
row fatal.
`write_table` is the reader's inverse, through the line encoder `csv_line`.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import functools
import io
import itertools
import math
import os
import re
import sys
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

GASES = ("HC", "CO2", "CO", "NOX")
MODES = ("TAKEOFF", "CLIMBOUT", "APPROACH", "IDLE")
# Each (gas, mode)'s index in `EngineLtoFactors.rates`: the four MODES of each gas in GASES order.
_RATE_INDEX = {key: i for i, key in enumerate(itertools.product(GASES, MODES))}
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


class AirframeRecord(NamedTuple):
    tail_number: str
    raw_type_designator: str
    seat_count: int
    engine_count: int


class Record:
    """Base of the mutable counters `IngestReport`, `pipeline.CoverageReport`
    and `aggregate.Sums`, kept in `__slots__` without the import cost of
    `dataclasses`: its slots are its `_fields`, its constructor's parameters,
    and it equals a record of its own class with equal fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # mutable: equal records may differ later

    def merge(self, other: Record) -> None:
        """Add each field of `other`, the same counter over other rows."""
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class EngineLtoFactors(NamedTuple):
    engine_uid: str
    rates: tuple[float, ...]  # kg/s, in `_RATE_INDEX` order

    def rate(self, gas: str, mode: str) -> float:
        return self.rates[_RATE_INDEX[gas, mode]]


class CcdProfile(NamedTuple):
    canonical_type: str
    durations: tuple[float, ...]  # each knot's, ascending
    masses: tuple[tuple[float, float, float, float], ...]  # each knot's, in GASES order
    distances: tuple[float | None, ...]  # each knot's, None when the table gives none


class RowRejection(NamedTuple):
    line: int
    reason: str


class IngestReport(Record):
    """A table's exact row counts and its first REJECTIONS_KEPT rejections,
    in the order found, so bad rows do not grow memory."""

    __slots__ = _fields = ("table", "accepted", "rejected", "rejections")

    def __init__(self, table: str, accepted: int = 0, rejected: int = 0,
                 rejections: list[RowRejection] | None = None) -> None:
        self.table = table
        self.accepted = accepted
        self.rejected = rejected
        self.rejections = [] if rejections is None else rejections

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

class TableSchema(NamedTuple):
    """How one table is read and written.

    A flat table makes one record per row with `build(*values)`, the values
    in column order; a ValueError from `build` rejects the row, and such a
    row adds no key. A long-form table sets `group` instead: the rows sharing
    their first column make one record, in the form the emissions kernel
    reads, and a ValueError from `group` rejects every one of those rows.
    `rows` is the inverse of either: the value rows of one record; values
    beyond the columns written (an absent optional column) are dropped. A
    flat table may set `kernel`, which reads a row of the table's own columns
    whole: it gives the record the columns and `build` would give, which
    holds the row's values in column order, or None (or raises ValueError)
    to send the row through the columns. A long-form table may set `kernel`
    to read the table whole: given the csv reader of the rows after a header
    of its own columns, it gives the records `group` would give, and the
    count of rows they hold, when the columns accept every row and `group`
    every record; else None, and `read_table` reads the table again through
    the columns.
    """
    table: str
    columns: tuple[Column, ...]
    build: Callable[..., Any] | None = None
    group: Callable[[str, list[list]], Any] | None = None
    rows: Callable[[Any], list[tuple]] = lambda record: [record]
    key: tuple[str, ...] = ()
    repeat_fatal: bool = True  # a repeated key aborts the parse, else rejects the row
    optional: Column | None = None  # trailing column a file may add
    kernel: Callable[[Any], Any] | None = None  # a row's or, long-form, the table's

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
# A NUL as `_rows`' reader gives it: on 3.10, whose csv module reads on inside a
# quoted field after a NUL, a lone surrogate that surrogateescape never gives.
_NUL = "\0" if sys.version_info >= (3, 11) else "\udc00"


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
                lines += piece.count(b"\n")
                if after_cr or b"\r" in piece:  # so a piece with no CR is counted once
                    lines += (piece.count(b"\r") - piece.count(b"\r\n")
                              - (after_cr and piece.startswith(b"\n")))
            if fh.tell() > start:
                spans.append((start, first, lines - first))
    start, first, _ = spans.pop() if spans else (0, 0, 0)
    return [*spans, (start, first, None)]


def _read_error(path: Path, exc: OSError) -> IngestError:
    return IngestError(f"{path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _rows(schema: TableSchema, path: Path, start: int = 0, lines: int | None = None,
          ) -> Iterator[tuple[tuple[Column, ...], Any]]:
    """The columns the header names and a csv reader of the rows after it,
    from byte `start` (a row's first byte; past 0 there is no header and the
    schema's own columns are given) for `lines` lines, or to the end."""
    if not path.is_file():
        raise IngestError(f"input file not found: {path}")
    with contextlib.ExitStack() as files:
        try:
            raw = files.enter_context(open(path, "rb"))
            raw.seek(start)
            fh = files.enter_context(io.TextIOWrapper(
                raw, encoding="utf-8" if start else "utf-8-sig", errors="surrogateescape",
                newline=""))
            text_lines = itertools.islice(fh, lines)
            reader = csv.reader(text_lines if _NUL == "\0" else
                                map(methodcaller("replace", "\0", _NUL), text_lines))
            header = None if start else next(reader, None)
            if header and _NUL in "".join(header):
                header = "line contains NUL"  # as the csv module of Python 3.10 words it
        except csv.Error as exc:
            header = str(exc)
        except OSError as exc:
            raise _read_error(path, exc) from None
        yield schema.columns if start else schema.columns_for(path, header), reader


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
    start, lines_before, lines = span or (0, 0, None)
    with _rows(schema, path, start, lines) as (columns, reader):
        report = IngestReport(schema.table)
        yield _accepted(schema, path, columns, reader, lines_before, report), report


def _accepted(schema: TableSchema, path: Path, columns: tuple[Column, ...], reader: Any,
              lines_before: int, report: IngestReport) -> Iterator:
    converters = [c.convert for c in columns]
    arity = len(columns)
    key_at = [schema.header.index(name) for name in schema.key]
    key_of = itemgetter(*key_at) if key_at else None
    seen: set = set()
    build = schema.build
    kernel = schema.kernel if build is not None and columns is schema.columns else None
    while True:
        line = lines_before + reader.line_num + 1
        try:
            row = next(reader, None)
            if row is None:
                return
            joined = "".join(row)
            if _NUL in joined:  # refused on every Python, in the words of 3.10's csv module
                raise ValueError("line contains NUL")
            if len(row) != arity:
                raise ValueError(f"expected {arity} fields, got {len(row)}")
            if not joined.isascii() and _UNDECODED.search(joined):
                raise ValueError("field holds bytes that are not UTF-8")
            record = None
            if kernel is not None:
                try:
                    record = values = kernel(row)
                except ValueError:  # the columns give the reason
                    pass
            if record is None:
                values = [convert(value) for convert, value in zip(converters, row)]
                record = build(*values) if build is not None else (line, values)
            if key_of is not None:
                key = key_of(values)
                if key in seen:
                    repeat = "duplicate " + ", ".join(
                        f"{name} {values[i]}" for name, i in zip(schema.key, key_at))
                    if schema.repeat_fatal:
                        raise DuplicateKeyError(f"{path} line {line}: {repeat}")
                    raise ValueError(repeat)
                seen.add(key)
        except (ValueError, csv.Error) as exc:
            report.reject(line, str(exc))
            continue
        except OSError as exc:
            raise _read_error(path, exc) from None
        report.accepted += 1
        yield record


def read_table(schema: TableSchema, path: str | Path) -> tuple[list, IngestReport]:
    """Parse one table; a rejection gives the file line its row starts on.
    A long-form table's kernel reads it first; if the kernel gives up, the
    table is read again from its start through the columns."""
    path = Path(path)
    if schema.group is not None and schema.kernel is not None:
        with _rows(schema, path) as (columns, reader):
            try:
                settled = schema.kernel(reader) if columns is schema.columns else None
            except OSError as exc:
                raise _read_error(path, exc) from None
        if settled is not None:
            records, count = settled
            return records, IngestReport(schema.table, count)
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
    groups: dict[str, tuple[list[list], list[int]]] = {}  # the rows and their lines
    for line, values in accepted:
        group = groups.get(values[0])
        if group is None:
            group = groups[values[0]] = ([], [])
        group[0].append(values)
        group[1].append(line)
    records = []
    for name in sorted(groups):
        rows, lines = groups[name]
        try:
            records.append(schema.group(name, rows))
        except ValueError as exc:
            report.accepted -= len(lines)
            for line in lines:
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


# --- the six input tables: immutable NamedTuple records, or (key, value) pairs ---

def _flight(*values: Any) -> FlightRecord:
    if values[4] == values[5]:
        raise ValueError(f"origin equals destination ({values[4]})")
    return FlightRecord(*values)


_FLIGHT_COLUMNS = (
    iso_date("flight_date"), text("carrier"), Column("flight_number", str),
    Column("tail_number", lambda value: value or None), text("origin"), text("dest"),
    number("air_time_min", 0.0, optional=True), number("taxi_in_min", 0.0, optional=True),
    number("taxi_out_min", 0.0, optional=True),
    number("distance_mi", 0.0, strict=True, optional=True))
_flight_date = _FLIGHT_COLUMNS[0].convert  # one date cache for the kernel and the column


def _flight_row(row: list[str]) -> FlightRecord | None:
    """The flight table's kernel: what `_FLIGHT_COLUMNS` and `_flight` make
    of a row they accept, in one call. A number is `float` of its cell plus
    0.0, which turns -0 into +0.0 as `number` does; it must lie in
    [0, inf), or (0, inf) for the distance, which also refuses a NaN. None,
    or a ValueError, leaves the row to the columns."""
    date, carrier, flight_number, tail, origin, dest, air, taxi_in, taxi_out, distance = row
    if not (carrier and origin and dest) or origin == dest:
        return None
    air = float(air) + 0.0 if air else None
    taxi_in = float(taxi_in) + 0.0 if taxi_in else None
    taxi_out = float(taxi_out) + 0.0 if taxi_out else None
    distance = float(distance) + 0.0 if distance else None
    if not ((air is None or 0.0 <= air < math.inf)
            and (taxi_in is None or 0.0 <= taxi_in < math.inf)
            and (taxi_out is None or 0.0 <= taxi_out < math.inf)
            and (distance is None or 0.0 < distance < math.inf)):
        return None
    return tuple.__new__(FlightRecord, (_flight_date(date), carrier, flight_number, tail or None,
                                        origin, dest, air, taxi_in, taxi_out, distance))


_ENGINE_CHUNK = 64 * 16  # rows `_engine_table` reads at a time: whole engines


def _in_rate_order(pairs: Iterable[tuple[int, float]]) -> tuple[float, ...]:
    """An engine's 16 rates, each given with its `_RATE_INDEX` index, in index order."""
    rates = [0.0] * 16
    for index, rate in pairs:
        rates[index] = rate
    return tuple(rates)


def _engine_factors(uid: str, rows: list[list]) -> EngineLtoFactors:
    if len(rows) != 16:  # the key makes every (gas, mode) cell distinct
        raise ValueError(f"engine {uid} incomplete: {len(rows)}/16 rates")
    return EngineLtoFactors(uid, _in_rate_order((_RATE_INDEX[gas, mode], rate)
                                                for _, gas, mode, rate in rows))


def _engine_table(reader: Iterator[list[str]]) -> tuple[list[EngineLtoFactors], int] | None:
    """The ICAO table's kernel: the records, and the count of rows, that the
    columns and `_grouped` make of a table whose every row they accept and
    whose every UID is one run of 16 rows; else None. It reads the rows in
    chunks of whole engines, each chunk freed before the next is read."""
    records: list[EngineLtoFactors] = []
    try:
        for engines in map(_engines, iter(lambda: list(itertools.islice(reader, _ENGINE_CHUNK)),
                                           [])):
            if engines is None:
                return None
            records += engines
    except (csv.Error, ValueError, KeyError, OverflowError):  # the columns give the reason
        return None
    if len({engine.engine_uid for engine in records}) != len(records):  # a UID in two runs
        return None
    records.sort(key=itemgetter(0))
    return records, 16 * len(records)


def _engines(chunk: list[list[str]]) -> list[EngineLtoFactors] | None:
    """The engines of `chunk`, rows of the table from a multiple of 16 on,
    settled a column at a time: each row has 4 cells; each run of 16 rows
    has one UID, non-empty ASCII, no NUL; a (gas, mode) is a key of
    `_RATE_INDEX`, in no run twice; a rate is `float` of its cell plus 0.0
    (as `number` makes -0 +0.0), in [0, inf) and no NaN (their `math.fsum`
    is finite). Else None, or a ValueError, KeyError or OverflowError."""
    uids, gases, modes, cells = zip(*chunk, strict=True)
    heads = uids[::16]
    indices = list(map(_RATE_INDEX.__getitem__, zip(gases, modes)))
    rates = list(map(float.__add__, map(float, cells), itertools.repeat(0.0)))
    if (any(uids[k::16] != heads for k in range(1, 16))  # also a chunk of 16n rows
            or "" in heads or not "".join(heads).isascii() or _NUL in "".join(heads)
            or len(set(zip(uids, indices))) != len(uids)
            or not (math.isfinite(math.fsum(rates)) and min(rates) >= 0.0)):
        return None
    return [EngineLtoFactors(uid, _in_rate_order(zip(indices[i:i + 16], rates[i:i + 16])))
            for uid, i in zip(heads, range(0, len(uids), 16))]


def _ccd_profile(canonical_type: str, rows: list[list]) -> CcdProfile:
    if len(rows) < 2:
        raise ValueError(f"type {canonical_type} has fewer than 2 knots")
    _, durations, *columns = zip(*sorted(rows, key=itemgetter(1)))  # 4 masses, any distances
    return CcdProfile(canonical_type, durations, tuple(zip(*columns[:4])),
                      columns[4] if len(columns) > 4 else (None,) * len(durations))


ONTIME_TABLE = TableSchema("ontime", _FLIGHT_COLUMNS, build=_flight, kernel=_flight_row)
B43_TABLE = TableSchema(
    "b43",
    (text("tail_number"), shared(text("type_designator")), integer("seat_count", 1),
     integer("engine_count", 1, 4, default=2)),
    build=AirframeRecord, key=("tail_number",))
TAIL_REGISTRY_TABLE = TableSchema(
    "tail_registry", (text("tail_number"), text("engine_designation")),
    build=lambda tail, designation: (tail, designation), key=("tail_number",))
ENGINE_CODES_TABLE = TableSchema(
    "engine_codes", (text("faa_code"), text("designation")),
    build=lambda faa_code, designation: (faa_code, designation), key=("faa_code",))
ICAO_ENGINES_TABLE = TableSchema(
    "icao_engines",
    (shared(text("engine_uid")), shared(choice("gas", GASES)), shared(choice("mode", MODES)),
     number("rate_kg_per_s", 0.0)),
    group=_engine_factors, kernel=_engine_table,
    rows=lambda e: [(e.engine_uid, gas, mode, rate)
                    for (gas, mode), rate in zip(_RATE_INDEX, e.rates)],
    key=("engine_uid", "gas", "mode"))
BADA_CCD_TABLE = TableSchema(
    "bada_ccd",
    (text("canonical_type"), number("duration_min", 0.0, strict=True),
     *(number(f"{gas.lower()}_kg", 0.0) for gas in GASES)),
    group=_ccd_profile,
    rows=lambda p: [(p.canonical_type, duration, *masses, distance)
                    for duration, masses, distance in zip(p.durations, p.masses, p.distances)],
    key=("duration_min", "canonical_type"), repeat_fatal=False,
    optional=number("distance_mi", 0.0, strict=True, optional=True))
INPUT_TABLES = (ONTIME_TABLE, B43_TABLE, TAIL_REGISTRY_TABLE, ENGINE_CODES_TABLE,
                ICAO_ENGINES_TABLE, BADA_CCD_TABLE)
