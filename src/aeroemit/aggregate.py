"""Roll-ups of per-flight results to airlines, airports and gases, and the
three tables they are written as.

Every finite double is an integer multiple of 2**-1074, so aggregation totals
are kept as Python ints counting units of 2**-1074 kg: fixed point with no
rounding, in which every grouping of the same flights sums to the same mass
regardless of order. One record, `Sums`, holds the sums of a carrier, an
airport or a cycle. `RollUpAccumulator.add` takes one block of flights, each
with its seat count and its `emissions.emissions_row` tuple: it counts every
flight, gathers the computed flights' rows in local lists by carrier, their
origin and destination shares by airport and their distances by carrier and
seat count, and sums each list's needed columns with `exact_units`, a few
`math.fsum` calls per column whose results convert with `to_units`, before it
returns. So an accumulator holds only its carrier and airport sums: `run`
hands it BLOCK flights read at a time, and since the sums are exact, where
the blocks are cut changes no byte of any output. Accumulators of parts of a
table `merge` by `+`. The cycles are derived when read: the LTO cycle is the
airports' sum and the CCD cycle the carriers' sum less the LTO cycle.
`RollUpAccumulator.rows` makes the cells of the tables of `ROLLUP_TABLES`,
which `run` writes and `report` reads. Floats appear only in those cells,
each produced by one correctly rounded ``int / int`` division (the same
double ``float(Fraction)`` gives).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from math import fsum
from operator import attrgetter, mul, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .emissions import Co2eFactors
from .ingest import (GASES, FlightRecord, Record, TableSchema, choice, integer, number,
                     text)

UNIT_BITS = 1074
# A total in units of 2**-1074 divided by UNIT is its value; a product of two
# such totals (a mass times a CO2e factor) is divided by UNIT_SQUARED.
UNIT = 1 << UNIT_BITS
UNIT_SQUARED = UNIT * UNIT
# Flights `run` reads before it hands them to `RollUpAccumulator.add`.
BLOCK = 1024
# `fsum` rounds `exact_units` tries before it converts a column value by value.
_ROUNDS = 8


def to_units(x: float) -> int:
    """The finite double `x` as an exact integer count of 2**-1074.

    Raises OverflowError for an infinity and ValueError for a NaN.
    """
    n, d = x.as_integer_ratio()
    return n << (UNIT_BITS + 1 - d.bit_length())


def exact_units(values: Sequence[float]) -> int:
    """``sum(map(to_units, values))``, by a few `fsum` calls.

    `fsum` partials are exact, so it returns 0.0 only when the exact sum is
    0, and otherwise the sum correctly rounded. Each round converts that
    double and appends its negation, so the next round rounds what is left:
    s1 = fsum(values), s2 = fsum(values + [-s1]), ..., until a round gives
    0.0, and the result is the sum of the rounds' units. Each round leaves at
    most half a unit in the last place of the one before, so a column of
    doubles within a few powers of two of each other takes two or three. An
    intermediate overflow, a NaN or an infinity, or more than _ROUNDS
    rounds, sums the values' own units instead.
    """
    total, spent = 0, []
    try:
        for _ in range(_ROUNDS):
            s = fsum(chain(values, spent))
            if s == 0.0:
                return total
            total += to_units(s)
            spent.append(-s)
    except (OverflowError, ValueError):
        pass
    return sum(map(to_units, values))


class UnepBaseline(NamedTuple):
    short_haul_co2_per_seat_mile: float
    long_haul_co2_per_seat_mile: float
    cutoff_mi: float


class Sums(Record):
    """The exact sums of one grouping: a carrier, an airport or a cycle.

    `hc`, `co2`, `co`, `nox` and `co2e` count units of 2**-1074 kg and
    `seat_miles` units of 2**-1074 seat-miles; `flights` counts every flight,
    `computed` those with emissions and `seats` their seats. A grouping fills
    only what it has: an airport or a cycle counts no flights.
    """

    __slots__ = _fields = ("hc", "co2", "co", "nox", "flights", "computed", "seats", "co2e",
                           "seat_miles")

    def __init__(self, hc: int = 0, co2: int = 0, co: int = 0, nox: int = 0, flights: int = 0,
                 computed: int = 0, seats: int = 0, co2e: int = 0, seat_miles: int = 0) -> None:
        self.hc, self.co2, self.co, self.nox = hc, co2, co, nox
        self.flights, self.computed, self.seats = flights, computed, seats
        self.co2e, self.seat_miles = co2e, seat_miles

    def add_gases(self, hc: int, co2: int, co: int, nox: int) -> None:
        self.hc += hc
        self.co2 += co2
        self.co += co
        self.nox += nox


class RollUpAccumulator:
    """Per-carrier and per-airport sums, one block of flights at a time.

    LTO mass is split between origin and destination airports; carrier totals
    cover both LTO shares and CCD. The cycles are made when read: `lto` is
    the sum of the airports, `ccd` that of the carriers less `lto`. The sums
    are exact integers, so neither the order of the flights nor where the
    blocks are cut changes what `rows` returns. `carriers` and `airports`
    are the only state, the sums of every flight added.
    """

    def __init__(self) -> None:
        self.carriers: defaultdict[str, Sums] = defaultdict(Sums)
        self.airports: defaultdict[str, Sums] = defaultdict(Sums)

    def add(self, flights: Iterable[FlightRecord], seats: Iterable[int],
            rows: Iterable[tuple | None]) -> None:
        """Count each flight of a block, of its `seats` seats, and add its
        emissions, the tuple of `emissions.emissions_row` in `rows`, unless
        it has none (None). A carrier's masses sum its flights' origin shares
        [0:4], destination shares [4:8] and CCD masses [12:16] in one column
        per gas, an airport's the four gas columns of its shares."""
        by_carrier: defaultdict[str, list[tuple]] = defaultdict(list)
        by_airport: defaultdict[str, list[tuple]] = defaultdict(list)
        distances: defaultdict[tuple[str, int], list[float]] = defaultdict(list)
        for flight, seat_count, row in zip(flights, seats, rows):
            carrier = flight.carrier_code
            self.carriers[carrier].flights += 1
            if row is not None:
                by_carrier[carrier].append(row)
                by_airport[flight.origin].append(row[0:4])
                by_airport[flight.destination].append(row[4:8])
                distances[carrier, seat_count].append(flight.distance_mi)
        for carrier, held in by_carrier.items():
            columns = list(zip(*held))
            sums = self.carriers[carrier]
            sums.add_gases(*(exact_units(columns[i] + columns[i + 4] + columns[i + 12])
                             for i in range(4)))
            sums.computed += len(held)
            sums.co2e += exact_units(columns[18])
        for airport, shares in by_airport.items():
            self.airports[airport].add_gases(*map(exact_units, zip(*shares)))
        for (carrier, seat_count), miles in distances.items():
            sums = self.carriers[carrier]
            sums.seats += seat_count * len(miles)
            sums.seat_miles += seat_count * exact_units(miles)

    @property
    def lto(self) -> Sums:
        """The LTO cycle: the airports' gas sums."""
        return _gas_sums(self.airports.values())

    @property
    def ccd(self) -> Sums:
        """The CCD cycle: the carriers' gas sums less the LTO cycle's."""
        return Sums(*map(sub, _by_gas(_gas_sums(self.carriers.values())), _by_gas(self.lto)))

    def merge(self, other: RollUpAccumulator) -> None:
        """Add every sum of `other`, an accumulator of other flights: the sums
        are exact, so this is the accumulator of both."""
        for mine, theirs in ((self.carriers, other.carriers), (self.airports, other.airports)):
            for key, sums in theirs.items():
                mine[key].merge(sums)

    def rows(self, co2e_factors: Co2eFactors) -> tuple[Iterator[list[str]], ...]:
        """The cells of each table of ROLLUP_TABLES, as text: carriers by
        flight count descending, airports by LTO CO2e descending, then each
        cycle gas by gas. Each figure is one correctly rounded ``int / int``
        division. A table's rows are made as it is iterated, so a figure
        beyond a double raises OverflowError there."""
        factors = tuple(map(to_units, _by_gas(co2e_factors)))
        carriers = sorted(self.carriers.items(), key=lambda item: (-item[1].flights, item[0]))
        # LTO CO2e in units of 2**-2148 kg, a product of two unit counts.
        airports = sorted(((sum(map(mul, _by_gas(s), factors)), airport, s)
                           for airport, s in self.airports.items()),
                          key=lambda item: (-item[0], item[1]))
        return (([carrier, str(s.flights), str(s.computed), str(s.seats), _mass(s.co2, UNIT),
                  _mass(s.co2e, UNIT), _ratio(s.co2, s.seat_miles), _ratio(s.co2e, s.seat_miles)]
                 for carrier, s in carriers),
                ([airport, *(_mass(m, UNIT) for m in _by_gas(s)), _mass(co2e, UNIT_SQUARED)]
                 for co2e, airport, s in airports),
                ([cycle, gas, _mass(m, UNIT), _mass(m * k, UNIT_SQUARED)]
                 for cycle, s in (("LTO", self.lto), ("CCD", self.ccd))
                 for gas, m, k in zip(GASES, _by_gas(s), factors)))


# The HC, CO2, CO and NOX fields of a `Sums` or a `Co2eFactors`.
_by_gas = attrgetter(*(gas.lower() for gas in GASES))


def _gas_sums(groups: Iterable[Sums]) -> Sums:
    """A `Sums` of the HC, CO2, CO and NOX of `groups` alone."""
    return Sums(*map(sum, zip(*map(_by_gas, groups))))


def _mass(units: int, unit: int) -> str:
    return f"{units / unit:.2f}"


def _ratio(units: int, per: int) -> str:
    return "" if per == 0 else f"{units / per:.6f}"


# The roll-up outputs, `<table>.csv`, as `RollUpAccumulator.rows` makes them:
# each record is one row's cells, already formatted. A mass has no lower
# bound: above the last knot, CCD extrapolates along the last segment, which
# may fall.
_ROW = dict(build=lambda *values: values, rows=lambda values: [values])
AIRLINE_SUMMARY_TABLE = TableSchema(
    "airline_summary",
    (text("carrier"), integer("total_flights", 0), integer("emission_flights", 0),
     integer("total_seats", 0), number("total_co2_kg"), number("total_co2e_kg"),
     number("co2_per_seat_mile", optional=True), number("co2e_per_seat_mile", optional=True)),
    **_ROW)
AIRPORT_LTO_TABLE = TableSchema(
    "airport_lto",
    (text("airport"), *(number(f"{gas.lower()}_kg") for gas in GASES),
     number("lto_co2e_kg")), **_ROW)
GAS_BREAKDOWN_TABLE = TableSchema(
    "gas_breakdown",
    (choice("cycle", ("LTO", "CCD")), choice("gas", GASES), number("raw_kg"),
     number("co2e_kg")), **_ROW)
ROLLUP_TABLES = (AIRLINE_SUMMARY_TABLE, AIRPORT_LTO_TABLE, GAS_BREAKDOWN_TABLE)
