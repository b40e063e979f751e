"""Roll-ups of per-flight results to airlines, airports and gases, and the
three tables they are written as.

Every finite double is an integer multiple of 2**-1074, so aggregation totals
are kept as Python ints counting units of 2**-1074 kg: fixed point with no
rounding, in which every grouping of the same flights sums to the same mass
regardless of order. One record, `Sums`, holds the sums of a carrier, an
airport or a cycle. `RollUpAccumulator.add` takes one flight's
`emissions.emissions_row` tuple, converts each double it sums once, with
`to_units` written inline as a `frexp` and a shift, and fills every
grouping, so a run streams its flights through it and holds only the sums;
accumulators of parts of a table `merge` by `+`. `RollUpAccumulator.rows`
makes the cells of the tables of `ROLLUP_TABLES`, which `run` writes and
`report` reads. Floats appear only in those cells, each produced by one
correctly rounded ``int / int`` division (the same double
``float(Fraction)`` gives).
"""

from __future__ import annotations

from collections import defaultdict
from math import frexp
from operator import attrgetter, mul
from typing import Iterator, NamedTuple

from .emissions import Co2eFactors, EmissionsResult
from .ingest import (GASES, FlightRecord, Record, TableSchema, choice, integer, number,
                     text)
from .matching import ResolvedFlight

UNIT_BITS = 1074
# A total in units of 2**-1074 divided by UNIT is its value; a product of two
# such totals (a mass times a CO2e factor) is divided by UNIT_SQUARED.
UNIT = 1 << UNIT_BITS
UNIT_SQUARED = UNIT * UNIT
_TWO_53 = float(1 << 53)


def to_units(x: float) -> int:
    """The finite double `x` as an exact integer count of 2**-1074.

    Raises OverflowError for an infinity and ValueError for a NaN.
    """
    n, d = x.as_integer_ratio()
    return n << (UNIT_BITS + 1 - d.bit_length())


class FlightOutcome(NamedTuple):
    """A resolved flight paired with its computed emissions, if any."""

    resolved: ResolvedFlight
    result: EmissionsResult | None


class UnepBaseline(NamedTuple):
    short_haul_co2_per_seat_mile: float
    long_haul_co2_per_seat_mile: float
    cutoff_mi: float


def unep_baseline(distance_mi: float, config: UnepBaseline) -> float:
    """Step-function reference intensity: long-haul constant at/above cutoff."""
    if distance_mi < config.cutoff_mi:
        return config.short_haul_co2_per_seat_mile
    return config.long_haul_co2_per_seat_mile


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

    def merge(self, other: Sums) -> None:
        """Add every sum of `other`, the same grouping over other flights."""
        for name in self._fields:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class RollUpAccumulator:
    """Per-carrier, per-airport and per-cycle sums, one flight at a time.

    LTO mass is split between origin and destination airports; carrier totals
    cover both LTO shares and CCD. The sums are exact integers, so the order
    of `add` calls does not change what `rows` returns.
    """

    def __init__(self) -> None:
        self.carriers: defaultdict[str, Sums] = defaultdict(Sums)
        self.airports: defaultdict[str, Sums] = defaultdict(Sums)
        self.lto = Sums()
        self.ccd = Sums()

    def add(self, flight: FlightRecord, seats: int, row: tuple | None) -> None:
        """Count one flight of `seats` seats; add its emissions, the tuple of
        `emissions.emissions_row`, unless it has none (`row` is None)."""
        carrier = self.carriers[flight.carrier_code]
        carrier.flights += 1
        if row is None:
            return
        carrier.computed += 1
        carrier.seats += seats
        # The shares, the CCD masses, the total CO2e and the distance in units.
        values = (*row[0:8], *row[12:16], row[18], flight.distance_mi)
        try:  # to_units, inline: a normal double is m * 2**e, m * 2**53 an integer
            units = [int(m * _TWO_53) << (e + UNIT_BITS - 53) for m, e in map(frexp, values)]
        except ValueError:  # a subnormal has e < 53 - UNIT_BITS
            units = list(map(to_units, values))
        (o_hc, o_co2, o_co, o_nox, d_hc, d_co2, d_co, d_nox,
         c_hc, c_co2, c_co, c_nox, total_co2e, distance) = units
        carrier.co2e += total_co2e
        carrier.seat_miles += seats * distance
        l_hc, l_co2, l_co, l_nox = o_hc + d_hc, o_co2 + d_co2, o_co + d_co, o_nox + d_nox
        for sums, hc, co2, co, nox in (
                (carrier, l_hc + c_hc, l_co2 + c_co2, l_co + c_co, l_nox + c_nox),
                (self.lto, l_hc, l_co2, l_co, l_nox),
                (self.ccd, c_hc, c_co2, c_co, c_nox),
                (self.airports[flight.origin], o_hc, o_co2, o_co, o_nox),
                (self.airports[flight.destination], d_hc, d_co2, d_co, d_nox)):
            sums.hc += hc
            sums.co2 += co2
            sums.co += co
            sums.nox += nox

    def merge(self, other: RollUpAccumulator) -> None:
        """Add every sum of `other`, an accumulator of other flights: the sums
        are exact, so this is the accumulator of both."""
        for mine, theirs in ((self.carriers, other.carriers), (self.airports, other.airports)):
            for key, sums in theirs.items():
                mine[key].merge(sums)
        self.lto.merge(other.lto)
        self.ccd.merge(other.ccd)

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
