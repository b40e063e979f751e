"""Roll-ups of per-flight results to airlines, airports and gases.

Every finite double is an integer multiple of 2**-1074, so aggregation totals
are kept as Python ints counting units of 2**-1074 kg: fixed point with no
rounding, in which every grouping of the same flights sums to the same mass
regardless of order. `RollUpAccumulator.add` takes one flight's
`emissions.emissions_row` tuple, converts each double it sums once, with
`to_units` written inline as a `frexp` and a shift, and fills every
grouping, so a run streams its flights through it and holds only the
per-carrier, per-airport and per-cycle sums; accumulators of parts of a
table `merge` by `+`. Floats appear only in derived values, each produced
by one correctly rounded ``int / int`` division (the same double
``float(Fraction)`` gives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp

from .emissions import Co2eFactors, EmissionsResult
from .ingest import GASES, FlightRecord  # noqa: F401  (GASES is re-exported for the writers)
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


@dataclass
class ExactGasTotals:
    """Per-gas mass totals kept exact, as ints counting units of 2**-1074 kg."""

    hc_units: int = 0
    co2_units: int = 0
    co_units: int = 0
    nox_units: int = 0

    def units(self, gas: str) -> int:
        return {"HC": self.hc_units, "CO2": self.co2_units, "CO": self.co_units,
                "NOX": self.nox_units}[gas]

    def kg(self, gas: str) -> float:
        return self.units(gas) / UNIT

    def co2e_kg(self, gas: str, f: Co2eFactors) -> float:
        factor = {"HC": f.hc, "CO2": f.co2, "CO": f.co, "NOX": f.nox}[gas]
        return self.units(gas) * to_units(factor) / UNIT_SQUARED

    def merge(self, other: ExactGasTotals) -> None:
        self.hc_units += other.hc_units
        self.co2_units += other.co2_units
        self.co_units += other.co_units
        self.nox_units += other.nox_units

    def co2e_units(self, f: Co2eFactors) -> int:
        """Exact CO2e in units of 2**-2148 kg (divide by UNIT_SQUARED)."""
        return (self.co2_units * to_units(f.co2) + to_units(f.co) * self.co_units
                + to_units(f.hc) * self.hc_units + to_units(f.nox) * self.nox_units)


@dataclass(frozen=True)
class FlightOutcome:
    """A resolved flight paired with its computed emissions, if any."""

    resolved: ResolvedFlight
    result: EmissionsResult | None


@dataclass
class AirlineSummary:
    """Per-carrier totals; `total_co2e` and `seat_miles` count units of
    2**-1074."""

    carrier_code: str
    total_flights: int = 0
    emission_flights: int = 0
    total_seats: int = 0
    gas_totals: ExactGasTotals = field(default_factory=ExactGasTotals)
    total_co2e: int = 0
    seat_miles: int = 0

    @property
    def total_co2_kg(self) -> float:
        return self.gas_totals.kg("CO2")

    @property
    def total_co2e_kg(self) -> float:
        return self.total_co2e / UNIT

    @property
    def co2_per_seat_mile(self) -> float | None:
        if self.seat_miles == 0:
            return None
        return self.gas_totals.co2_units / self.seat_miles

    @property
    def co2e_per_seat_mile(self) -> float | None:
        if self.seat_miles == 0:
            return None
        return self.total_co2e / self.seat_miles


@dataclass
class AirportLtoSummary:
    """Local LTO mass of one airport; `lto_co2e` counts units of 2**-2148."""

    airport: str
    gas_totals: ExactGasTotals = field(default_factory=ExactGasTotals)
    lto_co2e: int = 0

    @property
    def lto_co2e_kg(self) -> float:
        return self.lto_co2e / UNIT_SQUARED


@dataclass
class RollUp:
    """Every grouping of one set of outcomes.

    `airlines` are ordered by total flight count descending, `airports` by
    LTO CO2e descending; `lto` and `ccd` are the per-gas totals of each cycle.
    """

    airlines: list[AirlineSummary]
    airports: list[AirportLtoSummary]
    lto: ExactGasTotals
    ccd: ExactGasTotals


@dataclass(frozen=True)
class UnepBaseline:
    short_haul_co2_per_seat_mile: float
    long_haul_co2_per_seat_mile: float
    cutoff_mi: float


def unep_baseline(distance_mi: float, config: UnepBaseline) -> float:
    """Step-function reference intensity: long-haul constant at/above cutoff."""
    if distance_mi < config.cutoff_mi:
        return config.short_haul_co2_per_seat_mile
    return config.long_haul_co2_per_seat_mile


class RollUpAccumulator:
    """Per-airline, per-airport and per-cycle roll-ups, one outcome at a time.

    LTO mass is split between origin and destination airports; airline totals
    cover both LTO shares and CCD. The totals are exact integers, so the
    order of `add` calls does not change what `finish` returns.
    """

    def __init__(self, co2e_factors: Co2eFactors = Co2eFactors()) -> None:
        self.co2e_factors = co2e_factors
        self.by_carrier: dict[str, AirlineSummary] = {}
        self.by_airport: dict[str, AirportLtoSummary] = {}
        self.lto = ExactGasTotals()
        self.ccd = ExactGasTotals()

    def add(self, flight: FlightRecord, seats: int, row: tuple | None) -> None:
        """Count one flight of `seats` seats; add its emissions, the tuple of
        `emissions.emissions_row`, unless it has none (`row` is None)."""
        carrier = flight.carrier_code
        airline = self.by_carrier.get(carrier)
        if airline is None:
            airline = self.by_carrier[carrier] = AirlineSummary(carrier)
        airline.total_flights += 1
        if row is None:
            return
        airline.emission_flights += 1
        airline.total_seats += seats
        # The shares, the CCD masses, the total CO2e and the distance in units.
        values = (*row[0:8], *row[12:16], row[18], flight.distance_mi)
        try:  # to_units, inline: a normal double is m * 2**e, m * 2**53 an integer
            units = [int(m * _TWO_53) << (e + UNIT_BITS - 53) for m, e in map(frexp, values)]
        except ValueError:  # a subnormal has e < 53 - UNIT_BITS
            units = list(map(to_units, values))
        (o_hc, o_co2, o_co, o_nox, d_hc, d_co2, d_co, d_nox,
         c_hc, c_co2, c_co, c_nox, total_co2e, distance) = units
        airline.total_co2e += total_co2e
        airline.seat_miles += seats * distance
        l_hc, l_co2, l_co, l_nox = o_hc + d_hc, o_co2 + d_co2, o_co + d_co, o_nox + d_nox
        by_airport = self.by_airport
        origin = by_airport.get(flight.origin) or self._new_airport(flight.origin)
        destination = (by_airport.get(flight.destination)
                       or self._new_airport(flight.destination))
        for totals, hc, co2, co, nox in (
                (airline.gas_totals, l_hc + c_hc, l_co2 + c_co2, l_co + c_co, l_nox + c_nox),
                (self.lto, l_hc, l_co2, l_co, l_nox),
                (self.ccd, c_hc, c_co2, c_co, c_nox),
                (origin.gas_totals, o_hc, o_co2, o_co, o_nox),
                (destination.gas_totals, d_hc, d_co2, d_co, d_nox)):
            totals.hc_units += hc
            totals.co2_units += co2
            totals.co_units += co
            totals.nox_units += nox

    def merge(self, other: RollUpAccumulator) -> None:
        """Add every sum of `other`, an accumulator of other flights: the sums
        are exact, so this is the accumulator of both."""
        for carrier, more in other.by_carrier.items():
            airline = self.by_carrier.setdefault(carrier, AirlineSummary(carrier))
            airline.total_flights += more.total_flights
            airline.emission_flights += more.emission_flights
            airline.total_seats += more.total_seats
            airline.gas_totals.merge(more.gas_totals)
            airline.total_co2e += more.total_co2e
            airline.seat_miles += more.seat_miles
        for airport, more in other.by_airport.items():
            self.by_airport.setdefault(airport, AirportLtoSummary(airport)).gas_totals.merge(
                more.gas_totals)
        self.lto.merge(other.lto)
        self.ccd.merge(other.ccd)

    def _new_airport(self, airport: str) -> AirportLtoSummary:
        self.by_airport[airport] = summary = AirportLtoSummary(airport)
        return summary

    def finish(self) -> RollUp:
        """The roll-up of every outcome added so far, with its rows sorted."""
        for summary in self.by_airport.values():
            summary.lto_co2e = summary.gas_totals.co2e_units(self.co2e_factors)
        return RollUp(
            airlines=sorted(self.by_carrier.values(),
                            key=lambda s: (-s.total_flights, s.carrier_code)),
            airports=sorted(self.by_airport.values(),
                            key=lambda s: (-s.lto_co2e, s.airport)),
            lto=self.lto, ccd=self.ccd)

