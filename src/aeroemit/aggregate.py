"""Roll-ups of per-flight results to airlines, airports and gases.

Every finite double is an integer multiple of 2**-1074, so aggregation totals
are kept as Python ints counting units of 2**-1074 kg: fixed point with no
rounding, in which every grouping of the same flights sums to the same mass
regardless of order. `RollUpAccumulator.add` converts each per-flight double
once, with the `as_integer_ratio` and shift of `to_units` written inline, and
fills every grouping, so a run streams its flights through it and holds only
the per-carrier, per-airport and per-cycle sums. Floats appear only in derived
values, each produced by one correctly rounded ``int / int`` division (the
same double ``float(Fraction)`` gives).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .emissions import Co2eFactors, EmissionsResult
from .ingest import GASES  # noqa: F401  (re-exported for the writers)
from .matching import ResolvedFlight

UNIT_BITS = 1074
# A total in units of 2**-1074 divided by UNIT is its value; a product of two
# such totals (a mass times a CO2e factor) is divided by UNIT_SQUARED.
UNIT = 1 << UNIT_BITS
UNIT_SQUARED = UNIT * UNIT


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

    def add_units(self, units: list[int]) -> None:
        hc, co2, co, nox = units
        self.hc_units += hc
        self.co2_units += co2
        self.co_units += co
        self.nox_units += nox

    def units(self, gas: str) -> int:
        return {"HC": self.hc_units, "CO2": self.co2_units, "CO": self.co_units,
                "NOX": self.nox_units}[gas]

    def kg(self, gas: str) -> float:
        return self.units(gas) / UNIT

    def co2e_kg(self, gas: str, f: Co2eFactors) -> float:
        factor = {"HC": f.hc, "CO2": f.co2, "CO": f.co, "NOX": f.nox}[gas]
        return self.units(gas) * to_units(factor) / UNIT_SQUARED

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

    def add(self, outcome: FlightOutcome) -> None:
        rf = outcome.resolved
        flight = rf.flight
        carrier = flight.carrier_code
        airline = self.by_carrier.get(carrier)
        if airline is None:
            airline = self.by_carrier[carrier] = AirlineSummary(carrier)
        airline.total_flights += 1
        result = outcome.result
        if result is None:
            return
        seats = rf.seat_count or 0
        airline.emission_flights += 1
        airline.total_seats += seats
        o, d, c = result.lto_origin_share, result.lto_destination_share, result.ccd
        exact = []
        for x in (o.hc, o.co2, o.co, o.nox, d.hc, d.co2, d.co, d.nox,
                  c.hc, c.co2, c.co, c.nox, result.total_co2e_kg, flight.distance_mi):
            n, den = x.as_integer_ratio()  # to_units, inline
            exact.append(n << (UNIT_BITS + 1 - den.bit_length()))
        airline.total_co2e += exact[12]
        airline.seat_miles += seats * exact[13]
        origin, destination, cruise = exact[0:4], exact[4:8], exact[8:12]
        for units in (origin, destination, cruise):
            airline.gas_totals.add_units(units)
        self.lto.add_units(origin)
        self.lto.add_units(destination)
        self.ccd.add_units(cruise)
        for airport, units in ((flight.origin, origin),
                               (flight.destination, destination)):
            summary = self.by_airport.get(airport)
            if summary is None:
                summary = self.by_airport[airport] = AirportLtoSummary(airport)
            summary.gas_totals.add_units(units)

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

