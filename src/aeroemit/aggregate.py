"""Roll-ups of per-flight results to airlines, airports, gases, and scatters.

Every finite double is an integer multiple of 2**-1074, so aggregation totals
are kept as Python ints counting units of 2**-1074 kg: fixed point with no
rounding, in which every grouping of the same flights sums to the same mass
regardless of order. `roll_up` converts each per-flight double once and fills
every grouping in a single walk over the outcomes. Floats appear only in
derived values, each produced by one correctly rounded ``int / int`` division
(the same double ``float(Fraction)`` gives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .emissions import Co2eFactors, EmissionsResult, GasVector, split_lto  # noqa: F401
from .matching import ResolvedFlight

GASES = ("HC", "CO2", "CO", "NOX")

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


def _gas_units(v: GasVector) -> tuple[int, int, int, int]:
    return to_units(v.hc), to_units(v.co2), to_units(v.co), to_units(v.nox)


@dataclass
class ExactGasTotals:
    """Per-gas mass totals kept exact, as ints counting units of 2**-1074 kg.

    `hc`, `co2`, `co`, `nox` and `get` read the totals as exact Fractions.
    """

    hc_units: int = 0
    co2_units: int = 0
    co_units: int = 0
    nox_units: int = 0

    def add(self, v: GasVector) -> None:
        self.add_units(_gas_units(v))

    def add_units(self, units: tuple[int, int, int, int]) -> None:
        hc, co2, co, nox = units
        self.hc_units += hc
        self.co2_units += co2
        self.co_units += co
        self.nox_units += nox

    def __add__(self, other: "ExactGasTotals") -> "ExactGasTotals":
        return ExactGasTotals(self.hc_units + other.hc_units,
                              self.co2_units + other.co2_units,
                              self.co_units + other.co_units,
                              self.nox_units + other.nox_units)

    def units(self, gas: str) -> int:
        return {"HC": self.hc_units, "CO2": self.co2_units, "CO": self.co_units,
                "NOX": self.nox_units}[gas]

    def get(self, gas: str) -> Fraction:
        return Fraction(self.units(gas), UNIT)

    def kg(self, gas: str) -> float:
        return self.units(gas) / UNIT

    @property
    def hc(self) -> Fraction:
        return self.get("HC")

    @property
    def co2(self) -> Fraction:
        return self.get("CO2")

    @property
    def co(self) -> Fraction:
        return self.get("CO")

    @property
    def nox(self) -> Fraction:
        return self.get("NOX")

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
class GasBreakdown:
    cycle: str
    raw: ExactGasTotals = field(default_factory=ExactGasTotals)

    def co2e_kg(self, gas: str, f: Co2eFactors) -> float:
        factor = {"HC": f.hc, "CO2": f.co2, "CO": f.co, "NOX": f.nox}[gas]
        return self.raw.units(gas) * to_units(factor) / UNIT_SQUARED


@dataclass(frozen=True)
class ScatterPoint:
    distance_mi: float
    value: float
    canonical_type: str
    engine_uid: str
    carrier_code: str


@dataclass
class RollUp:
    """Every grouping of one set of outcomes.

    `airlines` are ordered by total flight count descending, `airports` by
    LTO CO2e descending; the scatter points (CO2e vs distance and
    CO2-per-seat-mile vs distance) hold one point per computed flight, in
    input order.
    """

    airlines: list[AirlineSummary]
    airports: list[AirportLtoSummary]
    lto: GasBreakdown
    ccd: GasBreakdown
    co2e_points: list[ScatterPoint]
    seat_mile_points: list[ScatterPoint]

    @property
    def system(self) -> ExactGasTotals:
        """Grand per-gas total over all computed flights (LTO shares + CCD)."""
        return self.lto.raw + self.ccd.raw


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


def roll_up(outcomes: list[FlightOutcome],
            co2e_factors: Co2eFactors = Co2eFactors()) -> RollUp:
    """Per-airline, per-airport, per-cycle and scatter roll-ups in one pass.

    LTO mass is split between origin and destination airports; airline totals
    cover both LTO shares and CCD.
    """
    by_carrier: dict[str, AirlineSummary] = {}
    by_airport: dict[str, AirportLtoSummary] = {}
    lto = GasBreakdown("LTO")
    ccd = GasBreakdown("CCD")
    co2e_points: list[ScatterPoint] = []
    seat_mile_points: list[ScatterPoint] = []
    for outcome in outcomes:
        rf = outcome.resolved
        flight = rf.flight
        carrier = flight.carrier_code
        airline = by_carrier.get(carrier)
        if airline is None:
            airline = by_carrier[carrier] = AirlineSummary(carrier)
        airline.total_flights += 1
        result = outcome.result
        if result is None:
            continue
        seats = rf.seat_count or 0
        airline.emission_flights += 1
        airline.total_seats += seats
        airline.total_co2e += to_units(result.total_co2e_kg)
        airline.seat_miles += seats * to_units(flight.distance_mi)

        origin = _gas_units(result.lto_origin_share)
        destination = _gas_units(result.lto_destination_share)
        cruise = _gas_units(result.ccd)
        for units in (origin, destination, cruise):
            airline.gas_totals.add_units(units)
        lto.raw.add_units(origin)
        lto.raw.add_units(destination)
        ccd.raw.add_units(cruise)
        for airport, units in ((flight.origin, origin),
                               (flight.destination, destination)):
            summary = by_airport.get(airport)
            if summary is None:
                summary = by_airport[airport] = AirportLtoSummary(airport)
            summary.gas_totals.add_units(units)

        common = (rf.canonical_type or "", rf.engine_uid or "", carrier)
        co2e_points.append(ScatterPoint(flight.distance_mi, result.total_co2e_kg,
                                        *common))
        seat_mile_points.append(ScatterPoint(flight.distance_mi,
                                             result.per_seat_mile_co2_kg, *common))

    for summary in by_airport.values():
        summary.lto_co2e = summary.gas_totals.co2e_units(co2e_factors)
    return RollUp(
        airlines=sorted(by_carrier.values(),
                        key=lambda s: (-s.total_flights, s.carrier_code)),
        airports=sorted(by_airport.values(), key=lambda s: (-s.lto_co2e, s.airport)),
        lto=lto, ccd=ccd, co2e_points=co2e_points,
        seat_mile_points=seat_mile_points)
