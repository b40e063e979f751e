"""Per-flight emissions arithmetic: LTO mode sums, CCD interpolation, CO2e.

All arithmetic is 64-bit floating point. Every function here is pure: the same
flight and tables always produce bit-identical results.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .ingest import CcdProfile, EngineLtoFactors
from .matching import ResolvedFlight

EXTRAPOLATED_LOW = "EXTRAPOLATED_LOW"
EXTRAPOLATED_HIGH = "EXTRAPOLATED_HIGH"

# ICAO standard LTO mode times, seconds.
TAKEOFF_S = 42.0
CLIMBOUT_S = 132.0
APPROACH_S = 240.0
DEFAULT_IDLE_S = 1560.0


@dataclass(frozen=True)
class GasVector:
    hc: float = 0.0
    co2: float = 0.0
    co: float = 0.0
    nox: float = 0.0

    def __add__(self, other: "GasVector") -> "GasVector":
        return GasVector(self.hc + other.hc, self.co2 + other.co2,
                         self.co + other.co, self.nox + other.nox)

    def scaled(self, k: float) -> "GasVector":
        return GasVector(self.hc * k, self.co2 * k, self.co * k, self.nox * k)


@dataclass(frozen=True)
class LtoTimes:
    takeoff_s: float = TAKEOFF_S
    climbout_s: float = CLIMBOUT_S
    approach_s: float = APPROACH_S
    idle_s: float = DEFAULT_IDLE_S
    idle_from_taxi: bool = False

    @classmethod
    def from_taxi(cls, taxi_in_min: float | None, taxi_out_min: float | None) -> "LtoTimes":
        """Actual idle time when both taxi legs are reported, else the default."""
        if taxi_in_min is None or taxi_out_min is None:
            return cls()
        return cls(idle_s=(taxi_in_min + taxi_out_min) * 60.0, idle_from_taxi=True)


@dataclass(frozen=True)
class Co2eFactors:
    co2: float = 1.0
    co: float = 1.57
    hc: float = 84.0
    nox: float = 298.0


def _mode_vector(factors: EngineLtoFactors, mode: str, seconds: float,
                 multiplier: float) -> GasVector:
    return GasVector(
        hc=factors.rate("HC", mode) * seconds * multiplier,
        co2=factors.rate("CO2", mode) * seconds * multiplier,
        co=factors.rate("CO", mode) * seconds * multiplier,
        nox=factors.rate("NOX", mode) * seconds * multiplier,
    )


def lto_emissions(factors: EngineLtoFactors, times: LtoTimes,
                  engine_multiplier: float = 1.0) -> GasVector:
    """Per-gas LTO mass: sum over the four modes of rate x time."""
    return (_mode_vector(factors, "TAKEOFF", times.takeoff_s, engine_multiplier)
            + _mode_vector(factors, "CLIMBOUT", times.climbout_s, engine_multiplier)
            + _mode_vector(factors, "APPROACH", times.approach_s, engine_multiplier)
            + _mode_vector(factors, "IDLE", times.idle_s, engine_multiplier))


def split_lto(factors: EngineLtoFactors, times: LtoTimes,
              taxi_in_min: float | None, taxi_out_min: float | None,
              engine_multiplier: float = 1.0, efficiency_factor: float = 1.0,
              ) -> tuple[GasVector, GasVector]:
    """Apportion LTO mass to (origin, destination) airports.

    Origin takes take-off, climb-out and the taxi-out share of idle;
    destination takes approach and the taxi-in share. Idle splits by the
    taxi-time ratio, 50/50 when default times were used.
    """
    takeoff = _mode_vector(factors, "TAKEOFF", times.takeoff_s, engine_multiplier)
    climbout = _mode_vector(factors, "CLIMBOUT", times.climbout_s, engine_multiplier)
    approach = _mode_vector(factors, "APPROACH", times.approach_s, engine_multiplier)
    idle = _mode_vector(factors, "IDLE", times.idle_s, engine_multiplier)
    if (times.idle_from_taxi and taxi_in_min is not None and taxi_out_min is not None
            and taxi_in_min + taxi_out_min > 0):
        w_in = taxi_in_min / (taxi_in_min + taxi_out_min)
    else:
        w_in = 0.5
    dest_idle = idle.scaled(w_in)
    origin_idle = idle + dest_idle.scaled(-1.0)
    origin = ((takeoff + climbout) + origin_idle).scaled(efficiency_factor)
    destination = (approach + dest_idle).scaled(efficiency_factor)
    return origin, destination


def interpolate_ccd(profile: CcdProfile, duration_min: float) -> tuple[GasVector, str | None]:
    """Two-point linear interpolation over a profile's knots.

    An exact knot duration returns the tabulated masses exactly. Durations
    outside the knot range extrapolate linearly from the nearest segment and
    are flagged, never clamped.
    """
    durations = [k.duration_min for k in profile.knots]
    flag = None
    if duration_min < durations[0]:
        lo, hi = 0, 1
        flag = EXTRAPOLATED_LOW
    elif duration_min > durations[-1]:
        lo, hi = len(durations) - 2, len(durations) - 1
        flag = EXTRAPOLATED_HIGH
    else:
        idx = bisect.bisect_left(durations, duration_min)
        if durations[idx] == duration_min:
            knot = profile.knots[idx]
            return GasVector(hc=knot.emissions_kg["HC"], co2=knot.emissions_kg["CO2"],
                             co=knot.emissions_kg["CO"], nox=knot.emissions_kg["NOX"]), None
        lo, hi = idx - 1, idx
    lo_knot, hi_knot = profile.knots[lo], profile.knots[hi]
    span = hi_knot.duration_min - lo_knot.duration_min
    offset = duration_min - lo_knot.duration_min

    def interp(gas: str) -> float:
        lo_v = lo_knot.emissions_kg[gas]
        hi_v = hi_knot.emissions_kg[gas]
        return lo_v + (hi_v - lo_v) * offset / span

    return GasVector(hc=interp("HC"), co2=interp("CO2"),
                     co=interp("CO"), nox=interp("NOX")), flag


def co2e(v: GasVector, f: Co2eFactors = Co2eFactors()) -> float:
    return v.co2 * f.co2 + f.co * v.co + f.hc * v.hc + f.nox * v.nox


@dataclass(frozen=True)
class EmissionsResult:
    lto: GasVector
    ccd: GasVector
    lto_origin_share: GasVector
    lto_destination_share: GasVector
    lto_co2e_kg: float
    ccd_co2e_kg: float
    total_co2e_kg: float
    per_seat_co2e_kg: float
    per_seat_mile_co2_kg: float
    ccd_flag: str | None = None


def flight_emissions(rf: ResolvedFlight,
                     engines: dict[str, EngineLtoFactors],
                     ccd_profiles: dict[str, CcdProfile],
                     co2e_factors: Co2eFactors = Co2eFactors(),
                     engine_multiplier: float = 1.0,
                     interpolation_key: str = "time",
                     ) -> EmissionsResult | None:
    """Full per-flight computation; None when the flight is not computable, the
    tables lack its engine or CCD profile, or its total CO2e or CO2 per seat
    mile is not finite.

    The stored LTO vector is the sum of the origin and destination shares, so
    the airport split reproduces it bit-exactly.
    """
    if not rf.is_computable:
        return None
    factors = engines.get(rf.engine_uid or "")
    profile = ccd_profiles.get(rf.emissions_type or "")
    if factors is None or profile is None:
        return None
    flight = rf.flight
    times = LtoTimes.from_taxi(flight.taxi_in_min, flight.taxi_out_min)
    origin, destination = split_lto(factors, times, flight.taxi_in_min,
                                    flight.taxi_out_min, engine_multiplier,
                                    rf.efficiency_factor)
    lto = origin + destination
    at = flight.air_time_min if interpolation_key == "time" else flight.distance_mi
    ccd, flag = interpolate_ccd(profile, at)
    ccd = ccd.scaled(rf.efficiency_factor)
    lto_co2e = co2e(lto, co2e_factors)
    ccd_co2e = co2e(ccd, co2e_factors)
    total = lto_co2e + ccd_co2e
    seats = rf.seat_count or 1
    per_seat = total / seats
    per_seat_mile = (lto.co2 + ccd.co2) / (seats * flight.distance_mi)
    # A non-finite mass or share makes the total inf or NaN.
    if not (math.isfinite(total) and math.isfinite(per_seat_mile)):
        return None
    return EmissionsResult(
        lto=lto,
        ccd=ccd,
        lto_origin_share=origin,
        lto_destination_share=destination,
        lto_co2e_kg=lto_co2e,
        ccd_co2e_kg=ccd_co2e,
        total_co2e_kg=total,
        per_seat_co2e_kg=per_seat,
        per_seat_mile_co2_kg=per_seat_mile,
        ccd_flag=flag,
    )
