"""Per-flight emissions arithmetic: LTO mode sums, CCD interpolation, CO2e.

All arithmetic is 64-bit floating point. Every function here is pure: the same
flight and tables always produce bit-identical results. `flight_emissions` is
the per-flight fast path: it reads each engine's rates flattened once per UID
(`EngineLtoFactors.flat_rates`) and keeps the masses in local floats, with every
multiply and add of `split_lto`, `interpolate_ccd` and `co2e` in the same
order, so its results equal that reference bit for bit.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

from .ingest import GASES, CcdProfile, EngineLtoFactors
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
    *masses, flag = _interpolate(profile, duration_min)
    return GasVector(*masses), flag


def _interpolate(profile: CcdProfile, x: float) -> tuple[float, float, float, float, str | None]:
    """The HC, CO2, CO and NOX masses of `interpolate_ccd`, then its flag."""
    durations = profile.durations
    flag = None
    if x < durations[0]:
        lo, flag = 0, EXTRAPOLATED_LOW
    elif x > durations[-1]:
        lo, flag = len(durations) - 2, EXTRAPOLATED_HIGH
    else:
        lo = bisect.bisect_left(durations, x)
        if durations[lo] == x:
            m = profile.knots[lo].emissions_kg
            return m["HC"], m["CO2"], m["CO"], m["NOX"], None
        lo -= 1
    lo_m, hi_m = profile.knots[lo].emissions_kg, profile.knots[lo + 1].emissions_kg
    span = durations[lo + 1] - durations[lo]
    offset = x - durations[lo]
    return (*(lo_m[g] + (hi_m[g] - lo_m[g]) * offset / span for g in GASES), flag)


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
    taxi_in, taxi_out = flight.taxi_in_min, flight.taxi_out_min
    idle_s, w_in = DEFAULT_IDLE_S, 0.5
    if taxi_in is not None and taxi_out is not None:
        idle_s = (taxi_in + taxi_out) * 60.0
        if taxi_in + taxi_out > 0:
            w_in = taxi_in / (taxi_in + taxi_out)
    # split_lto per gas, each mode mass (rate * seconds) * multiplier.
    r, k, eff = factors.flat_rates, engine_multiplier, rf.efficiency_factor
    origin, destination = [], []
    for i in (0, 4, 8, 12):
        idle = r[i + 3] * idle_s * k
        dest_idle = idle * w_in
        origin.append(((r[i] * TAKEOFF_S * k + r[i + 1] * CLIMBOUT_S * k)
                       + (idle - dest_idle)) * eff)
        destination.append((r[i + 2] * APPROACH_S * k + dest_idle) * eff)
    lto = GasVector(*map(operator.add, origin, destination))
    at = flight.air_time_min if interpolation_key == "time" else flight.distance_mi
    hc, co2, co, nox, flag = _interpolate(profile, at)
    ccd = GasVector(hc * eff, co2 * eff, co * eff, nox * eff)
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
        lto_origin_share=GasVector(*origin),
        lto_destination_share=GasVector(*destination),
        lto_co2e_kg=lto_co2e,
        ccd_co2e_kg=ccd_co2e,
        total_co2e_kg=total,
        per_seat_co2e_kg=per_seat,
        per_seat_mile_co2_kg=per_seat_mile,
        ccd_flag=flag,
    )
