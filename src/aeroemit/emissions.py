"""Per-flight emissions arithmetic: LTO mode sums, CCD interpolation, CO2e.

All arithmetic is 64-bit floating point. Every function here is pure: the same
flight and tables always produce bit-identical results. `emissions_row` is the
per-flight kernel: it takes the flight-independent terms of one tail once
(`kernel_terms`, from the rates flattened once per UID by
`EngineLtoFactors.flat_rates`) and keeps the masses in local floats, with every
multiply and add of `split_lto`, `interpolate_ccd` and `co2e` in the same
order, so its results equal that reference bit for bit. `flight_emissions` is
the same computation returning an `EmissionsResult`.
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
    are flagged, never clamped. A NaN duration raises ValueError.
    """
    if math.isnan(duration_min):
        raise ValueError("CCD interpolation: the duration is NaN")
    *masses, flag = _interpolate(*profile.table, duration_min)
    return GasVector(*masses), flag


def _interpolate(durations: tuple[float, ...], masses: tuple[tuple[float, ...], ...],
                 x: float) -> tuple[float, float, float, float, str | None]:
    """The HC, CO2, CO and NOX masses of `interpolate_ccd` over a profile's
    `table`, then its flag."""
    flag = None
    if x < durations[0]:
        lo, flag = 0, EXTRAPOLATED_LOW
    elif x > durations[-1]:
        lo, flag = len(durations) - 2, EXTRAPOLATED_HIGH
    else:
        lo = bisect.bisect_left(durations, x)
        if durations[lo] == x:
            return (*masses[lo], None)
        lo -= 1
    lo_hc, lo_co2, lo_co, lo_nox = masses[lo]
    hi_hc, hi_co2, hi_co, hi_nox = masses[lo + 1]
    span = durations[lo + 1] - durations[lo]
    offset = x - durations[lo]
    return (lo_hc + (hi_hc - lo_hc) * offset / span, lo_co2 + (hi_co2 - lo_co2) * offset / span,
            lo_co + (hi_co - lo_co) * offset / span, lo_nox + (hi_nox - lo_nox) * offset / span,
            flag)


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


# The first index of each gas's four modes in `EngineLtoFactors.flat_rates`.
_GAS_OFFSETS = (0, 4, 8, 12)


def kernel_terms(rates: tuple[float, ...], engine_multiplier: float,
                 efficiency_factor: float, f: Co2eFactors) -> tuple[float, ...]:
    """The flight-independent LTO inputs of `emissions_row` for one engine's
    `flat_rates`, multiplier, efficiency factor and set of CO2e factors.

    Per gas, in `split_lto`'s order: the take-off plus climb-out mass, the
    approach mass, then the idle rate; then the multiplier, the efficiency
    factor and the CO2, CO, HC and NOX factors.
    """
    k = engine_multiplier
    return (*(rates[i] * TAKEOFF_S * k + rates[i + 1] * CLIMBOUT_S * k for i in _GAS_OFFSETS),
            *(rates[i + 2] * APPROACH_S * k for i in _GAS_OFFSETS),
            *(rates[i + 3] for i in _GAS_OFFSETS),
            k, efficiency_factor, f.co2, f.co, f.hc, f.nox)


def emissions_row(terms: tuple[float, ...], ccd: tuple, seat_count: int | None,
                  taxi_in: float | None, taxi_out: float | None,
                  x: float, distance: float) -> tuple | None:
    """One flight's emissions as a flat tuple, None when its total CO2e or its
    CO2 per seat mile is not finite.

    `terms` come from `kernel_terms`, `ccd` is a CCD profile's `table` and
    `x` its interpolation key (air time or distance). The 22 items: the origin
    share [0:4], the destination share [4:8], the LTO mass [8:12] and the CCD
    mass [12:16], each as HC, CO2, CO and NOX; the LTO, CCD and total CO2e
    [16:19]; CO2e per seat [19], CO2 per seat mile [20] and the CCD flag [21].
    The LTO mass is the sum of the two shares, so the airport split
    reproduces it bit-exactly.
    """
    (to_hc, to_co2, to_co, to_nox, ap_hc, ap_co2, ap_co, ap_nox, id_hc, id_co2, id_co, id_nox,
     k, eff, f_co2, f_co, f_hc, f_nox) = terms
    idle_s, w_in = DEFAULT_IDLE_S, 0.5
    if taxi_in is not None and taxi_out is not None:
        idle_s = (taxi_in + taxi_out) * 60.0
        if taxi_in + taxi_out > 0:
            w_in = taxi_in / (taxi_in + taxi_out)
    # split_lto per gas: the idle mass (rate * seconds) * multiplier, its
    # destination part, then each share scaled by the efficiency factor.
    i_hc, i_co2, i_co, i_nox = (id_hc * idle_s * k, id_co2 * idle_s * k,
                                id_co * idle_s * k, id_nox * idle_s * k)
    j_hc, j_co2, j_co, j_nox = i_hc * w_in, i_co2 * w_in, i_co * w_in, i_nox * w_in
    o_hc, o_co2, o_co, o_nox = ((to_hc + (i_hc - j_hc)) * eff, (to_co2 + (i_co2 - j_co2)) * eff,
                                (to_co + (i_co - j_co)) * eff, (to_nox + (i_nox - j_nox)) * eff)
    d_hc, d_co2, d_co, d_nox = ((ap_hc + j_hc) * eff, (ap_co2 + j_co2) * eff,
                                (ap_co + j_co) * eff, (ap_nox + j_nox) * eff)
    l_hc, l_co2, l_co, l_nox = o_hc + d_hc, o_co2 + d_co2, o_co + d_co, o_nox + d_nox
    c_hc, c_co2, c_co, c_nox, flag = _interpolate(*ccd, x)
    c_hc, c_co2, c_co, c_nox = c_hc * eff, c_co2 * eff, c_co * eff, c_nox * eff
    lto_co2e = l_co2 * f_co2 + f_co * l_co + f_hc * l_hc + f_nox * l_nox  # co2e's order
    ccd_co2e = c_co2 * f_co2 + f_co * c_co + f_hc * c_hc + f_nox * c_nox
    total = lto_co2e + ccd_co2e
    seats = seat_count or 1
    per_seat_mile = (l_co2 + c_co2) / (seats * distance)
    # A non-finite mass or share, or a NaN key, makes the total inf or NaN.
    if not (math.isfinite(total) and math.isfinite(per_seat_mile)):
        return None
    return (o_hc, o_co2, o_co, o_nox, d_hc, d_co2, d_co, d_nox,
            l_hc, l_co2, l_co, l_nox, c_hc, c_co2, c_co, c_nox,
            lto_co2e, ccd_co2e, total, total / seats, per_seat_mile, flag)


def flight_emissions(rf: ResolvedFlight,
                     engines: dict[str, EngineLtoFactors],
                     ccd_profiles: dict[str, CcdProfile],
                     co2e_factors: Co2eFactors = Co2eFactors(),
                     engine_multiplier: float = 1.0,
                     interpolation_key: str = "time",
                     ) -> EmissionsResult | None:
    """Full per-flight computation; None when the flight is not computable, the
    tables lack its engine or CCD profile, or its total CO2e or CO2 per seat
    mile is not finite. The reference form of `emissions_row`.
    """
    if not rf.is_computable:
        return None
    factors = engines.get(rf.engine_uid or "")
    profile = ccd_profiles.get(rf.emissions_type or "")
    if factors is None or profile is None:
        return None
    flight = rf.flight
    row = emissions_row(
        kernel_terms(factors.flat_rates, engine_multiplier, rf.efficiency_factor,
                     co2e_factors),
        profile.table, rf.seat_count, flight.taxi_in_min, flight.taxi_out_min,
        flight.air_time_min if interpolation_key == "time" else flight.distance_mi,
        flight.distance_mi)
    if row is None:
        return None
    return EmissionsResult(GasVector(*row[8:12]), GasVector(*row[12:16]),
                           GasVector(*row[0:4]), GasVector(*row[4:8]), *row[16:])
