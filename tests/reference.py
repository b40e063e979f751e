"""The per-flight method, stated readably: the reference the package's kernel
is held to.

`run` computes through `emissions.kernel_terms`, `emissions_row` and
`_interpolate`. The functions here state the same arithmetic one step at a
time, per ICAO mode and per CCD knot, with every multiply and add in the
kernel's order, and the tests hold the kernel to them bit for bit.
`interpolate_ccd` wraps the kernel's `_interpolate`, so its tests test the
kernel; `ccd_masses` writes the interpolation out knot by knot instead, so
that a test comparing the two compares two statements of the rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from aeroemit.aggregate import UnepBaseline
from aeroemit.emissions import (APPROACH_S, CLIMBOUT_S, DEFAULT_IDLE_S, EXTRAPOLATED_HIGH,
                                EXTRAPOLATED_LOW, TAKEOFF_S, Co2eFactors, _interpolate)
from aeroemit.ingest import CcdProfile, EngineLtoFactors


class GasVector(NamedTuple):
    hc: float = 0.0
    co2: float = 0.0
    co: float = 0.0
    nox: float = 0.0

    def __add__(self, other: "GasVector") -> "GasVector":
        return GasVector(self.hc + other.hc, self.co2 + other.co2,
                         self.co + other.co, self.nox + other.nox)

    def scaled(self, k: float) -> "GasVector":
        return GasVector(self.hc * k, self.co2 * k, self.co * k, self.nox * k)


class LtoTimes(NamedTuple):
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

    An exact knot duration returns the tabulated masses exactly. Below the
    first knot the masses interpolate from an implied knot of 0 kg at 0, so
    they are never negative; above the last knot they extrapolate linearly
    from the last segment. Both are flagged. When the knots' masses do not
    fall, neither do these as the duration grows (barring a step of 2**-1074
    kg where two knots differ by a subnormal mass). A NaN duration raises
    ValueError.
    """
    if math.isnan(duration_min):
        raise ValueError("CCD interpolation: the duration is NaN")
    *masses, flag = _interpolate(profile.durations, profile.masses, duration_min)
    return GasVector(*masses), flag


def ccd_masses(profile: CcdProfile, x: float) -> tuple[GasVector, str | None]:
    """`interpolate_ccd`'s rule written out knot by knot: the masses at key
    `x`, not NaN, and the flag. A key within 2**-48 of a segment's length of
    its upper knot takes that knot's masses."""
    knots = list(zip(profile.durations, profile.masses))
    for duration, masses in knots:
        if duration == x:
            return GasVector(*masses), None
    first, first_masses = knots[0]
    if x < first:  # from an implied (0 min, 0 kg) knot
        return GasVector(*(m * x / first for m in first_masses)), EXTRAPOLATED_LOW
    upper = next((i for i, (duration, _) in enumerate(knots) if duration > x), None)
    flag = None
    if upper is None:  # above the last knot: along the last segment
        upper, flag = len(knots) - 1, EXTRAPOLATED_HIGH
    (lo, lo_masses), (hi, hi_masses) = knots[upper - 1], knots[upper]
    span, offset = hi - lo, x - lo
    if abs(span - offset) <= span * 2.0 ** -48:
        return GasVector(*hi_masses), flag
    return GasVector(*(a + (b - a) * offset / span
                       for a, b in zip(lo_masses, hi_masses))), flag


def co2e(v: GasVector, f: Co2eFactors = Co2eFactors()) -> float:
    return v.co2 * f.co2 + f.co * v.co + f.hc * v.hc + f.nox * v.nox


def unep_baseline(distance_mi: float, config: UnepBaseline) -> float:
    """Step-function reference intensity: long-haul constant at/above cutoff."""
    if distance_mi < config.cutoff_mi:
        return config.short_haul_co2_per_seat_mile
    return config.long_haul_co2_per_seat_mile
