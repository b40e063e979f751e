"""Per-flight emissions arithmetic: LTO mode sums, CCD interpolation, CO2e.

All arithmetic is 64-bit floating point. Every function here is pure: the same
flight and tables always produce bit-identical results. `emissions_row` is the
per-flight kernel: it takes the flight-independent terms of one tail once
(`kernel_terms`, made once per engine, multiplier and efficiency factor from
`EngineLtoFactors.rates`) and the tail's `CcdProfile`, and keeps the masses in
local floats. `tests/reference.py` states the method one mode and one knot at
a time, every multiply and add in the kernel's order, and the tests hold the
kernel to it bit for bit. `flight_emissions` returns the kernel's row for one
resolved flight.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

from .ingest import CcdProfile, EngineLtoFactors
from .matching import ResolvedFlight

EXTRAPOLATED_LOW = "EXTRAPOLATED_LOW"
EXTRAPOLATED_HIGH = "EXTRAPOLATED_HIGH"
# A key within this fraction of a segment of the segment's upper knot takes
# that knot's masses: so near it, rounding could carry a mass an ulp past
# the knot's, and the masses would not be monotone in the key.
_AT_KNOT = 2.0 ** -48

# ICAO standard LTO mode times, seconds.
TAKEOFF_S = 42.0
CLIMBOUT_S = 132.0
APPROACH_S = 240.0
DEFAULT_IDLE_S = 1560.0


class Co2eFactors(NamedTuple):
    co2: float = 1.0
    co: float = 1.57
    hc: float = 84.0
    nox: float = 298.0


def _interpolate(durations: tuple[float, ...], masses: tuple[tuple[float, ...], ...],
                 x: float) -> tuple[float, float, float, float, str | None]:
    """Two-point linear interpolation of `masses` over `durations` at key `x`:
    the HC, CO2, CO and NOX masses, then the flag. An exact knot gives its
    masses; below the first knot they run from an implied (0, 0 kg) knot,
    above the last along the last segment, flagged EXTRAPOLATED_LOW and _HIGH."""
    flag = None
    if x < durations[0]:  # the formula below, from an implied (0, 0 kg) knot
        d0 = durations[0]
        return (*(m * x / d0 for m in masses[0]), EXTRAPOLATED_LOW)
    if x > durations[-1]:
        lo, flag = len(durations) - 2, EXTRAPOLATED_HIGH
    else:
        lo = bisect.bisect_left(durations, x)
        if durations[lo] == x:
            return (*masses[lo], None)
        lo -= 1
    span = durations[lo + 1] - durations[lo]
    offset = x - durations[lo]
    if abs(span - offset) <= span * _AT_KNOT:
        return (*masses[lo + 1], flag)
    lo_hc, lo_co2, lo_co, lo_nox = masses[lo]
    hi_hc, hi_co2, hi_co, hi_nox = masses[lo + 1]
    return (lo_hc + (hi_hc - lo_hc) * offset / span, lo_co2 + (hi_co2 - lo_co2) * offset / span,
            lo_co + (hi_co - lo_co) * offset / span, lo_nox + (hi_nox - lo_nox) * offset / span,
            flag)


# The first index of each gas's four modes in `EngineLtoFactors.rates`.
_GAS_OFFSETS = (0, 4, 8, 12)


def kernel_terms(rates: tuple[float, ...], engine_multiplier: float,
                 efficiency_factor: float, f: Co2eFactors) -> tuple[float, ...]:
    """The flight-independent LTO inputs of `emissions_row` for one engine's
    `rates`, multiplier, efficiency factor and set of CO2e factors.

    Per gas, in the order of `split_lto` in `tests/reference.py`: the
    take-off plus climb-out mass, the approach mass, then the idle rate; then
    the multiplier, the efficiency factor and the CO2, CO, HC and NOX factors.
    """
    k = engine_multiplier
    return (*(rates[i] * TAKEOFF_S * k + rates[i + 1] * CLIMBOUT_S * k for i in _GAS_OFFSETS),
            *(rates[i + 2] * APPROACH_S * k for i in _GAS_OFFSETS),
            *(rates[i + 3] for i in _GAS_OFFSETS),
            k, efficiency_factor, f.co2, f.co, f.hc, f.nox)


def emissions_row(terms: tuple[float, ...], ccd: CcdProfile, seat_count: int | None,
                  taxi_in: float | None, taxi_out: float | None,
                  x: float, distance: float) -> tuple | None:
    """One flight's emissions as a flat tuple, None when its total CO2e or its
    CO2 per seat mile is not finite.

    `terms` come from `kernel_terms`, `ccd` is the CCD profile and `x` its
    interpolation key (air time or distance). The 22 items: the origin
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
    # Per gas as the reference split_lto: the idle mass (rate * s) * multiplier,
    # its destination part, then each share scaled by the efficiency factor.
    i_hc, i_co2, i_co, i_nox = (id_hc * idle_s * k, id_co2 * idle_s * k,
                                id_co * idle_s * k, id_nox * idle_s * k)
    j_hc, j_co2, j_co, j_nox = i_hc * w_in, i_co2 * w_in, i_co * w_in, i_nox * w_in
    o_hc, o_co2, o_co, o_nox = ((to_hc + (i_hc - j_hc)) * eff, (to_co2 + (i_co2 - j_co2)) * eff,
                                (to_co + (i_co - j_co)) * eff, (to_nox + (i_nox - j_nox)) * eff)
    d_hc, d_co2, d_co, d_nox = ((ap_hc + j_hc) * eff, (ap_co2 + j_co2) * eff,
                                (ap_co + j_co) * eff, (ap_nox + j_nox) * eff)
    l_hc, l_co2, l_co, l_nox = o_hc + d_hc, o_co2 + d_co2, o_co + d_co, o_nox + d_nox
    c_hc, c_co2, c_co, c_nox, flag = _interpolate(ccd.durations, ccd.masses, x)
    c_hc, c_co2, c_co, c_nox = c_hc * eff, c_co2 * eff, c_co * eff, c_nox * eff
    lto_co2e = l_co2 * f_co2 + f_co * l_co + f_hc * l_hc + f_nox * l_nox  # reference co2e's order
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
                     ) -> tuple | None:
    """One resolved flight's `emissions_row`, for the list-form API; None when
    the flight is not computable, the tables lack its engine or CCD profile,
    or its total CO2e or CO2 per seat mile is not finite. `run` and
    `validate` do not call it.
    """
    if not rf.is_computable:
        return None
    factors = engines.get(rf.engine_uid or "")
    profile = ccd_profiles.get(rf.emissions_type or "")
    if factors is None or profile is None:
        return None
    flight = rf.flight
    return emissions_row(
        kernel_terms(factors.rates, engine_multiplier, rf.efficiency_factor, co2e_factors),
        profile, rf.seat_count, flight.taxi_in_min, flight.taxi_out_min,
        flight.air_time_min if interpolation_key == "time" else flight.distance_mi,
        flight.distance_mi)
