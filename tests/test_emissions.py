import datetime
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aeroemit import emissions
from aeroemit.emissions import Co2eFactors, flight_emissions
from aeroemit.ingest import CcdProfile, EngineLtoFactors, FlightRecord
from aeroemit.matching import ENGINE_EXACT, MISSING_AIRTIME, ResolvedFlight
from conftest import B739ER_CCD_KNOTS, bits, lto_factors
from reference import GasVector, LtoTimes, ccd_masses, co2e, interpolate_ccd, split_lto


def constant_factors(value=1.0, **per_gas):
    """Engine whose rate is `value` (or a per-gas override) in every mode."""
    rates = {}
    for gas in ("HC", "CO2", "CO", "NOX"):
        for mode in ("TAKEOFF", "CLIMBOUT", "APPROACH", "IDLE"):
            rates[(gas, mode)] = per_gas.get(gas, value)
    return lto_factors("TEST", rates)


def mode_rates(gas, takeoff, climbout, approach, idle):
    rates = {(g, m): 0.0 for g in ("HC", "CO2", "CO", "NOX")
             for m in ("TAKEOFF", "CLIMBOUT", "APPROACH", "IDLE")}
    rates[(gas, "TAKEOFF")] = takeoff
    rates[(gas, "CLIMBOUT")] = climbout
    rates[(gas, "APPROACH")] = approach
    rates[(gas, "IDLE")] = idle
    return lto_factors("TEST", rates)


class TestLtoTimes:
    def test_standard_mode_times(self):
        t = LtoTimes()
        assert (t.takeoff_s, t.climbout_s, t.approach_s, t.idle_s) == (42, 132, 240, 1560)

    def test_idle_from_taxi(self):
        t = LtoTimes.from_taxi(7.43, 15.42)
        assert t.idle_s == pytest.approx(22.85 * 60)
        assert t.idle_from_taxi

    def test_default_idle_when_taxi_missing(self):
        assert LtoTimes.from_taxi(None, 15.0).idle_s == 1560
        assert LtoTimes.from_taxi(5.0, None).idle_s == 1560


def lto_mass(factors, times, taxi_in=None, taxi_out=None, engine_multiplier=1.0):
    """The LTO mass the outputs report: the origin plus the destination share."""
    origin, destination = split_lto(factors, times, taxi_in, taxi_out, engine_multiplier)
    return origin + destination


class TestLtoEmissions:
    def test_worked_example(self, cfm56_factors):
        v = lto_mass(cfm56_factors, LtoTimes.from_taxi(7.43, 15.42), 7.43, 15.42)
        assert v.hc == pytest.approx(0.24, rel=0.01)
        assert v.co2 == pytest.approx(1334.11, rel=0.01)
        assert v.co == pytest.approx(4.70, rel=0.01)
        assert v.nox == pytest.approx(5.14, rel=0.01)

    def test_zero_times_zero_vector(self, cfm56_factors):
        t = LtoTimes(takeoff_s=0, climbout_s=0, approach_s=0, idle_s=0)
        assert lto_mass(cfm56_factors, t) == GasVector()

    def test_hand_summed_co2(self):
        # 4*10 + 3*10 + 1*10 + 0.5*10 = 85 kg
        factors = mode_rates("CO2", 4.0, 3.0, 1.0, 0.5)
        t = LtoTimes(takeoff_s=10, climbout_s=10, approach_s=10, idle_s=10)
        assert lto_mass(factors, t).co2 == pytest.approx(85.0)

    @given(st.floats(min_value=0, max_value=1e5),
           st.floats(min_value=0, max_value=1e5))
    def test_monotone_in_idle(self, idle_a, idle_b):
        factors = constant_factors(0.37)
        lo, hi = sorted((idle_a, idle_b))
        va = lto_mass(factors, LtoTimes(idle_s=lo))
        vb = lto_mass(factors, LtoTimes(idle_s=hi))
        for gas in ("hc", "co2", "co", "nox"):
            assert getattr(vb, gas) >= getattr(va, gas)

    def test_doubling_multiplier_doubles_exactly(self, cfm56_factors):
        t = LtoTimes.from_taxi(7.43, 15.42)
        v1 = lto_mass(cfm56_factors, t, 7.43, 15.42, engine_multiplier=1.0)
        v2 = lto_mass(cfm56_factors, t, 7.43, 15.42, engine_multiplier=2.0)
        for gas in ("hc", "co2", "co", "nox"):
            assert getattr(v2, gas) == 2.0 * getattr(v1, gas)


class TestCcdInterpolate:
    def test_exact_knot(self, b739er_profile):
        v, flag = interpolate_ccd(b739er_profile, 105.0)
        assert v.co2 == 14300.0
        assert flag is None

    def test_all_knots_exact(self, b739er_profile):
        for d, hc, co2_kg, co, nox in B739ER_CCD_KNOTS:
            v, flag = interpolate_ccd(b739er_profile, float(d))
            assert (v.hc, v.co2, v.co, v.nox) == (hc, co2_kg, co, nox)
            assert flag is None

    def test_midpoint(self, b739er_profile):
        v, _ = interpolate_ccd(b739er_profile, 122.0)
        assert v.co2 == pytest.approx((14300 + 18294) / 2)

    def test_efficiency_factor_zero(self, b739er_profile):
        v, _ = interpolate_ccd(b739er_profile, 105.0)
        assert v.scaled(0.0) == GasVector()

    def test_extrapolation_flags(self, b739er_profile):
        _, low = interpolate_ccd(b739er_profile, 10.0)
        assert low == emissions.EXTRAPOLATED_LOW
        _, high = interpolate_ccd(b739er_profile, 500.0)
        assert high == emissions.EXTRAPOLATED_HIGH

    def test_nan_duration_raises(self, b739er_profile, cfm56_factors):
        with pytest.raises(ValueError, match="NaN"):
            interpolate_ccd(b739er_profile, math.nan)
        # The kernel has no such check: its finite check drops the flight.
        terms = emissions.kernel_terms(cfm56_factors.rates, 1.0, 1.0, Co2eFactors())
        ccd = b739er_profile
        assert emissions.emissions_row(terms, ccd, 180, 7.0, 15.0, 124.0, 666.0) is not None
        assert emissions.emissions_row(terms, ccd, 180, 7.0, 15.0, math.nan, 666.0) is None

    def test_below_first_knot_from_implied_zero_knot(self, b739er_profile):
        # the first knot is 22 min: half of it is half of its masses
        v, flag = interpolate_ccd(b739er_profile, 11.0)
        assert (v.hc, v.co2, v.co, v.nox) == (0.35 * 11.0 / 22, 3114 * 11.0 / 22,
                                              2.93 * 11.0 / 22, 18.3 * 11.0 / 22)
        assert flag == emissions.EXTRAPOLATED_LOW
        v, flag = interpolate_ccd(b739er_profile, 0.0)
        assert v == GasVector()
        assert flag == emissions.EXTRAPOLATED_LOW

    @given(st.lists(st.tuples(st.floats(min_value=1e-3, max_value=1e4),
                              st.lists(st.one_of(st.just(0.0),
                                                 st.floats(min_value=1e-300, max_value=1e6)),
                                       min_size=4, max_size=4)),
                    min_size=2, max_size=8, unique_by=lambda knot: knot[0]),
           st.lists(st.floats(min_value=0.0, max_value=3e4), max_size=20))
    @example([(1.9275185943018869, [0.0] * 4), (1574.0, [0.0, 0.0, 0.0, 6.0892652538509836e-239])],
             [])  # without the snap to a knot, the double below 1574 has the greater NOX
    def test_masses_nonnegative_and_nondecreasing(self, knots, durations):
        """With knots that never decrease, every CCD mass is >= 0 and does not
        fall as the duration grows, from 0 to past the last knot. The knots'
        masses are running sums of the drawn increments; the durations probed
        are the drawn ones, each knot and its neighbouring doubles.

        An increment is 0 or at least 1e-300 kg: where two knots differ by a
        subnormal mass, the rounding of the product can still carry a mass
        one subnormal step (2**-1074 kg) past the upper knot's."""
        totals = (0.0,) * 4
        masses = []
        for _, increments in sorted(knots):
            totals = tuple(t + i for t, i in zip(totals, increments))
            masses.append(totals)
        knot_durations = tuple(sorted(duration for duration, _ in knots))
        profile = CcdProfile("T", knot_durations, tuple(masses), (None,) * len(masses))
        probes = {0.0, 5e-324, *durations, knot_durations[-1] * 2}
        for d in knot_durations:
            probes |= {d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)}
        previous = GasVector()
        for x in sorted(probes):
            v, _ = interpolate_ccd(profile, x)
            assert min(v) >= 0.0, x
            assert all(m >= p for m, p in zip(v, previous)), x
            previous = v

    def test_extrapolation_is_linear_not_clamped(self, b739er_profile):
        v, _ = interpolate_ccd(b739er_profile, 450.0)
        # continues the last segment's slope past the final knot
        slope = (54250 - 44475) / (410 - 340)
        assert v.co2 == pytest.approx(54250 + slope * 40)

    @given(st.floats(min_value=22, max_value=410))
    def test_continuity_and_bounds(self, d):
        profile = _profile()
        v, flag = interpolate_ccd(profile, d)
        assert flag is None
        durations = profile.durations
        for i in range(len(durations) - 1):
            if durations[i] <= d <= durations[i + 1]:
                lo = profile.masses[i][1]  # CO2
                hi = profile.masses[i + 1][1]
                assert min(lo, hi) - 1e-9 <= v.co2 <= max(lo, hi) + 1e-9

    def test_knot_epsilon_continuity(self, b739er_profile):
        for d, _, co2_kg, _, _ in B739ER_CCD_KNOTS[1:-1]:
            for eps in (1e-7, 1e-9):
                lo, _ = interpolate_ccd(b739er_profile, d - eps)
                hi, _ = interpolate_ccd(b739er_profile, d + eps)
                assert lo.co2 == pytest.approx(co2_kg, abs=1e-4)
                assert hi.co2 == pytest.approx(co2_kg, abs=1e-4)


def _profile():
    from conftest import make_b739er_profile
    return make_b739er_profile()


def oracle_interpolate(knots, d, gas_index):
    """Independent two-point interpolation: linear scan + convex blend."""
    xs = [k[0] for k in knots]
    ys = [k[gas_index] for k in knots]
    if d <= xs[0]:
        i = 0
    elif d >= xs[-1]:
        i = len(xs) - 2
    else:
        i = max(j for j in range(len(xs) - 1) if xs[j] <= d)
    w = (d - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] * (1 - w) + ys[i + 1] * w


class TestInterpolationOracle:
    def test_against_oracle(self, b739er_profile):
        import random
        rng = random.Random(7)
        for _ in range(200):
            d = rng.uniform(22, 410)
            v, _ = interpolate_ccd(b739er_profile, d)
            expected = oracle_interpolate(B739ER_CCD_KNOTS, d, 2)
            assert math.isclose(v.co2, expected, rel_tol=1e-9)


class TestCo2e:
    def test_worked_example(self):
        # HC back-solved to 4 decimals so the 84x term matches the reported sum
        v = GasVector(hc=0.2429, co2=1334.11, co=4.70, nox=5.14)
        assert co2e(v) == pytest.approx(2893.61, rel=0.001)

    def test_zero_vector(self):
        assert co2e(GasVector()) == 0.0

    def test_pure_co2_identity(self):
        assert co2e(GasVector(co2=100.0)) == 100.0

    def test_default_factors(self):
        f = Co2eFactors()
        assert (f.co2, f.co, f.hc, f.nox) == (1.0, 1.57, 84.0, 298.0)

    finite = st.floats(min_value=0, max_value=1e6)
    vectors = st.builds(GasVector, finite, finite, finite, finite)

    @given(vectors, vectors)
    def test_additivity(self, a, b):
        assert co2e(a + b) == pytest.approx(co2e(a) + co2e(b), rel=1e-12, abs=1e-9)

    @given(vectors, st.floats(min_value=0, max_value=1e3))
    def test_homogeneity(self, v, k):
        assert co2e(v.scaled(k)) == pytest.approx(k * co2e(v), rel=1e-12, abs=1e-9)


def resolved(flight, **kwargs):
    defaults = dict(
        canonical_type="737-900ER", seat_count=180, engine_count=2,
        engine_uid="CFM56-7B27E", emissions_type="737-900ER",
        efficiency_factor=1.0, provenance=frozenset({ENGINE_EXACT}))
    defaults.update(kwargs)
    return ResolvedFlight(flight=flight, **defaults)


def dl2441():
    return FlightRecord(
        flight_date=datetime.date(2021, 9, 1), carrier_code="DL",
        flight_number="2441", tail_number="N815DN", origin="PHL",
        destination="ATL", air_time_min=124.0, taxi_in_min=7.43,
        taxi_out_min=15.42, distance_mi=666.0)


class TestFlightEmissions:
    def test_worked_example_end_to_end(self, cfm56_factors, b739er_profile):
        rf = resolved(dl2441())
        row = flight_emissions(rf, {"CFM56-7B27E": cfm56_factors},
                               {"737-900ER": b739er_profile})
        assert row[13] == pytest.approx(16564.99, rel=0.005)  # CCD CO2
        assert row[16] == pytest.approx(2893.61, rel=0.01)  # LTO CO2e
        assert row[18] == pytest.approx(43265.46, rel=0.01)  # total CO2e
        assert row[19] == pytest.approx(240.36, rel=0.01)  # CO2e per seat

    def test_total_is_exact_sum_of_cycles(self, cfm56_factors, b739er_profile):
        row = flight_emissions(resolved(dl2441()),
                               {"CFM56-7B27E": cfm56_factors},
                               {"737-900ER": b739er_profile})
        assert row[18] == row[16] + row[17]  # total, LTO and CCD CO2e

    def test_split_shares_sum_to_lto(self, cfm56_factors, b739er_profile):
        row = flight_emissions(resolved(dl2441()),
                               {"CFM56-7B27E": cfm56_factors},
                               {"737-900ER": b739er_profile})
        assert [o + d for o, d in zip(row[0:4], row[4:8])] == list(row[8:12])

    def test_unit_denominators(self):
        flight = FlightRecord(
            flight_date=datetime.date(2021, 9, 1), carrier_code="XX",
            flight_number="1", tail_number="N1", origin="AAA", destination="BBB",
            air_time_min=50.0, taxi_in_min=0.0, taxi_out_min=0.0, distance_mi=1.0)
        rf = resolved(flight, seat_count=1, engine_uid="TEST", emissions_type="T")
        factors = mode_rates("CO2", 0.0, 0.0, 0.0, 0.0)
        profile = CcdProfile("T", (10.0, 100.0), ((0.0, 7.0, 0.0, 0.0),) * 2, (None, None))
        row = flight_emissions(rf, {"TEST": factors}, {"T": profile})
        assert row[20] == pytest.approx(7.0)  # CO2 per seat mile
        assert row[19] == pytest.approx(7.0)  # CO2e per seat

    def test_missing_profile_withheld(self, cfm56_factors):
        row = flight_emissions(resolved(dl2441()),
                               {"CFM56-7B27E": cfm56_factors}, {})
        assert row is None

    def test_missing_engine_withheld(self, b739er_profile):
        row = flight_emissions(resolved(dl2441()), {},
                               {"737-900ER": b739er_profile})
        assert row is None

    def test_incomputable_rejected(self, cfm56_factors, b739er_profile):
        rf = resolved(dl2441(), incomputable_cause=MISSING_AIRTIME)
        assert flight_emissions(rf, {"CFM56-7B27E": cfm56_factors},
                                {"737-900ER": b739er_profile}) is None

    def test_efficiency_factor_scales_both_cycles(self, cfm56_factors, b739er_profile):
        base = flight_emissions(resolved(dl2441()),
                                {"CFM56-7B27E": cfm56_factors},
                                {"737-900ER": b739er_profile})
        scaled = flight_emissions(resolved(dl2441(), efficiency_factor=0.85,
                                           provenance=frozenset({ENGINE_EXACT,
                                                                 "FAMILY_FALLBACK"})),
                                  {"CFM56-7B27E": cfm56_factors},
                                  {"737-900ER": b739er_profile})
        assert scaled[9] == pytest.approx(0.85 * base[9])  # LTO CO2
        assert scaled[13] == pytest.approx(0.85 * base[13])  # CCD CO2


def reference_emissions(rf, factors, profile, co2e_factors, engine_multiplier,
                        interpolation_key):
    """`flight_emissions` built from the reference pieces, the CCD masses
    written out knot by knot: the 22 items of `emissions_row`, None when the
    total CO2e or the CO2 per seat mile is not finite."""
    flight = rf.flight
    times = LtoTimes.from_taxi(flight.taxi_in_min, flight.taxi_out_min)
    origin, destination = split_lto(factors, times, flight.taxi_in_min, flight.taxi_out_min,
                                    engine_multiplier, rf.efficiency_factor)
    lto = origin + destination
    x = flight.air_time_min if interpolation_key == "time" else flight.distance_mi
    ccd, flag = ccd_masses(profile, x)
    ccd = ccd.scaled(rf.efficiency_factor)
    lto_co2e, ccd_co2e = co2e(lto, co2e_factors), co2e(ccd, co2e_factors)
    total = lto_co2e + ccd_co2e
    seats = rf.seat_count or 1
    per_seat_mile = (lto.co2 + ccd.co2) / (seats * flight.distance_mi)
    if not (math.isfinite(total) and math.isfinite(per_seat_mile)):
        return None
    return (*origin, *destination, *lto, *ccd, lto_co2e, ccd_co2e, total, total / seats,
            per_seat_mile, flag)


KNOT_DURATIONS = [float(k[0]) for k in B739ER_CCD_KNOTS]
rates = st.one_of(st.floats(min_value=0.0, max_value=10.0),
                  st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e150, 1e300]))
taxi = st.one_of(st.none(), st.just(0.0), st.floats(min_value=0.0, max_value=90.0))
knot_axis = st.one_of(st.floats(min_value=0.5, max_value=700.0),
                      st.sampled_from(KNOT_DURATIONS))


class TestKernelEqualsReference:
    @given(st.lists(rates, min_size=16, max_size=16), taxi, taxi,
           st.integers(min_value=1, max_value=4),
           st.one_of(st.just(1.0), st.just(0.85), st.floats(min_value=0.0, max_value=2.0)),
           knot_axis, knot_axis, st.sampled_from(["time", "distance"]),
           st.one_of(st.none(), st.integers(min_value=1, max_value=400)))
    @example([0.37] * 16, None, None, 2, 0.85, 22.0, 700.0, "time", None)  # on a knot
    @example([5e-324] * 16, 0.0, 0.0, 4, 1.0, 10.0, 500.0, "distance", 180)  # taxi sum 0
    @example([1e300] * 16, 0.0, 12.0, 3, 0.5, 300.0, 410.0, "time", 1)  # not finite
    @example([0.37] * 16, 7.43, 15.42, 1, 1.0, 25.7, 666.0, "time", 180)  # HC tells `* offset / span` from `* (offset / span)`
    def test_bit_for_bit(self, rate_list, taxi_in, taxi_out, multiplier, efficiency,
                         air_time, distance, key, seats):
        factors = EngineLtoFactors("R", tuple(rate_list))
        profile = _profile()
        flight = FlightRecord(
            flight_date=datetime.date(2021, 9, 1), carrier_code="XX",
            flight_number="1", tail_number="N1", origin="AAA", destination="BBB",
            air_time_min=air_time, taxi_in_min=taxi_in, taxi_out_min=taxi_out,
            distance_mi=distance)
        rf = resolved(flight, seat_count=seats, engine_uid="R", emissions_type="T",
                      efficiency_factor=efficiency)
        row = flight_emissions(rf, {"R": factors}, {"T": profile}, Co2eFactors(),
                               engine_multiplier=float(multiplier), interpolation_key=key)
        expected = reference_emissions(rf, factors, profile, Co2eFactors(),
                                       float(multiplier), key)
        if expected is None:
            assert row is None
            return
        assert list(map(bits, row)) == list(map(bits, expected))
