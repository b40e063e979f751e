import datetime
import random
from fractions import Fraction
from pathlib import Path

import pytest

from aeroemit import aggregate as agg
from aeroemit.config import RunConfig
from aeroemit.emissions import Co2eFactors, GasVector, LtoTimes, split_lto
from aeroemit.emissions import EmissionsResult, flight_emissions
from aeroemit.ingest import CcdKnot, CcdProfile, EngineLtoFactors, FlightRecord
from aeroemit.matching import ENGINE_EXACT, ResolvedFlight
from conftest import CFM56_7B27E_RATES, coverage_report, roll_up, write_outputs


def make_flight(carrier="DL", origin="PHL", dest="ATL", taxi_in=7.43,
                taxi_out=15.42, air_time=124.0, distance=666.0, number="1"):
    return FlightRecord(
        flight_date=datetime.date(2021, 9, 1), carrier_code=carrier,
        flight_number=number, tail_number="N1", origin=origin, destination=dest,
        air_time_min=air_time, taxi_in_min=taxi_in, taxi_out_min=taxi_out,
        distance_mi=distance)


def make_resolved(flight, seats=180):
    return ResolvedFlight(
        flight=flight, canonical_type="T", seat_count=seats, engine_count=2,
        engine_uid="E", emissions_type="T", efficiency_factor=1.0,
        provenance=frozenset({ENGINE_EXACT}))


def cfm56():
    return EngineLtoFactors("E", dict(CFM56_7B27E_RATES))


def flat_profile(co2_per_min=100.0):
    knots = tuple(CcdKnot(d, {"HC": d * 1e-5, "CO2": d * co2_per_min,
                              "CO": d * 1e-3, "NOX": d * 1e-2})
                  for d in (10.0, 500.0))
    return CcdProfile("T", knots)


def outcome(flight, seats=180):
    rf = make_resolved(flight, seats)
    result = flight_emissions(rf, {"E": cfm56()}, {"T": flat_profile()})
    assert result is not None
    return agg.FlightOutcome(rf, result)


class TestSplitLto:
    def test_equal_taxi_splits_idle_in_half(self):
        factors = cfm56()
        times = LtoTimes.from_taxi(10.0, 10.0)
        origin, dest = split_lto(factors, times, 10.0, 10.0)
        idle_co2 = factors.rate("CO2", "IDLE") * times.idle_s
        origin_modes = (factors.rate("CO2", "TAKEOFF") * 42
                        + factors.rate("CO2", "CLIMBOUT") * 132)
        assert origin.co2 == pytest.approx(origin_modes + idle_co2 / 2)
        assert dest.co2 == pytest.approx(
            factors.rate("CO2", "APPROACH") * 240 + idle_co2 / 2)

    def test_worked_example_taxi_ratio(self):
        # destination receives the taxi-in share 7.43/22.85 of the idle mass
        factors = cfm56()
        times = LtoTimes.from_taxi(7.43, 15.42)
        origin, dest = split_lto(factors, times, 7.43, 15.42)
        idle_co2 = factors.rate("CO2", "IDLE") * times.idle_s
        approach_co2 = factors.rate("CO2", "APPROACH") * 240
        assert dest.co2 == pytest.approx(approach_co2 + idle_co2 * 7.43 / 22.85)

    def test_zero_approach_and_taxi_in_gives_zero_destination(self):
        rates = {(g, m): 1.0 for g in ("HC", "CO2", "CO", "NOX")
                 for m in ("TAKEOFF", "CLIMBOUT", "IDLE")}
        rates.update({(g, "APPROACH"): 0.0 for g in ("HC", "CO2", "CO", "NOX")})
        factors = EngineLtoFactors("E", rates)
        times = LtoTimes.from_taxi(0.0, 12.0)
        _, dest = split_lto(factors, times, 0.0, 12.0)
        assert dest == GasVector()

    def test_default_idle_splits_fifty_fifty(self):
        factors = cfm56()
        times = LtoTimes.from_taxi(None, None)
        origin, dest = split_lto(factors, times, None, None)
        idle_co2 = factors.rate("CO2", "IDLE") * 1560
        assert dest.co2 == pytest.approx(
            factors.rate("CO2", "APPROACH") * 240 + idle_co2 / 2)

    def test_origin_plus_destination_bit_exact(self):
        rng = random.Random(3)
        factors = cfm56()
        for _ in range(50):
            taxi_in = rng.uniform(0.1, 30)
            taxi_out = rng.uniform(0.1, 30)
            times = LtoTimes.from_taxi(taxi_in, taxi_out)
            origin, dest = split_lto(factors, times, taxi_in, taxi_out)
            total = origin + dest
            rebuilt = split_lto(factors, times, taxi_in, taxi_out)
            assert rebuilt[0] + rebuilt[1] == total


class TestAirlineAggregation:
    def test_single_airline_additivity(self):
        outcomes = [outcome(make_flight(number=str(i))) for i in range(2)]
        (summary,) = roll_up(outcomes).airlines
        expected = sum(o.result.lto.co2 + o.result.ccd.co2 for o in outcomes)
        assert summary.total_co2_kg == pytest.approx(expected)
        assert summary.total_flights == 2
        assert summary.emission_flights == 2

    def test_brute_force_recomputation(self):
        rng = random.Random(11)
        carriers = ["AA", "DL", "UA"]
        outcomes = []
        for i in range(20):
            outcomes.append(outcome(make_flight(
                carrier=carriers[rng.randrange(3)], air_time=rng.uniform(20, 400),
                taxi_in=rng.uniform(1, 20), taxi_out=rng.uniform(1, 20),
                distance=rng.uniform(100, 2500), number=str(i)),
                seats=rng.choice([76, 160, 180])))
        summaries = {s.carrier_code: s for s in roll_up(outcomes).airlines}
        # independent naive loop
        for carrier in carriers:
            mine = [o for o in outcomes if o.resolved.flight.carrier_code == carrier]
            naive_co2 = sum(o.result.lto.co2 + o.result.ccd.co2 for o in mine)
            naive_seat_miles = sum(
                o.resolved.seat_count * o.resolved.flight.distance_mi for o in mine)
            s = summaries[carrier]
            assert s.total_flights == len(mine)
            assert s.total_co2_kg == pytest.approx(naive_co2)
            assert s.co2_per_seat_mile == pytest.approx(naive_co2 / naive_seat_miles)

    def test_zero_emission_flights_ratio_absent(self):
        rf = make_resolved(make_flight())
        rf = ResolvedFlight(
            flight=rf.flight, canonical_type=None, seat_count=None,
            engine_count=None, engine_uid=None, emissions_type=None,
            efficiency_factor=1.0, provenance=frozenset(),
            incomputable_cause="MISSING_TAIL")
        (summary,) = roll_up([agg.FlightOutcome(rf, None)]).airlines
        assert summary.total_flights == 1
        assert summary.emission_flights == 0
        assert summary.co2_per_seat_mile is None
        assert summary.co2e_per_seat_mile is None

    def test_ordering_by_flight_count(self):
        outcomes = ([outcome(make_flight(carrier="AA", number=str(i)))
                     for i in range(3)]
                    + [outcome(make_flight(carrier="DL", number=str(i)))
                       for i in range(5)])
        summaries = roll_up(outcomes).airlines
        assert [s.carrier_code for s in summaries] == ["DL", "AA"]

    def test_co2e_ratio_dominates_co2_ratio(self):
        outcomes = [outcome(make_flight(number=str(i))) for i in range(5)]
        for s in roll_up(outcomes).airlines:
            assert s.co2e_per_seat_mile >= s.co2_per_seat_mile


class TestConservation:
    def corpus(self, n=200):
        rng = random.Random(5)
        airports = [f"A{i}" for i in range(12)]
        outcomes = []
        for i in range(n):
            origin, dest = rng.sample(airports, 2)
            outcomes.append(outcome(make_flight(
                carrier=rng.choice(["AA", "DL", "UA", "WN"]),
                origin=origin, dest=dest, air_time=rng.uniform(20, 400),
                taxi_in=rng.uniform(1, 25), taxi_out=rng.uniform(1, 25),
                distance=rng.uniform(100, 2500), number=str(i))))
        return outcomes

    @staticmethod
    def exact_kg(outcomes, gas, shares):
        """Exact per-gas mass of the named result vectors over all outcomes."""
        return sum((Fraction(getattr(getattr(o.result, share), gas.lower()))
                    for o in outcomes for share in shares), Fraction(0))

    def test_airport_split_conserves_mass(self):
        outcomes = self.corpus()
        airports = roll_up(outcomes).airports
        for gas in agg.GASES:
            total = sum(a.gas_totals.units(gas) for a in airports)
            flight_lto = self.exact_kg(
                outcomes, gas, ("lto_origin_share", "lto_destination_share"))
            assert Fraction(total, agg.UNIT) == flight_lto

    def test_three_way_grouping_identity(self):
        outcomes = self.corpus()
        rollup = roll_up(outcomes)
        lto_bd, ccd_bd = rollup.lto, rollup.ccd
        for gas in agg.GASES:
            system = self.exact_kg(
                outcomes, gas, ("lto_origin_share", "lto_destination_share", "ccd"))
            airline_total = sum(s.gas_totals.units(gas) for s in rollup.airlines)
            airport_total = sum(a.gas_totals.units(gas) for a in rollup.airports)
            assert Fraction(airline_total, agg.UNIT) == system
            assert Fraction(airport_total + ccd_bd.units(gas), agg.UNIT) == system
            assert Fraction(lto_bd.units(gas) + ccd_bd.units(gas),
                            agg.UNIT) == system

    def test_permutation_invariance(self):
        outcomes = self.corpus(100)
        shuffled = list(outcomes)
        random.Random(9).shuffle(shuffled)
        a = roll_up(outcomes).airlines
        b = roll_up(shuffled).airlines
        assert [(s.carrier_code, s.gas_totals, s.total_co2e) for s in a] \
            == [(s.carrier_code, s.gas_totals, s.total_co2e) for s in b]


class TestGasBreakdown:
    def test_co2e_is_raw_times_factor(self):
        outcomes = [outcome(make_flight(number=str(i))) for i in range(3)]
        rollup = roll_up(outcomes)
        lto_bd, ccd_bd = rollup.lto, rollup.ccd
        f = Co2eFactors()
        for breakdown in (lto_bd, ccd_bd):
            assert breakdown.co2e_kg("NOX", f) == pytest.approx(
                breakdown.kg("NOX") * 298.0)
            assert breakdown.co2e_kg("CO2", f) == pytest.approx(
                breakdown.kg("CO2"))


def incomputable_outcome():
    rf = ResolvedFlight(
        flight=make_flight(number="x"), canonical_type=None, seat_count=None,
        engine_count=None, engine_uid=None, emissions_type=None,
        efficiency_factor=1.0, provenance=frozenset(),
        incomputable_cause="MISSING_TAIL")
    return agg.FlightOutcome(rf, None)


def written_csv(outcomes, outdir, unep=None):
    """Rows of the per-flight and scatter files `write_outputs` writes, as
    dicts keyed by header."""
    cfg = RunConfig(*(Path("unused.csv"),) * 6, output_dir=outdir, unep=unep)
    resolved = [o.resolved for o in outcomes]
    write_outputs(outcomes, cfg, coverage_report(resolved))
    files = {}
    for name in ("flight_emissions.csv", "scatter_co2e.csv", "scatter_seat_mile.csv"):
        header, *rows = (outdir / name).read_text(encoding="utf-8").splitlines()
        files[name] = [dict(zip(header.split(","), row.split(","))) for row in rows]
    return files


class TestScatter:
    def test_one_point_per_computed_flight(self, tmp_path):
        outcomes = [outcome(make_flight(number=str(i))) for i in range(4)]
        outcomes.append(incomputable_outcome())
        files = written_csv(outcomes, tmp_path)
        co2e_points = files["scatter_co2e.csv"]
        seat_mile_points = files["scatter_seat_mile.csv"]
        assert len(co2e_points) == 4
        assert len(seat_mile_points) == 4
        assert co2e_points[0]["co2e_kg"] == f"{outcomes[0].result.total_co2e_kg:.2f}"
        assert seat_mile_points[0]["co2_per_seat_mile"] \
            == f"{outcomes[0].result.per_seat_mile_co2_kg:.6f}"

    @pytest.mark.parametrize("unep", [None, agg.UnepBaseline(0.2, 0.1, 700.0)],
                             ids=["no-unep", "unep"])
    def test_rows_match_flight_emissions(self, tmp_path, unep):
        rng = random.Random(3)
        outcomes = [outcome(make_flight(carrier=rng.choice(["AA", "DL", "UA"]),
                                        distance=rng.uniform(100, 2500), number=str(i)),
                            seats=rng.choice([76, 160, 180]))
                    for i in range(6)]
        outcomes.insert(2, incomputable_outcome())
        files = written_csv(outcomes, tmp_path, unep)
        flights = files["flight_emissions.csv"]
        assert len(flights) == 6
        for name, value in (("scatter_co2e.csv", "total_co2e_kg"),
                            ("scatter_seat_mile.csv", "per_seat_mile_co2_kg")):
            points = files[name]
            assert len(points) == len(flights)
            for point, flight in zip(points, flights):
                cells = list(point.values())
                assert cells[:5] == [flight["distance_mi"], flight[value],
                                     flight["canonical_type"], flight["engine_uid"],
                                     flight["carrier"]]
        for point in files["scatter_seat_mile.csv"]:
            if unep is None:
                assert "unep_baseline" not in point
            else:
                baseline = agg.unep_baseline(float(point["distance_mi"]), unep)
                assert point["unep_baseline"] == f"{baseline:.6f}"


class TestUnepBaseline:
    config = agg.UnepBaseline(short_haul_co2_per_seat_mile=0.2,
                              long_haul_co2_per_seat_mile=0.1, cutoff_mi=700.0)

    def test_below_cutoff_short(self):
        assert agg.unep_baseline(699.9, self.config) == 0.2

    def test_at_cutoff_long(self):
        assert agg.unep_baseline(700.0, self.config) == 0.1

    def test_above_cutoff_long(self):
        assert agg.unep_baseline(3000.0, self.config) == 0.1
