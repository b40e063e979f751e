import datetime
import random
from fractions import Fraction
from pathlib import Path

import pytest

from aeroemit import aggregate as agg
from aeroemit.config import RunConfig
from aeroemit.emissions import Co2eFactors, flight_emissions
from aeroemit.ingest import CcdProfile, FlightRecord
from aeroemit.matching import ENGINE_EXACT, ResolvedFlight
from conftest import (CFM56_7B27E_RATES, coverage_report, lto_factors, roll_up, rollup_rows,
                      write_outputs)
from reference import GasVector, LtoTimes, split_lto, unep_baseline


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
    return lto_factors("E", CFM56_7B27E_RATES)


def flat_profile(co2_per_min=100.0):
    durations = (10.0, 500.0)
    return CcdProfile("T", durations, tuple((d * 1e-5, d * co2_per_min, d * 1e-3, d * 1e-2)
                                            for d in durations), (None, None))


def outcome(flight, seats=180):
    """The resolved flight and its `emissions_row`."""
    rf = make_resolved(flight, seats)
    row = flight_emissions(rf, {"E": cfm56()}, {"T": flat_profile()})
    assert row is not None
    return rf, row


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
        factors = lto_factors("E", rates)
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
        rollup = roll_up(outcomes)
        (summary,) = rollup.carriers.values()
        expected = sum(row[9] + row[13] for _, row in outcomes)  # LTO and CCD CO2
        assert summary.co2 / agg.UNIT == pytest.approx(expected)
        assert summary.flights == 2
        assert summary.computed == 2
        (row,), _, _ = rollup_rows(rollup)
        assert row[1:5] == ["2", "2", "360", f"{float(Fraction(summary.co2, agg.UNIT)):.2f}"]

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
        rollup = roll_up(outcomes)
        rows = {row[0]: row for row in rollup_rows(rollup)[0]}
        # independent naive loop
        for carrier in carriers:
            mine = [(rf, row) for rf, row in outcomes if rf.flight.carrier_code == carrier]
            naive_co2 = sum(row[9] + row[13] for _, row in mine)  # LTO and CCD CO2
            naive_seat_miles = sum(rf.seat_count * rf.flight.distance_mi for rf, _ in mine)
            s = rollup.carriers[carrier]
            assert s.flights == len(mine)
            assert s.co2 / agg.UNIT == pytest.approx(naive_co2)
            assert s.co2 / s.seat_miles == pytest.approx(naive_co2 / naive_seat_miles)
            # total_co2_kg and co2_per_seat_mile, each the exact ratio rounded once
            assert rows[carrier][4] == f"{float(Fraction(s.co2, agg.UNIT)):.2f}"
            assert rows[carrier][6] == f"{float(Fraction(s.co2, s.seat_miles)):.6f}"

    def test_zero_emission_flights_ratio_absent(self):
        rf = make_resolved(make_flight())
        rf = ResolvedFlight(
            flight=rf.flight, canonical_type=None, seat_count=None,
            engine_count=None, engine_uid=None, emissions_type=None,
            efficiency_factor=1.0, provenance=frozenset(),
            incomputable_cause="MISSING_TAIL")
        rollup = roll_up([(rf, None)])
        (summary,) = rollup.carriers.values()
        assert summary.flights == 1
        assert summary.computed == 0
        (row,), _, _ = rollup_rows(rollup)
        assert row[6:] == ["", ""]  # co2_per_seat_mile and co2e_per_seat_mile

    def test_ordering_by_flight_count(self):
        outcomes = ([outcome(make_flight(carrier="AA", number=str(i)))
                     for i in range(3)]
                    + [outcome(make_flight(carrier="DL", number=str(i)))
                       for i in range(5)])
        airlines, _, _ = rollup_rows(roll_up(outcomes))
        assert [row[0] for row in airlines] == ["DL", "AA"]

    def test_co2e_ratio_dominates_co2_ratio(self):
        outcomes = [outcome(make_flight(number=str(i))) for i in range(5)]
        airlines, _, _ = rollup_rows(roll_up(outcomes))
        for row in airlines:  # co2e_per_seat_mile, co2_per_seat_mile
            assert float(row[7]) >= float(row[6])


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
    def exact_kg(outcomes, gas, starts):
        """Exact mass of `gas` over all outcomes in the row slices that begin
        at `starts`: 0 the origin share, 4 the destination share, 12 CCD."""
        i = agg.GASES.index(gas)
        return sum((Fraction(row[start + i]) for _, row in outcomes for start in starts),
                   Fraction(0))

    def test_airport_split_conserves_mass(self):
        outcomes = self.corpus()
        airports = roll_up(outcomes).airports.values()
        for gas in agg.GASES:
            total = sum(getattr(a, gas.lower()) for a in airports)
            flight_lto = self.exact_kg(outcomes, gas, (0, 4))
            assert Fraction(total, agg.UNIT) == flight_lto

    def test_three_way_grouping_identity(self):
        outcomes = self.corpus()
        rollup = roll_up(outcomes)
        lto_bd, ccd_bd = rollup.lto, rollup.ccd
        for gas in agg.GASES:
            system = self.exact_kg(outcomes, gas, (0, 4, 12))
            field = gas.lower()
            airline_total = sum(getattr(s, field) for s in rollup.carriers.values())
            airport_total = sum(getattr(a, field) for a in rollup.airports.values())
            assert Fraction(airline_total, agg.UNIT) == system
            assert Fraction(airport_total + getattr(ccd_bd, field), agg.UNIT) == system
            assert Fraction(getattr(lto_bd, field) + getattr(ccd_bd, field),
                            agg.UNIT) == system

    def test_permutation_invariance(self):
        outcomes = self.corpus(100)
        shuffled = list(outcomes)
        random.Random(9).shuffle(shuffled)
        a, b = roll_up(outcomes), roll_up(shuffled)
        assert a.carriers == b.carriers
        assert rollup_rows(a)[0] == rollup_rows(b)[0]


class TestGasBreakdown:
    def test_co2e_is_raw_times_factor(self):
        outcomes = [outcome(make_flight(number=str(i))) for i in range(3)]
        rollup = roll_up(outcomes)
        f = Co2eFactors()
        _, _, breakdown = rollup_rows(rollup, f)
        for cycle, gas, raw_kg, co2e_kg in breakdown:
            field = gas.lower()
            raw = Fraction(getattr(rollup.lto if cycle == "LTO" else rollup.ccd, field), agg.UNIT)
            assert raw_kg == f"{float(raw):.2f}"
            assert co2e_kg == f"{float(raw * Fraction(getattr(f, field))):.2f}"
            if gas == "CO2":
                assert co2e_kg == raw_kg


def incomputable_outcome():
    rf = ResolvedFlight(
        flight=make_flight(number="x"), canonical_type=None, seat_count=None,
        engine_count=None, engine_uid=None, emissions_type=None,
        efficiency_factor=1.0, provenance=frozenset(),
        incomputable_cause="MISSING_TAIL")
    return rf, None


def written_csv(outcomes, outdir, unep=None):
    """Rows of the per-flight and scatter files `write_outputs` writes, as
    dicts keyed by header."""
    cfg = RunConfig(*(Path("unused.csv"),) * 6, output_dir=outdir, unep=unep)
    resolved = [rf for rf, _ in outcomes]
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
        _, row = outcomes[0]  # total CO2e [18], CO2 per seat mile [20]
        assert co2e_points[0]["co2e_kg"] == f"{row[18]:.2f}"
        assert seat_mile_points[0]["co2_per_seat_mile"] == f"{row[20]:.6f}"

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
                baseline = unep_baseline(float(point["distance_mi"]), unep)
                assert point["unep_baseline"] == f"{baseline:.6f}"


class TestUnepBaseline:
    config = agg.UnepBaseline(short_haul_co2_per_seat_mile=0.2,
                              long_haul_co2_per_seat_mile=0.1, cutoff_mi=700.0)

    def test_below_cutoff_short(self):
        assert unep_baseline(699.9, self.config) == 0.2

    def test_at_cutoff_long(self):
        assert unep_baseline(700.0, self.config) == 0.1

    def test_above_cutoff_long(self):
        assert unep_baseline(3000.0, self.config) == 0.1
