"""Fixed-point aggregation: exactness against Fraction, and metamorphic checks."""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeroemit import aggregate as agg
from aeroemit import cli, pipeline
from aeroemit.config import REQUIRED_TABLE_KEYS, load_config
from conftest import build_corpus, write_config

SMALLEST_SUBNORMAL = 5e-324
EDGE_VALUES = [0.0, -0.0, SMALLEST_SUBNORMAL, -SMALLEST_SUBNORMAL,
               sys.float_info.min, sys.float_info.min - SMALLEST_SUBNORMAL,
               sys.float_info.max, -sys.float_info.max,
               sys.float_info.max * (1 - sys.float_info.epsilon / 2)]
doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(EDGE_VALUES))


def _rounded(to_float):
    """The correctly rounded double, or "overflow" past the largest one."""
    try:
        return to_float()
    except OverflowError:
        return "overflow"


@given(st.lists(doubles, max_size=40))
def test_integer_sum_equals_fraction_sum(xs):
    units = sum(agg.to_units(x) for x in xs)
    exact = sum((Fraction(x) for x in xs), Fraction(0))
    assert Fraction(units, 2**1074) == exact
    assert _rounded(lambda: units / 2**1074) == _rounded(lambda: float(exact))


@pytest.mark.parametrize("x, error", [(float("inf"), OverflowError),
                                      (float("-inf"), OverflowError),
                                      (float("nan"), ValueError)])
def test_nonfinite_has_no_units(x, error):
    with pytest.raises(error):
        agg.to_units(x)


def fraction_roll_up(outcomes):
    """The Fraction roll-up that the fixed-point pass replaced: per-carrier
    [flights, emission flights, seats, CO2, CO2e, seat-miles], per-airport
    and per-cycle [HC, CO2, CO, NOX] totals."""
    airlines = {}
    airports = {}
    cycles = {"LTO": [Fraction(0)] * 4, "CCD": [Fraction(0)] * 4}
    for o in outcomes:
        flight = o.resolved.flight
        a = airlines.setdefault(flight.carrier_code,
                                [0, 0, 0, Fraction(0), Fraction(0), Fraction(0)])
        a[0] += 1
        r = o.result
        if r is None:
            continue
        seats = o.resolved.seat_count or 0
        a[1] += 1
        a[2] += seats
        a[3] += (Fraction(r.lto_origin_share.co2) + Fraction(r.lto_destination_share.co2)
                 + Fraction(r.ccd.co2))
        a[4] += Fraction(r.total_co2e_kg)
        a[5] += Fraction(seats) * Fraction(flight.distance_mi)
        for airport, share in ((flight.origin, r.lto_origin_share),
                               (flight.destination, r.lto_destination_share)):
            totals = airports.setdefault(airport, [Fraction(0)] * 4)
            for i, gas in enumerate(agg.GASES):
                totals[i] += Fraction(share.get(gas))
        for cycle, vectors in (("LTO", (r.lto_origin_share, r.lto_destination_share)),
                               ("CCD", (r.ccd,))):
            for v in vectors:
                for i, gas in enumerate(agg.GASES):
                    cycles[cycle][i] += Fraction(v.get(gas))
    return airlines, airports, cycles


def render_reference(reference, f):
    """Airline, airport and gas-breakdown CSV rows of a Fraction roll-up."""
    airlines, airports, cycles = reference

    def mass(value):
        return f"{float(value):.2f}"

    def ratio(num, den):
        return "" if den == 0 else f"{float(num / den):.6f}"

    factors = [Fraction(f.hc), Fraction(f.co2), Fraction(f.co), Fraction(f.nox)]
    airline_rows = [
        ",".join([carrier, str(a[0]), str(a[1]), str(a[2]), mass(a[3]), mass(a[4]),
                  ratio(a[3], a[5]), ratio(a[4], a[5])])
        for carrier, a in sorted(airlines.items(), key=lambda kv: (-kv[1][0], kv[0]))]
    co2e = {airport: sum(t * k for t, k in zip(totals, factors))
            for airport, totals in airports.items()}
    airport_rows = [",".join([airport, *map(mass, airports[airport]), mass(co2e[airport])])
                    for airport in sorted(airports, key=lambda k: (-co2e[k], k))]
    breakdown_rows = [f"{cycle},{gas},{mass(raw[i])},{mass(raw[i] * factors[i])}"
                      for cycle, raw in cycles.items()
                      for i, gas in enumerate(agg.GASES)]
    return airline_rows, airport_rows, breakdown_rows


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus5000")
    paths = build_corpus(root, n_flights=5000)
    cfg = load_config(write_config(root, paths, root / "out"))
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    outcomes = pipeline.compute_outcomes(resolved, data, cfg)
    return cfg, outcomes, pipeline.coverage_report(resolved)


def written(cfg, outcomes, coverage, outdir):
    pipeline.write_outputs(outcomes, dataclasses.replace(cfg, output_dir=outdir), coverage)
    return {name: (outdir / name).read_text(encoding="utf-8")
            for name in pipeline.OUTPUT_FILES}


def test_outputs_match_fraction_reference(corpus, tmp_path):
    cfg, outcomes, coverage = corpus
    files = written(cfg, outcomes, coverage, tmp_path)
    reference = fraction_roll_up(outcomes)
    airlines, airports, breakdown = render_reference(reference, cfg.co2e_factors)
    assert files["airline_summary.csv"].splitlines()[1:] == airlines
    assert files["airport_lto.csv"].splitlines()[1:] == airports
    assert files["gas_breakdown.csv"].splitlines()[1:] == breakdown


def test_totals_equal_fraction_reference(corpus):
    _, outcomes, _ = corpus
    airlines, airports, cycles = fraction_roll_up(outcomes)
    rollup = agg.roll_up(outcomes)
    for s in rollup.airlines:
        exact = (Fraction(s.total_co2e, agg.UNIT), Fraction(s.seat_miles, agg.UNIT))
        assert [s.total_flights, s.emission_flights, s.total_seats, s.gas_totals.co2,
                *exact] == airlines[s.carrier_code]
    for a in rollup.airports:
        assert [a.gas_totals.get(gas) for gas in agg.GASES] == airports[a.airport]
    for breakdown in (rollup.lto, rollup.ccd):
        assert [breakdown.raw.get(gas) for gas in agg.GASES] == cycles[breakdown.cycle]


def test_roll_up_builds_no_fraction(corpus, tmp_path, monkeypatch):
    cfg, outcomes, coverage = corpus

    def no_fraction(*args):
        raise AssertionError("Fraction built during a run")

    monkeypatch.setattr(agg, "Fraction", no_fraction)
    written(cfg, outcomes[:200], coverage, tmp_path)


def test_shuffled_outcomes_give_identical_outputs(corpus, tmp_path):
    cfg, outcomes, coverage = corpus
    shuffled = list(outcomes)
    random.Random(17).shuffle(shuffled)
    a, b = agg.roll_up(outcomes), agg.roll_up(shuffled)
    assert (a.airlines, a.airports, a.lto, a.ccd) == (b.airlines, b.airports, b.lto, b.ccd)
    in_order = written(cfg, outcomes, coverage, tmp_path / "a")
    reordered = written(cfg, shuffled, coverage, tmp_path / "b")
    for name in ("airline_summary.csv", "airport_lto.csv", "gas_breakdown.csv",
                 "coverage.json"):
        assert in_order[name] == reordered[name]


def test_shuffled_input_rows_give_identical_outputs(corpus, tmp_path):
    """Shuffle the data rows of all six input tables and rerun the CLI: the
    roll-ups are byte-identical, the per-flight files hold the same lines."""
    cfg, _, _ = corpus
    rng = random.Random(1018)
    shuffled = {}
    for key in REQUIRED_TABLE_KEYS:
        header, *rows = getattr(cfg, key).read_bytes().splitlines(keepends=True)
        rng.shuffle(rows)
        shuffled[key] = tmp_path / f"{key}.csv"
        shuffled[key].write_bytes(header + b"".join(rows))
    matching_tables = {"normalization_rules": str(cfg.normalization_rules),
                       "family_fallback": str(cfg.family_fallback)}
    outputs = {}
    for name, paths in (("original", cfg.table_paths()), ("shuffled", shuffled)):
        (tmp_path / name).mkdir()
        config = write_config(tmp_path / name, paths, tmp_path / name / "out",
                              extra=matching_tables)
        assert cli.main(["run", "--config", str(config)]) == 0
        outputs[name] = {f: (tmp_path / name / "out" / f).read_bytes()
                         for f in pipeline.OUTPUT_FILES}
    original, reordered = outputs["original"], outputs["shuffled"]
    for name in ("airline_summary.csv", "airport_lto.csv", "gas_breakdown.csv",
                 "coverage.json"):
        assert original[name] == reordered[name], name
    for name in ("flight_emissions.csv", "scatter_co2e.csv", "scatter_seat_mile.csv"):
        assert original[name] != reordered[name], name
        assert sorted(original[name].splitlines()) == sorted(reordered[name].splitlines())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_totals_of_union_are_sum_of_parts(corpus, seed):
    _, outcomes, _ = corpus
    rng = random.Random(seed)
    part_a, part_b = [], []
    for o in outcomes:
        (part_a if rng.random() < 0.3 else part_b).append(o)
    union, a, b = agg.roll_up(outcomes), agg.roll_up(part_a), agg.roll_up(part_b)
    assert union.lto.raw == a.lto.raw + b.lto.raw
    assert union.ccd.raw == a.ccd.raw + b.ccd.raw
    assert union.system == a.system + b.system
    parts = {s.carrier_code: s.gas_totals for s in a.airlines}
    for s in b.airlines:
        parts[s.carrier_code] = parts.get(s.carrier_code, agg.ExactGasTotals()) + s.gas_totals
    assert {s.carrier_code: s.gas_totals for s in union.airlines} == parts


def test_computed_flights_are_the_computable_ones(tmp_path):
    paths = build_corpus(tmp_path, n_flights=200, missing_tails=7,
                         missing_airtimes=5, unknown_tails=3)
    cfg = load_config(write_config(tmp_path, paths, tmp_path / "out"))
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    outcomes = pipeline.compute_outcomes(resolved, data, cfg)
    assert [o.result is not None for o in outcomes] == [rf.is_computable for rf in resolved]
    assert pipeline.coverage_report(resolved).computed_flights == 185
