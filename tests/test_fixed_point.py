"""Fixed-point aggregation: exactness against Fraction, and metamorphic checks."""

import datetime
import fractions
import hashlib
import json
import math
import pickle
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aeroemit import aggregate as agg
from aeroemit import cli, emissions, pipeline
from aeroemit.config import REQUIRED_TABLE_KEYS, load_config
from aeroemit.emissions import Co2eFactors
from aeroemit.ingest import FlightRecord
from aeroemit.matching import ResolvedFlight
from conftest import (block_of, build_corpus, coverage_report, in_shards, roll_up,
                      rollup_rows, table_paths, write_config, write_outputs)

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


def gas_sums(sums):
    """The HC, CO2, CO and NOX sums of a `Sums`, in units of 2**-1074 kg."""
    return [sums.hc, sums.co2, sums.co, sums.nox]


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


def synthetic_outcome(carrier, origin, destination, seats, masses):
    """A computed flight and its `emissions_row`, whose 14 doubles the
    accumulator reads are `masses`: origin share, destination share and CCD
    (four gases each), total CO2e and distance."""
    flight = FlightRecord(datetime.date(2021, 9, 1), carrier, "1", "N1", origin,
                          destination, 60.0, None, None, masses[13])
    rf = ResolvedFlight(flight, "T", seats, 2, "E", "T", 1.0, frozenset())
    lto = (o + d for o, d in zip(masses[0:4], masses[4:8]))
    return rf, (*masses[0:8], *lto, *masses[8:12], 0.0, 0.0, masses[12], 0.0, 0.0, None)


# One flight's draw: a byte each for its carrier, origin and destination, two
# for its seat count and one for each of its 14 doubles.
FLIGHT_BYTES = 3 + 2 + 14


@st.composite
def synthetic_flights(draw, carriers, origins, destinations):
    """Up to 12 flights for `synthetic_outcome`. Each flight's 14 doubles are
    picked from one pool of 1 to 14 doubles drawn per example, which is
    cheaper than drawing 14 per flight; any 14 doubles are still reachable,
    as a pool of their distinct values. Each flight is one draw of bytes,
    whose cells pick its carrier, airports, seat count (0 to 300) and
    doubles by modulo: a draw per cell would cost more than the test."""
    pool = draw(st.lists(doubles, min_size=1, max_size=14))
    return [(carriers[cells[0] % len(carriers)], origins[cells[1] % len(origins)],
             destinations[cells[2] % len(destinations)],
             int.from_bytes(cells[3:5], "big") % 301,
             [pool[cell % len(pool)] for cell in cells[5:]])
            for cells in draw(st.lists(st.binary(min_size=FLIGHT_BYTES, max_size=FLIGHT_BYTES),
                                       max_size=12))]


@given(synthetic_flights(["AA", "DL"], ["X", "Y", "Z"], ["X", "Y", "Z"]))
@example([("AA", "X", "Y", 2, [0.0, -0.0, 5e-324, -5e-324, -0.0, 0.0, 1e-310, 3.5,
                               -0.0, 2.0**-1074 * 3, 1e300, 0.1, 0.0, 5e-324])])
@example([("AA", "X", "Y", 2, [1.7e308, 1.0, 1.0, 1.0, 1.7e308, 1.0, 1.0, 1.0,
                               -1.7e308, 1.0, 1.0, 1.0, 1.0, 100.0])] * 2)
@example([("DL", "X", "Z", 3, [5e-324, -1e-310, 2.5e-308, 7e-320,
                               -5e-324, 1e-320, 3e-315, -2e-322, 4e-323, 1e-300,
                               -1e-300, 5e-324, 1e-310, 1e-320])] * 3)
def test_accumulator_totals_are_sums_of_to_units(flights):
    """The accumulator's fold gives what `to_units` gives."""
    assert sums_of(roll_up([synthetic_outcome(*f) for f in flights])) == to_units_sums(flights)


def to_units_sums(flights):
    """Per-carrier [HC, CO2, CO, NOX, CO2e, seat-miles], per-airport and
    per-cycle [HC, CO2, CO, NOX] sums of `synthetic_flights`, summed value by
    value with `to_units`."""
    airlines, airports = {}, {}
    cycles = {"LTO": [0] * 4, "CCD": [0] * 4}
    for carrier, origin, destination, seats, masses in flights:
        units = [agg.to_units(x) for x in masses]
        a = airlines.setdefault(carrier, [0] * 6)
        for i in range(4):
            a[i] += units[i] + units[4 + i] + units[8 + i]
            cycles["LTO"][i] += units[i] + units[4 + i]
            cycles["CCD"][i] += units[8 + i]
        a[4] += units[12]
        a[5] += seats * units[13]
        for airport, share in ((origin, units[0:4]), (destination, units[4:8])):
            totals = airports.setdefault(airport, [0] * 4)
            for i in range(4):
                totals[i] += share[i]
    return airlines, airports, cycles


def sums_of(rollup):
    """An accumulator's sums in the form `to_units_sums` gives."""
    return ({carrier: [*gas_sums(s), s.co2e, s.seat_miles]
             for carrier, s in rollup.carriers.items()},
            {airport: gas_sums(s) for airport, s in rollup.airports.items()},
            {"LTO": gas_sums(rollup.lto), "CCD": gas_sums(rollup.ccd)})


@pytest.mark.parametrize("block", [1, 3, agg.BLOCK])
def test_airport_at_one_end(monkeypatch, block):
    """An airport that is never a destination (X) and one that is never an
    origin (W), in blocks where both ends are seen and blocks where one is:
    the airports and cycles are the `to_units` sums, in one accumulator and
    in every two merged."""
    monkeypatch.setattr(agg, "BLOCK", block)
    routes = [("AA", "X", "Y"), ("DL", "Y", "W"), ("AA", "X", "W"), ("DL", "Y", "Y"),
              ("AA", "X", "Y"), ("DL", "X", "W"), ("AA", "Y", "W")]
    flights = [(carrier, origin, destination, 2 + i, [0.1 * (i + 1) + k for k in range(14)])
               for i, (carrier, origin, destination) in enumerate(routes)]
    expected = to_units_sums(flights)
    assert expected[1].keys() == {"X", "Y", "W"}
    outcomes = [synthetic_outcome(*f) for f in flights]
    assert sums_of(roll_up(outcomes)) == expected
    for cut in range(len(outcomes) + 1):
        merged = roll_up(outcomes[:cut])
        merged.merge(pickle.loads(pickle.dumps(roll_up(outcomes[cut:]))))
        assert sums_of(merged) == expected


def fraction_roll_up(outcomes):
    """The Fraction roll-up that the fixed-point pass replaced: per-carrier
    [flights, emission flights, seats, CO2, CO2e, seat-miles], per-airport
    and per-cycle [HC, CO2, CO, NOX] totals."""
    airlines = {}
    airports = {}
    cycles = {"LTO": [Fraction(0)] * 4, "CCD": [Fraction(0)] * 4}
    for rf, row in outcomes:
        flight = rf.flight
        a = airlines.setdefault(flight.carrier_code,
                                [0, 0, 0, Fraction(0), Fraction(0), Fraction(0)])
        a[0] += 1
        if row is None:
            continue
        seats = rf.seat_count or 0
        a[1] += 1
        a[2] += seats
        # The CO2 of the origin share, the destination share and CCD.
        a[3] += Fraction(row[1]) + Fraction(row[5]) + Fraction(row[13])
        a[4] += Fraction(row[18])  # total CO2e
        a[5] += Fraction(seats) * Fraction(flight.distance_mi)
        for airport, share in ((flight.origin, row[0:4]), (flight.destination, row[4:8])):
            totals = airports.setdefault(airport, [Fraction(0)] * 4)
            for i, mass in enumerate(share):
                totals[i] += Fraction(mass)
        for cycle, vectors in (("LTO", (row[0:4], row[4:8])), ("CCD", (row[12:16],))):
            for v in vectors:
                for i, mass in enumerate(v):
                    cycles[cycle][i] += Fraction(mass)
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
    return cfg, outcomes, coverage_report(resolved)


def written(cfg, outcomes, coverage, outdir):
    write_outputs(outcomes, cfg._replace(output_dir=outdir), coverage)
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


def exact_kg(sums):
    """Per-gas sums of a `Sums` as exact Fractions of a kg."""
    return [Fraction(units, agg.UNIT) for units in gas_sums(sums)]


def test_totals_equal_fraction_reference(corpus):
    _, outcomes, _ = corpus
    airlines, airports, cycles = fraction_roll_up(outcomes)
    rollup = roll_up(outcomes)
    for carrier, s in rollup.carriers.items():
        exact = (Fraction(s.co2, agg.UNIT), Fraction(s.co2e, agg.UNIT),
                 Fraction(s.seat_miles, agg.UNIT))
        assert [s.flights, s.computed, s.seats, *exact] == airlines[carrier]
    for airport, s in rollup.airports.items():
        assert exact_kg(s) == airports[airport]
    for cycle, totals in (("LTO", rollup.lto), ("CCD", rollup.ccd)):
        assert exact_kg(totals) == cycles[cycle]


def test_roll_up_builds_no_fraction(corpus, tmp_path, monkeypatch):
    cfg, outcomes, coverage = corpus

    def no_fraction(*args):
        raise AssertionError("Fraction built during a run")

    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    for name, module in list(sys.modules.items()):
        if name.startswith("aeroemit"):
            for attr, value in list(vars(module).items()):
                if value is Fraction:
                    monkeypatch.setattr(module, attr, no_fraction)
    written(cfg, outcomes[:200], coverage, tmp_path)


def test_shuffled_outcomes_give_identical_outputs(corpus, tmp_path):
    cfg, outcomes, coverage = corpus
    shuffled = list(outcomes)
    random.Random(17).shuffle(shuffled)
    a, b = roll_up(outcomes), roll_up(shuffled)
    assert (a.carriers, a.airports, a.lto, a.ccd) == (b.carriers, b.airports, b.lto, b.ccd)
    assert rollup_rows(a) == rollup_rows(b)
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
    for name, paths in (("original", table_paths(cfg)), ("shuffled", shuffled)):
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
    union, a, b = roll_up(outcomes), roll_up(part_a), roll_up(part_b)

    def units(sums):
        return tuple(gas_sums(sums))

    def plus(x, y):
        return tuple(p + q for p, q in zip(x, y))

    def system(rollup):
        return plus(units(rollup.lto), units(rollup.ccd))

    assert units(union.lto) == plus(units(a.lto), units(b.lto))
    assert units(union.ccd) == plus(units(a.ccd), units(b.ccd))
    assert system(union) == plus(system(a), system(b))
    parts = {carrier: units(s) for carrier, s in a.carriers.items()}
    for carrier, s in b.carriers.items():
        parts[carrier] = plus(parts.get(carrier, (0,) * 4), units(s))
    assert {carrier: units(s) for carrier, s in union.carriers.items()} == parts


def test_computed_flights_are_the_computable_ones(tmp_path):
    paths = build_corpus(tmp_path, n_flights=200, missing_tails=7,
                         missing_airtimes=5, unknown_tails=3)
    cfg = load_config(write_config(tmp_path, paths, tmp_path / "out"))
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    outcomes = pipeline.compute_outcomes(resolved, data, cfg)
    assert [row is not None for _, row in outcomes] == [rf.is_computable for rf in resolved]
    assert coverage_report(resolved).computed_flights == 185


@pytest.mark.parametrize("key", ["time", "distance"])
def test_benchmark_side_mode_calls(tmp_path, key):
    """The list-form calls of the benchmark's traced side mode
    (`perfbench/spans.py`'s `_run_side`), with its arguments: `flight_emissions`
    gives a row exactly for the flights `compute_outcomes` computed. A change
    that breaks one of these calls fails here before the traced benchmark
    run. ROADMAP item 1 retires this test, with the side mode."""
    paths = build_corpus(tmp_path, n_flights=200, missing_tails=7,
                         missing_airtimes=5, unknown_tails=3)
    if key == "distance":
        time_cfg = load_config(write_config(tmp_path, paths, tmp_path / "out"))
        paths["bada_ccd"] = knot_distances(time_cfg, tmp_path / "bada_ccd_distance.csv")
    cfg = load_config(write_config(tmp_path, paths, tmp_path / "out",
                                   extra={"interpolation_key": key}))
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    outcomes = pipeline.compute_outcomes(resolved, data, cfg, threads=1)
    engines, profiles = data.tables.databank_by_uid, data.tables.ccd_by_type
    per_engine = cfg.engine_multiplier_mode == "per-engine"
    computed = [emissions.flight_emissions(
        rf, engines, profiles, cfg.co2e_factors,
        engine_multiplier=float(rf.engine_count or 1) if per_engine else 1.0,
        interpolation_key=cfg.interpolation_key) is not None for rf in resolved]
    assert computed == [row is not None for _, row in outcomes]
    assert computed.count(True) == 185


def run_outputs(workdir, paths, matching_tables):
    """Run the CLI on `paths` in `workdir`; the bytes of every output file."""
    workdir.mkdir()
    config = write_config(workdir, paths, workdir / "out", extra=matching_tables)
    assert cli.main(["run", "--config", str(config)]) == 0
    return {name: (workdir / "out" / name).read_bytes() for name in pipeline.OUTPUT_FILES}


def matching_tables_of(cfg):
    return {"normalization_rules": str(cfg.normalization_rules),
            "family_fallback": str(cfg.family_fallback)}


def csv_rows(data):
    header, *rows = data.decode("utf-8").splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_file_totals_of_union_are_sum_of_parts(corpus, tmp_path):
    """Split the flight table in two, keep the reference tables: the files of
    A ∪ B add up from those of A and B (masses within the 2-decimal rounding
    of three files)."""
    cfg, _, _ = corpus
    header, *rows = cfg.ontime.read_bytes().splitlines(keepends=True)
    rng = random.Random(4)
    part_rows = {"a": [], "b": []}
    for row in rows:
        part_rows["a" if rng.random() < 0.4 else "b"].append(row)
    outputs = {"union": run_outputs(tmp_path / "union", table_paths(cfg),
                                    matching_tables_of(cfg))}
    for part, chosen in part_rows.items():
        ontime = tmp_path / f"ontime_{part}.csv"
        ontime.write_bytes(header + b"".join(chosen))
        outputs[part] = run_outputs(tmp_path / part, {**table_paths(cfg), "ontime": ontime},
                                    matching_tables_of(cfg))
    union, a, b = outputs["union"], outputs["a"], outputs["b"]

    def lines(data):
        return data.decode("utf-8").splitlines()[1:]

    assert sorted(lines(union["flight_emissions.csv"])) == sorted(
        lines(a["flight_emissions.csv"]) + lines(b["flight_emissions.csv"]))

    coverage = {k: json.loads(v["coverage.json"]) for k, v in outputs.items()}
    for key in ("total_flights", "computed_flights"):
        assert coverage["union"][key] == coverage["a"][key] + coverage["b"][key]
    for key in ("incomputable_causes", "fallback_flags"):
        summed = dict(coverage["a"][key])
        for name, count in coverage["b"][key].items():
            summed[name] = summed.get(name, 0) + count
        assert coverage["union"][key] == summed

    def close(total, x, y):
        return abs(float(total) - (float(x) + float(y))) <= 0.015

    def keyed(data, key):
        return {row[key]: row for row in csv_rows(data)}

    airlines = {k: keyed(v["airline_summary.csv"], "carrier") for k, v in outputs.items()}
    assert set(airlines["union"]) == set(airlines["a"]) | set(airlines["b"])
    zero = dict.fromkeys(agg.AIRLINE_SUMMARY_TABLE.header, "0")
    for carrier, row in airlines["union"].items():
        ra, rb = airlines["a"].get(carrier, zero), airlines["b"].get(carrier, zero)
        for column in ("total_flights", "emission_flights", "total_seats"):
            assert int(row[column]) == int(ra[column]) + int(rb[column]), (carrier, column)
        for column in ("total_co2_kg", "total_co2e_kg"):
            assert close(row[column], ra[column], rb[column]), (carrier, column)

    airports = {k: keyed(v["airport_lto.csv"], "airport") for k, v in outputs.items()}
    assert set(airports["union"]) == set(airports["a"]) | set(airports["b"])
    zero = dict.fromkeys(agg.AIRPORT_LTO_TABLE.header, "0")
    for airport, row in airports["union"].items():
        ra, rb = airports["a"].get(airport, zero), airports["b"].get(airport, zero)
        for column in agg.AIRPORT_LTO_TABLE.header[1:]:
            assert close(row[column], ra[column], rb[column]), (airport, column)

    breakdowns = {k: csv_rows(v["gas_breakdown.csv"]) for k, v in outputs.items()}
    for row, ra, rb in zip(breakdowns["union"], breakdowns["a"], breakdowns["b"]):
        assert (row["cycle"], row["gas"]) == (ra["cycle"], ra["gas"]) == (rb["cycle"], rb["gas"])
        for column in ("raw_kg", "co2e_kg"):
            assert close(row[column], ra[column], rb[column]), (row["cycle"], row["gas"])


# sha256 of every output file of `run` on the 5k corpus. A change that moves
# one of these must name the file and the reason.
GOLDEN_DIGESTS = {
    "flight_emissions.csv":
        "b255095673296c6161e4b0c2b1dc35868b81376dd2e1b84bf4513d31d806c33e",
    "airline_summary.csv":
        "7ad5d086313f1e0b5d72982edc67789626b06fd1000610b535f092abc20043aa",
    "airport_lto.csv":
        "482bcb62882bfb2b5c8dd768dd794ccf56e92fbde2c3093264aaec626957950f",
    "gas_breakdown.csv":
        "4e46df008e018ad321b55e68618513c05c75289b9748233e2945492597ebf321",
    "scatter_co2e.csv":
        "f62dfa2fc2b7f910c0c6d245e3cbd91e24a1a3591c9079c9c820bef22f7b261b",
    "scatter_seat_mile.csv":
        "d1d5999b04674fbf0fdd45586caf2e5b5c0d6178b2066b1e4604e8b58f48d841",
    "coverage.json":
        "80ff2a9cb1860a1e17b5fc28f191b3e70b04786d55839c974eb5043de5ef4036",
}


def test_outputs_match_golden_digests(corpus, tmp_path):
    cfg, _, _ = corpus
    outputs = run_outputs(tmp_path / "run", table_paths(cfg), matching_tables_of(cfg))
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_DIGESTS


# The same run with UNEP baseline constants: only scatter_seat_mile.csv, which
# gains the unep_baseline column, differs from GOLDEN_DIGESTS.
UNEP_CONSTANTS = {"unep_short": "0.2", "unep_long": "0.1", "unep_cutoff_mi": "700"}
GOLDEN_DIGESTS_UNEP = {
    **GOLDEN_DIGESTS,
    "scatter_seat_mile.csv":
        "d3e2f4a34fbaa8b6440ba8298d717f00bffa8cd732f6c7b348848d0f2a3eabfb",
}


def test_outputs_with_unep_match_golden_digests(corpus, tmp_path):
    cfg, _, _ = corpus
    outputs = run_outputs(tmp_path / "run", table_paths(cfg),
                          {**matching_tables_of(cfg), **UNEP_CONSTANTS})
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == GOLDEN_DIGESTS_UNEP


def knot_distances(cfg, path):
    """The corpus's CCD table with a distance_mi column of 40 + 7 miles per knot
    minute: of the corpus's distances, 23 fall below the knots, 145 above and
    one on a knot."""
    header, *rows = cfg.bada_ccd.read_text(encoding="utf-8").splitlines()
    path.write_text("".join([f"{header},distance_mi\n",
                             *(f"{row},{40.0 + 7.0 * float(row.split(',')[1])!r}\n" for row in rows)]),
                    encoding="utf-8")
    return path


# The same run with each engine's rates times its engine count, and with CCD
# interpolated over distance; both computed before the per-flight fast path.
# The distance digests were remade when a key below the first knot came to
# interpolate from an implied (0, 0 kg) knot: only the rows of the 23 flights
# below their first knot changed, in their CCD and total columns.
GOLDEN_DIGESTS_PER_ENGINE = {
    **GOLDEN_DIGESTS,
    "flight_emissions.csv":
        "5addd43a67d73dcd859819ed3f60e115f4494442eda82f6e1cd83319eee60d44",
    "airline_summary.csv":
        "1a5928e3399cb3360c98cf0262cfdd2bf9820282ad96ef2accd65b4ac004bc29",
    "airport_lto.csv":
        "ef8bf04654306b0d96bfbcb4d6d000ac3c7a099867aa24a9727a71030d0e9197",
    "gas_breakdown.csv":
        "35b0161c349c06a95d418ffab67987eeaf5820f2c615c1f1f3c4d31b0f786e37",
    "scatter_co2e.csv":
        "28a087759276b367ea2366c095015d30a664b19e45489522159a2bf9ddf4dbe3",
    "scatter_seat_mile.csv":
        "ffd5a06e7ceecc9808a9f36714e8a0b49d2ce555fdd080fecf36275b02b3a886",
}
GOLDEN_DIGESTS_DISTANCE = {
    **GOLDEN_DIGESTS,
    "flight_emissions.csv":
        "795318074c58fe3bd8d6403cf854d2a13b943180e61b111ae2c967fc644f88c3",
    "airline_summary.csv":
        "786c74c30e0decf494715d31079ac7ae2e40cccd1ce04c6c83ca96b7a9659cbf",
    "gas_breakdown.csv":
        "6ba89f397f8b51d3dbd90c5d7bf59e5afeb6704d1fbc660e73cad8d725bae53c",
    "scatter_co2e.csv":
        "6651cdc55896032ababb8e832f6b27a7d180b3ea41578582fd8bb8845c95dc4c",
    "scatter_seat_mile.csv":
        "778a0f40c0c43f0cb82ea0ca8d3b36b48c8fa96a2038a9f62bc67980e594fdd2",
}


@pytest.mark.parametrize("setting, golden", [
    ({"engine_multiplier_mode": "per-engine"}, GOLDEN_DIGESTS_PER_ENGINE),
    ({"interpolation_key": "distance"}, GOLDEN_DIGESTS_DISTANCE),
], ids=["per-engine", "distance"])
def test_outputs_per_setting_match_golden_digests(corpus, tmp_path, setting, golden):
    cfg, _, _ = corpus
    paths = table_paths(cfg)
    if "interpolation_key" in setting:
        paths["bada_ccd"] = knot_distances(cfg, tmp_path / "bada_ccd.csv")
    outputs = run_outputs(tmp_path / "run", paths, {**matching_tables_of(cfg), **setting})
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == golden


GOLDEN_SETTINGS = [
    ({}, GOLDEN_DIGESTS), (UNEP_CONSTANTS, GOLDEN_DIGESTS_UNEP),
    ({"engine_multiplier_mode": "per-engine"}, GOLDEN_DIGESTS_PER_ENGINE),
    ({"interpolation_key": "distance"}, GOLDEN_DIGESTS_DISTANCE)]
GOLDEN_SETTING_IDS = ["default", "unep", "per-engine", "distance"]


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("setting, golden", GOLDEN_SETTINGS, ids=GOLDEN_SETTING_IDS)
def test_outputs_in_shards_match_golden_digests(corpus, tmp_path, monkeypatch, setting,
                                                golden, shards):
    """The seven outputs do not depend on the number of processes a run is
    split across: their forked shards' sums and rows merge exactly."""
    cfg, _, _ = corpus
    paths = table_paths(cfg)
    if "interpolation_key" in setting:
        paths["bada_ccd"] = knot_distances(cfg, tmp_path / "bada_ccd.csv")
    forked = in_shards(monkeypatch, shards)
    outputs = run_outputs(tmp_path / "run", paths, {**matching_tables_of(cfg), **setting})
    assert len(forked) == shards - 1
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == golden


@given(synthetic_flights(["AA", "DL", "UA"], ["X", "Y", "Z"], ["W", "V"]), st.integers(0, 12))
def test_merged_accumulators_equal_one_over_all(flights, cut):
    """Accumulators over the two parts of a list of flights, merged, hold the
    sums of one accumulator over the whole list and make its rows. The second
    part is pickled and read back first, as a forked shard's is."""
    outcomes = [synthetic_outcome(*f) for f in flights]
    whole, first, second = roll_up(outcomes), roll_up(outcomes[:cut]), roll_up(outcomes[cut:])
    first.merge(pickle.loads(pickle.dumps(second)))
    assert everything(first) == everything(whole)


def everything(accumulator):
    """An accumulator's sums, cycles and table rows; a table with a figure
    beyond a double is "overflow"."""
    return (accumulator.carriers, accumulator.airports, accumulator.lto, accumulator.ccd,
            [_rounded(lambda: list(rows)) for rows in accumulator.rows(Co2eFactors())])


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("setting, golden", GOLDEN_SETTINGS, ids=GOLDEN_SETTING_IDS)
def test_outputs_in_small_blocks_match_golden_digests(corpus, tmp_path, monkeypatch, setting,
                                                      golden, shards, block):
    """Handing the roll-up every flight, or every third, as its own block
    changes no output byte."""
    monkeypatch.setattr(agg, "BLOCK", block)
    test_outputs_in_shards_match_golden_digests(corpus, tmp_path, monkeypatch, setting, golden,
                                                shards)


@pytest.mark.parametrize("block", [1, 3])
def test_merged_accumulators_in_small_blocks(monkeypatch, block):
    monkeypatch.setattr(agg, "BLOCK", block)
    test_merged_accumulators_equal_one_over_all()


@given(st.lists(doubles, max_size=60))
@example([1.7e308, 1.7e308, -1.7e308])
@example([SMALLEST_SUBNORMAL] * 7)
@example([5e-324, -1e-310, 2.5e-308, -5e-324, 1e-320, 3e-315, -2e-322])
@example([1e300, -1e300, 1e-300, -1.0, 1.0, 1e-300, -0.0])
@example([2.0 ** (1000 - 60 * i) for i in range(30)])
def test_exact_units_equal_sums_of_to_units(xs):
    """`exact_units` is the sum of the values' units: through `fsum` rounds,
    past an intermediate overflow, among subnormals and mixed signs, and for
    a sum that needs more than _ROUNDS doubles."""
    assert agg.exact_units(xs) == sum(map(agg.to_units, xs))


def test_exact_units_falls_back_past_an_overflow():
    """A column whose partial sums overflow a double."""
    column = [1.7e308, 1.7e308, -1.7e308]
    with pytest.raises(OverflowError):
        math.fsum(column)
    assert agg.exact_units(column) == sum(map(agg.to_units, column))


def test_each_add_leaves_the_sums_so_far():
    """After each `add`, of blocks of 0 to 3 flights, one with no computed
    flight, the sums hold every flight added so far, each counted once."""
    accumulator = agg.RollUpAccumulator()
    expected, flights, computed = [0] * 4, 0, 0
    for i, size in enumerate([1, 0, 3, 2, 1]):
        block = []
        for k in range(size):
            masses = [0.1 * (i + j + k) for j in range(14)]
            rf, row = synthetic_outcome("AA", "X", "Y", 2, masses)
            if i == 3:
                row = None
            else:
                computed += 1
                expected = [e + sum(map(agg.to_units, masses[g:12:4]))
                            for g, e in enumerate(expected)]
            block.append((rf, row))
        accumulator.add(*block_of(block))
        flights += size
        sums = accumulator.carriers["AA"]
        assert (gas_sums(sums), sums.flights, sums.computed) == (expected, flights, computed)


@given(synthetic_flights(["AA", "DL"], ["X", "Y"], ["Y", "Z"]), st.sets(st.integers(0, 11)),
       st.lists(st.integers(0, 12), max_size=6))
@example([("AA", "X", "Y", 2, [0.1 * k for k in range(14)]),
          ("DL", "Y", "Z", 0, [1e300] * 14), ("AA", "X", "Z", 300, [-5e-324] * 14)],
         {1}, [0, 1, 2, 2])
def test_cut_into_blocks_equals_one_add(flights, withheld, cuts):
    """Cutting a list of flights, those at `withheld` with no emissions, into
    `add` calls at the points `cuts`, which make empty blocks, one-flight
    blocks and blocks with no computed flight, changes no sum and no row of
    one call over all of them."""
    outcomes = [(rf, None if i in withheld else row)
                for i, (rf, row) in enumerate(synthetic_outcome(*f) for f in flights)]
    whole, cut = agg.RollUpAccumulator(), agg.RollUpAccumulator()
    whole.add(*block_of(outcomes))
    points = sorted(min(c, len(outcomes)) for c in cuts)
    for start, end in zip([0, *points], [*points, len(outcomes)]):
        cut.add(*block_of(outcomes[start:end]))
    assert everything(cut) == everything(whole)


def test_pickled_accumulator_holds_no_rows():
    """A forked shard pickles only its sums: no double of a row is in the
    pickle."""
    accumulator = agg.RollUpAccumulator()
    masses = [12345.678 + k for k in range(14)]
    accumulator.add(*block_of([synthetic_outcome("AA", "X", "Y", 2, masses)] * 3))
    data = pickle.dumps(accumulator)
    assert not any(struct.pack(">d", x) in data for x in masses)
    assert everything(pickle.loads(data)) == everything(accumulator)
