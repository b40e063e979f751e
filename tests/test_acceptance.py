"""Acceptance suite: one test per criterion, each printing a pass line."""

import math
import random
import time

import pytest

from aeroemit import aggregate as agg
from aeroemit import cli, matching, pipeline
from aeroemit.config import load_config
from conftest import (B739ER_CCD_KNOTS, build_corpus, coverage_report, roll_up, rollup_rows,
                      write_config, write_golden_inputs)
from reference import GasVector, co2e, interpolate_ccd
from test_emissions import oracle_interpolate


@pytest.fixture(scope="module")
def corpus_cfg(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus5000")
    paths = build_corpus(root, n_flights=5000)
    config = write_config(root, paths, root / "out")
    return root, load_config(config), config


@pytest.fixture(scope="module")
def corpus_outcomes(corpus_cfg):
    _, cfg, _ = corpus_cfg
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    return pipeline.compute_outcomes(resolved, data, cfg)


def test_criterion_1_golden_worked_example(tmp_path):
    paths = write_golden_inputs(tmp_path)
    config = write_config(tmp_path, paths, tmp_path / "out")
    cfg = load_config(config)
    start = time.perf_counter()
    data = pipeline.load_data(cfg)
    (rf,) = pipeline.resolve_all(data)
    ((_, row),) = pipeline.compute_outcomes([rf], data, cfg)
    elapsed = time.perf_counter() - start
    assert row is not None
    hc, co2, co, nox = row[8:12]  # the LTO mass
    assert hc == pytest.approx(0.24, rel=0.01)
    assert co2 == pytest.approx(1334.11, rel=0.01)
    assert co == pytest.approx(4.70, rel=0.01)
    assert nox == pytest.approx(5.14, rel=0.01)
    assert row[16] == pytest.approx(2893.61, rel=0.01)  # LTO CO2e
    assert row[13] == pytest.approx(16564.99, rel=0.01)  # CCD CO2
    assert row[18] == pytest.approx(43265.46, rel=0.01)  # total CO2e
    assert row[19] == pytest.approx(240.36, rel=0.01)  # CO2e per seat
    assert elapsed < 1.0
    print(f"\nPASS: criterion 1 — golden worked example within 1% ({elapsed:.3f}s)")


def test_criterion_2_knot_exactness(b739er_profile):
    checks = 0
    for d, hc, co2_kg, co_kg, nox in B739ER_CCD_KNOTS:
        v, flag = interpolate_ccd(b739er_profile, float(d))
        assert flag is None
        for got, want in ((v.hc, hc), (v.co2, co2_kg), (v.co, co_kg), (v.nox, nox)):
            assert got == float(want)
            checks += 1
    assert checks == 40
    print(f"\nPASS: criterion 2 — {checks} knot values exact")


def test_criterion_3_interpolation_oracle(b739er_profile):
    rng = random.Random(20210903)
    for _ in range(1000):
        d = rng.uniform(22.0, 410.0)
        v, _ = interpolate_ccd(b739er_profile, d)
        for gas, idx in (("HC", 1), ("CO2", 2), ("CO", 3), ("NOX", 4)):
            expected = oracle_interpolate(B739ER_CCD_KNOTS, d, idx)
            assert math.isclose(getattr(v, gas.lower()), expected, rel_tol=1e-9)
    print("\nPASS: criterion 3 — 1000 random durations match the oracle to 1e-9")


def test_criterion_4_co2e_linearity():
    rng = random.Random(20210904)

    def vec():
        return GasVector(*(rng.uniform(0, 1e4) for _ in range(4)))

    for _ in range(100):
        a, b = vec(), vec()
        assert math.isclose(co2e(a + b), co2e(a) + co2e(b), rel_tol=1e-12)
        k = rng.uniform(0, 10)
        assert math.isclose(co2e(a.scaled(k)), k * co2e(a), rel_tol=1e-12)
    print("\nPASS: criterion 4 — co2e additivity and homogeneity on 100 pairs")


def test_criterion_5_jaccard_properties():
    rng = random.Random(20210905)
    alphabet = "ABCDEFG0123456789- /"
    for _ in range(500):
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 15)))
        s2 = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 15)))
        a, b = matching.tokenize(s1), matching.tokenize(s2)
        sim = matching.jaccard_similarity(a, b)
        assert sim == matching.jaccard_similarity(b, a)
        assert 0.0 <= sim <= 1.0
        assert (sim == 1.0) == (a == b)
    hand = matching.jaccard_similarity(matching.tokenize("CFM56-7B27E"),
                                       matching.tokenize("CFM56-7B26"))
    assert hand == 1 / 3
    print("\nPASS: criterion 5 — jaccard properties on 500 pairs; hand case = 1/3")


def test_criterion_6_conservation(corpus_outcomes):
    outcomes = corpus_outcomes
    assert len(outcomes) == 5000
    assert all(row is not None for _, row in outcomes)

    for _, row in outcomes:  # origin share + destination share == LTO mass
        assert [o + d for o, d in zip(row[0:4], row[4:8])] == list(row[8:12])

    rollup = roll_up(outcomes)
    ccd_bd = rollup.ccd

    for gas in agg.GASES:
        field = gas.lower()
        system = getattr(rollup.lto, field) + getattr(ccd_bd, field)
        airline_total = sum(getattr(s, field) for s in rollup.carriers.values())
        airport_total = sum(getattr(a, field) for a in rollup.airports.values())
        assert airline_total == system
        assert airport_total + getattr(ccd_bd, field) == system
    print("\nPASS: criterion 6 — mass conserved bit-exact across groupings, "
          "5000 flights")


def test_criterion_7_coverage_accounting(tmp_path):
    paths = build_corpus(tmp_path, n_flights=200, missing_tails=7,
                         missing_airtimes=5, unknown_tails=3)
    config = write_config(tmp_path, paths, tmp_path / "out")
    cfg = load_config(config)
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)
    coverage = coverage_report(resolved)
    assert coverage.total_flights == 200
    assert coverage.computed_flights == 185
    assert coverage.coverage == 185 / 200
    assert coverage.causes["MISSING_TAIL"] == 7
    assert coverage.causes["MISSING_AIRTIME"] == 5
    assert coverage.causes["NO_AIRFRAME"] == 3
    print("\nPASS: criterion 7 — engineered coverage 0.925 with exact cause counts")


def test_criterion_8_determinism_across_runs(corpus_cfg, tmp_path):
    root, _, config = corpus_cfg
    digests = {}
    elapsed = {}
    for attempt in (1, 2, 3):
        outdir = tmp_path / f"out{attempt}"
        start = time.perf_counter()
        # each run writes its own directory via a rewritten config
        cfg_path = write_config(tmp_path, {
            k: root / f"{k}.csv" for k in ("ontime", "b43", "tail_registry",
                                           "engine_codes", "icao_engines",
                                           "bada_ccd")},
            outdir, extra={"normalization_rules": str(root / "normalization_rules.csv"),
                           "family_fallback": str(root / "family_fallback.csv")})
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        elapsed[attempt] = time.perf_counter() - start
        digests[attempt] = {name: (outdir / name).read_bytes()
                            for name in pipeline.OUTPUT_FILES}
    assert digests[1] == digests[2] == digests[3]
    assert max(elapsed.values()) < 10.0
    print(f"\nPASS: criterion 8 — byte-identical outputs over 3 runs "
          f"(slowest run {max(elapsed.values()):.2f}s)")


def test_criterion_9_co2e_ratio_dominates(corpus_outcomes):
    summaries, _, _ = rollup_rows(roll_up(corpus_outcomes))
    assert summaries
    for row in summaries:  # co2e_per_seat_mile, co2_per_seat_mile
        assert float(row[7]) >= float(row[6])
    print(f"\nPASS: criterion 9 — co2e/seat-mile >= co2/seat-mile for "
          f"{len(summaries)} airlines")
