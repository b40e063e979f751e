"""Shared fixtures: reference engine/profile data and synthetic corpora."""

from __future__ import annotations

import csv
import os
import random
from pathlib import Path

import pytest

from aeroemit import aggregate as agg
from aeroemit import pipeline
from aeroemit.config import REQUIRED_TABLE_KEYS
from aeroemit.emissions import Co2eFactors
from aeroemit.ingest import CcdKnot, CcdProfile, EngineLtoFactors

# CFM56-7B27E LTO emission rates, kg/s.
CFM56_7B27E_RATES = {
    ("HC", "TAKEOFF"): 0.00003879, ("CO2", "TAKEOFF"): 4.07295,
    ("CO", "TAKEOFF"): 0.00040083, ("NOX", "TAKEOFF"): 0.03095442,
    ("HC", "CLIMBOUT"): 0.00002062, ("CO2", "CLIMBOUT"): 3.24765,
    ("CO", "CLIMBOUT"): 0.00017527, ("NOX", "CLIMBOUT"): 0.01844459,
    ("HC", "APPROACH"): 0.00001715, ("CO2", "APPROACH"): 1.08045,
    ("CO", "APPROACH"): 0.00096726, ("NOX", "APPROACH"): 0.00311787,
    ("HC", "IDLE"): 0.0001694, ("CO2", "IDLE"): 0.3465,
    ("CO", "IDLE"): 0.0032329, ("NOX", "IDLE"): 0.0004796,
}

# B737-900ER CCD profile: (duration_min, HC, CO2, CO, NOX) in kg.
B739ER_CCD_KNOTS = [
    (22, 0.35, 3114, 2.93, 18.3),
    (32, 0.51, 4626, 4.05, 27.47),
    (39, 0.57, 5608, 4.36, 32),
    (71, 0.84, 10147, 5.64, 52.69),
    (105, 1.13, 14300, 7.12, 70.1),
    (139, 1.44, 18294, 8.26, 86.64),
    (206, 1.97, 26953, 10.42, 123.27),
    (273, 2.5, 36023, 12.62, 162.82),
    (340, 3.03, 44475, 14.73, 197.69),
    (410, 3.55, 54250, 17.11, 240.25),
]


@pytest.fixture(autouse=True)
def at_most_three_processes(monkeypatch):
    """A run in a test splits across at most three processes, however many
    CPUs the machine has."""
    if hasattr(os, "sched_getaffinity"):
        cpus = set(sorted(os.sched_getaffinity(0))[:3])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


def in_shards(monkeypatch, shards):
    """Split every later run into `shards` processes: a table of a few hundred
    bytes or more is worth a process, and there are `shards` CPUs. Returns
    the list of pids forked."""
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid
    monkeypatch.setattr(pipeline, "SHARD_BYTES", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(shards)))
    monkeypatch.setattr(os, "fork", fork)
    return forked


# The list forms of the streaming pieces `run` feeds one flight at a time.

def row_of(result):
    """The `emissions.emissions_row` tuple of an `EmissionsResult`, or None."""
    if result is None:
        return None
    return (*(getattr(v, gas) for v in (result.lto_origin_share, result.lto_destination_share,
                                        result.lto, result.ccd)
              for gas in ("hc", "co2", "co", "nox")),
            result.lto_co2e_kg, result.ccd_co2e_kg, result.total_co2e_kg,
            result.per_seat_co2e_kg, result.per_seat_mile_co2_kg, result.ccd_flag)


def roll_up(outcomes, co2e_factors: Co2eFactors = Co2eFactors()) -> agg.RollUp:
    """Every grouping of `outcomes`, through `RollUpAccumulator`."""
    accumulator = agg.RollUpAccumulator(co2e_factors)
    for outcome in outcomes:
        rf = outcome.resolved
        accumulator.add(rf.flight, rf.seat_count or 0, row_of(outcome.result))
    return accumulator.finish()


def coverage_report(resolved) -> pipeline.CoverageReport:
    """`CoverageReport.add` over every resolved flight."""
    report = pipeline.CoverageReport()
    for rf in resolved:
        report.add(rf.incomputable_cause, rf.provenance)
    return report


def write_outputs(outcomes, cfg, coverage: pipeline.CoverageReport) -> None:
    """All seven run outputs of `outcomes`, through `OutputWriter`."""
    with pipeline.OutputWriter(cfg) as out:
        for outcome in outcomes:
            rf = outcome.resolved
            out.add(rf.flight, pipeline.TailPlan.of(rf, rf.incomputable_cause, None, None, {}),
                    row_of(outcome.result))
        out.commit(coverage)


def table_paths(cfg) -> dict[str, Path]:
    """The six input table paths of a run config, keyed by config key."""
    return {key: getattr(cfg, key) for key in REQUIRED_TABLE_KEYS}


@pytest.fixture
def cfm56_factors() -> EngineLtoFactors:
    return EngineLtoFactors("CFM56-7B27E", dict(CFM56_7B27E_RATES))


def make_b739er_profile() -> CcdProfile:
    knots = tuple(
        CcdKnot(float(d), {"HC": float(hc), "CO2": float(co2),
                           "CO": float(co), "NOX": float(nox)})
        for d, hc, co2, co, nox in B739ER_CCD_KNOTS)
    return CcdProfile("737-900ER", knots)


@pytest.fixture
def b739er_profile() -> CcdProfile:
    return make_b739er_profile()


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[str(c) for c in row] for row in rows])


def icao_rows(uid: str, rates: dict[tuple[str, str], float]) -> list[list]:
    return [[uid, gas, mode, repr(rate)] for (gas, mode), rate in sorted(rates.items())]


def write_golden_inputs(root: Path) -> dict[str, Path]:
    """The single-flight worked-example corpus (flight DL2441)."""
    paths = {}
    paths["ontime"] = root / "ontime.csv"
    write_csv(paths["ontime"],
              ["flight_date", "carrier", "flight_number", "tail_number", "origin",
               "dest", "air_time_min", "taxi_in_min", "taxi_out_min", "distance_mi"],
              [["2021-09-01", "DL", "2441", "N815DN", "PHL", "ATL",
                "124", "7.43", "15.42", "666"]])
    paths["b43"] = root / "b43.csv"
    write_csv(paths["b43"], ["tail_number", "type_designator", "seat_count",
                             "engine_count"],
              [["N815DN", "B739ER", "180", "2"]])
    paths["tail_registry"] = root / "tail_registry.csv"
    write_csv(paths["tail_registry"], ["tail_number", "engine_designation"],
              [["N815DN", "CFM56-7B27E"]])
    paths["engine_codes"] = root / "engine_codes.csv"
    write_csv(paths["engine_codes"], ["faa_code", "designation"],
              [["00001", "CFM56 SERIES"]])
    paths["icao_engines"] = root / "icao_engines.csv"
    write_csv(paths["icao_engines"], ["engine_uid", "gas", "mode", "rate_kg_per_s"],
              icao_rows("CFM56-7B27E", CFM56_7B27E_RATES))
    paths["bada_ccd"] = root / "bada_ccd.csv"
    write_csv(paths["bada_ccd"],
              ["canonical_type", "duration_min", "hc_kg", "co2_kg", "co_kg", "nox_kg"],
              [["737-900ER", d, hc, co2, co, nox]
               for d, hc, co2, co, nox in B739ER_CCD_KNOTS])
    return paths


def write_config(root: Path, paths: dict[str, Path], output_dir: Path,
                 extra: dict[str, str] | None = None) -> Path:
    config = root / "run.cfg"
    lines = [f"{key} = {value}" for key, value in paths.items()]
    lines.append(f"output_dir = {output_dir}")
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


@pytest.fixture
def golden_config(tmp_path: Path) -> Path:
    paths = write_golden_inputs(tmp_path)
    return write_config(tmp_path, paths, tmp_path / "out")


def build_corpus(root: Path, n_flights: int, seed: int = 20210901,
                 n_types: int = 20, n_engines: int = 40, n_airports: int = 50,
                 missing_tails: int = 0, missing_airtimes: int = 0,
                 unknown_tails: int = 0) -> dict[str, Path]:
    """Generate a fully linked synthetic corpus of the six input tables.

    Every flight is computable unless one of the missing_* knobs is set; those
    degrade the first rows of the flight table in a known way.
    """
    rng = random.Random(seed)
    types = [f"TYPE{i:02d}" for i in range(n_types)]
    engines = [f"ENG{i:02d}-X{i % 7}" for i in range(n_engines)]
    airports = [f"A{i:02d}" for i in range(n_airports)]
    carriers = ["AA", "DL", "UA", "WN", "B6", "NK", "AS", "F9"]

    rates = {}
    for uid in engines:
        rates[uid] = {}
        for gas, scale in (("HC", 1e-4), ("CO2", 4.0), ("CO", 1e-3), ("NOX", 3e-2)):
            for mode, weight in (("TAKEOFF", 1.0), ("CLIMBOUT", 0.8),
                                 ("APPROACH", 0.3), ("IDLE", 0.08)):
                rates[uid][(gas, mode)] = rng.uniform(0.2, 1.0) * scale * weight

    durations = [20.0, 60.0, 120.0, 240.0, 420.0]
    profiles = {}
    for ctype in types:
        base = rng.uniform(15.0, 45.0)
        profiles[ctype] = [
            (d, round(base * d * 1e-5, 6), round(base * d, 3),
             round(base * d * 2e-4, 6), round(base * d * 5e-3, 6))
            for d in durations]

    n_tails = max(60, n_flights // 10)
    tails = [f"N{i:05d}" for i in range(n_tails)]
    tail_type = {t: types[i % n_types] for i, t in enumerate(tails)}
    tail_engine = {t: engines[i % n_engines] for i, t in enumerate(tails)}
    tail_seats = {t: rng.choice([76, 143, 160, 180, 220]) for t in tails}

    registry_rows = []
    for i, tail in enumerate(tails):
        uid = tail_engine[tail]
        if i % 11 == 3:
            # designation differs from the UID; resolved by token matching
            registry_rows.append([tail, uid.replace("-", " ")])
        elif i % 17 == 5:
            # no registry row at all; popular-engine fallback
            continue
        else:
            registry_rows.append([tail, uid])

    flight_rows = []
    for i in range(n_flights):
        tail = tails[rng.randrange(n_tails)]
        origin, dest = rng.sample(airports, 2)
        air_time = round(rng.uniform(25.0, 400.0), 1)
        taxi_in = round(rng.uniform(3.0, 20.0), 2)
        taxi_out = round(rng.uniform(5.0, 30.0), 2)
        distance = round(air_time * rng.uniform(5.5, 8.5), 1)
        row = [f"2021-{rng.randrange(7, 10):02d}-{rng.randrange(1, 29):02d}",
               carriers[rng.randrange(len(carriers))], str(1000 + i), tail,
               origin, dest, repr(air_time), repr(taxi_in), repr(taxi_out),
               repr(distance)]
        if i < missing_tails:
            row[3] = ""
        elif i < missing_tails + missing_airtimes:
            row[6] = ""
        elif i < missing_tails + missing_airtimes + unknown_tails:
            row[3] = "N99999X"
        flight_rows.append(row)

    paths = {}
    paths["ontime"] = root / "ontime.csv"
    write_csv(paths["ontime"],
              ["flight_date", "carrier", "flight_number", "tail_number", "origin",
               "dest", "air_time_min", "taxi_in_min", "taxi_out_min", "distance_mi"],
              flight_rows)
    paths["b43"] = root / "b43.csv"
    write_csv(paths["b43"],
              ["tail_number", "type_designator", "seat_count", "engine_count"],
              [[t, f"RAW-{tail_type[t]}", str(tail_seats[t]), "2"] for t in tails])
    paths["tail_registry"] = root / "tail_registry.csv"
    write_csv(paths["tail_registry"], ["tail_number", "engine_designation"],
              registry_rows)
    paths["engine_codes"] = root / "engine_codes.csv"
    write_csv(paths["engine_codes"], ["faa_code", "designation"],
              [[f"C{i:03d}", engines[i]] for i in range(n_engines)])
    paths["icao_engines"] = root / "icao_engines.csv"
    icao = []
    for uid in engines:
        icao.extend(icao_rows(uid, rates[uid]))
    write_csv(paths["icao_engines"],
              ["engine_uid", "gas", "mode", "rate_kg_per_s"], icao)
    paths["bada_ccd"] = root / "bada_ccd.csv"
    write_csv(paths["bada_ccd"],
              ["canonical_type", "duration_min", "hc_kg", "co2_kg", "co_kg", "nox_kg"],
              [[ctype, d, hc, co2, co, nox]
               for ctype in types for d, hc, co2, co, nox in profiles[ctype]])
    paths["normalization_rules"] = root / "normalization_rules.csv"
    write_csv(paths["normalization_rules"], ["pattern", "canonical_type"],
              [[f"RAW-{ctype}", ctype] for ctype in types])
    paths["family_fallback"] = root / "family_fallback.csv"
    write_csv(paths["family_fallback"],
              ["missing_type", "surrogate_type", "efficiency_factor"],
              [["TYPEX0", types[0], "0.85"]])
    return paths
