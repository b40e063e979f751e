"""Seeded synthetic inputs for the aeroemit benchmark.

``generate(workload, seed, root)`` writes the six input tables, a
normalization-rules file, a family-fallback file and two run configs into
``root``: ``run.cfg`` over the full flight table and ``setup.cfg`` over a
one-row flight table that shares every reference table. It returns what a
correct ``aeroemit`` invocation must report for each config: rows and planted
rejections per table, computed flights, incomputable causes and provenance
flags. The same (workload, seed) always gives byte-identical files.

The generator mirrors the resolution cascade of ``aeroemit.matching`` from the
outside: every planted defect is a single defect, so its expected cause is
unambiguous. It imports nothing from the package or its tests.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

TABLES = ("ontime", "b43", "tail_registry", "engine_codes", "icao_engines", "bada_ccd")
HEADERS = {
    "ontime": ["flight_date", "carrier", "flight_number", "tail_number", "origin",
               "dest", "air_time_min", "taxi_in_min", "taxi_out_min", "distance_mi"],
    "b43": ["tail_number", "type_designator", "seat_count", "engine_count"],
    "tail_registry": ["tail_number", "engine_designation"],
    "engine_codes": ["faa_code", "designation"],
    "icao_engines": ["engine_uid", "gas", "mode", "rate_kg_per_s"],
    "bada_ccd": ["canonical_type", "duration_min", "hc_kg", "co2_kg", "co_kg", "nox_kg"],
}
GASES = ("HC", "CO2", "CO", "NOX")
MODES = ("TAKEOFF", "CLIMBOUT", "APPROACH", "IDLE")
GAS_SCALE = {"HC": 1e-4, "CO2": 4.0, "CO": 1e-3, "NOX": 3e-2}
MODE_WEIGHT = {"TAKEOFF": 1.0, "CLIMBOUT": 0.8, "APPROACH": 0.3, "IDLE": 0.08}
FAMILIES = ("CFM56", "V2500", "PW4000", "CF34", "GE90", "TRENT", "PW1100G", "LEAP",
            "BR715", "AE3007")
CARRIERS = ("AA", "DL", "UA", "WN", "B6", "NK", "AS", "F9", "G4", "HA", "SY", "MQ")
DURATIONS = (20.0, 45.0, 90.0, 150.0, 240.0, 330.0, 420.0)
N_TYPES = 20
N_AIRPORTS = 80
UNEP = {"unep_short": "0.25", "unep_long": "0.15", "unep_cutoff_mi": "500"}

# Provenance flags and incomputable causes, as aeroemit.matching spells them.
ENGINE_EXACT = "ENGINE_EXACT"
ENGINE_JACCARD = "ENGINE_JACCARD"
ENGINE_POPULAR_FALLBACK = "ENGINE_POPULAR_FALLBACK"
FAMILY_FALLBACK = "FAMILY_FALLBACK"
MISSING_TAIL = "MISSING_TAIL"
MISSING_AIRTIME = "MISSING_AIRTIME"
MISSING_DISTANCE = "MISSING_DISTANCE"
NO_AIRFRAME = "NO_AIRFRAME"
NO_TYPE_MATCH = "NO_TYPE_MATCH"
NO_CCD_PROFILE = "NO_CCD_PROFILE"
NO_ENGINE_MATCH = "NO_ENGINE_MATCH"

# Canonical types with a special role. FAMILY_TYPE has no CCD profile but a
# family-fallback surrogate; NOPROFILE_TYPE has neither; NOENGINE_TYPE has a
# profile but none of its tails has a registry row, so no popular engine.
FAMILY_TYPE = "TYPEX0"
NOPROFILE_TYPE = "TYPEN0"
NOENGINE_TYPE = "TYPEZ0"

# Ontime rows each of which the parser rejects today, one class per reason.
ONTIME_REJECT_CLASSES = ("arity", "bad_date", "no_carrier", "no_airport", "same_airport",
                         "bad_number", "negative_air_time", "zero_distance",
                         "negative_taxi")
# Flights that resolve to each incomputable cause.
CAUSE_CLASSES = (MISSING_TAIL, MISSING_AIRTIME, MISSING_DISTANCE, NO_AIRFRAME,
                 NO_TYPE_MATCH, NO_CCD_PROFILE, NO_ENGINE_MATCH)
# Non-finite ontime values: (column, text). Today +inf is accepted and the rest
# are rejected by the range checks; a finite-value check would reject them all.
NONFINITE_VALUES = (("air_time_min", "inf"), ("distance_mi", "inf"),
                    ("taxi_in_min", "inf"), ("taxi_out_min", "inf"),
                    ("air_time_min", "nan"), ("distance_mi", "nan"),
                    ("taxi_out_min", "-inf"))


@dataclass(frozen=True)
class Shape:
    """The input properties one workload fixes."""

    command: str             # "run" or "validate"
    flights: int             # rows in the flight table
    flights_per_tail: int    # 1 gives every flight its own tail
    engines: int             # engine UIDs in the databank
    fuzzy: float             # share of registry rows resolved by Jaccard matching
    tails_per_designation: int  # fuzzy registry rows that share one designation text
    dirty: bool = False      # plant rejections, incomputable flights, non-finite values
    planted_share: float = 0.005  # rows per planted ontime class, as a share of flights


# Sizes are cut down from a BTS month and a full FAA registry so that one
# invocation takes seconds and a measured run holds several of them.
# registry-heavy shares each fuzzy designation among 8 tails, as a registry
# lists one engine model on many airframes, so a per-designation cache could
# save 7 of every 8 Jaccard scans. bulk-run gives every fuzzy tail its own
# spelling, so such a cache saves nothing there and only its cost shows.
SHAPES = {
    "bulk-run": Shape("run", flights=10000, flights_per_tail=10, engines=40, fuzzy=0.10,
                      tails_per_designation=1),
    "registry-heavy": Shape("run", flights=600, flights_per_tail=1, engines=800,
                            fuzzy=0.50, tails_per_designation=8),
    "validate-dirty": Shape("validate", flights=30000, flights_per_tail=10, engines=40,
                            fuzzy=0.10, tails_per_designation=8, dirty=True),
}


@dataclass
class Expected:
    """What a correct invocation reports on one config."""

    rows: dict[str, int] = field(default_factory=dict)
    rejected: dict[str, int] = field(default_factory=dict)
    # Rows carrying a non-finite number, not counted in `rejected`: each may be
    # accepted (as +inf is today) or rejected (as a finite-value check would).
    # An accepted non-finite flight row resolves with ENGINE_EXACT and counts
    # as computed; `computed` and `flags` assume all of them are rejected.
    nonfinite: dict[str, int] = field(default_factory=dict)
    computed: int = 0
    causes: dict[str, int] = field(default_factory=dict)
    flags: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rows": self.rows, "rejected": self.rejected,
                "nonfinite": self.nonfinite, "computed": self.computed,
                "causes": self.causes, "flags": self.flags}


@dataclass
class Corpus:
    workload: str
    seed: int
    shape: Shape
    root: Path
    config: Path
    setup_config: Path
    expected: Expected
    setup_expected: Expected
    table_paths: dict[str, Path]

    def table_stats(self) -> dict[str, dict[str, int]]:
        """Data rows and bytes of each input table behind run.cfg."""
        return {t: {"rows": self.expected.rows[t],
                    "bytes": self.table_paths[t].stat().st_size} for t in TABLES}


@dataclass
class _Tail:
    number: str
    raw_type: str
    canonical: str | None
    uid: str | None          # engine the registry row resolves to
    engine_flag: str | None  # flag resolve_flight records for this tail


def _bump(counts: dict[str, int], key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


def _airport(i: int) -> str:
    return "".join(chr(ord("A") + (i // 26 ** k) % 26) for k in (2, 1, 0))


def _write(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _engines(rng: random.Random, n: int) -> tuple[list[str], dict[str, dict]]:
    uids = [f"{FAMILIES[i % len(FAMILIES)]}-{i:04d}" for i in range(n)]
    rates = {uid: {(gas, mode): rng.uniform(0.2, 1.0) * GAS_SCALE[gas] * MODE_WEIGHT[mode]
                   for gas in GASES for mode in MODES} for uid in uids}
    return uids, rates


def _icao_rows(uid: str, rates: dict) -> list[list[str]]:
    return [[uid, gas, mode, repr(rates[(gas, mode)])] for gas in GASES for mode in MODES]


def _profile_rows(rng: random.Random, ctype: str) -> list[list[str]]:
    base = rng.uniform(15.0, 45.0)
    return [[ctype, repr(d), repr(round(base * d * 1e-5, 6)), repr(round(base * d, 3)),
             repr(round(base * d * 2e-4, 6)), repr(round(base * d * 5e-3, 6))]
            for d in DURATIONS]


def _fuzzy_designations(rng: random.Random, shape: Shape, uids: list[str],
                        n: int) -> list[tuple[str, str]]:
    """n (uid, designation) pairs, each designation shared by
    shape.tails_per_designation of them. A designation spells its UID's
    tokens plus a series token, "CFM56 0003 7B" for CFM56-0003, so Jaccard
    matching finds that UID with score 2/3 and no other UID scores above 1/4."""
    pool = []
    for j in range(-(-n // shape.tails_per_designation)):
        uid = uids[rng.randrange(len(uids))]
        pool.append((uid, f"{uid.replace('-', ' ')} {j}B"))
    shared = [pool[k // shape.tails_per_designation] for k in range(n)]
    rng.shuffle(shared)
    return shared


def _tails(rng: random.Random, shape: Shape, types: list[str], uids: list[str],
           ) -> tuple[dict[str, list[_Tail]], list[list[str]], list[list[str]]]:
    """Airframes and registry rows. Returns (tails by role, b43 rows,
    registry rows); engine codes map C<index> to each UID."""
    n_tails = max(len(types) * 3, shape.flights // shape.flights_per_tail)
    # Registry kinds in exact proportions, so that matching work does not vary
    # with the seed. The first tails, two per type, get exact rows, so every
    # type has a most-popular engine.
    first = 2 * len(types)
    rest = n_tails - first
    kinds = (["fuzzy"] * round(rest * shape.fuzzy) + ["popular"] * round(rest * 0.05)
             + ["coded"] * round(rest * 0.20))
    kinds += ["exact"] * (rest - len(kinds))
    rng.shuffle(kinds)
    kinds = ["exact"] * first + kinds
    designations = _fuzzy_designations(rng, shape, uids, kinds.count("fuzzy"))

    tails: list[_Tail] = []
    registry: list[list[str]] = []
    for i, kind in enumerate(kinds):
        canonical = FAMILY_TYPE if i % 50 == 7 else types[i % len(types)]
        uid_index = rng.randrange(len(uids))
        uid = uids[uid_index]
        tail = _Tail(f"N{i:05d}", f"RAW-{canonical}", canonical, uid, ENGINE_EXACT)
        if canonical == FAMILY_TYPE or kind == "exact":
            registry.append([tail.number, uid])
        elif kind == "fuzzy":
            # Not an exact UID: the designation reaches match_engine.
            tail.uid, designation = designations.pop()
            registry.append([tail.number, designation])
            tail.engine_flag = ENGINE_JACCARD
        elif kind == "popular":
            # No registry row: most-popular engine of the type.
            tail.uid, tail.engine_flag = None, ENGINE_POPULAR_FALLBACK
        else:
            registry.append([tail.number, f"C{uid_index:04d}"])
        tails.append(tail)

    roles: dict[str, list[_Tail]] = {
        "linked": list(tails),
        "exact": [t for t in tails if t.engine_flag == ENGINE_EXACT
                  and t.canonical != FAMILY_TYPE],
    }
    if shape.dirty:
        special = {NO_TYPE_MATCH: "UNLISTED", NO_CCD_PROFILE: NOPROFILE_TYPE,
                   NO_ENGINE_MATCH: NOENGINE_TYPE}
        for k, (cause, ctype) in enumerate(special.items()):
            roles[cause] = []
            for j in range(3):
                uid = uids[rng.randrange(len(uids))]
                number = f"NS{k}{j:02d}"
                if cause == NO_TYPE_MATCH:
                    tail = _Tail(number, f"UNLISTED-{j}", None, uid, ENGINE_EXACT)
                elif cause == NO_CCD_PROFILE:
                    tail = _Tail(number, f"RAW-{ctype}", ctype, uid, ENGINE_EXACT)
                else:
                    tail = _Tail(number, f"RAW-{ctype}", ctype, None, None)
                if tail.uid is not None:
                    registry.append([number, uid])
                roles[cause].append(tail)
                tails.append(tail)

    b43 = [[t.number, t.raw_type, str(rng.choice((76, 143, 160, 180, 220))),
            str(rng.choice((2, 2, 2, 4)))] for t in tails]
    return roles, b43, registry


def _plant_reference_rejections(rows: dict[str, list[list[str]]], uids: list[str],
                                rates: dict, profile_types: list[str],
                                expected: Expected) -> None:
    """Append rows each reference parser rejects today, and rows holding a
    NaN that it accepts today. None of them is reachable from a flight."""
    def reject(table: str, *planted: list[str]) -> None:
        rows[table].extend(planted)
        _bump(expected.rejected, table, len(planted))

    reject("b43", ["NJ0001", "RAW-TYPE00", "180"], ["NJ0002", "", "180", "2"],
           ["NJ0003", "RAW-TYPE00", "0", "2"], ["NJ0004", "RAW-TYPE00", "many", "2"],
           ["NJ0005", "RAW-TYPE00", "180", "7"])
    reject("tail_registry", ["NJ0001"], ["NJ0002", ""])
    reject("engine_codes", ["CJ0001"], ["CJ0002", ""])
    uid = uids[0]
    incomplete = [["INCOMPLETE-ZZ", gas, mode, "0.5"] for gas in GASES[:2] for mode in MODES]
    reject("icao_engines", [uid, "CO2"], [uid, "SO2", "TAKEOFF", "0.1"],
           [uid, "HC", "CRUISE", "0.1"], [uid, "HC", "TAKEOFF", "-0.1"],
           [uid, "HC", "TAKEOFF", "fast"], *incomplete)
    ctype = profile_types[0]
    reject("bada_ccd", [ctype, "20.0"], [ctype, "0", "1", "1", "1", "1"],
           [ctype, "45.0", "1", "1", "1", "1"], [ctype, "55.0", "1", "-1", "1", "1"],
           ["LONELY", "60.0", "1", "1", "1", "1"])

    nan_engine = _icao_rows("NANENG-ZZ", rates[uid])
    nan_engine[0][3] = "nan"
    rows["icao_engines"].extend(nan_engine)
    expected.nonfinite["icao_engines"] = len(nan_engine)
    nan_profile = [["NANTYPE", repr(d), "0.1", repr(1000.0 * d), "0.2", "3.0"]
                   for d in (30.0, 90.0, 200.0)]
    nan_profile[1][2] = "nan"
    rows["bada_ccd"].extend(nan_profile)
    expected.nonfinite["bada_ccd"] = 1


def _flight_row(rng: random.Random, i: int, tail: str, airports: list[str]) -> list[str]:
    origin, dest = rng.sample(airports, 2)
    air_time = round(rng.uniform(25.0, 400.0), 1)
    distance = round(air_time * rng.uniform(5.5, 8.5), 1)
    taxi_in = repr(round(rng.uniform(3.0, 20.0), 2)) if rng.random() < 0.9 else ""
    taxi_out = repr(round(rng.uniform(5.0, 30.0), 2)) if rng.random() < 0.9 else ""
    return [f"2021-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            rng.choice(CARRIERS), str(100 + i % 9000), tail, origin, dest,
            repr(air_time), taxi_in, taxi_out, repr(distance)]


def _count_resolved(expected: Expected, tail: _Tail) -> None:
    """Flags resolve_flight records for a flight on this tail."""
    if tail.engine_flag is not None:
        _bump(expected.flags, tail.engine_flag)
    if tail.canonical == FAMILY_TYPE:
        _bump(expected.flags, FAMILY_FALLBACK)


def _flights(rng: random.Random, shape: Shape, roles: dict[str, list[_Tail]],
             expected: Expected) -> list[list[str]]:
    airports = [_airport(i) for i in range(N_AIRPORTS)]
    column = {name: k for k, name in enumerate(HEADERS["ontime"])}
    kinds = ["clean"] * shape.flights
    if shape.dirty:
        per_class = max(1, round(shape.flights * shape.planted_share))
        planted = ([f"reject:{c}" for c in ONTIME_REJECT_CLASSES]
                   + [f"cause:{c}" for c in CAUSE_CLASSES] * 2
                   + [f"nonfinite:{k}" for k in range(len(NONFINITE_VALUES))])
        # The first row stays clean: it is the one-row setup table.
        kinds = ["clean"] + [k for k in planted for _ in range(per_class)]
        kinds += ["clean"] * (shape.flights - len(kinds))
        tail_kinds = kinds[1:]
        rng.shuffle(tail_kinds)
        kinds[1:] = tail_kinds

    linked = roles["linked"]
    rows = []
    for i, kind in enumerate(kinds):
        if shape.flights_per_tail == 1:
            tail = linked[i % len(linked)]
        elif kind.startswith("nonfinite:"):
            tail = rng.choice(roles["exact"])
        else:
            tail = rng.choice(linked)
        row = _flight_row(rng, i, tail.number, airports)
        category, _, detail = kind.partition(":")
        if category == "clean":
            expected.computed += 1
            _count_resolved(expected, tail)
        elif category == "reject":
            _bump(expected.rejected, "ontime")
            if detail == "arity":
                row = row[:-1]
            elif detail == "bad_date":
                row[0] = "2021-02-30"
            elif detail == "no_carrier":
                row[1] = ""
            elif detail == "no_airport":
                row[4] = ""
            elif detail == "same_airport":
                row[5] = row[4]
            elif detail == "bad_number":
                row[6] = row[6] + "x"
            elif detail == "negative_air_time":
                row[6] = "-" + row[6]
            elif detail == "zero_distance":
                row[9] = "0"
            elif detail == "negative_taxi":
                row[8] = "-1.5"
        elif category == "nonfinite":
            name, text = NONFINITE_VALUES[int(detail)]
            row[column[name]] = text
            _bump(expected.nonfinite, "ontime")
        else:
            _bump(expected.causes, detail)
            if detail == MISSING_TAIL:
                row[3] = ""
            elif detail == NO_AIRFRAME:
                row[3] = f"N9{i:06d}"
            elif detail == MISSING_AIRTIME:
                row[6] = ""
                _count_resolved(expected, tail)
            elif detail == MISSING_DISTANCE:
                row[9] = ""
                _count_resolved(expected, tail)
            else:
                special = rng.choice(roles[detail])
                row[3] = special.number
                _count_resolved(expected, special)
        rows.append(row)
    return rows


def generate(workload: str, seed: int, root: Path) -> Corpus:
    """Write the inputs of one workload into root (created if absent)."""
    shape = SHAPES[workload]
    rng = random.Random(f"aeroemit-perfbench:{workload}:{seed}")
    root.mkdir(parents=True, exist_ok=True)
    expected = Expected(rejected={t: 0 for t in TABLES}, nonfinite={t: 0 for t in TABLES})

    types = [f"TYPE{i:02d}" for i in range(N_TYPES)]
    uids, rates = _engines(rng, shape.engines)
    roles, b43, registry = _tails(rng, shape, types, uids)
    profile_types = types + ([NOENGINE_TYPE] if shape.dirty else [])
    rows: dict[str, list[list[str]]] = {
        "b43": b43,
        "tail_registry": registry,
        "engine_codes": [[f"C{i:04d}", uid] for i, uid in enumerate(uids)],
        "icao_engines": [r for uid in uids for r in _icao_rows(uid, rates[uid])],
        "bada_ccd": [r for ctype in profile_types for r in _profile_rows(rng, ctype)],
    }
    if shape.dirty:
        _plant_reference_rejections(rows, uids, rates, profile_types, expected)
    rows["ontime"] = _flights(rng, shape, roles, expected)

    paths = {t: root / f"{t}.csv" for t in TABLES}
    for table in TABLES:
        _write(paths[table], HEADERS[table], rows[table])
        expected.rows[table] = len(rows[table])
    setup_ontime = root / "ontime_setup.csv"
    _write(setup_ontime, HEADERS["ontime"], rows["ontime"][:1])

    rules = [[f"RAW-{c}", c] for c in types + [FAMILY_TYPE, NOPROFILE_TYPE, NOENGINE_TYPE]]
    _write(root / "normalization_rules.csv", ["pattern", "canonical_type"], rules)
    _write(root / "family_fallback.csv",
           ["missing_type", "surrogate_type", "efficiency_factor"],
           [[FAMILY_TYPE, types[0], "0.85"]])

    # The setup table holds the first flight row, which is always clean.
    first_tail = next(t for t in roles["linked"] if t.number == rows["ontime"][0][3])
    setup_expected = Expected(rows={**expected.rows, "ontime": 1},
                              rejected={**expected.rejected, "ontime": 0},
                              nonfinite={**expected.nonfinite, "ontime": 0}, computed=1)
    _count_resolved(setup_expected, first_tail)

    config = _write_config(root / "run.cfg", "ontime.csv", "out")
    setup_config = _write_config(root / "setup.cfg", "ontime_setup.csv", "out_setup")
    return Corpus(workload, seed, shape, root, config, setup_config, expected,
                  setup_expected, paths)


def _write_config(path: Path, ontime: str, output_dir: str) -> Path:
    lines = [f"ontime = {ontime}"]
    lines += [f"{t} = {t}.csv" for t in TABLES[1:]]
    lines += ["normalization_rules = normalization_rules.csv",
              "family_fallback = family_fallback.csv",
              f"output_dir = {output_dir}"]
    lines += [f"{k} = {v}" for k, v in UNEP.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
