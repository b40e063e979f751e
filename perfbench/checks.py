"""Output checks for one aeroemit invocation, against the generator's counts.

Each check returns a list of problems; an empty list means the invocation's
outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from decimal import Decimal
from pathlib import Path

from aeroemit.pipeline import OUTPUT_FILES
from synth import ENGINE_EXACT, TABLES, Expected

HALF_CENT = Decimal("0.005")


def digest_files(outdir: Path) -> str:
    """sha256 over the run's output files, in a fixed order."""
    h = hashlib.sha256()
    for name in OUTPUT_FILES:
        path = outdir / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_bytes(outdir: Path) -> int:
    return sum((outdir / n).stat().st_size for n in OUTPUT_FILES if (outdir / n).is_file())


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _compare(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got}, expected {want}")


def check_run(outdir: Path, expected: Expected) -> list[str]:
    """Checks on the files `aeroemit run` wrote."""
    missing = [n for n in OUTPUT_FILES if not (outdir / n).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    problems: list[str] = []
    coverage = json.loads((outdir / "coverage.json").read_text(encoding="utf-8"))
    _compare(problems, "total_flights", coverage["total_flights"],
             expected.rows["ontime"] - expected.rejected["ontime"])
    _compare(problems, "computed_flights", coverage["computed_flights"], expected.computed)
    _compare(problems, "incomputable_causes", coverage["incomputable_causes"],
             dict(sorted(expected.causes.items())))
    _compare(problems, "fallback_flags", coverage["fallback_flags"],
             dict(sorted(expected.flags.items())))
    _compare(problems, "flight_emissions.csv rows",
             len(_rows(outdir / "flight_emissions.csv")), expected.computed)

    # Airline CO2 covers LTO (both airport shares) and CCD; each printed value
    # is rounded to 2 decimals, so allow half a cent per printed term.
    airlines = _rows(outdir / "airline_summary.csv")
    airports = _rows(outdir / "airport_lto.csv")
    ccd = [r for r in _rows(outdir / "gas_breakdown.csv")
           if r["cycle"] == "CCD" and r["gas"] == "CO2"]
    airline_co2 = sum(Decimal(r["total_co2_kg"]) for r in airlines)
    split_co2 = sum(Decimal(r["co2_kg"]) for r in airports) + sum(
        Decimal(r["raw_kg"]) for r in ccd)
    tolerance = HALF_CENT * (len(airlines) + len(airports) + len(ccd))
    if len(ccd) != 1 or abs(airline_co2 - split_co2) > tolerance:
        problems.append(f"airline CO2 {airline_co2} != airport LTO + CCD CO2 "
                        f"{split_co2} (tolerance {tolerance})")
    return problems


_TABLE_LINE = re.compile(r"^(\w+): (\d+) accepted, (\d+) rejected$")
_FLIGHTS_LINE = re.compile(r"^flights: (\d+) total, (\d+) resolvable ")
_COUNT_LINE = re.compile(r"^  ([A-Z_]+): (\d+)$")


def parse_validate(stdout: str) -> dict:
    """Table counts, flight counts, causes and flags printed by `validate`."""
    parsed: dict = {"tables": {}, "causes": {}, "flags": {}}
    section = None
    for line in stdout.splitlines():
        if m := _TABLE_LINE.match(line):
            parsed["tables"][m[1]] = (int(m[2]), int(m[3]))
        elif m := _FLIGHTS_LINE.match(line):
            parsed["total"], parsed["resolvable"] = int(m[1]), int(m[2])
            section = "causes"
        elif line == "resolution flags:":
            section = "flags"
        elif section and (m := _COUNT_LINE.match(line)):
            parsed[section][m[1]] = int(m[2])
    return parsed


def check_validate(stdout: str, expected: Expected) -> tuple[list[str], int]:
    """Checks on what `aeroemit validate` printed.

    Returns (problems, non-finite flight rows accepted). Non-finite rows may
    be accepted or rejected; either is reported, neither is a failure.
    """
    problems: list[str] = []
    parsed = parse_validate(stdout)
    if set(parsed["tables"]) != set(TABLES) or "total" not in parsed:
        return [f"unparseable validate output: {stdout[-300:]!r}"], 0
    for table in TABLES:
        accepted, rejected = parsed["tables"][table]
        _compare(problems, f"{table} rows", accepted + rejected, expected.rows[table])
        low = expected.rejected[table]
        high = low + expected.nonfinite[table]
        if not low <= rejected <= high:
            problems.append(f"{table} rejected {rejected}, expected {low}..{high}")
    accepted_ontime, rejected_ontime = parsed["tables"]["ontime"]
    nonfinite_accepted = (expected.nonfinite["ontime"]
                          - (rejected_ontime - expected.rejected["ontime"]))
    flags = dict(expected.flags)
    if nonfinite_accepted:
        flags[ENGINE_EXACT] = flags.get(ENGINE_EXACT, 0) + nonfinite_accepted
    _compare(problems, "flights total", parsed["total"], accepted_ontime)
    _compare(problems, "flights resolvable", parsed["resolvable"],
             expected.computed + nonfinite_accepted)
    _compare(problems, "incomputable causes", parsed["causes"], expected.causes)
    _compare(problems, "resolution flags", parsed["flags"], flags)
    return problems, nonfinite_accepted
