"""Command-line front end: validate, run, and report subcommands.

Exit codes: 0 success, 2 input/config error, 3 missing or malformed run
artifacts.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import pipeline
from .config import ConfigError, load_config
from .ingest import IngestError

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_MISSING_ARTIFACT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeroemit",
        description="Per-flight greenhouse-gas emissions for U.S. domestic flights")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="parse and resolve only; report coverage without computing")
    validate.add_argument("--config", help="run-config file (or AEROEMIT_CONFIG)")

    run = sub.add_parser("run", help="full pipeline: compute, aggregate and write outputs")
    run.add_argument("--config", help="run-config file (or AEROEMIT_CONFIG)")
    run.add_argument("--threads", type=int,
                     help="ignored: compute runs in one thread; removed once "
                          "perfbench/ stops passing it")

    report = sub.add_parser("report", help="summarize a finished run's outputs")
    report.add_argument("output_dir", help="directory written by 'run'")
    return parser


def cmd_validate(config_path: str | None) -> int:
    try:
        cfg = load_config(config_path)
        data = pipeline.load_data(cfg)
    except (ConfigError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    coverage = pipeline.coverage_report(pipeline.resolve_all(data))

    for name, rep in data.reports.items():
        print(f"{name}: {rep.accepted} accepted, {rep.rejected} rejected")
        for rejection in rep.rejections[:20]:
            print(f"  line {rejection.line}: {rejection.reason}")
    print(f"flights: {coverage.total_flights} total, "
          f"{coverage.computed_flights} resolvable "
          f"(coverage {coverage.coverage:.3f})")
    for cause, count in sorted(coverage.causes.items()):
        print(f"  {cause}: {count}")
    if coverage.fallback_flags:
        print("resolution flags:")
        for flag, count in sorted(coverage.fallback_flags.items()):
            print(f"  {flag}: {count}")
    return EXIT_OK


def cmd_run(config_path: str | None) -> int:
    try:
        cfg = load_config(config_path)
        outcomes, coverage = pipeline.run_pipeline(cfg)
    except (ConfigError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"computed {coverage.computed_flights} of {coverage.total_flights} "
          f"flights (coverage {coverage.coverage:.3f})")
    print(f"outputs written to {cfg.output_dir}")
    return EXIT_OK


# The run outputs `report` reads: the header each must hold and the columns
# it parses as numbers.
REPORT_INPUTS = {
    "airline_summary.csv": (pipeline.AIRLINE_HEADER,
                            {"emission_flights": int, "total_co2e_kg": float}),
    "airport_lto.csv": (pipeline.AIRPORT_HEADER, {"lto_co2e_kg": float}),
    "gas_breakdown.csv": (pipeline.GAS_BREAKDOWN_HEADER, {"co2e_kg": float}),
}


def _read_output(path: Path, header: list[str], numbers: dict[str, type]) -> list[dict]:
    """Rows of a run output with the `numbers` columns parsed; ValueError if the
    header lacks a column or a number cell does not parse."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in header if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns: {', '.join(missing)}")
        rows = []
        for row in reader:
            for column, convert in numbers.items():
                try:
                    row[column] = convert(row[column])
                except (TypeError, ValueError):
                    raise ValueError(f"{path} line {reader.line_num}: {column} is "
                                     f"not a number: {row[column]!r}") from None
            rows.append(row)
    return rows


def cmd_report(output_dir: str) -> int:
    outdir = Path(output_dir)
    missing = [name for name in REPORT_INPUTS if not (outdir / name).is_file()]
    if missing:
        print(f"error: missing run outputs in {outdir}: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    try:
        airlines, airports, breakdown = (
            _read_output(outdir / name, header, numbers)
            for name, (header, numbers) in REPORT_INPUTS.items())
    except (ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT

    computed = sum(row["emission_flights"] for row in airlines)
    if computed == 0:
        print("no computed flights")
        return EXIT_OK

    print("Top airlines by total CO2e (kg):")
    ranked = sorted(airlines, key=lambda r: -r["total_co2e_kg"])
    for row in ranked[:5]:
        print(f"  {row['carrier']:>4}  {row['total_co2e_kg']:>16,.2f}  "
              f"({row['emission_flights']}/{row['total_flights']} flights)")

    print("Top airports by local LTO CO2e (kg):")
    for row in airports[:5]:
        print(f"  {row['airport']:>4}  {row['lto_co2e_kg']:>16,.2f}")

    for cycle in ("LTO", "CCD"):
        rows = [r for r in breakdown if r["cycle"] == cycle]
        total = sum(r["co2e_kg"] for r in rows)
        print(f"{cycle} CO2e by gas:")
        for row in rows:
            share = row["co2e_kg"] / total if total else 0.0
            print(f"  {row['gas']:>4}  {row['co2e_kg']:>16,.2f}  "
                  f"({share:.1%})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.config)
    if args.command == "run":
        return cmd_run(args.config)
    return cmd_report(args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
