"""Command-line front end: validate, run, and report subcommands.

Exit codes: 0 success, 2 input/config error, 3 missing run artifacts.
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
    run.add_argument("--threads", type=int, default=None,
                     help="worker count (default: available parallelism); "
                          "results are identical for any value")

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


def cmd_run(config_path: str | None, threads: int | None) -> int:
    try:
        cfg = load_config(config_path)
        outcomes, coverage = pipeline.run_pipeline(cfg, threads=threads)
    except (ConfigError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"computed {coverage.computed_flights} of {coverage.total_flights} "
          f"flights (coverage {coverage.coverage:.3f})")
    print(f"outputs written to {cfg.output_dir}")
    return EXIT_OK


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cmd_report(output_dir: str) -> int:
    outdir = Path(output_dir)
    needed = ["airline_summary.csv", "airport_lto.csv", "gas_breakdown.csv"]
    missing = [name for name in needed if not (outdir / name).is_file()]
    if missing:
        print(f"error: missing run outputs in {outdir}: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_MISSING_ARTIFACT

    airlines = _read_csv(outdir / "airline_summary.csv")
    airports = _read_csv(outdir / "airport_lto.csv")
    breakdown = _read_csv(outdir / "gas_breakdown.csv")

    computed = sum(int(row["emission_flights"]) for row in airlines)
    if computed == 0:
        print("no computed flights")
        return EXIT_OK

    print("Top airlines by total CO2e (kg):")
    ranked = sorted(airlines, key=lambda r: -float(r["total_co2e_kg"]))
    for row in ranked[:5]:
        print(f"  {row['carrier']:>4}  {float(row['total_co2e_kg']):>16,.2f}  "
              f"({row['emission_flights']}/{row['total_flights']} flights)")

    print("Top airports by local LTO CO2e (kg):")
    for row in airports[:5]:
        print(f"  {row['airport']:>4}  {float(row['lto_co2e_kg']):>16,.2f}")

    for cycle in ("LTO", "CCD"):
        rows = [r for r in breakdown if r["cycle"] == cycle]
        total = sum(float(r["co2e_kg"]) for r in rows)
        print(f"{cycle} CO2e by gas:")
        for row in rows:
            share = float(row["co2e_kg"]) / total if total else 0.0
            print(f"  {row['gas']:>4}  {float(row['co2e_kg']):>16,.2f}  "
                  f"({share:.1%})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.config)
    if args.command == "run":
        return cmd_run(args.config, args.threads)
    return cmd_report(args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
