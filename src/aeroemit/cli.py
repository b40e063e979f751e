"""Command-line front end: validate, run, and report subcommands.

`report` reads the roll-up files through the schemas `run` writes them with
(`aggregate.ROLLUP_TABLES`), strictly: the first refused row is an error.

Exit codes: 0 success, 1 standard output closed early (`| head`), 2
input/config error, 3 missing or malformed run artifacts, 143 SIGTERM (which
stops a command as an interrupt does: no staged file or shard process is left).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

from . import aggregate as agg
from . import pipeline
from .config import ConfigError, load_config
from .ingest import IngestError, read_strict

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
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
                     help="ignored: a large flight table is split across the CPUs "
                          "this process may use; removed once perfbench/ stops passing it")

    report = sub.add_parser("report", help="summarize a finished run's outputs")
    report.add_argument("output_dir", help="directory written by 'run'")
    return parser


def cmd_validate(config_path: str | None) -> int:
    reports, coverage = pipeline.validate_inputs(load_config(config_path))
    for name, rep in reports.items():
        print(f"{name}: {rep.accepted} accepted, {rep.rejected} rejected")
        for rejection in rep.rejections:
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
    cfg = load_config(config_path)
    coverage = pipeline.run_pipeline(cfg)
    print(f"computed {coverage.computed_flights} of {coverage.total_flights} "
          f"flights (coverage {coverage.coverage:.3f})")
    print(f"outputs written to {cfg.output_dir}")
    return EXIT_OK


def cmd_report(output_dir: str) -> int:
    outdir = Path(output_dir)
    paths = [outdir / f"{schema.table}.csv" for schema in agg.ROLLUP_TABLES]
    missing = [path.name for path in paths if not path.is_file()]
    if missing:
        print(f"error: missing run outputs in {outdir}: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    try:
        airlines, airports, breakdown = map(read_strict, agg.ROLLUP_TABLES, paths)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT

    if not any(computed for _, _, computed, *_ in airlines):
        print("no computed flights")
        return EXIT_OK

    print("Top airlines by total CO2e (kg):")
    ranked = sorted(airlines, key=lambda row: -row[5])  # by total_co2e_kg
    for carrier, flights, computed, _, _, co2e, _, _ in ranked[:5]:
        print(f"  {carrier:>4}  {co2e:>16,.2f}  ({computed}/{flights} flights)")

    print("Top airports by local LTO CO2e (kg):")
    for airport, *_, co2e in airports[:5]:
        print(f"  {airport:>4}  {co2e:>16,.2f}")

    for cycle in ("LTO", "CCD"):
        rows = [(gas, co2e) for row_cycle, gas, _, co2e in breakdown if row_cycle == cycle]
        total = sum(co2e for _, co2e in rows)
        print(f"{cycle} CO2e by gas:")
        for gas, co2e in rows:
            share = co2e / total if total else 0.0
            print(f"  {gas:>4}  {co2e:>16,.2f}  ({share:.1%})")
    return EXIT_OK


def _terminate(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Only the main thread may set a handler; the caller's is restored on return.
    in_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if in_main else None
    try:
        if args.command == "report":
            code = cmd_report(args.output_dir)
        else:
            code = (cmd_validate if args.command == "validate" else cmd_run)(args.config)
        sys.stdout.flush()
    except (ConfigError, IngestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # The reader closed standard output. Python flushes it again at exit,
        # so point it at devnull to keep that flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    finally:
        if in_main:
            signal.signal(signal.SIGTERM, previous)
    return code


if __name__ == "__main__":
    sys.exit(main())
