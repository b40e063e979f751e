"""End-to-end and per-layer benchmark for aeroemit.

    python3 perfbench/run.py --workload bulk-run --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The benchmark generates the workload's inputs from the seed (synth.py), runs
the ``aeroemit`` CLI on them as a user does, one invocation at a time (a closed
loop with one client), checks every invocation's outputs (checks.py) and
prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` runs the CLI as a subprocess with no tracing and reports the
end-to-end metrics:

    wall_s         median time from process start to exit, full flight table
    flights_per_s  flight-table rows / wall_s, median over invocations
    setup_s        median wall_s of the same command with a one-row flight
                   table and the same reference tables: the fixed cost
    peak_rss_mb    median over invocations of the child's max RSS (wait4)

``failed_frac`` (failed / attempted invocations) is printed on its own line.
It is 0 on a correct program, so it is carried by the ``attempted`` and
``failed`` keys rather than declared as a metric.

``--trace 1`` alternates an untraced invocation, a traced one (spans.py wraps
the package's public functions in a child process) and, for ``run``, a side
measurement of one-worker compute and sequential per-flight emissions. It
reports the per-layer metrics, medians over the iterations, and prints how
the traced time divides between each workload's predicted hot spots and
whether ROADMAP.md's stage split reproduces in shape. The traced and
untraced invocations must produce identical output bytes.
``pipeline.output_bytes`` is the output files' size for ``run`` and the
standard output's size for ``validate``; layers a command never enters
read 0.

Workloads (why each was chosen; sizes are cut down from a BTS month and a
full FAA registry so that a measured run holds several invocations):

    bulk-run        ``run`` on 10k flights, ~10 flights per tail, 40 engine
                    UIDs, ~10 % fuzzy designations, each spelled once: a clean
                    month of BTS data. Compute, aggregation and serialization
                    do the work; a matching change should leave it unmoved.
    registry-heavy  ``run`` on 600 flights, one flight per tail, 800 engine
                    UIDs, half the registry designations matched by Jaccard,
                    each designation shared by 8 tails:
                    LookupTables.build dominates setup_s and wall_s.
    validate-dirty  ``validate`` on 30k flights with planted rejections of
                    every class, every incomputable cause and non-finite
                    numbers: ingest's reject path and resolution, with no
                    compute to amortize load-time work.

Everything is written under perfbench/_work/ in the checkout. The environment
(CPU count, Python, commit, seed, rows and bytes of each input table), the
expected counts, the metrics and the last traced run's spans are kept in
perfbench/_work/results/<workload>-seed<seed>-trace<0|1>.json.

Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
if not (SRC / "aeroemit" / "cli.py").is_file():
    sys.exit(f"error: no aeroemit sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

MIN_INVOCATIONS = 5     # full invocations per run, even past --seconds
INVOCATION_TIMEOUT_S = 60.0
# Stage split quoted in ROADMAP.md (100k flights, --threads 1): aggregate +
# write took 27.7 s of a 36.6 s run.
ROADMAP_AGGREGATE_WRITE_SHARE = 27.7 / 36.6


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    max_rss_mb: float
    exit_code: int
    digest: str
    output_bytes: int
    problems: list[str]
    nonfinite_accepted: int = 0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    def record(self, label: str, inv: Invocation) -> Invocation:
        """Count one invocation; its digest must match every earlier one
        on the same config."""
        self.attempted += 1
        problems = list(inv.problems)
        first = self.digests.setdefault(label, inv.digest)
        if inv.digest != first:
            problems.append(f"output digest {inv.digest[:12]} differs from "
                            f"the first run's {first[:12]}")
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return inv


class Bench:
    """Runs the CLI on one generated corpus and checks each invocation."""

    def __init__(self, corpus: synth.Corpus, src: Path, work: Path):
        self.corpus = corpus
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # An installed package is compiled once; let the warm-up invocation
        # write the bytecode cache so that no timed invocation recompiles.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # The default worker count is os.cpu_count(); pin it to the CPUs this
        # process may use when that is fewer.
        usable = len(os.sched_getaffinity(0))
        self.extra_args = ["--threads", str(usable)] if (os.cpu_count() or 1) > usable else []

    def argv(self, config: Path) -> list[str]:
        return [self.corpus.shape.command, "--config", str(config)] + self.extra_args

    def spawn(self, command: list[str]) -> tuple[float, object, int]:
        """Run one child to exit: (wall seconds, its rusage, exit code)."""
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + command, stdout=out, stderr=err,
                                    env=self.env)
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode

    def invoke(self, config: Path, expected: synth.Expected,
               wrapper: list[str] | None = None) -> Invocation:
        """One CLI process, its outputs checked; `wrapper` runs it under spans.py."""
        outdir = config.parent / ("out" if config == self.corpus.config else "out_setup")
        shutil.rmtree(outdir, ignore_errors=True)
        wall, usage, code = self.spawn((wrapper or ["-m", "aeroemit.cli"]) + self.argv(config))
        stdout = (self.work / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                         code, "", 0, [])
        if code != 0:
            inv.problems.append(f"exit code {code}: {self.stderr_tail()}")
        if self.corpus.shape.command == "run":
            inv.digest = checks.digest_files(outdir)
            inv.output_bytes = checks.output_bytes(outdir)
            if code == 0:
                inv.problems.extend(checks.check_run(outdir, expected))
        else:
            inv.digest = checks.digest_text(stdout)
            inv.output_bytes = len(stdout.encode())
            if code == 0:
                found, inv.nonfinite_accepted = checks.check_validate(stdout, expected)
                inv.problems.extend(found)
        return inv

    def stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(encoding="utf-8",
                                                    errors="replace")[-400:].strip()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _summary(name: str, values: list[float]) -> str:
    if len(values) < 2:
        return f"{name}: {_median(values):.6g} (n={len(values)})"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: median {q2:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, "
            f"min {min(values):.6g}, max {max(values):.6g} (n={len(values)})")


def measure_end_to_end(bench: Bench, tally: Tally, seconds: float) -> dict:
    corpus = bench.corpus
    # Warm-up: compiles the package's bytecode cache and fills the page cache.
    tally.record("setup", bench.invoke(corpus.setup_config, corpus.setup_expected))
    # One-row and full invocations alternate, so that both sample the same
    # stretch of time on a machine whose speed drifts.
    setup: list[float] = []
    runs: list[Invocation] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < MIN_INVOCATIONS:
        setup.append(tally.record("setup", bench.invoke(corpus.setup_config,
                                                        corpus.setup_expected)).wall_s)
        runs.append(tally.record("main", bench.invoke(corpus.config, corpus.expected)))
    rows = corpus.expected.rows["ontime"]
    walls = [r.wall_s for r in runs]
    throughput = [rows / w for w in walls]
    rss = [r.max_rss_mb for r in runs]
    for line in (_summary("wall_s", walls), _summary("flights_per_s", throughput),
                 _summary("setup_s", setup), _summary("peak_rss_mb", rss),
                 _summary("cli.cpu_s", [r.cpu_s for r in runs])):
        print(line)
    if corpus.shape.command == "validate":
        print(f"nonfinite flight rows accepted: {runs[-1].nonfinite_accepted} of "
              f"{corpus.expected.nonfinite['ontime']} planted (reported, not failed)")
    return {"wall_s": _median(walls), "flights_per_s": _median(throughput),
            "setup_s": _median(setup), "peak_rss_mb": _median(rss)}


def _layer_metrics(trace: dict, side: dict | None, untraced: Invocation,
                   traced_wall: float, flight_rows: int) -> dict[str, float]:
    recorded = [spans.Span(*s) for s in trace["spans"]]
    dur = spans.durations(recorded)
    own = spans.self_times(recorded)
    per_layer = spans.layer_self_times(recorded)
    counts = trace["counts"]
    ontime_s = dur.get("ingest.ontime", 0.0)
    write_self = sum(own[s.id] for s in recorded if s.name == "pipeline.write")
    rollups = spans.top_level(recorded, "aggregate")
    compute_s = dur.get("pipeline.compute", 0.0)
    compute_1w_s = side["compute_1w_s"] if side else 0.0
    emissions_busy = side["emissions_busy_s"] if side else 0.0
    calls, distinct = counts["jaccard_calls"], counts["jaccard_distinct"]
    m = {
        "ingest.ontime_s": ontime_s,
        "ingest.rows_per_s": flight_rows / ontime_s if ontime_s else 0.0,
        "ingest.reference_s": sum(v for k, v in dur.items()
                                  if spans.layer(k) == "ingest" and k != "ingest.ontime"),
        "ingest.rows_rejected": sum(r[1] for r in counts["rows"].values()),
        "ingest.nonfinite_accepted": counts["nonfinite_accepted"],
        "ingest.self_s": per_layer.get("ingest", 0.0),
        "matching.build_s": dur.get("matching.build", 0.0),
        "matching.jaccard_calls": calls,
        "matching.jaccard_distinct": distinct,
        "matching.jaccard_useful_ratio": distinct / calls if calls else 0.0,
        "matching.jaccard_s": dur.get("matching.jaccard", 0.0),
        "matching.resolve_s": dur.get("matching.resolve", 0.0),
        "matching.self_s": per_layer.get("matching", 0.0),
        "emissions.busy_s": emissions_busy,
        "emissions.us_per_flight": (1e6 * emissions_busy / side["computed"]
                                    if side and side["computed"] else 0.0),
        "pipeline.compute_s": compute_s,
        "pipeline.compute_1w_s": compute_1w_s,
        "pipeline.pool_overhead_s": compute_s - compute_1w_s if side else 0.0,
        "pipeline.write_s": dur.get("pipeline.write", 0.0),
        "pipeline.serialize_self_s": write_self,
        "pipeline.coverage_s": dur.get("pipeline.coverage", 0.0),
        "pipeline.output_bytes": untraced.output_bytes,
        "pipeline.self_s": per_layer.get("pipeline", 0.0),
        "aggregate.airlines_s": dur.get("aggregate.aggregate_airlines", 0.0),
        "aggregate.airports_s": dur.get("aggregate.aggregate_airports", 0.0),
        "aggregate.gas_breakdowns_s": dur.get("aggregate.gas_breakdowns", 0.0),
        "aggregate.scatter_s": dur.get("aggregate.scatter_datasets", 0.0),
        "aggregate.busy_s": sum(s.end - s.start for s in rollups),
        "aggregate.passes": len(rollups),
        "cli.cpu_s": untraced.cpu_s,
        "cli.self_s": per_layer.get("cli", 0.0),
        "trace.total_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced.wall_s,
        "trace.unattributed_s": spans.unattributed(recorded, traced_wall),
        "pipeline.run_s": dur.get("pipeline.run", 0.0),
    }
    return m


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def measure_layers(bench: Bench, tally: Tally, seconds: float) -> tuple[dict, dict]:
    corpus = bench.corpus
    tally.record("setup", bench.invoke(corpus.setup_config, corpus.setup_expected))
    spans_path, side_path = bench.work / "spans.json", bench.work / "side.json"
    trace_main = [str(BENCH_DIR / "spans.py"), "main", str(spans_path)]
    trace_side = [str(BENCH_DIR / "spans.py"), "side", str(side_path)]
    samples: list[dict[str, float]] = []
    last_trace: dict = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not samples:
        untraced = tally.record("main", bench.invoke(corpus.config, corpus.expected))
        # The traced path must write the same bytes as the untraced one.
        traced = tally.record("main", bench.invoke(corpus.config, corpus.expected,
                                                   wrapper=trace_main))
        if traced.exit_code != 0 or not spans_path.is_file():
            break
        last_trace = json.loads(spans_path.read_text(encoding="utf-8"))
        if last_trace["missing"] and not samples:
            print("warning: not traced, the package has no "
                  + ", ".join(last_trace["missing"]))
        side = None
        if corpus.shape.command == "run":
            tally.attempted += 1
            _, _, code = bench.spawn(trace_side + bench.argv(corpus.config))
            if code != 0:
                tally.failed += 1
                tally.problems.append(f"side: exit code {code}: {bench.stderr_tail()}")
                break
            side = json.loads(side_path.read_text(encoding="utf-8"))
        samples.append(_layer_metrics(last_trace, side, untraced,
                                      traced.wall_s - last_trace["post_s"],
                                      corpus.expected.rows["ontime"]))
    metrics = {k: _median([s[k] for s in samples]) for k in samples[0]} if samples else {}
    return metrics, last_trace


PREDICTED = {"bulk-run": "aggregate+serialize+compute",
             "registry-heavy": "matching.build",
             "validate-dirty": "ingest+resolve"}


def attribution(m: dict[str, float], workload: str) -> dict:
    """Share of the traced wall time in each workload's predicted hot spot,
    and whether this workload's predicted one is the largest."""
    total = m["trace.total_s"]
    groups = {
        "aggregate+serialize+compute": (m["aggregate.busy_s"] + m["pipeline.serialize_self_s"]
                                        + m["pipeline.compute_s"]),
        "matching.build": m["matching.build_s"],
        "ingest+resolve": (m["ingest.ontime_s"] + m["ingest.reference_s"]
                           + m["matching.resolve_s"]),
    }
    shares: dict = {k: v / total for k, v in groups.items()}
    shares["unattributed"] = m["trace.unattributed_s"] / total
    shares["predicted"] = PREDICTED[workload]
    shares["prediction_holds"] = PREDICTED[workload] == max(groups, key=groups.get)
    return shares


def roadmap_split(m: dict[str, float]) -> dict:
    """Does the ROADMAP's stage split reproduce in shape on this input?"""
    share = m["pipeline.write_s"] / m["pipeline.run_s"] if m["pipeline.run_s"] else 0.0
    slower = m["pipeline.compute_s"] > m["pipeline.compute_1w_s"]
    return {"aggregate_write_share": share,
            "roadmap_share": ROADMAP_AGGREGATE_WRITE_SHARE,
            "compute_default_workers_slower_than_1": slower,
            "reproduces_in_shape": share > 0.5 and slower}


def environment(root: Path, corpus: synth.Corpus) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "workload": corpus.workload,
        "seed": corpus.seed,
        "tables": corpus.table_stats(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="aeroemit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(synth.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    corpus = synth.generate(args.workload, args.seed, work / "inputs")
    bench = Bench(corpus, SRC, work)
    tally = Tally()
    env = environment(root, corpus)
    print("env: " + json.dumps(env, sort_keys=True))

    report: dict = {"env": env, "expected": corpus.expected.to_dict()}
    if args.trace:
        values, last_trace = measure_layers(bench, tally, args.seconds)
        if values:
            report["attribution"] = attribution(values, args.workload)
            print("attribution: " + json.dumps(report["attribution"]))
            if corpus.shape.command == "run":
                report["roadmap_split"] = roadmap_split(values)
                print("roadmap split: " + json.dumps(report["roadmap_split"]))
        report["spans"] = last_trace.get("spans", [])
        report["counts"] = last_trace.get("counts", {})
    else:
        values = measure_end_to_end(bench, tally, args.seconds)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()} if values else {}

    correct = tally.failed == 0 and bool(metrics)
    print(f"failed_frac: {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} invocations)")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    print(f"digests: {json.dumps(tally.digests)}")
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed if tally.attempted else 1,
              "metrics": metrics}
    report["result"] = result
    results_dir = BENCH_DIR / "_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{work.name}.json").write_text(json.dumps(report, indent=1) + "\n",
                                                 encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
