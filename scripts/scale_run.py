"""Time `aeroemit run` on a bulk-run-shaped corpus of any size.

    python3 scripts/scale_run.py --flights 100000 --seed 7 --runs 3

Run from the root of a source checkout. The script generates the inputs with
the bulk-run shape of perfbench/synth.py scaled to --flights rows, runs
``python -m aeroemit.cli run`` on them --runs times, checks every run's output
files with perfbench/checks.py, and prints one JSON object: the flight count,
the median wall_s, cpu_s, flights_per_s and peak_rss_mb, the outputs' digest
(a sorted list of them if the runs' outputs differ, which is a problem too)
and any problems found; a problem makes the exit code 1. A run splits the
flight table across the usable CPUs (usable_cpus); after each run the same
run is made pinned to one CPU, whose median wall time is wall_1cpu_s and
whose outputs must have the same digest, so the split's gain on this host is
wall_1cpu_s / wall_s. cpu_s is a run's user and system time, its shards'
included: a split run whose cpu_s is close to its wall_s ran its shards one
after another, as on a host that keeps a forked child on its parent's CPU.
Then it runs the corpus's ``setup.cfg``, the same reference tables with a
one-row flight table, as perfbench does: setup_s, that run's median wall
time, is what every invocation pays before its first flight, and
setup_peak_rss_mb, its median max RSS, is the peak that setup alone reaches,
apart from the run's peak_rss_mb. --src picks the package sources to run
(default ./src), so two checkouts can be measured on the same generated
inputs. One untimed run comes first and writes the bytecode cache of the
sources, so no timed run compiles them.

Each run is started by a small launcher process. On Linux a child's max RSS,
as wait4 reports it, is at least its parent's resident set at the time of
the spawn, so a child spawned straight from this process, which holds the
generated corpus, would report this process's size instead of its own.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Spawns the command after its first argument, waits for it and prints its
# wall time, CPU time (user and system, its reaped shard children included),
# exit code and max RSS as JSON; it imports only what it needs for that. A first argument of "1" pins it, and so the command, to its first
# usable CPU.
LAUNCHER = """
import json, os, subprocess, sys, time
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "exit_code": os.waitstatus_to_exitcode(status),
                  "max_rss_mb": usage.ru_maxrss / 1024}))
"""


def measure(src: Path, flights: int, seed: int, runs: int, work: Path) -> dict:
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import checks
    import synth

    workload = f"bulk-{flights}"
    synth.SHAPES[workload] = dataclasses.replace(synth.SHAPES["bulk-run"], flights=flights)
    corpus = synth.generate(workload, seed, work)
    env = dict(os.environ, PYTHONPATH=str(src))
    # Let the untimed run write the bytecode cache that every timed run reads.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples, one_cpu_samples, setup_samples, digests, problems = [], [], [], set(), []

    def launch(config: Path, outdir: Path, expected: synth.Expected, cpus: str = "all") -> dict:
        shutil.rmtree(outdir, ignore_errors=True)
        launched = subprocess.run(
            [sys.executable, "-c", LAUNCHER, cpus, sys.executable, "-m", "aeroemit.cli", "run",
             "--config", str(config)],
            env=env, capture_output=True, text=True, check=True)
        sample = json.loads(launched.stdout)
        if sample["exit_code"] != 0:
            problems.append(f"{config.name}: exit code {sample['exit_code']}")
        else:
            problems.extend(f"{config.name}: {problem}"
                            for problem in checks.check_run(outdir, expected))
        return sample

    outdir = corpus.config.parent / "out"
    launch(corpus.setup_config, corpus.config.parent / "out_setup", corpus.setup_expected)
    for _ in range(runs):
        for cpus, kept in (("all", samples), ("1", one_cpu_samples)):
            kept.append(launch(corpus.config, outdir, corpus.expected, cpus))
            if kept[-1]["exit_code"] == 0:
                digests.add(checks.digest_files(outdir))
        setup_samples.append(launch(corpus.setup_config, corpus.config.parent / "out_setup",
                                    corpus.setup_expected))
    if len(digests) > 1:
        problems.append(f"the runs' outputs differ: {len(digests)} digests")
    walls = [s["wall_s"] for s in samples]
    return {
        "flights": flights,
        "seed": seed,
        "runs": runs,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "wall_1cpu_s": statistics.median(s["wall_s"] for s in one_cpu_samples),
        "setup_s": statistics.median(s["wall_s"] for s in setup_samples),
        "flights_per_s": statistics.median(flights / w for w in walls),
        "peak_rss_mb": statistics.median(s["max_rss_mb"] for s in samples),
        "setup_peak_rss_mb": statistics.median(s["max_rss_mb"] for s in setup_samples),
        "samples": samples,
        "one_cpu_samples": one_cpu_samples,
        "setup_samples": setup_samples,
        "digest": digests.pop() if len(digests) == 1 else sorted(digests),
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--flights", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--work", type=Path,
                        help="keep the generated inputs and outputs here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        result = measure(args.src.resolve(), args.flights, args.seed, args.runs, work)
    print(json.dumps(result))
    return 0 if not result["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
