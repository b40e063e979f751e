"""Time `aeroemit run` on a bulk-run-shaped corpus of any size.

    python3 scripts/scale_run.py --flights 100000 --seed 7 --runs 3

Run from the root of a source checkout. The script generates the inputs with
the bulk-run shape of perfbench/synth.py scaled to --flights rows, runs
``python -m aeroemit.cli run`` on them --runs times, checks every run's output
files with perfbench/checks.py, and prints one JSON object: the flight count,
the median wall_s, flights_per_s and peak_rss_mb, the outputs' digest and
any problems found. --src picks the package sources to run (default ./src),
so two checkouts can be measured on the same generated inputs.

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

# Spawns the command in its argv, waits for it and prints its wall time,
# exit code and max RSS as JSON; it imports only what it needs for that.
LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start,
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
    outdir = corpus.config.parent / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    samples, digests, problems = [], set(), []
    for _ in range(runs):
        shutil.rmtree(outdir, ignore_errors=True)
        launched = subprocess.run(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "aeroemit.cli", "run",
             "--config", str(corpus.config)],
            env=env, capture_output=True, text=True, check=True)
        sample = json.loads(launched.stdout)
        samples.append(sample)
        if sample["exit_code"] != 0:
            problems.append(f"exit code {sample['exit_code']}")
            continue
        problems.extend(checks.check_run(outdir, corpus.expected))
        digests.add(checks.digest_files(outdir))
    walls = [s["wall_s"] for s in samples]
    return {
        "flights": flights,
        "seed": seed,
        "runs": runs,
        "wall_s": statistics.median(walls),
        "flights_per_s": statistics.median(flights / w for w in walls),
        "peak_rss_mb": statistics.median(s["max_rss_mb"] for s in samples),
        "samples": samples,
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
