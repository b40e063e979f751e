"""Tests of the benchmark itself: generator, output checks, span arithmetic.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
from aeroemit import cli  # noqa: E402

TINY_FLIGHTS = {"bulk-run": 300, "registry-heavy": 80, "validate-dirty": 1200}


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's flight table, keeping its shape."""
    for name, flights in TINY_FLIGHTS.items():
        monkeypatch.setitem(synth.SHAPES, name,
                            dataclasses.replace(synth.SHAPES[name], flights=flights))


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", sorted(synth.SHAPES))
def test_same_seed_gives_identical_bytes(tiny, tmp_path, workload):
    a = synth.generate(workload, 7, tmp_path / "a")
    b = synth.generate(workload, 7, tmp_path / "b")
    c = synth.generate(workload, 8, tmp_path / "c")
    assert _files(a.root) == _files(b.root)
    assert a.expected == b.expected
    assert (a.root / "ontime.csv").read_bytes() != (c.root / "ontime.csv").read_bytes()


def test_dirty_shape_plants_every_class(tiny, tmp_path):
    corpus = synth.generate("validate-dirty", 3, tmp_path)
    expected = corpus.expected
    per_class = round(TINY_FLIGHTS["validate-dirty"] * corpus.shape.planted_share)
    assert expected.rejected["ontime"] == per_class * len(synth.ONTIME_REJECT_CLASSES)
    assert expected.nonfinite["ontime"] == per_class * len(synth.NONFINITE_VALUES)
    assert expected.causes == {c: 2 * per_class for c in synth.CAUSE_CLASSES}
    assert all(expected.rejected[t] > 0 for t in synth.TABLES)
    assert expected.flags[synth.FAMILY_FALLBACK] > 0


def _run_cli(corpus: synth.Corpus, config: Path, capsys) -> str:
    capsys.readouterr()
    assert cli.main([corpus.shape.command, "--config", str(config), "--threads", "1"]
                    if corpus.shape.command == "run"
                    else ["validate", "--config", str(config)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("workload", ["bulk-run", "registry-heavy"])
def test_expected_counts_match_a_tiny_run(tiny, tmp_path, capsys, workload):
    corpus = synth.generate(workload, 5, tmp_path)
    for config, expected, outdir in ((corpus.config, corpus.expected, "out"),
                                     (corpus.setup_config, corpus.setup_expected,
                                      "out_setup")):
        _run_cli(corpus, config, capsys)
        assert checks.check_run(tmp_path / outdir, expected) == []
    assert corpus.expected.flags[synth.ENGINE_JACCARD] > 0


def test_run_checks_catch_a_dropped_row(tiny, tmp_path, capsys):
    corpus = synth.generate("bulk-run", 5, tmp_path)
    _run_cli(corpus, corpus.config, capsys)
    out = tmp_path / "out"
    lines = (out / "flight_emissions.csv").read_text().splitlines(keepends=True)
    (out / "flight_emissions.csv").write_text("".join(lines[:-1]))
    airlines = (out / "airline_summary.csv").read_text().splitlines(keepends=True)
    (out / "airline_summary.csv").write_text("".join(airlines[:-1]))
    problems = checks.check_run(out, corpus.expected)
    assert any("flight_emissions.csv rows" in p for p in problems)
    assert any("airline CO2" in p for p in problems)


def test_validate_counts_match_and_report_nonfinite(tiny, tmp_path, capsys):
    corpus = synth.generate("validate-dirty", 5, tmp_path)
    stdout = _run_cli(corpus, corpus.config, capsys)
    problems, nonfinite_accepted = checks.check_validate(stdout, corpus.expected)
    assert problems == []
    assert 0 <= nonfinite_accepted <= corpus.expected.nonfinite["ontime"]
    setup_problems, _ = checks.check_validate(_run_cli(corpus, corpus.setup_config, capsys),
                                              corpus.setup_expected)
    assert setup_problems == []
    wrong = dataclasses.replace(corpus.expected, causes={**corpus.expected.causes,
                                                         synth.MISSING_TAIL: 0})
    assert any("incomputable causes" in p for p in checks.check_validate(stdout, wrong)[0])


def _span(i, start, end, parent=None, name="pipeline.x"):
    return spans.Span(i, name, start, end, parent)


def test_self_time_subtracts_direct_children_only():
    recorded = [_span(0, 0.0, 10.0, name="cli.run"),
                _span(1, 1.0, 5.0, 0, "pipeline.write"),
                _span(2, 2.0, 3.0, 1, "aggregate.airlines"),
                _span(3, 3.5, 4.5, 1, "aggregate.airports"),
                _span(4, 6.0, 7.0, 0, "ingest.ontime")]
    own = spans.self_times(recorded)
    assert own == {0: 10.0 - 4.0 - 1.0, 1: 4.0 - 2.0, 2: 1.0, 3: 1.0, 4: 1.0}
    assert spans.layer_self_times(recorded) == {"cli": 5.0, "pipeline": 2.0,
                                                "aggregate": 2.0, "ingest": 1.0}
    # Self times of all spans add up to the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)
    assert spans.unattributed(recorded, 12.5) == pytest.approx(2.5)
    assert spans.durations(recorded + [_span(5, 8.0, 8.5, 0, "ingest.ontime")]
                           )["ingest.ontime"] == pytest.approx(1.5)


def test_rollups_are_the_functions_taking_outcomes():
    from aeroemit import aggregate
    assert spans.rollups(aggregate) == ["aggregate_airlines", "aggregate_airports",
                                        "gas_breakdowns", "scatter_datasets",
                                        "system_totals"]


def test_nested_rollups_count_once():
    recorded = [_span(0, 0.0, 10.0, name="pipeline.write"),
                _span(1, 1.0, 5.0, 0, "aggregate.one_pass"),
                _span(2, 2.0, 3.0, 1, "aggregate.aggregate_airlines"),
                _span(3, 6.0, 7.0, 0, "aggregate.scatter_datasets")]
    assert [s.id for s in spans.top_level(recorded, "aggregate")] == [1, 3]


def test_covered_merges_overlaps():
    assert spans.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    assert spans.covered([]) == 0.0


def test_traced_child_writes_nested_spans_and_same_outputs(tiny, tmp_path, capsys):
    corpus = synth.generate("bulk-run", 9, tmp_path)
    _run_cli(corpus, corpus.config, capsys)
    untraced = checks.digest_files(tmp_path / "out")
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(BENCH / "spans.py"), "main", str(out), "run",
                    "--config", str(corpus.config), "--threads", "1"],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    assert checks.digest_files(tmp_path / "out") == untraced
    doc = json.loads(out.read_text())
    recorded = [spans.Span(*s) for s in doc["spans"]]
    by_id = {s.id: s for s in recorded}
    names = {s.name for s in recorded}
    assert {"cli.run", "pipeline.load", "ingest.ontime", "matching.build",
            "matching.resolve", "pipeline.compute", "pipeline.write",
            "aggregate.aggregate_airlines"} <= names
    for s in recorded:
        if s.name.startswith("aggregate."):
            assert by_id[s.parent].name == "pipeline.write"
        if s.name.startswith("ingest."):
            assert by_id[s.parent].name == "pipeline.load"
    assert sum(s.name.startswith("aggregate.") for s in recorded) == 4
    counts = doc["counts"]
    assert counts["rows"]["ontime"] == [TINY_FLIGHTS["bulk-run"], 0]
    assert counts["jaccard_calls"] >= counts["jaccard_distinct"] > 0
    assert counts["nonfinite_accepted"] == 0


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(tiny, monkeypatch, capsys, trace, section):
    import run
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    monkeypatch.chdir(BENCH.parent)
    assert run.main(["--workload", "bulk-run", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
