"""Span tracing for the aeroemit benchmark's traced run.

Run as a script in a child process whose ``PYTHONPATH`` holds the package
sources; it never prints to standard output, so the command's own output stays
byte-identical to an untraced run:

    python3 perfbench/spans.py main spans.json run --config run.cfg
        Installs wrappers on the package's public functions, runs the CLI in
        process and writes the spans and counts to spans.json.
    python3 perfbench/spans.py side side.json run --config run.cfg
        Loads and resolves the inputs, then times compute_outcomes with one
        worker and flight_emissions called sequentially.

Imported as a module it provides the self-time arithmetic that turns spans
into per-layer numbers; importing it does not import aeroemit.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import namedtuple
from pathlib import Path

Span = namedtuple("Span", "id name start end parent")

# (module, attribute, span name). A span's layer is the text before the first
# dot. resolve_all lives in pipeline but does matching work, so it is a
# matching span, as in the benchmark's metric names.
WRAPPED = (
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_validate", "cli.validate"),
    ("pipeline", "run_pipeline", "pipeline.run"),
    ("pipeline", "load_data", "pipeline.load"),
    ("pipeline", "resolve_all", "matching.resolve"),
    ("pipeline", "compute_outcomes", "pipeline.compute"),
    ("pipeline", "coverage_report", "pipeline.coverage"),
    ("pipeline", "write_outputs", "pipeline.write"),
    ("ingest", "parse_ontime", "ingest.ontime"),
    ("ingest", "parse_b43", "ingest.b43"),
    ("ingest", "parse_tail_registry", "ingest.tail_registry"),
    ("ingest", "parse_engine_codes", "ingest.engine_codes"),
    ("ingest", "parse_icao_databank", "ingest.icao_engines"),
    ("ingest", "parse_bada_ccd", "ingest.bada_ccd"),
    ("matching", "LookupTables.build", "matching.build"),
    ("matching", "match_engine", "matching.jaccard"),
)
# Besides these, every public function of aeroemit.aggregate that takes the
# outcome list is wrapped as "aggregate.<function name>" (see rollups()).


def layer(name: str) -> str:
    return name.partition(".")[0]


def rollups(module) -> list[str]:
    """Public functions defined in `module` whose first parameter is the
    outcome list. unep_baseline takes a distance, is called per scatter point
    and stays inside the serialization span."""
    names = []
    for name, fn in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(fn) \
                or fn.__module__ != module.__name__:
            continue
        params = list(inspect.signature(fn).parameters.values())
        if params and (params[0].name == "outcomes"
                       or "FlightOutcome" in str(params[0].annotation)):
            names.append(name)
    return sorted(names)


def top_level(spans: list[Span], name_layer: str) -> list[Span]:
    """Spans of a layer that are not nested in another span of that layer:
    a roll-up built from other wrapped roll-ups counts once."""
    by_id = {s.id: s for s in spans}
    return [s for s in spans if layer(s.name) == name_layer
            and (s.parent is None or layer(by_id[s.parent].name) != name_layer)]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    result = {}
    for s in spans:
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        result[s.id] = (s.end - s.start) - covered([iv for iv in inner if iv[1] > iv[0]])
    return result


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    result: dict[str, float] = {}
    for s in spans:
        result[layer(s.name)] = result.get(layer(s.name), 0.0) + own[s.id]
    return result


def unattributed(spans: list[Span], total_s: float) -> float:
    """Wall time that no root span covers."""
    return total_s - covered([(s.start, s.end) for s in spans if s.parent is None])


def durations(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name, over every call."""
    result: dict[str, float] = {}
    for s in spans:
        result[s.name] = result.get(s.name, 0.0) + (s.end - s.start)
    return result


class Tracer:
    """Records nested spans of wrapped calls, in memory, from one thread."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.parsed: list[tuple[str, object]] = []     # (table, parser result)
        self.designations: list[str] = []               # match_engine queries
        self.missing: list[str] = []                    # WRAPPED names not found

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[span_id] = Span(span_id, name, start, end, parent)
            if name.startswith("ingest."):
                self.parsed.append((name.partition(".")[2], result))
            elif name == "matching.jaccard":
                self.designations.append(args[0])
            return result
        return wrapper

    def install(self) -> None:
        """Wrap WRAPPED and the roll-ups. A name the package no longer has is
        skipped and listed in `missing`. A wrapped function is replaced
        wherever a loaded aeroemit module holds it, so that a caller that
        imported it by name is traced too."""
        import importlib
        aggregate = importlib.import_module("aeroemit.aggregate")
        targets = list(WRAPPED) + [("aggregate", rollup, f"aggregate.{rollup}")
                                   for rollup in rollups(aggregate)]
        for module_name, attr, name in targets:
            module = importlib.import_module(f"aeroemit.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, method, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
            elif owner_name:
                setattr(owner, method, classmethod(self.wrap(name, fn.__func__)))
            else:
                wrapped = self.wrap(name, fn)
                for loaded in [m for k, m in sys.modules.items()
                               if k.startswith("aeroemit.")]:
                    for key, value in list(vars(loaded).items()):
                        if value is fn:
                            setattr(loaded, key, wrapped)

    def counts(self) -> dict:
        """Counts taken from the parsers' results after the command ended."""
        rows = {}
        nonfinite = 0
        for table, (records, report) in self.parsed:
            rows[table] = [report.accepted, report.rejected]
            nonfinite += sum(_nonfinite(record) for record in records)
        return {"rows": rows, "nonfinite_accepted": nonfinite,
                "jaccard_calls": len(self.designations),
                "jaccard_distinct": len(set(self.designations))}


def _nonfinite(record) -> int:
    """1 if a parsed record holds a non-finite number, else 0."""
    values = list(vars(record).values())
    if hasattr(record, "rate_kg_per_s"):
        values = list(record.rate_kg_per_s.values())
    elif hasattr(record, "knots"):
        values = [v for k in record.knots for v in (k.duration_min, k.distance_mi,
                                                      *k.emissions_kg.values())]
    return int(any(isinstance(v, float) and not math.isfinite(v) for v in values))


def _run_main(argv: list[str], out: Path) -> int:
    from aeroemit import cli
    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    main_end = time.perf_counter()
    doc = {"exit_code": code, "spans": tracer.spans, "counts": tracer.counts(),
           "missing": tracer.missing}
    # Time spent here after the command, so the caller can leave it out.
    doc["post_s"] = time.perf_counter() - main_end
    out.write_text(json.dumps(doc), encoding="utf-8")
    return code


def _run_side(argv: list[str], out: Path) -> int:
    """Time compute at one worker and per-flight emissions, on run inputs."""
    from aeroemit import config, emissions, pipeline
    cfg = config.load_config(argv[argv.index("--config") + 1])
    data = pipeline.load_data(cfg)
    resolved = pipeline.resolve_all(data)

    start = time.perf_counter()
    pipeline.compute_outcomes(resolved, data, cfg, threads=1)
    compute_1w = time.perf_counter() - start

    engines, profiles = data.tables.databank_by_uid, data.tables.ccd_by_type
    per_engine = cfg.engine_multiplier_mode == "per-engine"
    computed = 0
    start = time.perf_counter()
    for rf in resolved:
        multiplier = float(rf.engine_count or 1) if per_engine else 1.0
        result = emissions.flight_emissions(
            rf, engines, profiles, cfg.co2e_factors, engine_multiplier=multiplier,
            interpolation_key=cfg.interpolation_key)
        computed += result is not None
    busy = time.perf_counter() - start
    out.write_text(json.dumps({"compute_1w_s": compute_1w, "emissions_busy_s": busy,
                               "computed": computed}), encoding="utf-8")
    return 0


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[1] not in ("main", "side"):
        print("usage: spans.py {main,side} OUT_JSON AEROEMIT_ARGS...", file=sys.stderr)
        return 2
    mode, out, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    return (_run_main if mode == "main" else _run_side)(argv, out)


if __name__ == "__main__":
    sys.exit(main())
