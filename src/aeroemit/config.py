"""Run configuration: a flat key = value text file.

Recognized keys mirror the pipeline inputs and overrides; unknown keys are an
error so typos surface immediately.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .aggregate import UnepBaseline
from .emissions import Co2eFactors
from .matching import DEFAULT_FAMILY_FALLBACK, DEFAULT_NORMALIZATION_RULES

ENV_CONFIG = "AEROEMIT_CONFIG"

REQUIRED_TABLE_KEYS = ("ontime", "b43", "tail_registry", "engine_codes",
                       "icao_engines", "bada_ccd")
OPTIONAL_PATH_KEYS = ("normalization_rules", "family_fallback",
                      "popular_engine_override")
SCALAR_KEYS = ("output_dir", "jaccard_threshold", "engine_multiplier_mode",
               "interpolation_key", "co2e_co2", "co2e_co", "co2e_hc", "co2e_nox",
               "unep_short", "unep_long", "unep_cutoff_mi", "threads")

ENGINE_MULTIPLIER_MODES = ("paper-compatible", "per-engine")
INTERPOLATION_KEYS = ("time", "distance")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    ontime: Path
    b43: Path
    tail_registry: Path
    engine_codes: Path
    icao_engines: Path
    bada_ccd: Path
    normalization_rules: Path = Path(DEFAULT_NORMALIZATION_RULES)
    family_fallback: Path = Path(DEFAULT_FAMILY_FALLBACK)
    popular_engine_override: Path | None = None
    output_dir: Path = Path("aeroemit_out")
    jaccard_threshold: float = 0.5
    engine_multiplier_mode: str = "paper-compatible"
    interpolation_key: str = "time"
    co2e_factors: Co2eFactors = field(default_factory=Co2eFactors)
    unep: UnepBaseline | None = None
    threads: int | None = None

    def table_paths(self) -> dict[str, Path]:
        return {key: getattr(self, key) for key in REQUIRED_TABLE_KEYS}

    def validate_paths(self) -> None:
        for key in REQUIRED_TABLE_KEYS:
            path = getattr(self, key)
            if not Path(path).is_file():
                raise ConfigError(f"{key}: file not found: {path}")
        for key in OPTIONAL_PATH_KEYS:
            path = getattr(self, key)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{key}: file not found: {path}")


def _parse_kv(path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path} line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in pairs:
            raise ConfigError(f"{path} line {lineno}: duplicate key {key}")
        pairs[key] = value
    return pairs


def load_config(path: str | Path | None) -> RunConfig:
    """Load a config file; falls back to the AEROEMIT_CONFIG env var."""
    if path is None:
        path = os.environ.get(ENV_CONFIG)
        if not path:
            raise ConfigError(
                f"no config file given and {ENV_CONFIG} is not set")
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    pairs = _parse_kv(path)

    known = set(REQUIRED_TABLE_KEYS) | set(OPTIONAL_PATH_KEYS) | set(SCALAR_KEYS)
    unknown = set(pairs) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in REQUIRED_TABLE_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    base = path.parent

    def respath(text: str) -> Path:
        p = Path(text)
        return p if p.is_absolute() else base / p

    def fnum(key: str, default: float, lo: float | None = None,
             hi: float | None = None) -> float:
        if key not in pairs:
            return default
        try:
            value = float(pairs[key])
        except ValueError:
            raise ConfigError(f"{key}: not a number: {pairs[key]}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
        if lo is not None and value < lo or hi is not None and value > hi:
            raise ConfigError(f"{key}: {value} out of range")
        return value

    cfg = RunConfig(
        ontime=respath(pairs["ontime"]),
        b43=respath(pairs["b43"]),
        tail_registry=respath(pairs["tail_registry"]),
        engine_codes=respath(pairs["engine_codes"]),
        icao_engines=respath(pairs["icao_engines"]),
        bada_ccd=respath(pairs["bada_ccd"]),
    )
    if "normalization_rules" in pairs:
        cfg.normalization_rules = respath(pairs["normalization_rules"])
    if "family_fallback" in pairs:
        cfg.family_fallback = respath(pairs["family_fallback"])
    if "popular_engine_override" in pairs:
        cfg.popular_engine_override = respath(pairs["popular_engine_override"])
    if "output_dir" in pairs:
        cfg.output_dir = respath(pairs["output_dir"])
    cfg.jaccard_threshold = fnum("jaccard_threshold", 0.5, 0.0, 1.0)

    mode = pairs.get("engine_multiplier_mode", "paper-compatible")
    if mode not in ENGINE_MULTIPLIER_MODES:
        raise ConfigError(f"engine_multiplier_mode must be one of "
                          f"{ENGINE_MULTIPLIER_MODES}, got {mode!r}")
    cfg.engine_multiplier_mode = mode

    interp = pairs.get("interpolation_key", "time")
    if interp not in INTERPOLATION_KEYS:
        raise ConfigError(f"interpolation_key must be one of {INTERPOLATION_KEYS}, "
                          f"got {interp!r}")
    cfg.interpolation_key = interp

    cfg.co2e_factors = Co2eFactors(
        co2=fnum("co2e_co2", 1.0, 0.0),
        co=fnum("co2e_co", 1.57, 0.0),
        hc=fnum("co2e_hc", 84.0, 0.0),
        nox=fnum("co2e_nox", 298.0, 0.0),
    )

    unep_keys = [k for k in ("unep_short", "unep_long", "unep_cutoff_mi") if k in pairs]
    if unep_keys:
        if len(unep_keys) != 3:
            raise ConfigError("unep_short, unep_long and unep_cutoff_mi must be "
                              "given together")
        cfg.unep = UnepBaseline(
            short_haul_co2_per_seat_mile=fnum("unep_short", 0.0, 0.0),
            long_haul_co2_per_seat_mile=fnum("unep_long", 0.0, 0.0),
            cutoff_mi=fnum("unep_cutoff_mi", 0.0, 0.0),
        )

    if "threads" in pairs:
        try:
            threads = int(pairs["threads"])
        except ValueError:
            raise ConfigError(f"threads: not an integer: {pairs['threads']}")
        if threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        cfg.threads = threads
    return cfg
