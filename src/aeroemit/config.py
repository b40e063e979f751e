"""Run configuration: a flat key = value text file.

Recognized keys mirror the pipeline inputs and overrides; unknown keys are an
error so typos surface immediately. Every default is declared once, by the
object that owns it: a `RunConfig` field, `Co2eFactors` or the matching
module; an absent key leaves that default in place.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .aggregate import UnepBaseline
from .emissions import Co2eFactors
from .ingest import INPUT_TABLES, number
from .matching import (CONFIG_TABLES, DEFAULT_FAMILY_FALLBACK, DEFAULT_JACCARD_THRESHOLD,
                       DEFAULT_NORMALIZATION_RULES)

ENV_CONFIG = "AEROEMIT_CONFIG"

# Each table's config key is its schema's table name.
REQUIRED_TABLE_KEYS = tuple(schema.table for schema in INPUT_TABLES)
OPTIONAL_PATH_KEYS = tuple(schema.table for schema in CONFIG_TABLES)
CHOICES = {"engine_multiplier_mode": ("paper-compatible", "per-engine"),
           "interpolation_key": ("time", "distance")}
CO2E_KEYS = tuple(f"co2e_{gas.name}" for gas in fields(Co2eFactors))
UNEP_KEYS = ("unep_short", "unep_long", "unep_cutoff_mi")
SCALAR_KEYS = ("output_dir", "jaccard_threshold", *CHOICES, *CO2E_KEYS, *UNEP_KEYS)


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
    jaccard_threshold: float = DEFAULT_JACCARD_THRESHOLD
    engine_multiplier_mode: str = "paper-compatible"
    interpolation_key: str = "time"
    co2e_factors: Co2eFactors = field(default_factory=Co2eFactors)
    unep: UnepBaseline | None = None

    def validate_paths(self) -> None:
        for key in REQUIRED_TABLE_KEYS + OPTIONAL_PATH_KEYS:
            path = getattr(self, key)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{key}: file not found: {path}")


def _parse_kv(path: Path) -> dict[str, str]:
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object lacks a leading byte-order mark
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start + len(raw) - len(exc.object)})") from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
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

    unknown = set(pairs) - {*REQUIRED_TABLE_KEYS, *OPTIONAL_PATH_KEYS, *SCALAR_KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in REQUIRED_TABLE_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    def nonnegative(key: str) -> float:
        """The value of `key`, a finite number of at least 0."""
        try:
            return number(key, 0.0).convert(pairs[key])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    settings: dict[str, object] = {}
    for key in (*REQUIRED_TABLE_KEYS, *OPTIONAL_PATH_KEYS, "output_dir"):
        if key in pairs:
            if not pairs[key]:
                raise ConfigError(f"{key}: empty path")
            settings[key] = path.parent / pairs[key]  # an absolute value replaces the base
    if "jaccard_threshold" in pairs:
        threshold = settings["jaccard_threshold"] = nonnegative("jaccard_threshold")
        if threshold > 1:
            raise ConfigError(f"jaccard_threshold must be <= 1, got {threshold}")
    for key, options in CHOICES.items():
        if key in pairs:
            if pairs[key] not in options:
                raise ConfigError(f"{key} must be one of {options}, got {pairs[key]!r}")
            settings[key] = pairs[key]
    settings["co2e_factors"] = Co2eFactors(
        **{key.removeprefix("co2e_"): nonnegative(key) for key in CO2E_KEYS if key in pairs})
    given = [key for key in UNEP_KEYS if key in pairs]
    if given:
        if len(given) != len(UNEP_KEYS):
            raise ConfigError("unep_short, unep_long and unep_cutoff_mi must be "
                              "given together")
        settings["unep"] = UnepBaseline(*map(nonnegative, UNEP_KEYS))
    return RunConfig(**settings)
