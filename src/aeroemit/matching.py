"""Resolution of flights to canonical airframes and ICAO engine UIDs.

A flight's tail number is joined to the airframe inventory for type and seat
count, the type designator is normalized to a canonical name, and the FAA
engine designation is aligned with an ICAO engine UID by Jaccard token
similarity. Every fallback taken is recorded as a provenance flag.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable

from .ingest import (
    AirframeRecord,
    CcdProfile,
    EngineCodeRecord,
    EngineLtoFactors,
    FlightRecord,
    IngestError,
    TableSchema,
    TailEngineRecord,
    number,
    read_strict,
    text,
)

DEFAULT_JACCARD_THRESHOLD = 0.5

# Provenance flags
ENGINE_EXACT = "ENGINE_EXACT"
ENGINE_JACCARD = "ENGINE_JACCARD"
ENGINE_POPULAR_FALLBACK = "ENGINE_POPULAR_FALLBACK"
FAMILY_FALLBACK = "FAMILY_FALLBACK"

# Incomputable causes
MISSING_TAIL = "MISSING_TAIL"
MISSING_AIRTIME = "MISSING_AIRTIME"
MISSING_DISTANCE = "MISSING_DISTANCE"
NO_AIRFRAME = "NO_AIRFRAME"
NO_TYPE_MATCH = "NO_TYPE_MATCH"
NO_CCD_PROFILE = "NO_CCD_PROFILE"
NO_ENGINE_MATCH = "NO_ENGINE_MATCH"
NONFINITE_EMISSIONS = "NONFINITE_EMISSIONS"  # set after compute, by `run`

_DATA_DIR = Path(__file__).parent / "data"
DEFAULT_NORMALIZATION_RULES = _DATA_DIR / "normalization_rules.csv"
DEFAULT_FAMILY_FALLBACK = _DATA_DIR / "family_fallback.csv"


class MatchingConfigError(IngestError):
    """Invalid normalization / fallback / override configuration."""


@dataclass(frozen=True)
class ResolvedFlight:
    flight: FlightRecord
    canonical_type: str | None
    seat_count: int | None
    engine_count: int | None
    engine_uid: str | None
    emissions_type: str | None
    efficiency_factor: float
    provenance: frozenset[str]
    incomputable_cause: str | None = None

    @property
    def is_computable(self) -> bool:
        return self.incomputable_cause is None


@dataclass(frozen=True)
class NormalizationRule:
    pattern: str
    canonical_type: str


class NormalizationRuleSet:
    """Ordered, first-match-wins designator rewrite rules.

    A designator that already equals a canonical name on the right-hand side
    of any rule maps to itself, which makes normalization idempotent.
    """

    def __init__(self, rules: Iterable[NormalizationRule]):
        self.rules = list(rules)
        self._canonicals = {r.canonical_type for r in self.rules}

    @classmethod
    def from_csv(cls, path: str | Path) -> "NormalizationRuleSet":
        return cls(_read_config_table(RULES_TABLE, path))

    def normalize(self, raw: str) -> str | None:
        cleaned = raw.strip().upper()
        if not cleaned:
            return None
        if cleaned in self._canonicals:
            return cleaned
        for rule in self.rules:
            if "*" in rule.pattern or "?" in rule.pattern or "[" in rule.pattern:
                if fnmatch.fnmatchcase(cleaned, rule.pattern):
                    return rule.canonical_type
            elif cleaned == rule.pattern:
                return rule.canonical_type
        return None


@dataclass(frozen=True)
class FamilyFallback:
    surrogate_type: str
    efficiency_factor: float


RULES_TABLE = TableSchema(
    "normalization_rules", (text("pattern", upper=True), text("canonical_type")),
    build=NormalizationRule)
FALLBACK_TABLE = TableSchema(
    "family_fallback",
    (text("missing_type", upper=True), text("surrogate_type"),
     number("efficiency_factor", 0.0, strict=True)),
    build=lambda missing, surrogate, factor: (missing, FamilyFallback(surrogate, factor)),
    rows=lambda pair: [(pair[0], pair[1].surrogate_type, pair[1].efficiency_factor)],
    key=("missing_type",))
OVERRIDE_TABLE = TableSchema(
    "popular_engine_override", (text("canonical_type"), text("engine_uid")),
    build=lambda canonical_type, uid: (canonical_type, uid), rows=lambda pair: [pair],
    key=("canonical_type",))
CONFIG_TABLES = (RULES_TABLE, FALLBACK_TABLE, OVERRIDE_TABLE)


def _read_config_table(schema: TableSchema, path: str | Path) -> list:
    """Records of a matching config table; its first rejected row is fatal."""
    try:
        return read_strict(schema, path)
    except IngestError as exc:
        raise MatchingConfigError(str(exc)) from exc


def load_family_fallback(path: str | Path) -> dict[str, FamilyFallback]:
    return dict(_read_config_table(FALLBACK_TABLE, path))


def load_popular_engine_override(path: str | Path) -> dict[str, str]:
    return dict(_read_config_table(OVERRIDE_TABLE, path))


# Runs of `str.isalnum` characters: `\w` is exactly isalnum plus "_".
_TOKEN = re.compile(r"[^\W_]+")


def tokenize(designation: str) -> frozenset[str]:
    """Uppercase tokens split on non-alphanumeric characters."""
    return frozenset(_TOKEN.findall(designation.upper()))


def jaccard_similarity(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _tokenize_uids(uids: Iterable[str]) -> tuple[tuple[str, frozenset[str]], ...]:
    """(uid, tokens) per UID, sorted by UID: the order a scan breaks ties in."""
    return tuple((uid, tokenize(uid)) for uid in sorted(uids))


def _best_match(query: frozenset[str],
                tokenized: tuple[tuple[str, frozenset[str]], ...],
                threshold: float) -> tuple[str, float] | None:
    """Best Jaccard match of a token set against (uid, tokens) pairs sorted by
    UID; ties keep the first, smallest UID."""
    best_uid: str | None = None
    best_score = -1.0
    for uid, tokens in tokenized:
        score = jaccard_similarity(query, tokens)
        if score > best_score:
            best_uid, best_score = uid, score
    if best_uid is None or best_score < threshold:
        return None
    return best_uid, best_score


def match_engine(faa_designation: str, databank: list[EngineLtoFactors],
                 threshold: float = DEFAULT_JACCARD_THRESHOLD,
                 ) -> tuple[str, float] | None:
    """Best Jaccard match of a designation against databank UIDs.

    Ties break to the lexicographically smallest UID; below-threshold best
    scores are no-match.
    """
    return _best_match(tokenize(faa_designation),
                       _tokenize_uids(e.engine_uid for e in databank), threshold)


def build_popular_engine_table(fleet: Iterable[tuple[str, str]]) -> dict[str, str]:
    """Most common engine UID per canonical type from (type, uid) tail pairs.

    Ties break to the lexicographically smallest UID.
    """
    counts: dict[str, dict[str, int]] = {}
    for canonical_type, engine_uid in fleet:
        per_type = counts.setdefault(canonical_type, {})
        per_type[engine_uid] = per_type.get(engine_uid, 0) + 1
    table = {}
    for canonical_type, per_type in counts.items():
        table[canonical_type] = min(
            per_type, key=lambda uid: (-per_type[uid], uid))
    return table


def _resolve_engines(tails: Collection[str], registry_by_tail: dict[str, str],
                     engine_code_text: dict[str, str], uids: Collection[str],
                     threshold: float) -> dict[str, tuple[str, str]]:
    """(engine_uid, flag) per tail whose registry engine matches a databank UID,
    one tuple per distinct registry designation. A designation naming a UID
    exactly is ENGINE_EXACT; any other is scored by Jaccard similarity, once per
    distinct token set, against UIDs tokenized once.
    """
    tokenized = _tokenize_uids(uids)
    fuzzy: dict[frozenset[str], tuple[str, float] | None] = {}
    matched: dict[str, tuple[str, str]] = {}  # per registry designation that matches
    for registered in dict.fromkeys(map(registry_by_tail.get, tails)):
        designation = engine_code_text.get(registered, registered)
        if designation is None:  # a tail the registry lacks
            continue
        exact = designation.strip().upper()
        if exact in uids:
            matched[registered] = (exact, ENGINE_EXACT)
            continue
        query = tokenize(designation)
        if query not in fuzzy:
            fuzzy[query] = _best_match(query, tokenized, threshold)
        if fuzzy[query] is not None:
            matched[registered] = (fuzzy[query][0], ENGINE_JACCARD)
    return {tail: matched[registered] for tail in tails
            if (registered := registry_by_tail.get(tail)) in matched}


@dataclass(frozen=True)
class LookupTables:
    """Immutable lookup state shared by all resolve_flight calls.

    `canonical_types` holds each type designator's canonical type, "" if none;
    `engine_by_tail` the (engine_uid, flag) of each airframe tail whose
    registry engine matched; `popular_engine` the fallback UID per type.
    """

    airframes_by_tail: dict[str, AirframeRecord]
    canonical_types: dict[str, str]
    databank_by_uid: dict[str, EngineLtoFactors]
    ccd_by_type: dict[str, CcdProfile]
    family_fallback: dict[str, FamilyFallback]
    engine_by_tail: dict[str, tuple[str, str]]
    popular_engine: dict[str, str]

    @classmethod
    def build(cls,
              airframes: list[AirframeRecord],
              registry: list[TailEngineRecord],
              engine_codes: list[EngineCodeRecord],
              databank: list[EngineLtoFactors],
              ccd_profiles: list[CcdProfile],
              rules: NormalizationRuleSet,
              family_fallback: dict[str, FamilyFallback],
              jaccard_threshold: float = DEFAULT_JACCARD_THRESHOLD,
              popular_engine_override: dict[str, str] | None = None,
              ) -> "LookupTables":
        airframes_by_tail = {a.tail_number: a for a in airframes}
        canonical_types = {raw: rules.normalize(raw) or "" for raw in
                           dict.fromkeys(a.raw_type_designator for a in airframes)}
        databank_by_uid = {e.engine_uid: e for e in databank}
        engine_by_tail = _resolve_engines(
            airframes_by_tail,
            {r.tail_number: r.faa_engine_designation for r in registry},
            {c.faa_code: c.designation_text for c in engine_codes},
            databank_by_uid, jaccard_threshold)
        popular_engine = build_popular_engine_table(
            (canonical_type, engine_by_tail[tail][0])
            for tail, airframe in airframes_by_tail.items()
            if (canonical_type := canonical_types[airframe.raw_type_designator])
            and tail in engine_by_tail)
        for ctype, uid in (popular_engine_override or {}).items():
            if uid not in databank_by_uid:
                raise MatchingConfigError(
                    f"popular-engine override {ctype} -> {uid}: UID not in databank")
            popular_engine[ctype] = uid
        return cls(airframes_by_tail, canonical_types, databank_by_uid,
                   {p.canonical_type: p for p in ccd_profiles}, family_fallback,
                   engine_by_tail, popular_engine)


def resolve_flight(flight: FlightRecord, tables: LookupTables) -> ResolvedFlight:
    """Resolve a flight through the matching cascade.

    Failure never raises; it is encoded as the incomputable cause.
    """
    flags: set[str] = set()
    cause: str | None = None
    canonical_type: str | None = None
    seat_count: int | None = None
    engine_count: int | None = None
    engine_uid: str | None = None
    emissions_type: str | None = None
    efficiency_factor = 1.0

    airframe = None
    if flight.tail_number is None:
        cause = MISSING_TAIL
    else:
        airframe = tables.airframes_by_tail.get(flight.tail_number)
        if airframe is None:
            cause = NO_AIRFRAME

    if airframe is not None:
        seat_count = airframe.seat_count
        engine_count = airframe.engine_count
        canonical_type = tables.canonical_types[airframe.raw_type_designator] or None
        if canonical_type is None:
            cause = cause or NO_TYPE_MATCH
        else:
            emissions_type = canonical_type
            if canonical_type not in tables.ccd_by_type:
                fallback = tables.family_fallback.get(canonical_type)
                if fallback is not None and fallback.surrogate_type in tables.ccd_by_type:
                    emissions_type = fallback.surrogate_type
                    efficiency_factor = fallback.efficiency_factor
                    flags.add(FAMILY_FALLBACK)
                else:
                    emissions_type = None
                    cause = cause or NO_CCD_PROFILE

        resolved_engine = tables.engine_by_tail.get(airframe.tail_number)
        if resolved_engine is not None:
            engine_uid, engine_flag = resolved_engine
            flags.add(engine_flag)
        elif canonical_type is not None and canonical_type in tables.popular_engine:
            engine_uid = tables.popular_engine[canonical_type]
            flags.add(ENGINE_POPULAR_FALLBACK)
        else:
            cause = cause or NO_ENGINE_MATCH

    if cause is None and flight.air_time_min is None:
        cause = MISSING_AIRTIME
    if cause is None and flight.distance_mi is None:
        cause = MISSING_DISTANCE

    return ResolvedFlight(
        flight=flight,
        canonical_type=canonical_type,
        seat_count=seat_count,
        engine_count=engine_count,
        engine_uid=engine_uid,
        emissions_type=emissions_type,
        efficiency_factor=efficiency_factor,
        provenance=frozenset(flags),
        incomputable_cause=cause,
    )
