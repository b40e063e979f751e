"""aeroemit: per-flight greenhouse-gas emissions for U.S. domestic flights."""

from .emissions import Co2eFactors, flight_emissions
from .ingest import (
    AirframeRecord,
    CcdProfile,
    EngineLtoFactors,
    FlightRecord,
    IngestReport,
)
from .matching import (
    NormalizationRuleSet,
    ResolvedFlight,
    jaccard_similarity,
    match_engine,
    resolve_flight,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AirframeRecord", "CcdProfile", "Co2eFactors", "EngineLtoFactors",
    "FlightRecord", "IngestReport", "NormalizationRuleSet", "ResolvedFlight",
    "flight_emissions", "jaccard_similarity", "match_engine", "resolve_flight",
    "tokenize", "__version__",
]
