"""aeroemit: per-flight greenhouse-gas emissions for U.S. domestic flights."""

from .emissions import (
    Co2eFactors,
    EmissionsResult,
    GasVector,
    LtoTimes,
    co2e,
    flight_emissions,
    split_lto,
)
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
    "AirframeRecord", "CcdProfile", "Co2eFactors", "EmissionsResult",
    "EngineLtoFactors", "FlightRecord", "GasVector", "IngestReport",
    "LtoTimes", "NormalizationRuleSet", "ResolvedFlight", "co2e",
    "flight_emissions", "jaccard_similarity", "match_engine", "resolve_flight",
    "split_lto", "tokenize", "__version__",
]
