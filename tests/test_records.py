"""The package's value records are immutable: plans, flight records and lookup
tables are shared across flights and across forked processes, so no holder
may change one under another."""

import pytest

from aeroemit import aggregate, emissions, ingest, matching, pipeline
import reference

RECORDS = (
    ingest.FlightRecord, ingest.AirframeRecord, ingest.EngineLtoFactors,
    ingest.CcdProfile, ingest.RowRejection, ingest.Column, ingest.TableSchema,
    reference.GasVector, reference.LtoTimes, emissions.Co2eFactors,
    matching.ResolvedFlight, matching.NormalizationRule, matching.FamilyFallback,
    matching.LookupTables, aggregate.UnepBaseline,
    pipeline.LoadedData, pipeline.TailPlan, pipeline.TailCause,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_fields_cannot_be_assigned(record):
    value = record._make([None] * len(record._fields))
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.added = 0
    assert tuple(value) == (None,) * len(record._fields)


# The mutable counters: what `ingest.Record` serves.
COUNTERS = (ingest.IngestReport, pipeline.CoverageReport, aggregate.Sums)


def test_only_the_counters_are_mutable_records():
    assert set(ingest.Record.__subclasses__()) == set(COUNTERS)


@pytest.mark.parametrize("counter", COUNTERS, ids=lambda counter: counter.__name__)
def test_a_counter_holds_its_fields_only(counter):
    """A counter has no slot beyond its fields, so nothing is cached in it."""
    assert counter.__slots__ == counter._fields
