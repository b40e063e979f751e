import csv
import datetime
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeroemit import aggregate as agg
from aeroemit import ingest, matching
from conftest import B739ER_CCD_KNOTS, CFM56_7B27E_RATES, icao_rows, write_csv

ONTIME_HEADER = ingest.ONTIME_TABLE.header


def ontime_file(tmp_path, rows, header=None):
    path = tmp_path / "ontime.csv"
    write_csv(path, header or ONTIME_HEADER, rows)
    return path


GOLDEN_ROW = ["2021-09-01", "DL", "2441", "N815DN", "PHL", "ATL",
              "124", "7.43", "15.42", "666"]


class TestParseOntime:
    def test_golden_row(self, tmp_path):
        records, report = ingest.read_table(ingest.ONTIME_TABLE,
                                            ontime_file(tmp_path, [GOLDEN_ROW]))
        assert report.accepted == 1 and report.rejected == 0
        (r,) = records
        assert r.flight_date == datetime.date(2021, 9, 1)
        assert r.carrier_code == "DL"
        assert r.tail_number == "N815DN"
        assert r.air_time_min == 124
        assert r.taxi_in_min == 7.43
        assert r.taxi_out_min == 15.42
        assert r.distance_mi == 666
        assert r.tail_number is not None and r.air_time_min is not None

    def test_empty_file_with_header(self, tmp_path):
        records, report = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, []))
        assert records == []
        assert report.accepted == 0 and report.accepted + report.rejected == 0

    def test_blank_tail_retained_but_flagged(self, tmp_path):
        rows = [GOLDEN_ROW,
                ["2021-09-02", "DL", "2441", "", "PHL", "ATL", "120", "5", "10", "666"],
                ["2021-09-03", "DL", "2441", "N815DN", "PHL", "ATL", "122", "5", "10", "666"]]
        records, report = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, rows))
        assert report.accepted == 3
        assert sum(r.tail_number is None or r.air_time_min is None for r in records) == 1

    def test_blank_airtime_flagged(self, tmp_path):
        rows = [["2021-09-02", "DL", "1", "N1", "PHL", "ATL", "", "5", "10", "666"]]
        records, _ = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, rows))
        assert records[0].air_time_min is None
        assert records[0].tail_number == "N1"

    def test_missing_numeric_is_none_not_zero(self, tmp_path):
        rows = [["2021-09-02", "DL", "1", "N1", "PHL", "ATL", "120", "", "", "666"]]
        records, _ = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, rows))
        assert records[0].taxi_in_min is None
        assert records[0].taxi_out_min is None

    @pytest.mark.parametrize("row, fragment", [
        (["2021-13-01", "DL", "1", "N1", "PHL", "ATL", "1", "1", "1", "1"], "month"),
        (["2021-09-01", "DL", "1", "N1", "ATL", "ATL", "1", "1", "1", "1"], "destination"),
        (["2021-09-01", "DL", "1", "N1", "PHL", "ATL", "-5", "1", "1", "1"], "air_time"),
        (["2021-09-01", "DL", "1", "N1", "PHL", "ATL", "1", "1", "1", "0"], "distance"),
        (["2021-09-01", "", "1", "N1", "PHL", "ATL", "1", "1", "1", "1"], "carrier"),
        (["2021-09-01", "DL", "1", "N1", "PHL", "ATL", "1", "1", "1"], "fields"),
    ], ids=["bad-date", "same-airport", "negative-airtime", "zero-distance",
            "blank-carrier", "short-row"])
    def test_rejected_with_reason(self, tmp_path, row, fragment):
        records, report = ingest.read_table(ingest.ONTIME_TABLE,
                                            ontime_file(tmp_path, [GOLDEN_ROW, row]))
        assert len(records) == 1
        assert report.rejected == 1
        assert report.rejections[0].line == 3
        assert fragment in report.rejections[0].reason

    def test_rejection_line_is_where_the_row_starts(self, tmp_path):
        """A quoted cell spanning two lines moves every later row down a line."""
        rows = [["2021-09-01", "D\nL", *GOLDEN_ROW[2:]],
                ["2021-09-01", "DL", "1", "N1", "ATL", "ATL", "1", "1", "1", "1"]]
        records, report = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, rows))
        assert records[0].carrier_code == "D\nL"
        assert [r.line for r in report.rejections] == [4]

    @pytest.mark.parametrize("column, text", [
        ("air_time_min", "inf"), ("air_time_min", "nan"), ("taxi_in_min", "inf"),
        ("taxi_out_min", "-inf"), ("distance_mi", "inf"), ("distance_mi", "nan"),
    ])
    def test_nonfinite_rejected(self, tmp_path, column, text):
        row = list(GOLDEN_ROW)
        row[ONTIME_HEADER.index(column)] = text
        records, report = ingest.read_table(ingest.ONTIME_TABLE,
                                            ontime_file(tmp_path, [GOLDEN_ROW, row]))
        assert len(records) == 1
        assert report.rejected == 1
        assert report.rejections[0].line == 3
        assert f"{column} must be finite" in report.rejections[0].reason

    @pytest.mark.parametrize("text", ["20210901", "2021-W35-3", "2021-9-1",
                                      "2021-09-01T00:00", "2021-09-0\u0661"])
    def test_date_must_be_yyyy_mm_dd(self, tmp_path, text):
        row = [text] + GOLDEN_ROW[1:]
        records, report = ingest.read_table(ingest.ONTIME_TABLE,
                                            ontime_file(tmp_path, [GOLDEN_ROW, row]))
        assert len(records) == 1
        (rejection,) = report.rejections
        assert rejection.line == 3
        assert rejection.reason == f"flight_date must be YYYY-MM-DD, got {text!r}"

    def test_undecodable_bytes_reject_the_row(self, tmp_path):
        path = ontime_file(tmp_path, [GOLDEN_ROW, GOLDEN_ROW, GOLDEN_ROW])
        data = path.read_bytes().replace(b"DL", b"D\xff", 1)
        path.write_bytes(data)
        records, report = ingest.read_table(ingest.ONTIME_TABLE, path)
        assert len(records) == 2
        (rejection,) = report.rejections
        assert rejection.line == 2
        assert rejection.reason == "field holds bytes that are not UTF-8"

    def test_oversized_field_rejects_the_row(self, tmp_path):
        huge = list(GOLDEN_ROW)
        huge[2] = "9" * 200_000
        path = ontime_file(tmp_path, [GOLDEN_ROW, huge, GOLDEN_ROW])
        records, report = ingest.read_table(ingest.ONTIME_TABLE, path)
        assert len(records) == 2
        assert report.accepted + report.rejected == 3
        (rejection,) = report.rejections
        assert rejection.line == 3
        assert "field larger than field limit" in rejection.reason

    def test_conservation(self, tmp_path):
        rows = [GOLDEN_ROW, ["bad"] * 10, GOLDEN_ROW, ["x"]]
        _, report = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, rows))
        assert report.accepted + report.rejected == len(rows)

    def test_header_mismatch_fatal(self, tmp_path):
        path = ontime_file(tmp_path, [GOLDEN_ROW], header=["a", "b"])
        with pytest.raises(ingest.HeaderMismatchError):
            ingest.read_table(ingest.ONTIME_TABLE, path)

    def test_header_csv_cannot_split_is_a_mismatch(self, tmp_path):
        path = tmp_path / "ontime.csv"
        path.write_text("9" * 200_000 + "\n" + ",".join(GOLDEN_ROW) + "\n", encoding="utf-8")
        with pytest.raises(ingest.HeaderMismatchError) as info:
            ingest.read_table(ingest.ONTIME_TABLE, path)
        assert str(info.value) == (f"{path}: header mismatch, expected {ONTIME_HEADER}, "
                                   f"got field larger than field limit (131072)")

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ingest.IngestError, match="not found"):
            ingest.read_table(ingest.ONTIME_TABLE, tmp_path / "nope.csv")

    def test_round_trip(self, tmp_path):
        rows = [GOLDEN_ROW,
                ["2021-09-02", "AA", "77", "", "JFK", "LAX", "", "", "", "2475.5"]]
        records, _ = ingest.read_table(ingest.ONTIME_TABLE, ontime_file(tmp_path, rows))
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.ONTIME_TABLE, records, out)
        records2, report2 = ingest.read_table(ingest.ONTIME_TABLE, out)
        assert records2 == records
        assert report2.rejected == 0


class TestParseB43:
    def test_basic(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header, [["N815DN", "B739ER", "180", "2"]])
        records, report = ingest.parse_b43(path)
        assert report.accepted == 1
        assert records[0].seat_count == 180
        assert records[0].engine_count == 2

    def test_default_engine_count(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header, [["N1", "A320", "150", ""]])
        records, _ = ingest.parse_b43(path)
        assert records[0].engine_count == 2

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header, [
            ["N1", "A320", "0", "2"], ["N2", "A320", "150", "5"],
            ["", "A320", "150", "2"], ["N3", "A320", "150", "2"]])
        records, report = ingest.parse_b43(path)
        assert len(records) == 1
        assert report.rejected == 3

    def test_duplicate_tail_fatal(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header,
                  [["N1", "A320", "150", "2"], ["N1", "A321", "190", "2"]])
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.parse_b43(path)

    def test_order_insensitive(self, tmp_path):
        rows = [["N3", "A320", "150", "2"], ["N1", "B739ER", "180", "2"],
                ["N2", "A321", "190", "2"]]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ingest.B43_TABLE.header, rows)
        write_csv(b, ingest.B43_TABLE.header, rows[::-1])

        def by_tail(path):
            return {r.tail_number: r for r in ingest.parse_b43(path)[0]}
        assert by_tail(a) == by_tail(b)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header,
                  [["N1", "A320", "150", "2"], ["N2", "B739ER", "180", "2"]])
        records, _ = ingest.parse_b43(path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.B43_TABLE, records, out)
        assert ingest.parse_b43(out)[0] == records


class TestSmallTables:
    def test_tail_registry(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ingest.TAIL_REGISTRY_TABLE.header,
                  [["N1", "CFM56-7B27E"], ["N2", ""]])
        records, report = ingest.parse_tail_registry(path)
        assert len(records) == 1 and report.rejected == 1

    def test_tail_registry_duplicate_fatal(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ingest.TAIL_REGISTRY_TABLE.header, [["N1", "A"], ["N1", "B"]])
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.parse_tail_registry(path)

    def test_engine_codes_unique(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ingest.ENGINE_CODES_TABLE.header, [["C1", "CFM56"], ["C1", "PW"]])
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.parse_engine_codes(path)

    def test_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ingest.TAIL_REGISTRY_TABLE.header, [["N1", "CFM56"], ["N2", "PW4060"]])
        records, _ = ingest.parse_tail_registry(path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.TAIL_REGISTRY_TABLE, records, out)
        assert ingest.parse_tail_registry(out)[0] == records

        path = tmp_path / "c.csv"
        write_csv(path, ingest.ENGINE_CODES_TABLE.header, [["C1", "CFM56"], ["C2", "PW"]])
        codes, _ = ingest.parse_engine_codes(path)
        out2 = tmp_path / "rtc.csv"
        ingest.write_table(ingest.ENGINE_CODES_TABLE, codes, out2)
        assert ingest.parse_engine_codes(out2)[0] == codes


class TestParseIcaoDatabank:
    def test_table_values(self, tmp_path):
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, icao_rows("CFM56-7B27E", CFM56_7B27E_RATES))
        records, report = ingest.parse_icao_databank(path)
        assert report.accepted == 16
        (engine,) = records
        assert engine.rate("CO2", "TAKEOFF") == 4.07295
        assert engine.rate("NOX", "IDLE") == 0.0004796

    def test_negative_rate_rejected(self, tmp_path):
        rows = icao_rows("E1", CFM56_7B27E_RATES)
        rows[0][3] = "-1.0"
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, rows)
        records, report = ingest.parse_icao_databank(path)
        # engine is incomplete without the rejected cell, so it is dropped
        assert records == []
        assert report.accepted + report.rejected == 16

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_nonfinite_rate_rejected(self, tmp_path, text):
        rows = icao_rows("E1", CFM56_7B27E_RATES)
        rows[3][3] = text
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, rows)
        records, report = ingest.parse_icao_databank(path)
        assert records == []
        assert report.rejections[0].line == 5
        assert "rate_kg_per_s must be finite" in report.rejections[0].reason
        assert report.accepted == 0 and report.rejected == 16

    def test_duplicate_uid_fatal(self, tmp_path):
        rows = icao_rows("E1", CFM56_7B27E_RATES)
        rows.append(rows[0])
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, rows)
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.parse_icao_databank(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, icao_rows("CFM56-7B27E", CFM56_7B27E_RATES))
        records, _ = ingest.parse_icao_databank(path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.ICAO_ENGINES_TABLE, records, out)
        assert ingest.parse_icao_databank(out)[0] == records


class TestParseBadaCcd:
    def bada_rows(self):
        return [["737-900ER", d, hc, co2, co, nox]
                for d, hc, co2, co, nox in B739ER_CCD_KNOTS]

    def test_table_profile(self, tmp_path):
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, self.bada_rows())
        profiles, report = ingest.parse_bada_ccd(path)
        assert report.accepted == 10
        (profile,) = profiles
        assert len(profile.knots) == 10
        assert profile.knots[0].duration_min == 22
        assert profile.knots[0].emissions_kg["CO2"] == 3114
        assert profile.knots[-1].duration_min == 410
        assert profile.knots[-1].emissions_kg["CO2"] == 54250

    def test_single_knot_type_rejected(self, tmp_path):
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header,
                  self.bada_rows() + [["LONELY", "50", "1", "100", "1", "1"]])
        profiles, report = ingest.parse_bada_ccd(path)
        assert [p.canonical_type for p in profiles] == ["737-900ER"]
        assert any("fewer than 2 knots" in r.reason for r in report.rejections)

    def test_shuffled_rows_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rows = self.bada_rows()
        write_csv(a, ingest.BADA_CCD_TABLE.header, rows)
        write_csv(b, ingest.BADA_CCD_TABLE.header, rows[::-1])
        assert ingest.parse_bada_ccd(a)[0] == ingest.parse_bada_ccd(b)[0]

    @pytest.mark.parametrize("column, text", [
        (1, "nan"), (1, "inf"), (2, "nan"), (3, "inf"), (5, "nan"),
    ])
    def test_nonfinite_rejected(self, tmp_path, column, text):
        rows = self.bada_rows()
        rows[4][column] = text
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, rows)
        profiles, report = ingest.parse_bada_ccd(path)
        assert len(profiles[0].knots) == 9
        (rejection,) = report.rejections
        assert rejection.line == 6
        assert "must be finite" in rejection.reason

    def test_duplicate_duration_rejected(self, tmp_path):
        rows = self.bada_rows()
        rows.append(["737-900ER", "105", "9", "9", "9", "9"])
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, rows)
        profiles, report = ingest.parse_bada_ccd(path)
        assert len(profiles[0].knots) == 10
        assert any("duplicate duration" in r.reason for r in report.rejections)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, self.bada_rows())
        profiles, _ = ingest.parse_bada_ccd(path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.BADA_CCD_TABLE, profiles, out)
        assert ingest.parse_bada_ccd(out)[0] == profiles


def test_row_its_build_refuses_adds_no_key(tmp_path):
    """A ValueError from `build` rejects the row with its line and reason, and
    the row adds no key, so a later row with that key is accepted."""
    def build(name, count):
        if count == 0:
            raise ValueError(f"{name} counts nothing")
        return name, count
    schema = ingest.TableSchema("counts", (ingest.text("name"), ingest.integer("count", 0)),
                                build=build, key=("name",), repeat_fatal=False)
    path = tmp_path / "counts.csv"
    write_csv(path, schema.header, [["a", "1"], ["b", "0"], ["b", "2"], ["a", "3"]])
    records, report = ingest.read_table(schema, path)
    assert records == [("a", 1), ("b", 2)]
    assert report.rejections == [(3, "b counts nothing"), (5, "duplicate name a")]


def test_report_keeps_the_first_rejections_and_counts_all():
    """Two reports of 15 rejections each merge to a count of 30 and the first
    20 rejections, in order."""
    first, second = ingest.IngestReport("t"), ingest.IngestReport("t")
    for line in range(2, 17):
        first.reject(line, "first")
        second.reject(line + 15, "second")
    first.merge(second)
    assert (first.accepted, first.rejected) == (0, 30)
    assert first.rejections == [(line, "first" if line < 17 else "second")
                                for line in range(2, 22)]


# --- every schema: fuzzed rows, round trips, and the README's schema table ---

SCHEMAS = ingest.INPUT_TABLES + matching.CONFIG_TABLES + agg.ROLLUP_TABLES

# NUL is left out: the csv module of Python 3.10 refuses it, that of 3.11 does not.
FUZZ_CELLS = st.one_of(
    st.sampled_from(["", "inf", "-inf", "nan", "-0.0", "0", "1", "16", "1e308", "1e999",
                     "20210901", "2021-W35-3", "HC", "IDLE", "N1", "\u00c5\u00e9\u4e2d"]),
    st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6))

# Valid rows per schema, which the fuzzer reorders, drops, repeats and mutates.
FUZZ_BASES = {
    "ontime": [GOLDEN_ROW,
               ["2021-09-02", "AA", "77", "", "JFK", "LAX", "", "", "", "2475.5"],
               ["2021-12-31", "\u00c9Z", "", "N9", "SEA", "BOS", "300", "0", "-0.0", "1e3"]],
    "b43": [["N1", "A320", "150", "2"], ["N2", "B739ER", "180", ""],
            ["N3", "\u00c5-321", "190", "4"]],
    "tail_registry": [["N1", "CFM56-7B27E"], ["N2", "PW4060"], ["N3", "\u00e9"]],
    "engine_codes": [["C1", "CFM56"], ["C2", "PW 4060"], ["C3", "\u4e2d"]],
    "icao_engines": icao_rows("E1", CFM56_7B27E_RATES) + icao_rows("E2", CFM56_7B27E_RATES),
    "bada_ccd": [["737-900ER", d, hc, co2, co, nox, 8 * d]
                 for d, hc, co2, co, nox in B739ER_CCD_KNOTS[:5]]
                + [["A320", "30", "0.4", "4000", "3", "20", ""],
                   ["A320", "90", "0.9", "9000", "6", "60", "600"]],
    "normalization_rules": [["B738", "737-800"], ["a32?", "A320"], ["B739ER", "737-900ER"]],
    "family_fallback": [["737-8", "737-800", "0.85"], ["a320neo", "A320", "1"]],
    "popular_engine_override": [["737-800", "CFM56"], ["A320", "V2500"]],
    "airline_summary": [["DL", "10", "9", "1620", "43265.46", "44125.69", "0.130000", ""],
                        ["AA", "3", "0", "0", "0.00", "0.00", "", ""],
                        ["D,L", "1", "1", "180", "1.5", "2.5", "0.000001", "0.000002"]],
    "airport_lto": [["ATL", "0.12", "667.05", "2.35", "2.57", "1446.81"],
                    ["PHL", "0.00", "0.00", "0.00", "0.00", "0.00"]],
    "gas_breakdown": [["LTO", gas, "1.00", "84.00"] for gas in ingest.GASES]
                     + [["CCD", "CO2", "18294.00", "18294.00"]],
}
FUZZ_CASES = [(schema, schema.header) for schema in SCHEMAS]
FUZZ_CASES.append((ingest.BADA_CCD_TABLE,
                   ingest.BADA_CCD_TABLE.header + [ingest.BADA_CCD_TABLE.optional.name]))


def start_lines(rows):
    """The file line each row `write_csv` writes starts on, after the header on
    line 1. A quoted cell may hold line breaks; CRLF, CR and LF each end a
    line, as the csv reader counts them."""
    starts, line = [], 2
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer).writerow([str(cell) for cell in row])
        starts.append(line)
        line += len(re.findall(r"\r\n|\r|\n", buffer.getvalue()))
    return starts


@st.composite
def fuzzed_rows(draw, base, width):
    rows = [[str(cell) for cell in row[:width]] for row in draw(st.permutations(base))]
    if draw(st.booleans()):
        rows = rows[:draw(st.integers(0, len(rows)))]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind, at, cell = draw(st.tuples(st.integers(0, 2), st.integers(0, 9), FUZZ_CELLS))
        if kind == 0 and row:
            row[at % len(row)] = cell
        elif kind == 1:
            row.insert(at, cell)
        elif row:
            del row[at % len(row)]
    return rows


@pytest.mark.parametrize("schema, header", FUZZ_CASES,
                         ids=[f"{s.table}-{len(h)}" for s, h in FUZZ_CASES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_rows_are_accepted_or_rejected_and_round_trip(schema, header, data):
    rows = data.draw(fuzzed_rows(FUZZ_BASES[schema.table], len(header)))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        write_csv(path, header, rows)
        try:
            records, report = ingest.read_table(schema, path)
        except ingest.DuplicateKeyError:
            assert schema.repeat_fatal
            return
        assert report.accepted + report.rejected == len(rows)
        lines = sorted(r.line for r in report.rejections)
        assert lines == sorted(set(lines)) and set(lines) <= set(start_lines(rows))
        if schema.group is None:
            assert len(records) == report.accepted
        ingest.write_table(schema, records, out)
        again, report2 = ingest.read_table(schema, out)
        assert again == records
        assert report2.rejected == 0 and report2.accepted == report.accepted


ALL_COLUMNS = {f"{schema.table}.{column.name}": column
               for schema in SCHEMAS
               for column in schema.columns + ((schema.optional,) if schema.optional else ())}


@pytest.mark.parametrize("column", list(ALL_COLUMNS.values()), ids=list(ALL_COLUMNS))
@pytest.mark.parametrize("value", ["", "x", "nan", "2021-02-30"],
                         ids=["empty", "x", "nan", "impossible-date"])
def test_refused_value_names_its_column(column, value):
    """A rejection's reason says which column holds the refused cell."""
    try:
        column.convert(value)
    except ValueError as exc:
        assert column.name in str(exc)


def test_readme_schema_table_matches_schemas():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        match = re.fullmatch(r"\| (\w+)\.csv \| (.*) \|", line)
        if match:
            documented[match[1]] = re.findall(r"`([^`]*)`", match[2])
    assert set(documented) == {schema.table for schema in SCHEMAS}
    for schema in SCHEMAS:
        spans = documented[schema.table]
        assert spans[0].split(",") == schema.header
        if schema.optional is not None:
            assert spans[1] == schema.optional.name
