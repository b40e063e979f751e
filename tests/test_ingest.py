import builtins
import csv
import datetime
import errno
import io
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeroemit import aggregate as agg
from aeroemit import cli, ingest, matching
from conftest import B739ER_CCD_KNOTS, CFM56_7B27E_RATES, icao_rows, pick, write_csv

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

    def test_nul_rejects_the_row(self, tmp_path):
        """A NUL is refused with the text of Python 3.10's csv module, on
        every version."""
        path = ontime_file(tmp_path,
                           [GOLDEN_ROW, [GOLDEN_ROW[0], "UA", *GOLDEN_ROW[2:]], GOLDEN_ROW])
        path.write_bytes(path.read_bytes().replace(b"UA", b"U\0A"))
        records, report = ingest.read_table(ingest.ONTIME_TABLE, path)
        assert len(records) == 2
        assert report.rejections == [ingest.RowRejection(3, "line contains NUL")]

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

    def test_header_holding_nul_reads_as_python_3_10_reads_it(self, tmp_path):
        path = ontime_file(tmp_path, [GOLDEN_ROW])
        path.write_bytes(path.read_bytes().replace(b"carrier", b"car\0rier"))
        with pytest.raises(ingest.HeaderMismatchError) as info:
            ingest.read_table(ingest.ONTIME_TABLE, path)
        assert str(info.value) == (f"{path}: header mismatch, expected {ONTIME_HEADER}, "
                                   f"got line contains NUL")

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
        records, report = ingest.read_table(ingest.B43_TABLE, path)
        assert report.accepted == 1
        assert records[0].seat_count == 180
        assert records[0].engine_count == 2

    def test_default_engine_count(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header, [["N1", "A320", "150", ""]])
        records, _ = ingest.read_table(ingest.B43_TABLE, path)
        assert records[0].engine_count == 2

    def test_bad_rows_rejected(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header, [
            ["N1", "A320", "0", "2"], ["N2", "A320", "150", "5"],
            ["", "A320", "150", "2"], ["N3", "A320", "150", "2"]])
        records, report = ingest.read_table(ingest.B43_TABLE, path)
        assert len(records) == 1
        assert report.rejected == 3

    def test_nul_rejects_the_row(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header, [["N1", "A320", "150", "2"],
                                                  ["N2", "A3Z0", "150", "2"]])
        path.write_bytes(path.read_bytes().replace(b"A3Z0", b"A3\x000"))
        records, report = ingest.read_table(ingest.B43_TABLE, path)
        assert [r.tail_number for r in records] == ["N1"]
        assert report.rejections == [ingest.RowRejection(3, "line contains NUL")]

    def test_duplicate_tail_fatal(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header,
                  [["N1", "A320", "150", "2"], ["N1", "A321", "190", "2"]])
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.read_table(ingest.B43_TABLE, path)

    def test_order_insensitive(self, tmp_path):
        rows = [["N3", "A320", "150", "2"], ["N1", "B739ER", "180", "2"],
                ["N2", "A321", "190", "2"]]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ingest.B43_TABLE.header, rows)
        write_csv(b, ingest.B43_TABLE.header, rows[::-1])

        def by_tail(path):
            return {r.tail_number: r for r in ingest.read_table(ingest.B43_TABLE, path)[0]}
        assert by_tail(a) == by_tail(b)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "b43.csv"
        write_csv(path, ingest.B43_TABLE.header,
                  [["N1", "A320", "150", "2"], ["N2", "B739ER", "180", "2"]])
        records, _ = ingest.read_table(ingest.B43_TABLE, path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.B43_TABLE, records, out)
        assert ingest.read_table(ingest.B43_TABLE, out)[0] == records


class TestSmallTables:
    def test_tail_registry(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ingest.TAIL_REGISTRY_TABLE.header,
                  [["N1", "CFM56-7B27E"], ["N2", ""]])
        records, report = ingest.read_table(ingest.TAIL_REGISTRY_TABLE, path)
        assert len(records) == 1 and report.rejected == 1

    def test_tail_registry_duplicate_fatal(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ingest.TAIL_REGISTRY_TABLE.header, [["N1", "A"], ["N1", "B"]])
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.read_table(ingest.TAIL_REGISTRY_TABLE, path)

    def test_engine_codes_unique(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, ingest.ENGINE_CODES_TABLE.header, [["C1", "CFM56"], ["C1", "PW"]])
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.read_table(ingest.ENGINE_CODES_TABLE, path)

    def test_nul_in_a_quoted_field_over_lines_rejects_the_whole_row(self, tmp_path):
        """A NUL inside a quoted field spanning lines rejects the row it is in
        and no line of that field starts a row, on Python 3.10 too."""
        path = tmp_path / "tail_registry.csv"
        path.write_bytes(b'tail_number,engine_designation\nN1,"a\nb\0c\nd",x\nN2,e\n')
        records, report = ingest.read_table(ingest.TAIL_REGISTRY_TABLE, path)
        assert records == [("N2", "e")]
        assert report.rejections == [ingest.RowRejection(2, "line contains NUL")]

    def test_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ingest.TAIL_REGISTRY_TABLE.header, [["N1", "CFM56"], ["N2", "PW4060"]])
        records, _ = ingest.read_table(ingest.TAIL_REGISTRY_TABLE, path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.TAIL_REGISTRY_TABLE, records, out)
        assert ingest.read_table(ingest.TAIL_REGISTRY_TABLE, out)[0] == records

        path = tmp_path / "c.csv"
        write_csv(path, ingest.ENGINE_CODES_TABLE.header, [["C1", "CFM56"], ["C2", "PW"]])
        codes, _ = ingest.read_table(ingest.ENGINE_CODES_TABLE, path)
        out2 = tmp_path / "rtc.csv"
        ingest.write_table(ingest.ENGINE_CODES_TABLE, codes, out2)
        assert ingest.read_table(ingest.ENGINE_CODES_TABLE, out2)[0] == codes


class TestParseIcaoDatabank:
    def test_table_values(self, tmp_path):
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, icao_rows("CFM56-7B27E", CFM56_7B27E_RATES))
        records, report = ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)
        assert report.accepted == 16
        (engine,) = records
        assert engine.rate("CO2", "TAKEOFF") == 4.07295
        assert engine.rate("NOX", "IDLE") == 0.0004796

    def test_negative_rate_rejected(self, tmp_path):
        rows = icao_rows("E1", CFM56_7B27E_RATES)
        rows[0][3] = "-1.0"
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, rows)
        records, report = ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)
        # engine is incomplete without the rejected cell, so it is dropped
        assert records == []
        assert report.accepted + report.rejected == 16

    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_nonfinite_rate_rejected(self, tmp_path, text):
        rows = icao_rows("E1", CFM56_7B27E_RATES)
        rows[3][3] = text
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, rows)
        records, report = ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)
        assert records == []
        assert report.rejections[0].line == 5
        assert "rate_kg_per_s must be finite" in report.rejections[0].reason
        assert report.accepted == 0 and report.rejected == 16

    def test_nul_in_a_uid_rejects_its_rows(self, tmp_path):
        """An engine whose every row holds the same NUL-bearing UID is refused
        row by row, as the columns refuse it, not settled by the kernel."""
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header,
                  icao_rows("EZ1", CFM56_7B27E_RATES) + icao_rows("E2", CFM56_7B27E_RATES))
        path.write_bytes(path.read_bytes().replace(b"EZ1", b"E\x001"))
        records, report = ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)
        assert [r.engine_uid for r in records] == ["E2"]
        assert report.rejections == [ingest.RowRejection(line, "line contains NUL")
                                     for line in range(2, 18)]

    def test_duplicate_uid_fatal(self, tmp_path):
        rows = icao_rows("E1", CFM56_7B27E_RATES)
        rows.append(rows[0])
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, rows)
        with pytest.raises(ingest.DuplicateKeyError):
            ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "icao.csv"
        write_csv(path, ingest.ICAO_ENGINES_TABLE.header, icao_rows("CFM56-7B27E", CFM56_7B27E_RATES))
        records, _ = ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.ICAO_ENGINES_TABLE, records, out)
        assert ingest.read_table(ingest.ICAO_ENGINES_TABLE, out)[0] == records


class TestParseBadaCcd:
    def bada_rows(self):
        return [["737-900ER", d, hc, co2, co, nox]
                for d, hc, co2, co, nox in B739ER_CCD_KNOTS]

    def test_table_profile(self, tmp_path):
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, self.bada_rows())
        profiles, report = ingest.read_table(ingest.BADA_CCD_TABLE, path)
        assert report.accepted == 10
        (profile,) = profiles
        assert len(profile.durations) == len(profile.masses) == 10
        assert profile.durations[0] == 22
        assert profile.masses[0][1] == 3114  # CO2
        assert profile.durations[-1] == 410
        assert profile.masses[-1][1] == 54250

    def test_single_knot_type_rejected(self, tmp_path):
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header,
                  self.bada_rows() + [["LONELY", "50", "1", "100", "1", "1"]])
        profiles, report = ingest.read_table(ingest.BADA_CCD_TABLE, path)
        assert [p.canonical_type for p in profiles] == ["737-900ER"]
        assert any("fewer than 2 knots" in r.reason for r in report.rejections)

    def test_shuffled_rows_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rows = self.bada_rows()
        write_csv(a, ingest.BADA_CCD_TABLE.header, rows)
        write_csv(b, ingest.BADA_CCD_TABLE.header, rows[::-1])
        assert (ingest.read_table(ingest.BADA_CCD_TABLE, a)[0]
                == ingest.read_table(ingest.BADA_CCD_TABLE, b)[0])

    @pytest.mark.parametrize("column, text", [
        (1, "nan"), (1, "inf"), (2, "nan"), (3, "inf"), (5, "nan"),
    ])
    def test_nonfinite_rejected(self, tmp_path, column, text):
        rows = self.bada_rows()
        rows[4][column] = text
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, rows)
        profiles, report = ingest.read_table(ingest.BADA_CCD_TABLE, path)
        assert len(profiles[0].durations) == 9
        (rejection,) = report.rejections
        assert rejection.line == 6
        assert "must be finite" in rejection.reason

    def test_duplicate_duration_rejected(self, tmp_path):
        rows = self.bada_rows()
        rows.append(["737-900ER", "105", "9", "9", "9", "9"])
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, rows)
        profiles, report = ingest.read_table(ingest.BADA_CCD_TABLE, path)
        assert len(profiles[0].durations) == 10
        assert any("duplicate duration" in r.reason for r in report.rejections)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "bada.csv"
        write_csv(path, ingest.BADA_CCD_TABLE.header, self.bada_rows())
        profiles, _ = ingest.read_table(ingest.BADA_CCD_TABLE, path)
        out = tmp_path / "rt.csv"
        ingest.write_table(ingest.BADA_CCD_TABLE, profiles, out)
        assert ingest.read_table(ingest.BADA_CCD_TABLE, out)[0] == profiles


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


def fail_reads_after(monkeypatch, path, lines):
    """Make every read of `path` past its first `lines` lines fail with EIO,
    as a failing disk does."""
    readable = len(b"".join(path.read_bytes().splitlines(keepends=True)[:lines]))

    class Failing(io.FileIO):
        def readinto(self, buffer):
            if self.tell() >= readable:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return super().readinto(memoryview(buffer)[:readable - self.tell()])
    real_open = open
    monkeypatch.setattr(builtins, "open", lambda file, *args, **kwargs: (
        io.BufferedReader(Failing(file)) if file == path else real_open(file, *args, **kwargs)))


@pytest.mark.parametrize("lines_read", [0, 2], ids=["header", "row"])
def test_read_error_names_the_table(tmp_path, monkeypatch, lines_read):
    """An OSError while the header or a row is read, as a failing disk gives
    it, raises IngestError naming the table."""
    path = ontime_file(tmp_path, [GOLDEN_ROW] * 3)
    fail_reads_after(monkeypatch, path, lines_read)
    with pytest.raises(ingest.IngestError) as raised:
        ingest.read_table(ingest.ONTIME_TABLE, path)
    assert str(raised.value) == f"{path}: {os.strerror(errno.EIO)}"


def test_read_error_in_the_databank_kernel_names_the_table(tmp_path, monkeypatch):
    """An OSError while the ICAO kernel reads the rows raises IngestError
    naming the table, as the columns' read does."""
    path = tmp_path / "icao.csv"
    write_csv(path, ingest.ICAO_ENGINES_TABLE.header, icao_rows("E1", CFM56_7B27E_RATES))
    fail_reads_after(monkeypatch, path, 2)
    with pytest.raises(ingest.IngestError) as raised:
        ingest.read_table(ingest.ICAO_ENGINES_TABLE, path)
    assert str(raised.value) == f"{path}: {os.strerror(errno.EIO)}"


# --- every schema: fuzzed rows, round trips, and the README's schema table ---

SCHEMAS = ingest.INPUT_TABLES + matching.CONFIG_TABLES + agg.ROLLUP_TABLES

# The csv writer of Python 3.10 cannot write a NUL, so its text holds none
# there; the NUL tests above hold its refusal on every version.
FUZZ_CELLS = st.one_of(
    st.sampled_from(["", "inf", "-inf", "nan", "-0.0", "0", "1", "16", "1e308", "1e999",
                     "20210901", "2021-W35-3", "HC", "IDLE", "N1", "\u00c5\u00e9\u4e2d"]),
    st.text(st.characters(codec="utf-8",
                          exclude_characters="\x00" if sys.version_info < (3, 11) else ""),
            max_size=6))

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


# --- the flight table's kernel against its columns ---

KERNEL_NUMBERS = st.sampled_from(
    ["", "0", "-0", "-0.0", "7.5", " 7.5 ", "1_0", "nan", "-nan", "inf", "-inf", "1e400",
     "-1", "1e-320", "1e308", "x", " "])
KERNEL_CODES = st.sampled_from(["", "DL", "ATL", "PHL", "atl", " ATL"])
KERNEL_DATES = st.sampled_from(
    ["2021-09-01", "2024-02-29", "2021-02-30", "2021-13-01", "2021-9-1", "20210901",
     " 2021-09-01", "", "0000-01-01"])


# Each flight cell: a plain good one, or one of its grammar. Drawing a
# boolean, then the grammar, costs less than a `one_of` of the two, which
# Hypothesis builds a strategy for at each draw.
KERNEL_CELLS = (("2021-09-01", KERNEL_DATES), ("DL", KERNEL_CODES), ("2441", st.just("")),
                ("N1", st.just("")), ("PHL", KERNEL_CODES), ("ATL", KERNEL_CODES),
                *[("124.5", KERNEL_NUMBERS)] * 4)


def good_or(draw, good, grammar):
    return good if draw(st.booleans()) else draw(grammar)


@st.composite
def kernel_rows(draw):
    """A flight row from a cell grammar: good and bad dates, blank, equal and
    odd codes, and numbers that are blank, signed zeros, not finite, beyond
    a double, padded or written with an underscore; any arity. Each cell is
    a plain good one half the time, so that many rows are accepted."""
    row = [good_or(draw, good, grammar) for good, grammar in KERNEL_CELLS]
    return (row + row)[:good_or(draw, 10, st.integers(0, 12))]


KERNEL_EXAMPLES = [
    ["2021-09-01", "DL", "1", "N1", "PHL", "ATL", "-0", "-0.0", "-0", "7.5"],
    ["2024-02-29", "DL", "", "", "PHL", "ATL", " 7.5 ", "1_0", "1e-320", "1e308"],
    ["2021-09-01", "DL", "1", "N1", "PHL", "ATL", "", "", "", "-0"],
    ["2021-09-01", "DL", "1", "N1", "ATL", "ATL", "1", "1", "1", "1"],
    ["2021-09-01", "DL", "1", "N1", "PHL", "ATL", "nan", "inf", "1e400", "-1"],
    ["2021-02-30", "", "1", "N1", "", "ATL", "1", "1", "1", "1"]]


@given(kernel_rows())
@example(KERNEL_EXAMPLES[0])
@example(KERNEL_EXAMPLES[1])
@example(KERNEL_EXAMPLES[2])
@example(KERNEL_EXAMPLES[3])
@example(KERNEL_EXAMPLES[4])
@example(KERNEL_EXAMPLES[5])
def test_flight_kernel_builds_what_the_columns_build(row):
    """Whenever the kernel settles `row`, its record is, field by field and
    down to the sign of a zero, the one the columns and `_flight` make."""
    schema = ingest.ONTIME_TABLE
    try:
        record = schema.kernel(row)
    except ValueError:
        record = None
    if len(row) != len(schema.columns):
        assert record is None
    if record is not None:
        expected = schema.build(*(c.convert(cell) for c, cell in zip(schema.columns, row)))
        assert type(record) is type(expected)
        assert list(map(repr, record)) == list(map(repr, expected))


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    """One file, which a property test rewrites for each example."""
    return tmp_path_factory.mktemp("table") / "table.csv"


@given(rows=st.lists(kernel_rows(), max_size=12))
@example(rows=KERNEL_EXAMPLES)
def test_flight_table_reads_as_without_its_kernel(table_path, rows):
    """The table of `rows` reads, records, report and every rejection with
    its line and reason, as it does through the columns alone."""
    def outcome(schema):
        records, report = ingest.read_table(schema, table_path)
        return [list(map(repr, r)) for r in records], report
    write_csv(table_path, ingest.ONTIME_TABLE.header, rows)
    assert outcome(ingest.ONTIME_TABLE) == outcome(ingest.ONTIME_TABLE._replace(kernel=None))


@pytest.fixture(scope="module")
def perfbench_synth():
    """The benchmark's corpus generator, `perfbench/synth.py`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import synth
    return synth


def kernel_outcomes(schema):
    """`schema` whose kernel also appends what it returns to the list given."""
    outcomes = []

    def recording(rows):
        outcomes.append(schema.kernel(rows))
        return outcomes[-1]
    return schema._replace(kernel=recording), outcomes


def test_every_clean_row_takes_the_kernel(perfbench_synth, tmp_path):
    """On a clean generated bulk-run corpus the kernel settles every row, so
    none pays for the columns and no kernel is dead code."""
    corpus = perfbench_synth.generate("bulk-run", 7, tmp_path)
    schema, outcomes = kernel_outcomes(ingest.ONTIME_TABLE)
    records, report = ingest.read_table(schema, corpus.table_paths["ontime"])
    settled = sum(record is not None for record in outcomes)
    assert report.rejected == 0 and settled == report.accepted == len(records) > 0


# --- the ICAO table's kernel against its columns ---

def engine_rows(uid, rate="0.5"):
    """An engine's 16 rows, each rate `rate`."""
    return [[uid, gas, mode, rate] for gas in ingest.GASES for mode in ingest.MODES]


def distinct_engine_rows(uid):
    """An engine's 16 rows, in GASES x MODES order, with the rates 1 to 16."""
    return [row[:3] + [str(k)] for k, row in enumerate(engine_rows(uid), 1)]


# Cells of each ICAO column, good and bad. "E\udcff" is written as the byte
# 0xff, which is not UTF-8; "\ufeffE1" holds a byte-order mark.
ICAO_UIDS = ["E1", "E2", "E3", "", "\u00c91", "E,1", "E\n1", "E\udcff", "\ufeffE1"]
ICAO_GASES = [*ingest.GASES, "SO2", "co2", ""]
ICAO_MODES = [*ingest.MODES, "CRUISE", "idle"]
ICAO_RATES = ["0.5", "0", "-0", "-0.0", " 7.5 ", "1_0", "1e-320", "1e308", "nan", "-nan",
              "inf", "1e400", "-1", "x", ""]
ICAO_CELLS = (ICAO_UIDS, ICAO_GASES, ICAO_MODES, ICAO_RATES)
# Each UID and rate is a plain good one half the time, so that many tables
# are clean.
ICAO_ENGINE_UIDS = st.lists(st.one_of(st.sampled_from(ICAO_UIDS[:3]), st.sampled_from(ICAO_UIDS)),
                            min_size=1, max_size=4, unique=True)
ICAO_RATE_POOL = st.lists(st.one_of(st.floats(min_value=0.0, allow_infinity=False).map(repr),
                                    st.sampled_from(ICAO_RATES)),
                          min_size=1, max_size=4)
ICAO_EDITS = st.one_of(st.just(0), st.integers(0, 3))
NEWLINES = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def icao_tables(draw):
    """An ICAO table: its rows, line end and whether a byte-order mark leads
    it. One to four engines of 16 rows, their rates picked from a pool of 1
    to 4 cells drawn per example, then up to three edits, none half the
    time: a cell from its column's grammar, a row dropped, repeated or moved
    (a UID with 15 or 17 rows, a duplicate key, a UID in two runs), or a
    cell added or dropped."""
    pool = draw(ICAO_RATE_POOL)
    rows = [[uid, gas, mode, pick(draw, pool)]
            for uid in draw(ICAO_ENGINE_UIDS) for gas in ingest.GASES for mode in ingest.MODES]
    for _ in range(draw(ICAO_EDITS) if rows else 0):
        kind, at = draw(st.integers(0, 5)), draw(st.integers(0, len(rows) - 1))
        if kind == 0:
            column = draw(st.integers(0, 3))
            rows[at][column % len(rows[at])] = pick(draw, ICAO_CELLS[column])
        elif kind == 1 and len(rows) > 1:
            del rows[at]
        elif kind in (2, 3):
            row = rows[at] if kind == 2 else rows.pop(at)
            rows.insert(draw(st.integers(0, len(rows))), list(row))
        elif kind == 4:
            rows[at].append(pick(draw, ICAO_RATES))
        elif kind == 5 and rows[at]:
            rows[at].pop()
    return rows, draw(NEWLINES), draw(st.booleans())


def write_icao(path, rows, newline, bom):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerow(ingest.ICAO_ENGINES_TABLE.header)
    writer.writerows(rows)
    path.write_bytes(b"\xef\xbb\xbf" * bom + buffer.getvalue().encode("utf-8", "surrogateescape"))


E1, E2 = engine_rows("E1"), engine_rows("E2")
ICAO_EXAMPLES = {
    "3 cells": ([*E1[:3], E1[3][:3], *E1[4:]], "\r\n", False),
    "5 cells": ([*E1[:4], E1[4] + ["0.5"], *E1[5:]], "\r\n", False),
    "empty UID": (engine_rows(""), "\r\n", False),
    "unknown gas": ([*E1[:5], ["E1", "SO2", "IDLE", "1"], *E1[6:]], "\r\n", False),
    "unknown mode": ([*E1[:5], ["E1", "HC", "CRUISE", "1"], *E1[6:]], "\r\n", False),
    "signed zero, underscore, padding": (
        engine_rows("E1", "-0") + engine_rows("E2", "1_0") + engine_rows("E3", " 7.5 "),
        "\r\n", False),
    "nan": (E1 + engine_rows("E2", "nan"), "\r\n", False),
    "inf": (E1 + engine_rows("E2", "inf"), "\r\n", False),
    "beyond a double": ([*E1[:15], ["E1", "NOX", "IDLE", "1e400"]], "\r\n", False),
    "finite, with an infinite sum": (engine_rows("E1", "1e308"), "\r\n", False),
    "negative": ([*E1[:15], ["E1", "NOX", "IDLE", "-1"]], "\r\n", False),
    "duplicate key": (E1 + [E1[0]], "\r\n", False),
    "duplicate key in 16 rows": (E1[:15] + [E1[0]], "\r\n", False),
    "15 rows": (E1[1:] + E2, "\r\n", False),
    "17 rows": (E1 + [["E1", "SO2", "IDLE", "1"]] + E2, "\r\n", False),
    "two runs": (E1[:8] + E2 + E1[8:], "\r\n", False),
    "two runs of 16": (E1 + E2 + E1, "\r\n", False),
    "two runs, 65 engines apart": (
        [row for i in [*range(65), 0] for row in engine_rows(f"E{i:02d}")], "\r\n", False),
    "a cell beyond the csv field limit": (
        [*E1[:15], ["E1", "NOX", "IDLE", "1" * (csv.field_size_limit() + 1)]], "\r\n", False),
    "not UTF-8": (engine_rows("E\udcff"), "\r\n", False),
    "byte-order marks": (engine_rows("\ufeffE1") + E2, "\r\n", True),
    "lone CR, quoted comma and line break": (
        engine_rows("E,1") + engine_rows("E\n1"), "\r", False),
    "LF, quoted comma and line break": (engine_rows("E,1") + engine_rows("E\n1"), "\n", False),
    "empty": ([], "\r\n", False),
    "distinct rates, reversed then in order": (
        distinct_engine_rows("E1")[::-1] + distinct_engine_rows("E2"), "\r\n", False),
    "distinct rates, in order then reversed": (
        distinct_engine_rows("E1") + distinct_engine_rows("E2")[::-1], "\r\n", False),
}


def icao_outcome(schema, path):
    """The ICAO table as read: each record's UID and rates, the rates by
    `repr` (which shows a zero's sign), and the report; or the fatal error's
    type and text."""
    try:
        records, report = ingest.read_table(schema, path)
    except ingest.IngestError as exc:
        return type(exc), str(exc)
    assert all(type(r) is ingest.EngineLtoFactors for r in records)
    return [(r.engine_uid, repr(r.rates)) for r in records], report


def with_icao_examples(test):
    for table in ICAO_EXAMPLES.values():
        test = example(table=table)(test)
    return test


@given(table=icao_tables())
@with_icao_examples
def test_icao_table_reads_as_without_its_kernel(table_path, table):
    """The ICAO table reads, records, report, every rejection with its line
    and reason and a duplicate key's error, as it does through the columns
    alone; both paths order an engine's rates alike, whatever the order of
    its rows."""
    write_icao(table_path, *table)
    assert (icao_outcome(ingest.ICAO_ENGINES_TABLE, table_path)
            == icao_outcome(ingest.ICAO_ENGINES_TABLE._replace(kernel=None), table_path))


@pytest.fixture(scope="module")
def registry_heavy_databank(perfbench_synth, tmp_path_factory):
    """The ICAO table of the generated registry-heavy corpus: 800 engines,
    12,800 rows."""
    corpus = perfbench_synth.generate("registry-heavy", 7, tmp_path_factory.mktemp("heavy"))
    return corpus.table_paths["icao_engines"]


def test_clean_databank_takes_the_table_kernel(registry_heavy_databank):
    """On the clean generated registry-heavy corpus the kernel settles the
    whole ICAO table, so no row pays for the columns."""
    schema, outcomes = kernel_outcomes(ingest.ICAO_ENGINES_TABLE)
    records, report = ingest.read_table(schema, registry_heavy_databank)
    assert len(outcomes) == 1 and outcomes[0] is not None
    assert report.rejected == 0 and report.accepted == 16 * len(records) == 12800


def test_dirty_databank_falls_back_to_the_columns(perfbench_synth, tmp_path, monkeypatch,
                                                 capsys):
    """The validate-dirty ICAO table, with planted rejections and a NaN
    engine, leaves the kernel for the columns: `validate` prints what it
    prints through the columns alone."""
    corpus = perfbench_synth.generate("validate-dirty", 7, tmp_path)
    schema, outcomes = kernel_outcomes(ingest.ICAO_ENGINES_TABLE)
    printed = []
    for table in (schema, ingest.ICAO_ENGINES_TABLE._replace(kernel=None)):
        monkeypatch.setattr(ingest, "ICAO_ENGINES_TABLE", table)
        assert cli.main(["validate", "--config", str(corpus.setup_config)]) == 0
        printed.append(capsys.readouterr().out)
    assert outcomes == [None]
    assert "icao_engines" in printed[0] and printed[0] == printed[1]


def test_databank_read_peaks_no_higher_than_the_columns(registry_heavy_databank):
    """The kernel reads in chunks, so reading a 12,800-row table peaks at no
    more memory than the columns' read does."""
    peaks = []
    for schema in (ingest.ICAO_ENGINES_TABLE, ingest.ICAO_ENGINES_TABLE._replace(kernel=None)):
        tracemalloc.start()
        try:
            ingest.read_table(schema, registry_heavy_databank)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]
