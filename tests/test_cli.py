import codecs
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from aeroemit import cli, config, ingest, matching, pipeline
from conftest import (B739ER_CCD_KNOTS, CFM56_7B27E_RATES, build_corpus, icao_rows,
                      write_config, write_csv, write_golden_inputs)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestValidate:
    def test_complete_fixture_full_coverage(self, tmp_path, capsys):
        paths = build_corpus(tmp_path, n_flights=50)
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "coverage 1.000" in out

    def test_engineered_coverage_and_cause(self, tmp_path, capsys):
        paths = build_corpus(tmp_path, n_flights=10, missing_tails=1)
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "coverage 0.900" in out
        assert "MISSING_TAIL: 1" in out

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        paths = build_corpus(tmp_path, n_flights=5)
        (tmp_path / "ontime.csv").unlink()
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "ontime.csv" in err

    def test_header_mismatch_exit_2(self, tmp_path, capsys):
        paths = build_corpus(tmp_path, n_flights=5)
        write_csv(tmp_path / "b43.csv", ["wrong", "header"], [])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "header mismatch" in capsys.readouterr().err

    def test_config_from_env_var(self, tmp_path, capsys, monkeypatch):
        paths = build_corpus(tmp_path, n_flights=5)
        config = write_config(tmp_path, paths, tmp_path / "out")
        monkeypatch.setenv("AEROEMIT_CONFIG", str(config))
        assert cli.main(["validate"]) == 0


class TestRun:
    def test_golden_single_flight(self, golden_config, tmp_path):
        assert cli.main(["run", "--config", str(golden_config)]) == 0
        rows = read_rows(tmp_path / "out" / "flight_emissions.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["engine_uid"] == "CFM56-7B27E"
        assert row["emissions_type"] == "737-900ER"
        assert float(row["total_co2e_kg"]) == pytest.approx(43265.46, rel=0.01)
        assert float(row["per_seat_co2e_kg"]) == pytest.approx(240.36, rel=0.01)

    def test_all_outputs_written(self, golden_config, tmp_path):
        cli.main(["run", "--config", str(golden_config)])
        from aeroemit.pipeline import OUTPUT_FILES
        for name in OUTPUT_FILES:
            assert (tmp_path / "out" / name).is_file()
        coverage = json.loads((tmp_path / "out" / "coverage.json").read_text(encoding="utf-8"))
        assert coverage["computed_flights"] == 1
        assert coverage["coverage"] == 1.0

    def test_nonfinite_flight_row_rejected_not_fatal(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        with open(paths["ontime"], "a", encoding="utf-8") as fh:
            fh.write("2021-09-02,DL,2442,N815DN,ATL,PHL,inf,7.0,15.0,666\n")
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        assert "computed 1 of 1 flights" in capsys.readouterr().out
        assert len(read_rows(tmp_path / "out" / "flight_emissions.csv")) == 1

    def test_empty_flight_table(self, tmp_path):
        paths = write_golden_inputs(tmp_path)
        write_csv(tmp_path / "ontime.csv",
                  ["flight_date", "carrier", "flight_number", "tail_number",
                   "origin", "dest", "air_time_min", "taxi_in_min",
                   "taxi_out_min", "distance_mi"], [])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        assert read_rows(tmp_path / "out" / "flight_emissions.csv") == []
        coverage = json.loads((tmp_path / "out" / "coverage.json").read_text(encoding="utf-8"))
        assert coverage["total_flights"] == 0

    def test_rerun_byte_identical(self, tmp_path):
        paths = build_corpus(tmp_path, n_flights=120)
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        first = {p.name: p.read_bytes()
                 for p in sorted((tmp_path / "out").iterdir())}
        assert cli.main(["run", "--config", str(config)]) == 0
        second = {p.name: p.read_bytes()
                  for p in sorted((tmp_path / "out").iterdir())}
        assert first == second

    def test_provenance_flags_in_output(self, tmp_path):
        paths = build_corpus(tmp_path, n_flights=80)
        config = write_config(tmp_path, paths, tmp_path / "out")
        cli.main(["run", "--config", str(config)])
        flags = {row["provenance"]
                 for row in read_rows(tmp_path / "out" / "flight_emissions.csv")}
        assert any("ENGINE_EXACT" in f for f in flags)

    def test_unep_config_adds_baseline_column(self, tmp_path):
        paths = build_corpus(tmp_path, n_flights=10)
        config = write_config(tmp_path, paths, tmp_path / "out",
                              extra={"unep_short": "0.2", "unep_long": "0.1",
                                     "unep_cutoff_mi": "700"})
        cli.main(["run", "--config", str(config)])
        rows = read_rows(tmp_path / "out" / "scatter_seat_mile.csv")
        assert "unep_baseline" in rows[0]
        for row in rows:
            expected = "0.2" if float(row["distance_mi"]) < 700 else "0.1"
            assert row["unep_baseline"].startswith(expected)

    def test_negative_zero_config_numbers_print_no_negative_zero(self, tmp_path):
        """-0 is in range for a UNEP constant or a CO2e factor; it is stored as
        +0.0, so no output cell reads -0.000000 or -0.00."""
        paths = build_corpus(tmp_path, n_flights=50)
        config = write_config(tmp_path, paths, tmp_path / "out", extra={
            "unep_short": "-0", "unep_long": "-0.0", "unep_cutoff_mi": "700",
            "co2e_hc": "-0"})
        lines = config.read_text(encoding="utf-8").splitlines()
        assert {"unep_short = -0", "unep_long = -0.0", "co2e_hc = -0"} <= set(lines)
        assert cli.main(["run", "--config", str(config)]) == 0
        rows = read_rows(tmp_path / "out" / "scatter_seat_mile.csv")
        assert {row["unep_baseline"] for row in rows} == {"0.000000"}
        for name in pipeline.OUTPUT_FILES:
            text = (tmp_path / "out" / name).read_text(encoding="utf-8")
            assert not re.search(r"(^|[,\s])-0\.0*($|[,\s])", text, re.MULTILINE), name

    def test_negative_zero_input_cells_print_no_negative_zero(self, tmp_path):
        """-0 in an input table is stored as +0.0, as a config number is."""
        paths = write_golden_inputs(tmp_path)
        duration = B739ER_CCD_KNOTS[5][0]
        write_csv(paths["ontime"], ingest.ONTIME_TABLE.header, [
            ["2021-09-01", "DL", "2441", "N815DN", "PHL", "ATL", "-0", "7.43", "15.42", "666"],
            ["2021-09-01", "DL", "2442", "N815DN", "PHL", "ATL", duration, "7.43", "15.42",
             "666"]])
        write_csv(paths["bada_ccd"], ingest.BADA_CCD_TABLE.header,
                  [["737-900ER", d, "-0" if d == duration else hc, co2, co, nox]
                   for d, hc, co2, co, nox in B739ER_CCD_KNOTS])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        no_air_time, on_knot = read_rows(tmp_path / "out" / "flight_emissions.csv")
        assert no_air_time["air_time_min"] == "0.0"
        assert on_knot["ccd_hc_kg"] == "0.00"

    def test_no_unep_config_omits_column(self, golden_config, tmp_path):
        cli.main(["run", "--config", str(golden_config)])
        rows = read_rows(tmp_path / "out" / "scatter_seat_mile.csv")
        assert "unep_baseline" not in rows[0]

    def test_per_engine_multiplier_mode(self, tmp_path):
        paths = write_golden_inputs(tmp_path)
        single = write_config(tmp_path, paths, tmp_path / "out1")
        cli.main(["run", "--config", str(single)])
        per_engine = write_config(tmp_path, paths, tmp_path / "out2",
                                  extra={"engine_multiplier_mode": "per-engine"})
        cli.main(["run", "--config", str(per_engine)])
        lto1 = float(read_rows(tmp_path / "out1" / "flight_emissions.csv")[0]["lto_co2_kg"])
        lto2 = float(read_rows(tmp_path / "out2" / "flight_emissions.csv")[0]["lto_co2_kg"])
        # serialized values carry 2-decimal rounding
        assert lto2 == pytest.approx(2 * lto1, abs=0.011)

    def test_cells_with_commas_and_quotes_round_trip(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        write_csv(paths["ontime"], ingest.ONTIME_TABLE.header,
                  [["2021-09-01", "D,L", '24"41', "N815DN", "P,HL", "ATL",
                    "124", "7.43", "15.42", "666"]])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        outdir = tmp_path / "out"
        for name in pipeline.OUTPUT_FILES[:-1]:
            with open(outdir / name, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), name
        flight = read_rows(outdir / "flight_emissions.csv")[0]
        assert (flight["carrier"], flight["flight_number"], flight["origin"]) == (
            "D,L", '24"41', "P,HL")
        for name in ("scatter_co2e.csv", "scatter_seat_mile.csv"):
            assert read_rows(outdir / name)[0]["carrier"] == "D,L"
        assert {r["airport"] for r in read_rows(outdir / "airport_lto.csv")} == {
            "P,HL", "ATL"}
        [airline] = read_rows(outdir / "airline_summary.csv")
        assert airline["carrier"] == "D,L"

        capsys.readouterr()
        assert cli.main(["report", str(outdir)]) == 0
        total = float(airline["total_co2e_kg"])
        assert f"   D,L  {total:>16,.2f}  (1/1 flights)\n" in capsys.readouterr().out


class TestReport:
    def run_corpus(self, tmp_path, n=60):
        paths = build_corpus(tmp_path, n_flights=n)
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        return tmp_path / "out"

    def test_airports_ranked_descending(self, tmp_path, capsys):
        outdir = self.run_corpus(tmp_path)
        assert cli.main(["report", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "Top airports by local LTO CO2e" in out
        rows = read_rows(outdir / "airport_lto.csv")
        values = [float(r["lto_co2e_kg"]) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_single_flight_lists_one_airline_two_airports(self, golden_config,
                                                          tmp_path, capsys):
        cli.main(["run", "--config", str(golden_config)])
        assert cli.main(["report", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "DL" in out
        assert len(read_rows(tmp_path / "out" / "airport_lto.csv")) == 2

    def test_empty_outputs_message(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        write_csv(tmp_path / "ontime.csv",
                  ["flight_date", "carrier", "flight_number", "tail_number",
                   "origin", "dest", "air_time_min", "taxi_in_min",
                   "taxi_out_min", "distance_mi"], [])
        config = write_config(tmp_path, paths, tmp_path / "out")
        cli.main(["run", "--config", str(config)])
        assert cli.main(["report", str(tmp_path / "out")]) == 0
        assert "no computed flights" in capsys.readouterr().out

    def test_negative_totals_read(self, tmp_path, capsys):
        """A flight below the first CCD knot extrapolates to negative CCD
        masses; `report` reads the totals `run` writes for it."""
        paths = write_golden_inputs(tmp_path)
        write_csv(paths["ontime"], ingest.ONTIME_TABLE.header,
                  [["2021-09-01", "DL", "2441", "N815DN", "PHL", "ATL", "0", "7.43", "15.42",
                    "666"]])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["run", "--config", str(config)]) == 0
        breakdown = read_rows(tmp_path / "out" / "gas_breakdown.csv")
        assert any(row["raw_kg"].startswith("-") for row in breakdown)
        assert cli.main(["report", str(tmp_path / "out")]) == 0

    def test_missing_outputs_exit_3(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "empty")]) == 3
        assert "missing run outputs" in capsys.readouterr().err

    def test_missing_column_exit_3(self, tmp_path, capsys):
        outdir = self.run_corpus(tmp_path, n=10)
        (outdir / "airline_summary.csv").write_text("carrier\nAA\n", encoding="utf-8")
        assert cli.main(["report", str(outdir)]) == 3
        assert capsys.readouterr().err == (
            f"error: {outdir / 'airline_summary.csv'}: header mismatch, expected "
            f"{pipeline.AIRLINE_SUMMARY_TABLE.header}, got ['carrier']\n")

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        outdir = self.run_corpus(tmp_path, n=10)
        capsys.readouterr()
        assert cli.main(["report", str(outdir)]) == 0
        expected = capsys.readouterr().out
        path = outdir / "airline_summary.csv"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert cli.main(["report", str(outdir)]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("name, column", [
        ("airline_summary.csv", "emission_flights"),
        ("airline_summary.csv", "total_co2e_kg"),
        ("airport_lto.csv", "lto_co2e_kg"),
        ("gas_breakdown.csv", "co2e_kg"),
    ])
    def test_cell_not_a_number_exit_3(self, tmp_path, capsys, name, column):
        outdir = self.run_corpus(tmp_path, n=10)
        rows = read_rows(outdir / name)
        rows[0][column] = "abc"
        write_csv(outdir / name, list(rows[0]), [list(r.values()) for r in rows])
        assert cli.main(["report", str(outdir)]) == 3
        kind = "an integer" if column == "emission_flights" else "a number"
        assert capsys.readouterr().err == (
            f"error: {outdir / name} line 2: {column} must be {kind}, got 'abc'\n")

    def test_nonfinite_cell_exit_3(self, tmp_path, capsys):
        """A nan total would otherwise rank its airline first."""
        outdir = self.run_corpus(tmp_path, n=10)
        path = outdir / "airline_summary.csv"
        rows = read_rows(path)
        rows[0]["total_co2e_kg"] = "nan"
        write_csv(path, list(rows[0]), [list(r.values()) for r in rows])
        assert cli.main(["report", str(outdir)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path} line 2: total_co2e_kg must be finite, got nan\n")


class TestInputErrorsExit2:
    """Config numbers, matching config tables and CCD distances: exit 2, no traceback."""

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_config_not_utf8(self, golden_config, tmp_path, capsys, command):
        with open(golden_config, "ab") as fh:
            fh.write(b"# caf\xe9\n")
        assert cli.main([command, "--config", str(golden_config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {golden_config}: not UTF-8 text (byte 0xe9")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output_dir, culprit", [
        ("afile", "afile"), ("afile/out", "afile")], ids=["is-a-file", "parent-is-a-file"])
    def test_output_dir_not_a_directory(self, tmp_path, capsys, monkeypatch,
                                        output_dir, culprit):
        (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
        paths = write_golden_inputs(tmp_path)
        config = write_config(tmp_path, paths, tmp_path / output_dir)

        def no_load(cfg):
            raise AssertionError("inputs loaded before output_dir was checked")

        monkeypatch.setattr(pipeline, "open_inputs", no_load)
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"output_dir: {tmp_path / culprit} is not a directory" in err

    @pytest.mark.parametrize("key, command", [
        ("output_dir", "run"), ("ontime", "validate"), ("ontime", "run")])
    def test_empty_path_exit_2(self, tmp_path, capsys, key, command):
        paths = write_golden_inputs(tmp_path)
        config = write_config(tmp_path, paths, tmp_path / "out")
        text = config.read_text(encoding="utf-8")
        config.write_text(re.sub(rf"^{key} = .*$", f"{key} =", text, flags=re.M),
                          encoding="utf-8")
        before = sorted(tmp_path.iterdir())
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {key}: empty path\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_flight_header_reported_before_reference_header(self, tmp_path, capsys,
                                                             command):
        paths = write_golden_inputs(tmp_path)
        write_csv(paths["ontime"], ["wrong", "ontime"], [])
        write_csv(paths["b43"], ["wrong", "b43"], [])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{paths['ontime']}: header mismatch" in err
        assert "b43" not in err
        assert not (tmp_path / "out").exists()

    def test_bad_reference_header_leaves_no_output_dir(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        write_csv(paths["b43"], ["wrong", "b43"], [])
        config = write_config(tmp_path, paths, tmp_path / "out" / "nested")
        assert cli.main(["run", "--config", str(config)]) == 2
        assert f"{paths['b43']}: header mismatch" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("jaccard_threshold", "nan"), ("co2e_nox", "nan"), ("co2e_co2", "inf"),
        ("unep_cutoff_mi", "-inf"),
    ])
    def test_nonfinite_config_number(self, tmp_path, capsys, key, value):
        paths = write_golden_inputs(tmp_path)
        extra = {"unep_short": "0.2", "unep_long": "0.1", "unep_cutoff_mi": "700"}
        extra[key] = value
        config = write_config(tmp_path, paths, tmp_path / "out", extra=extra)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {key} must be finite, got {float(value)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, reason", [
        ("jaccard_threshold", "1.5", "must be <= 1, got 1.5"),
        ("co2e_hc", "-1", "must be >= 0.0, got -1.0"),
        ("unep_short", "x", "must be a number, got 'x'"),
    ])
    def test_config_number_refused(self, tmp_path, capsys, key, value, reason):
        paths = write_golden_inputs(tmp_path)
        extra = {"unep_short": "0.2", "unep_long": "0.1", "unep_cutoff_mi": "700"}
        extra[key] = value
        config = write_config(tmp_path, paths, tmp_path / "out", extra=extra)
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {key} {reason}\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("header, row, fragment", [
        (["missing", "surrogate", "factor"], ["737-8", "737-800", "0.85"], "header mismatch"),
        (None, ["737-8", "737-800", "abc"], "line 2: efficiency_factor must be a number"),
        (None, ["737-8", "737-800", "nan"], "line 2: efficiency_factor must be finite"),
        (None, ["737-8", "737-800", "0"], "line 2: efficiency_factor must be > 0.0"),
    ], ids=["bad-header", "not-a-number", "nan", "zero"])
    def test_bad_family_fallback(self, tmp_path, capsys, command, header, row, fragment):
        paths = write_golden_inputs(tmp_path)
        fallback = tmp_path / "fallback.csv"
        write_csv(fallback, header or ["missing_type", "surrogate_type", "efficiency_factor"],
                  [row])
        config = write_config(tmp_path, paths, tmp_path / "out",
                              extra={"family_fallback": str(fallback)})
        assert cli.main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err

    def test_repeated_override_key(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        override = tmp_path / "override.csv"
        write_csv(override, ["canonical_type", "engine_uid"],
                  [["737-900ER", "CFM56-7B27E"], ["737-900ER", "CFM56-7B27E"]])
        config = write_config(tmp_path, paths, tmp_path / "out",
                              extra={"popular_engine_override": str(override)})
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "line 3: duplicate canonical_type 737-900ER" in capsys.readouterr().err

    def _distance_ccd(self, tmp_path, distances):
        paths = write_golden_inputs(tmp_path)
        write_csv(paths["bada_ccd"],
                  ["canonical_type", "duration_min", "hc_kg", "co2_kg", "co_kg", "nox_kg",
                   "distance_mi"],
                  [["737-900ER", d, hc, co2, co, nox, miles]
                   for (d, hc, co2, co, nox), miles in zip(B739ER_CCD_KNOTS, distances)])
        return write_config(tmp_path, paths, tmp_path / "out",
                            extra={"interpolation_key": "distance"})

    def test_distance_interpolation_runs(self, tmp_path):
        config = self._distance_ccd(tmp_path, [8 * k[0] for k in B739ER_CCD_KNOTS])
        assert cli.main(["run", "--config", str(config)]) == 0
        assert len(read_rows(tmp_path / "out" / "flight_emissions.csv")) == 1

    def test_repeated_distance_exit_2(self, tmp_path, capsys):
        # The 666 mi flight extrapolates below the two knots at 700 mi.
        distances = [700, 700] + [8 * k[0] + 700 for k in B739ER_CCD_KNOTS[2:]]
        config = self._distance_ccd(tmp_path, distances)
        assert cli.main(["run", "--config", str(config)]) == 2
        assert "type 737-900ER has two knots at distance_mi 700.0" in capsys.readouterr().err


class TestOverflowingArithmetic:
    """Finite inputs whose emissions or totals are beyond a double: no traceback.
    `validate` does not compute, so it counts such a flight as resolvable."""

    @pytest.mark.parametrize("table, column, value", [
        ("ontime", "taxi_in_min", "1e308"), ("ontime", "air_time_min", "1e308"),
        ("icao_engines", "NOX,IDLE", "1e306")], ids=["taxi-in", "air-time", "nox-idle-rate"])
    def test_nonfinite_flight_counted_not_written(self, tmp_path, capsys, table, column,
                                                  value):
        paths = write_golden_inputs(tmp_path)
        if table == "ontime":
            (row,) = read_rows(paths["ontime"])
            write_csv(paths["ontime"], list(row),
                      [[value if k == column else v for k, v in row.items()]])
        else:
            gas, mode = column.split(",")
            write_csv(paths["icao_engines"], ingest.ICAO_ENGINES_TABLE.header, icao_rows(
                "CFM56-7B27E", {**CFM56_7B27E_RATES, (gas, mode): float(value)}))
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 0
        assert "1 resolvable" in capsys.readouterr().out
        assert cli.main(["run", "--config", str(config)]) == 0
        assert "computed 0 of 1 flights" in capsys.readouterr().out
        coverage = json.loads((tmp_path / "out" / "coverage.json").read_text(encoding="utf-8"))
        assert coverage["incomputable_causes"] == {"NONFINITE_EMISSIONS": 1}
        assert read_rows(tmp_path / "out" / "flight_emissions.csv") == []

    def test_seat_count_beyond_a_double_rejected(self, tmp_path, capsys):
        """A seat count a float cannot hold would overflow seats * distance."""
        paths = write_golden_inputs(tmp_path)
        with open(paths["b43"], "a", encoding="utf-8") as fh:
            fh.write("N1,B739ER,1" + "0" * 400 + ",2\n")
        with open(paths["ontime"], "a", encoding="utf-8") as fh:
            fh.write("2021-09-02,DL,2442,N1,ATL,PHL,124,7.43,15.42,666\n")
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "b43: 1 accepted, 1 rejected\n  line 3: seat_count is too large" in out
        assert cli.main(["run", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert "computed 1 of 2 flights" in captured.out
        assert "Traceback" not in captured.err

    def test_airline_total_beyond_a_double_exit_2(self, tmp_path, capsys):
        """Each flight's CO2e is finite; the sum of 20 is not."""
        paths = write_golden_inputs(tmp_path)
        header, row = paths["ontime"].read_text(encoding="utf-8").splitlines()
        paths["ontime"].write_text("\n".join([header] + [row] * 20) + "\n", encoding="utf-8")
        outdir = tmp_path / "out"
        (tmp_path / "ok").mkdir()
        assert cli.main(["run", "--config",
                         str(write_config(tmp_path / "ok", paths, outdir))]) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        config = write_config(tmp_path, paths, outdir, extra={"co2e_nox": "1e306"})
        assert cli.main(["validate", "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {outdir / 'airline_summary.csv'}: ")
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


class TestByteOrderMark:
    """Excel's "CSV UTF-8" starts a file with a UTF-8 byte-order mark."""

    @staticmethod
    def add_bom(path):
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())

    @pytest.mark.parametrize("table", ["ontime", "b43"])
    def test_input_table(self, tmp_path, capsys, table):
        paths = write_golden_inputs(tmp_path)
        self.add_bom(paths[table])
        config = write_config(tmp_path, paths, tmp_path / "out")
        assert cli.main(["validate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert f"{table}: 1 accepted, 0 rejected" in out
        assert "coverage 1.000" in out

    def test_matching_table(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        rules = tmp_path / "rules.csv"
        rules.write_bytes(matching.DEFAULT_NORMALIZATION_RULES.read_bytes())
        self.add_bom(rules)
        cfg = write_config(tmp_path, paths, tmp_path / "out",
                           extra={"normalization_rules": rules})
        assert cli.main(["validate", "--config", str(cfg)]) == 0
        assert "coverage 1.000" in capsys.readouterr().out

    def test_config(self, golden_config, tmp_path, capsys):
        self.add_bom(golden_config)
        assert cli.main(["run", "--config", str(golden_config)]) == 0
        assert len(read_rows(tmp_path / "out" / "flight_emissions.csv")) == 1

    def test_config_not_utf8_offset_counts_the_mark(self, golden_config, capsys):
        self.add_bom(golden_config)
        with open(golden_config, "ab") as fh:
            fh.write(b"# caf\xe9\n")
        offset = golden_config.read_bytes().index(b"\xe9")
        assert cli.main(["validate", "--config", str(golden_config)]) == 2
        assert f"(byte 0xe9 at offset {offset})" in capsys.readouterr().err


class TestClosedPipe:
    def test_no_traceback_exit_1(self, tmp_path):
        """`aeroemit validate | head -1`: the reader closes the pipe while the
        command still writes. Each refused cell is quoted in its reason, so
        the output outgrows the pipe's buffer."""
        paths = write_golden_inputs(tmp_path)
        with open(paths["ontime"], "a", encoding="utf-8") as fh:
            for _ in range(20):
                fh.write(f"2021-09-02,DL,2442,N815DN,ATL,PHL,{'x' * 20000},7.0,15.0,666\n")
        config = write_config(tmp_path, paths, tmp_path / "out")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with subprocess.Popen([sys.executable, "-m", "aeroemit.cli", "validate", "--config",
                               str(config)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline() == b"ontime: 1 accepted, 20 rejected\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err


class TestOneComputePath:
    """Per-flight compute runs in one thread; `threads` selects nothing."""

    def test_package_has_no_thread_pool(self):
        package = Path(cli.__file__).parent
        for path in package.glob("*.py"):
            source = path.read_text(encoding="utf-8")
            for name in ("ThreadPoolExecutor", "concurrent.futures", "os.cpu_count"):
                assert name not in source, f"{path.name} uses {name}"

    def test_run_config_has_no_threads_field(self):
        assert "threads" not in {f.name for f in dataclasses.fields(config.RunConfig)}

    def test_threads_config_key_exit_2(self, tmp_path, capsys):
        paths = write_golden_inputs(tmp_path)
        cfg = write_config(tmp_path, paths, tmp_path / "out", extra={"threads": "2"})
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert "unknown config keys: threads" in capsys.readouterr().err

    def test_threads_flag_ignored_and_starts_no_thread(self, tmp_path, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        paths = build_corpus(tmp_path, n_flights=300)
        outputs = {}
        for threads in ("1", "4"):
            outdir = tmp_path / f"out{threads}"
            cfg = write_config(tmp_path, paths, outdir)
            assert cli.main(["run", "--config", str(cfg), "--threads", threads]) == 0
            outputs[threads] = {name: (outdir / name).read_bytes()
                                for name in pipeline.OUTPUT_FILES}
        assert outputs["1"] == outputs["4"]


class TestDefaultsHaveOneSource:
    def test_required_keys_alone_load_to_run_config_defaults(self, tmp_path):
        paths = write_golden_inputs(tmp_path)
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in paths.items()),
                        encoding="utf-8")
        assert config.load_config(path) == config.RunConfig(**paths)

    def test_choice_defaults_are_options(self):
        for key, options in config.CHOICES.items():
            assert getattr(config.RunConfig, key) in options

    def test_readme_states_the_defaults(self):
        paragraph = " ".join(TestReadmeMatchesCode.readme.split(
            "### Config file\n\n", 1)[1].split("\n\n", 1)[0].split())
        defaults = config.RunConfig(*(Path(),) * 6)

        def stated(pattern):
            match = re.search(pattern, paragraph)
            assert match, f"README states no default matching {pattern}"
            return match.group(1)

        assert Path(stated(r"`output_dir` \(default `([^`]*)`")) == defaults.output_dir
        assert float(stated(r"`jaccard_threshold` \(default ([\d.]+)")) == \
            defaults.jaccard_threshold
        for key in config.CHOICES:
            assert stated(rf"`{key}` \([^()]*default `([^`]*)`") == getattr(defaults, key)
        co2e_keys = re.escape("/".join(f"`{key}`" for key in config.CO2E_KEYS))
        factors = stated(co2e_keys + r" \(defaults ([^;)]*)").split(", ")
        assert [float(value) for value in factors] == [
            getattr(defaults.co2e_factors, f.name)
            for f in dataclasses.fields(defaults.co2e_factors)]


class TestReadmeMatchesCode:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def test_config_keys(self):
        paragraph = self.readme.split("### Config file\n\n", 1)[1].split("\n\n", 1)[0]
        required, optional = paragraph.split("Required:", 1)[1].split("Optional:", 1)

        def keys(text):
            return re.findall(r"`([^`]*)`", re.sub(r"\([^()]*\)", "", text))

        assert keys(required) == list(config.REQUIRED_TABLE_KEYS)
        assert keys(optional) == list(config.OPTIONAL_PATH_KEYS + config.SCALAR_KEYS)

    def test_cli_examples_parse(self):
        block = self.readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line, comments=True) for line in block.splitlines()]
        assert examples and all(argv[0] == "aeroemit" for argv in examples)
        for argv in examples:
            try:
                cli.build_parser().parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")
