"""Ingest / emit round-trip and parse-error tests."""

import errno
import gc
import hashlib
import json
import math
import os
import platform
import re
import sys
import threading
import time
import warnings
from dataclasses import replace
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _oracles import format_rows
from mrio_footprint import algebra, fileio, fixtures, model
from mrio_footprint.cli import main
from mrio_footprint.errors import DimensionMismatch, MrioError, ParseError


@pytest.fixture()
def written_set(tmp_path):
    account = fixtures.fixture(2, 3, 42)
    layout_path = fileio.write_account(account, tmp_path)
    return account, layout_path


class TestRoundTrip:
    def test_matrices_identical(self, written_set):
        account, layout_path = written_set
        result = fileio.ingest(layout_path)
        back = result.account
        np.testing.assert_array_equal(back.Z, account.Z)
        np.testing.assert_array_equal(back.Y, account.Y)
        np.testing.assert_array_equal(back.x, account.x)
        assert back.y_columns == account.y_columns
        assert back.index == account.index
        assert back.year == account.year
        for name, ext in account.extensions.items():
            loaded = back.extensions[name]
            np.testing.assert_array_equal(loaded.rows, ext.rows)
            assert loaded.stressors == ext.stressors
            assert loaded.unit == ext.unit
            assert loaded.kind == ext.kind
            assert loaded.direct == ext.direct
            assert loaded.material_flags == ext.material_flags

    @pytest.mark.parametrize("direct", [{"R0": 1.0, "R7": 2.0},
                                        {"R0": 1.0, "R1": 2.0},
                                        {"R0": 1.0, "R1": 2.0, "R2": 3.0, "R7": 4.0}])
    def test_direct_use_must_cover_each_region_once(self, account_357, direct):
        # The account refuses it, so the writer never sees it.
        energy = replace(account_357.extensions["energy"], direct=direct)
        with pytest.raises(DimensionMismatch, match="not one value for each account region"):
            replace(account_357, extensions=account_357.extensions | {"energy": energy})

    @pytest.mark.parametrize("field, label", [("sector", "S1\nbis"),
                                              ("category", "inventory\rchange")],
                             ids=["sector", "category"])
    def test_label_with_a_line_break_is_refused_before_any_file(self, tmp_path, field, label):
        account = fixtures.fixture(2, 3, 42)
        if field == "sector":
            account = replace(account, index=replace(account.index, sectors=("S0", label, "S2")))
        else:
            account = replace(account, y_columns=tuple(
                (region, label if category == model.CATEGORY_INVENTORY else category)
                for region, category in account.y_columns))
        with pytest.raises(ValueError) as excinfo:
            fileio.write_account(account, tmp_path / "out")
        assert str(excinfo.value) == (f"label {label!r} holds a line break, which a grid file "
                                      "cannot carry")
        assert list(tmp_path.rglob("*.tsv")) == []

    @pytest.mark.parametrize("label, relabel", [
        ("S1 ", lambda a: replace(a, index=replace(a.index, sectors=("S0", "S1 ", "S2")))),
        ("S0 ", lambda a: replace(a, index=replace(a.index, sectors=("S0", "S0 ", "S2")))),
        ("households\t", lambda a: replace(a, y_columns=tuple(
            (region, "households\t" if category == "households" else category)
            for region, category in a.y_columns))),
        (" CO2", lambda a: replace(a, extensions=a.extensions | {"emissions": replace(
            a.extensions["emissions"], stressors=(" CO2", "CH4 (CO2-eq)"))})),
    ], ids=["sector", "repeated sector", "category", "stressor"])
    def test_label_that_ingest_would_strip_is_refused_before_any_file(self, tmp_path, label,
                                                                       relabel):
        # Ingest strips the whitespace around a label, so such a label would
        # come back changed, or as a repeat of another ("S0 " of "S0").
        account = relabel(fixtures.fixture(2, 3, 42))
        with pytest.raises(ValueError) as excinfo:
            fileio.write_account(account, tmp_path / "out")
        assert str(excinfo.value) == (f"label {label!r} starts or ends with whitespace, "
                                      "which ingest strips")
        assert list(tmp_path.rglob("*.tsv")) == []

    def test_writer_is_deterministic(self, tmp_path):
        account = fixtures.fixture(2, 3, 42)
        fileio.write_account(account, tmp_path / "a")
        fileio.write_account(account, tmp_path / "b")
        for name in ("z.tsv", "y.tsv", "x.tsv", "ext_labour.tsv", "layout.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_balance_survives_round_trip(self, written_set):
        from mrio_footprint import model
        _, layout_path = written_set
        account = fileio.ingest(layout_path).account
        assert model.validate_balance(account, tol=1e-9).ok


class TestParseErrors:
    def test_non_numeric_cell_names_row_and_column(self, written_set, tmp_path):
        _, layout_path = written_set
        z_path = tmp_path / "z.tsv"
        lines = z_path.read_text().splitlines()
        cells = lines[4].split("\t")
        cells[5] = "oops"
        lines[4] = "\t".join(cells)
        z_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 5
        assert excinfo.value.column == 6
        assert "oops" in str(excinfo.value)

    @pytest.mark.parametrize("text", ["", "  "], ids=["empty", "blank"])
    def test_empty_cell_names_row_and_column(self, written_set, tmp_path, text):
        _, layout_path = written_set
        self._set_cell(tmp_path / "z.tsv", 4, 5, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
        assert (excinfo.value.row, excinfo.value.column) == (5, 6)
        assert f"non-numeric value {text!r}" in str(excinfo.value)

    def test_empty_cell_of_a_one_column_grid_names_row_and_column(self, written_set, tmp_path):
        # np.loadtxt read such a cell as a line without data: the matrix came
        # out a row short, or with the row above's value in its place.
        _, layout_path = written_set
        self._set_cell(tmp_path / "x.tsv", 3, 2, "")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (str(excinfo.value), excinfo.value.row, excinfo.value.column) == (
            f"non-numeric value '' ({tmp_path / 'x.tsv'}, row 4, column 3)", 4, 3)

    def test_parse_stopped_at_a_bad_cell_leaves_no_file_open(self, written_set, tmp_path,
                                                              monkeypatch):
        # A file object dropped while open warns from the garbage collector,
        # where the error this filter makes of it goes to the unraisable hook.
        _, layout_path = written_set
        self._set_cell(tmp_path / "z.tsv", 4, 5, "oops")
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ParseError, match="oops"):
                fileio.ingest(layout_path)
            gc.collect()
        assert [str(hook.exc_value) for hook in unraisable] == []

    @pytest.mark.parametrize("name, edit, message, row", [
        ("z.tsv", lambda lines: lines[:1], "file has no data rows", None),
        ("z.tsv", lambda lines: [lines[0], "region\tsector", *lines[2:]],
         "file has no data columns", 2),
        ("z.tsv", lambda lines: [lines[0].rsplit("\t", 1)[0], *lines[1:]],
         "header rows have different lengths", 1),
        ("x.tsv", lambda lines: [line + "\t1" for line in lines],
         "file must have exactly one value column", None),
        # Header rows and no body: the body is one empty share.
        ("z.tsv", lambda lines: lines[:2], "file has no data rows", None),
        ("y.tsv", lambda lines: lines[:2], "file has no data rows", None),
        ("x.tsv", lambda lines: lines[:1], "file has no data rows", None),
    ], ids=["no data rows", "no data columns", "header lengths", "two output columns",
            "z headers only", "y headers only", "x header only"])
    def test_grid_structure_names_the_file(self, written_set, tmp_path, name, edit, message,
                                           row):
        _, layout_path = written_set
        path = tmp_path / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.message, excinfo.value.path, excinfo.value.row) == (
            message, str(path), row)

    def test_unbalanced_quote_in_a_header_row_names_its_row(self, tmp_path):
        # A header row is one line, so the quoted cell ends where the line
        # does, and the row comes up short.
        layout_path = fileio.write_account(fixtures.fixture(5, 40, 11), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines(True)
        lines[0] = lines[0].replace("\tR0\t", '\t"R0\t', 1)
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.message, excinfo.value.path, excinfo.value.row) == (
            "header rows have different lengths", str(path), 1)

    @pytest.mark.parametrize("line, text", [
        (0, b'\t\t"' + b"\t".join(b"L%d" % k for k in range(40_000))),
        (3, b'R0\t"S0' + b"x" * 140_000 + b'"\t1'),
    ], ids=["header row", "body line"])
    def test_cell_past_the_csv_field_limit_names_its_row(self, written_set, tmp_path, line,
                                                         text):
        # csv refuses a cell longer than its field limit, which is left as it
        # is: the refusal names the file and row, and the verbs exit 1.
        _, layout_path = written_set
        path = tmp_path / "z.tsv"
        lines = path.read_bytes().split(b"\n")
        lines[line] = text
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match="field larger than field limit") as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.path, excinfo.value.row) == (str(path), line + 1)
        assert main(["validate", "--layout", str(layout_path)]) == 1

    @staticmethod
    def _set_cell(path, line, cell, text):
        lines = path.read_text().splitlines()
        cells = lines[line].split("\t")
        cells[cell] = text
        lines[line] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")

    def test_nan_cell_names_row_and_column(self, written_set, tmp_path):
        _, layout_path = written_set
        self._set_cell(tmp_path / "z.tsv", 4, 5, "nan")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 5
        assert excinfo.value.column == 6
        assert "z.tsv" in str(excinfo.value) and "nan" in str(excinfo.value)

    def test_inf_cell_names_row_and_column(self, written_set, tmp_path):
        _, layout_path = written_set
        self._set_cell(tmp_path / "ext_energy.tsv", 2, 3, "inf")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 3
        assert excinfo.value.column == 4
        assert "ext_energy.tsv" in str(excinfo.value) and "inf" in str(excinfo.value)

    def test_huge_finite_cells_pass(self, written_set, tmp_path):
        # Their sum overflows, which must not be mistaken for a non-finite cell.
        _, layout_path = written_set
        self._set_cell(tmp_path / "ext_energy.tsv", 2, 3, "1.5e308")
        self._set_cell(tmp_path / "ext_energy.tsv", 2, 4, "1.5e308")
        rows = fileio.ingest(layout_path).account.extensions["energy"].rows
        assert rows[0, 2] == rows[0, 3] == 1.5e308

    def test_non_finite_direct_use(self, written_set, tmp_path):
        _, layout_path = written_set
        self._set_cell(tmp_path / "direct_energy.tsv", 2, 1, "-inf")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.row, excinfo.value.column) == (3, 2)

    # A direct-use value is read by the grid-cell rule, and is a use: never negative.
    @pytest.mark.parametrize("text, message", [
        ("1_000", "non-numeric value '1_000'"), ("\u0661\u0662", "non-numeric value '\u0661\u0662'"),
        ('"1\t2"', "non-numeric value '1\\t2'"), ("-5", "negative value -5.0")])
    def test_direct_use_value_follows_the_grid_cell_rule(self, written_set, tmp_path, text,
                                                         message):
        _, layout_path = written_set
        direct_path = tmp_path / "direct_energy.tsv"
        lines = direct_path.read_text(encoding="utf-8").splitlines()
        assert lines[2].startswith("R1\t")
        lines[2] = f"R1\t{text}"
        direct_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        error = excinfo.value
        assert (error.message, error.path, error.row, error.column) == (
            message, str(direct_path), 3, 2)

    # A quoted value cell is one cell, so one that holds the delimiter is not a number.
    @pytest.mark.parametrize("name, line, cell", [
        ("z.tsv", 4, 5), ("y.tsv", 3, 2), ("x.tsv", 1, 2), ("ext_energy.tsv", 2, 3),
        ("ext_labour.tsv", 3, 1)])
    def test_quoted_value_holding_the_delimiter_names_row_and_column(self, written_set, tmp_path,
                                                                     name, line, cell):
        _, layout_path = written_set
        path = tmp_path / name
        self._set_cell(path, line, cell, '"1\t2"')
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        error = excinfo.value
        assert (error.message, error.path, error.row, error.column) == (
            "non-numeric value '1\\t2'", str(path), line + 1, cell + 1)

    @pytest.mark.parametrize("name, line, cell, row", [
        ("z.tsv", 4, 2, 5), ("z.tsv", 4, 0, 5), ("z.tsv", 1, 3, 2), ("ext_energy.tsv", 2, 3, 3),
        ("x.tsv", 0, 2, 1)])
    def test_byte_that_is_not_utf8_names_file_and_row(self, written_set, tmp_path, name, line,
                                                      cell, row):
        # Header and body lines are decoded one line at a time: a bad byte
        # is named by its own row.
        _, layout_path = written_set
        path = tmp_path / name
        lines = path.read_bytes().split(b"\n")
        cells = lines[line].split(b"\t")
        cells[cell] += b"\xe9"
        lines[line] = b"\t".join(cells)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        error = excinfo.value
        assert (error.message, error.path, error.row, error.column) == (
            "text is not UTF-8", str(path), row, None)

    def test_table_that_is_not_utf8_names_the_file(self, written_set, tmp_path):
        _, layout_path = written_set
        direct_path = tmp_path / "direct_energy.tsv"
        direct_path.write_bytes(direct_path.read_bytes().replace(b"R1", b"R\xe91"))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.message, excinfo.value.path) == ("text is not UTF-8",
                                                               str(direct_path))

    def test_repeated_direct_use_region(self, written_set, tmp_path):
        _, layout_path = written_set
        direct_path = tmp_path / "direct_energy.tsv"
        direct_path.write_text(direct_path.read_text() + "R0\t1000\n")
        with pytest.raises(ParseError, match="row label 'R0' is repeated") as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path.endswith("direct_energy.tsv")
        assert excinfo.value.row == 4

    def test_direct_use_without_a_region(self, written_set, tmp_path):
        _, layout_path = written_set
        direct_path = tmp_path / "direct_energy.tsv"
        lines = direct_path.read_text().splitlines(True)
        assert lines[1].startswith("R0\t")
        direct_path.write_text("".join(lines[:1] + lines[2:]))
        with pytest.raises(ParseError, match="'R0' has no direct-use row") as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path.endswith("direct_energy.tsv")

    def test_direct_use_of_a_region_outside_the_account(self, written_set, tmp_path):
        _, layout_path = written_set
        direct_path = tmp_path / "direct_energy.tsv"
        direct_path.write_text(direct_path.read_text() + "R9\t5\n")
        with pytest.raises(ParseError, match="'R9' is not a region") as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path.endswith("direct_energy.tsv")
        assert excinfo.value.row == 4

    def test_extension_with_missing_column(self, written_set, tmp_path):
        _, layout_path = written_set
        ext_path = tmp_path / "ext_energy.tsv"
        lines = ext_path.read_text().splitlines()
        trimmed = ["\t".join(line.split("\t")[:-1]) for line in lines]
        ext_path.write_text("\n".join(trimmed) + "\n")
        # fixture(2, 3, 42): one stressor column, then 6 region-sector columns.
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        error = excinfo.value
        assert (error.path, error.row, error.column) == (str(ext_path), 2, 7)
        assert error.message == ("extension columns do not match the transaction index: "
                                 "found nothing where 'R1 / S2' is expected")

    def test_ragged_middle_row_names_row_and_column(self, written_set, tmp_path):
        _, layout_path = written_set
        z_path = tmp_path / "z.tsv"
        lines = z_path.read_text().splitlines()
        lines[4] = lines[4].rsplit("\t", 1)[0]
        z_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        width = len(lines[1].split("\t"))
        assert (excinfo.value.row, excinfo.value.column) == (5, width)
        assert "z.tsv" in str(excinfo.value)
        assert f"expected {width} cells, found {width - 1}" in str(excinfo.value)

    def test_hash_cell_is_not_a_comment(self, written_set, tmp_path):
        # A leading "#" must not turn the rest of the row into a comment.
        _, layout_path = written_set
        self._set_cell(tmp_path / "z.tsv", 4, 2, "#0.5")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.row, excinfo.value.column) == (5, 3)
        assert "z.tsv" in str(excinfo.value) and "#0.5" in str(excinfo.value)

    # "1_000" is a Python float literal but not a number in a data file.
    @pytest.mark.parametrize("text", ["1.0x", "1_000"])
    def test_non_numeric_cell_in_last_row(self, written_set, tmp_path, text):
        _, layout_path = written_set
        z_path = tmp_path / "z.tsv"
        last = len(z_path.read_text().splitlines()) - 1
        self._set_cell(z_path, last, -1, text)
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        width = len(z_path.read_text().splitlines()[1].split("\t"))
        assert (excinfo.value.row, excinfo.value.column) == (last + 1, width)
        assert "z.tsv" in str(excinfo.value) and text in str(excinfo.value)

    def test_ragged_row_is_a_parse_error(self, written_set, tmp_path):
        _, layout_path = written_set
        y_path = tmp_path / "y.tsv"
        lines = y_path.read_text().splitlines()
        lines[3] += "\t1.0"
        y_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 4

    def test_repeated_sector_label_names_row(self, tmp_path):
        layout_path = fileio.write_account(fixtures.fixture(2, 3, 5), tmp_path)
        z_path = tmp_path / "z.tsv"
        lines = z_path.read_text().replace("S1", "S0").splitlines()
        lines.insert(3, "")  # a blank line is not a row, but it is a line
        z_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 5
        assert "z.tsv" in str(excinfo.value) and "'R0 / S0' is repeated" in str(excinfo.value)

    def test_repeated_stressor_label_names_row(self, tmp_path):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        ext_path = tmp_path / "ext_emissions.tsv"
        ext_path.write_text(ext_path.read_text().replace("CH4 (CO2-eq)", "CO2"))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 4
        assert "ext_emissions.tsv" in str(excinfo.value) and "'CO2'" in str(excinfo.value)

    def test_repeated_final_demand_row_names_row(self, written_set, tmp_path):
        _, layout_path = written_set
        y_path = tmp_path / "y.tsv"
        lines = y_path.read_text().splitlines()
        lines[3] = lines[2]
        y_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 4
        assert "y.tsv" in str(excinfo.value) and "'R0 / S0' is repeated" in str(excinfo.value)

    @pytest.mark.parametrize("name, line, cell", [("z.tsv", 4, 5), ("x.tsv", 2, 2),
                                                  ("ext_energy.tsv", 2, 3)])
    def test_negative_cell_names_row_and_column(self, written_set, tmp_path, name, line, cell):
        _, layout_path = written_set
        # Final demand keeps its negative inventory changes.
        assert (fileio.ingest(layout_path).account.Y < 0).any()
        self._set_cell(tmp_path / name, line, cell, "-0.25")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert (excinfo.value.row, excinfo.value.column) == (line + 1, cell + 1)
        assert name in str(excinfo.value) and "negative value -0.25" in str(excinfo.value)

    @pytest.mark.parametrize("name, message, row", [
        ("z.tsv", "row labels do not match column labels", 17),
        ("y.tsv", "final-demand rows do not match the transaction index", 17),
        ("x.tsv", "total-output rows do not match the transaction index", 16)])
    def test_missing_last_row_names_the_line_after_the_body(self, tmp_path, name, message, row):
        # fixture(3, 5, 7): 15 body rows under two header lines, one in x.tsv.
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / name
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        for _ in ("cold", "warm"):
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.message, error.path, error.row, error.column) == (
                f"{message}: found nothing where 'R2 / S4' is expected", str(path), row, None)

    def test_material_stressor_without_used_or_unused_flag(self, tmp_path):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        descriptor = json.loads(layout_path.read_text())
        material = next(e for e in descriptor["extensions"] if e["name"] == "material")
        material["material_flags"]["metal ores (used)"] = "usd"
        del material["material_flags"]["unused extraction"]
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        message = str(excinfo.value)
        assert excinfo.value.path == str(layout_path)
        assert "'material'" in message and "'metal ores (used)'" in message

    def test_material_flag_naming_no_stressor(self, tmp_path):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        descriptor = json.loads(layout_path.read_text())
        k, material = next((k, e) for k, e in enumerate(descriptor["extensions"])
                           if e["name"] == "material")
        material["material_flags"]["metal ores (usde)"] = "unused"
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        message = str(excinfo.value)
        assert excinfo.value.path == str(layout_path)
        assert f"layout.extensions[{k}].material_flags" in message
        assert "'material'" in message and "'metal ores (usde)'" in message

    def test_warning_for_a_row_the_account_lacks(self, tmp_path):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        descriptor = json.loads(layout_path.read_text())
        descriptor["ingest_warnings"] = [
            {"region": "R0", "sector": "S1", "note": "known gap"},
            {"region": "R9", "sector": "S77", "note": "no such row"}]
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path == str(layout_path)
        assert "layout.ingest_warnings[1]" in str(excinfo.value)
        assert "(R9, S77)" in str(excinfo.value)

    # fixture(3, 5, 7): z.tsv and y.tsv have two header lines, x.tsv one. Each
    # edit swaps two lines, drops one, or swaps two cells of the sector header
    # line; a blank line after the headers then moves every body row down one.
    @pytest.mark.parametrize("name, edit, message, row, column", [
        ("z.tsv", ("swap", 3, 4), "row labels do not match column labels", 5, None),
        ("z.tsv", ("drop", 3), "row labels do not match column labels", 5, None),
        ("y.tsv", ("swap", 3, 4), "final-demand rows do not match the transaction index",
         5, None),
        ("x.tsv", ("swap", 2, 3), "total-output rows do not match the transaction index",
         4, None),
        ("z.tsv", ("cells", 3, 4), "column labels do not match row labels", 2, 4),
        ("ext_labour.tsv", ("cells", 2, 3),
         "extension columns do not match the transaction index", 2, 3),
    ], ids=["z rows swapped", "z row dropped", "y rows swapped", "x rows swapped",
            "z header cells swapped", "extension header cells swapped"])
    def test_label_mismatch_names_its_row_or_column(self, tmp_path, name, edit, message,
                                                    row, column):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        header_rows = 1 if name == "x.tsv" else 2
        kind, a, *b = edit
        if kind == "swap":
            lines[a], lines[b[0]] = lines[b[0]], lines[a]
        elif kind == "drop":
            del lines[a]
        else:
            cells = lines[header_rows - 1].split("\t")
            cells[a], cells[b[0]] = cells[b[0]], cells[a]
            lines[header_rows - 1] = "\t".join(cells)
        lines.insert(header_rows, "")
        path.write_text("\n".join(lines) + "\n")
        # Cold, then warm from the parse cache: the same row and column.
        for _ in ("cold", "warm"):
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.path, error.row, error.column) == (str(path), row, column)
            assert error.message == f"{message}: found 'R0 / S2' where 'R0 / S1' is expected"

    def test_missing_unit_label(self, written_set, tmp_path):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        descriptor["extensions"][0]["unit"] = ""
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path == str(layout_path)
        assert excinfo.value.message.startswith("layout.extensions[0].unit ")

    def test_empty_unit_fails_before_any_grid_is_read(self, written_set, tmp_path):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        descriptor["extensions"][2]["unit"] = ""
        for warm in (False, True):
            if warm:
                fileio.ingest(fileio.write_account(fixtures.fixture(2, 3, 42), tmp_path))
            layout_path.write_text(json.dumps(descriptor))
            (tmp_path / "z.tsv").unlink()
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.message, error.path, error.row, error.column) == (
                "layout.extensions[2].unit is empty", str(layout_path), None, None)

    # fixture(3, 5, 7): a stressor column, then 15 region-sector columns.
    @pytest.mark.parametrize("edit, column, found", [
        ("drop", 16, "found nothing where 'R2 / S4' is expected"),
        ("add", 17, "found 'R9 / S9' where nothing is expected"),
    ], ids=["missing last column", "surplus column"])
    def test_extension_width_names_the_header_column(self, tmp_path, edit, column, found):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "ext_energy.tsv"
        lines = path.read_text().splitlines()
        if edit == "drop":
            lines = [line.rsplit("\t", 1)[0] for line in lines]
        else:
            lines = [f"{line}\t{cell}" for line, cell in zip(lines, ["R9", "S9", *["0"] * 99])]
        path.write_text("\n".join(lines) + "\n")
        for _ in ("cold", "warm"):
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.path, error.row, error.column) == (str(path), 2, column)
            assert error.message == (
                f"extension columns do not match the transaction index: {found}")

    def test_labour_label_without_a_skill_level_names_its_row(self, tmp_path):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "ext_labour.tsv"
        # Two header lines, then "female low-skilled" and "male low-skilled".
        text = path.read_text()
        assert "\nmale low-skilled\t" in text
        path.write_text(text.replace("\nmale low-skilled\t", "\nmale\t"))
        for _ in ("cold", "warm"):
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.message, error.path, error.row, error.column) == (
                "labour stressor 'male' does not name a skill level: low, medium or high",
                str(path), 4, 1)

    def test_flag_fault_comes_before_an_earlier_extensions_bad_value(self, tmp_path):
        # fixture(3, 5, 7) lists labour first and material last.
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        descriptor = json.loads(layout_path.read_text())
        assert [e["name"] for e in descriptor["extensions"]][::3] == ["labour", "material"]
        descriptor["extensions"][3]["material_flags"]["unused extraction"] = "unsued"
        layout_path.write_text(json.dumps(descriptor))
        self._set_cell(tmp_path / "ext_labour.tsv", 2, 3, "-1")
        for _ in ("cold", "warm"):
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.message, error.path, error.row, error.column) == (
                "layout.extensions[3].material_flags gives stressor 'unused extraction' of "
                "extension 'material' the flag 'unsued', not 'used' or 'unused'",
                str(layout_path), None, None)

    def test_labour_value_that_overflows_on_conversion(self, written_set, tmp_path):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        (labour,) = (e for e in descriptor["extensions"] if e["name"] == "labour")
        labour["workers_per_unit"] = 1000.0
        layout_path.write_text(json.dumps(descriptor))
        path = tmp_path / "ext_labour.tsv"
        self._set_cell(path, 2, 3, "1e308")
        for _ in ("cold", "warm"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParseError) as excinfo:
                    fileio.ingest(layout_path)
            error = excinfo.value
            assert (error.message, error.path, error.row, error.column) == (
                "value 1e+308 overflows on conversion to hours", str(path), 3, 4)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fileio.ingest(tmp_path / "absent.json")


class TestLayoutFeatures:
    def test_worker_to_hours_conversion(self, written_set, tmp_path):
        account, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        for entry in descriptor["extensions"]:
            if entry["name"] == "labour":
                entry["workers_per_unit"] = 1000.0
                entry["unit"] = "1000 persons"
        descriptor["hours_per_worker_year"] = 2000.0
        layout_path.write_text(json.dumps(descriptor))
        converted = fileio.ingest(layout_path).account.extensions["labour"]
        np.testing.assert_allclose(
            converted.rows, account.extensions["labour"].rows * 2_000_000.0, rtol=1e-15)
        assert converted.unit == "hours"

    @pytest.mark.parametrize("field, value", [
        ("workers_per_unit", float("nan")), ("workers_per_unit", float("inf")),
        ("workers_per_unit", 0.0), ("workers_per_unit", -1000.0),
        ("hours_per_worker_year", float("nan")), ("hours_per_worker_year", float("-inf")),
        ("hours_per_worker_year", 0.0),
        ("year", 2012.7), ("year", "2012"), ("year", True),
    ])
    def test_bad_layout_number_names_the_layout(self, written_set, field, value):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        if field == "workers_per_unit":
            descriptor["extensions"][0][field] = value
        else:
            descriptor[field] = value
        # json writes NaN and Infinity, which its reader accepts.
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(ParseError, match=field) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path == str(layout_path)

    @pytest.mark.parametrize("shape", ["layout is a list", "layout is null",
                                       "material_flags is a list", "direct_file is a number"])
    def test_wrong_json_shape_names_the_layout(self, written_set, shape):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        entries = {entry["name"]: entry for entry in descriptor["extensions"]}
        if shape == "layout is a list":
            descriptor = []
        elif shape == "layout is null":
            descriptor = None
        elif shape == "material_flags is a list":
            entries["material"]["material_flags"] = ["used"]
        else:
            entries["energy"]["direct_file"] = 5
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.path == str(layout_path)

    def test_known_quirks_become_warnings(self, written_set, tmp_path):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        descriptor["ingest_warnings"] = [
            {"region": "R0", "sector": "S1", "note": "known gap in purchases"}
        ]
        layout_path.write_text(json.dumps(descriptor))
        result = fileio.ingest(layout_path)
        assert len(result.warnings) == 1
        warning = result.warnings[0]
        assert (warning["region"], warning["sector"]) == ("R0", "S1")
        assert "known gap" in warning["note"]

    def test_comma_delimited_set(self, tmp_path):
        account = fixtures.fixture(2, 2, 3)
        # EXIOBASE sector names carry commas, and a label may carry a quote.
        index = model.RegionSectorIndex(
            regions=account.index.regions,
            sectors=("Vegetables, fruit, nuts", 'Manure treatment ("biogas"), land'))
        labour = account.extensions["labour"]
        account = replace(account, index=index, extensions=account.extensions | {
            "labour": replace(labour, stressors=tuple(f"{s}, all ages" for s in labour.stressors))})
        layout_path = fileio.write_account(account, tmp_path, delimiter_name="comma")
        back = fileio.ingest(layout_path).account
        assert back.index == account.index
        assert back.extensions["labour"].stressors == account.extensions["labour"].stressors
        for loaded, written in ((back.Z, account.Z), (back.Y, account.Y), (back.x, account.x),
                                (back.extensions["labour"].rows, labour.rows)):
            assert loaded.tobytes() == written.tobytes()


def _cache_key(path, base):
    """fileio._cache_key of the tab-delimited grid at ``path``, opened for
    the call, with two index columns and two header rows."""
    with path.open("rb") as handle:
        return fileio._cache_key(handle.fileno(), path.stat().st_size, path, base, "\t", 2, 2)


def _z_entry(layout_path):
    """The cached matrix of a layout's transaction grid."""
    key = _cache_key(layout_path.parent / "z.tsv", layout_path.parent)
    return layout_path.parent / fileio.CACHE_DIR / f"{key}.npy"


def _leaf_key(data: bytes) -> str:
    """The content hash of a file holding ``data``: the sha256 of its size,
    as 8 big-endian bytes, and of the sha256 of each 1 MiB leaf."""
    leaves = [data[k:k + (1 << 20)] for k in range(0, len(data), 1 << 20)]
    return hashlib.sha256(len(data).to_bytes(8, "big") + b"".join(
        hashlib.sha256(leaf).digest() for leaf in leaves)).hexdigest()


class TestCacheKey:
    @pytest.mark.parametrize("size", [0, 1, 2 << 20, (2 << 20) + 1, (3 << 20) + 1])
    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_key_of_the_leaves(self, tmp_path, monkeypatch, size, processes):
        # The leaves are hashed in one share per process, the caller's and
        # a forked worker's each of the others, none empty.
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: processes)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        path = tmp_path / "z.tsv"
        data = np.random.default_rng(size).bytes(size)
        path.write_bytes(data)
        key = _cache_key(path, tmp_path)
        assert key == f"z.tsv-tab-2-2/{_leaf_key(data)}"
        assert len(forks) == max(1, min(processes, -(-size // (1 << 20)))) - 1

    @pytest.mark.parametrize("edit", ["last byte", "appended byte"])
    def test_an_edit_in_the_last_leaf_changes_the_key(self, tmp_path, edit):
        path = tmp_path / "z.tsv"
        data = bytes((2 << 20) + 10)
        path.write_bytes(data)
        before = _cache_key(path, tmp_path)
        path.write_bytes(data[:-1] + b"\x01" if edit == "last byte" else data + b"\x00")
        assert _cache_key(path, tmp_path) != before


class TestCache:
    def test_second_ingest_is_served_from_cache(self, written_set, monkeypatch):
        _, layout_path = written_set
        first = fileio.ingest(layout_path).account

        def no_parse(*args):
            raise AssertionError("a cached grid was parsed again")
        monkeypatch.setattr(fileio, "_parse_grid", no_parse)
        second = fileio.ingest(layout_path).account
        assert second.index == first.index and second.y_columns == first.y_columns
        for a, b in ((second.Z, first.Z), (second.Y, first.Y), (second.x, first.x)):
            assert a.tobytes() == b.tobytes()
        for name, ext in first.extensions.items():
            assert second.extensions[name].rows.tobytes() == ext.rows.tobytes()
            assert second.extensions[name].stressors == ext.stressors

    def test_edited_file_is_parsed_again(self, written_set, tmp_path):
        _, layout_path = written_set
        before = fileio.ingest(layout_path).account.Z
        TestParseErrors._set_cell(tmp_path / "z.tsv", 4, 5, "123.25")
        # Ingested arrays are read-only: edit a copy.
        after = fileio.ingest(layout_path).account.Z.copy()
        assert after[2, 3] == 123.25 != before[2, 3]
        after[2, 3] = before[2, 3]
        np.testing.assert_array_equal(after, before)
        # Only the entry of the file's current content is left.
        entry = _z_entry(layout_path)
        assert sorted(entry.parent.iterdir()) == [entry.with_suffix(".json"), entry]

    def test_same_file_name_in_two_directories(self, written_set, tmp_path, monkeypatch):
        # Each grid keeps its own entry; neither evicts the other.
        _, layout_path = written_set
        layout = json.loads(layout_path.read_text())
        for sub, entry in zip(("a", "b"), layout["extensions"]):
            (tmp_path / sub).mkdir()
            (tmp_path / entry["file"]).rename(tmp_path / sub / "f.tsv")
            entry["file"] = f"{sub}/f.tsv"
        layout_path.write_text(json.dumps(layout))
        fileio.ingest(layout_path)

        def no_parse(*args):
            raise AssertionError("a cached grid was parsed again")
        monkeypatch.setattr(fileio, "_parse_grid", no_parse)
        fileio.ingest(layout_path)

    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape", "truncated-validate",
                                        "json missing keys", "json list", "json wrong types"])
    def test_damaged_entry_is_rewritten(self, written_set, damage, capsys):
        _, layout_path = written_set
        validate = ["validate", "--layout", str(layout_path)]
        if damage.endswith("validate"):
            # A cold run, then a warm one on the damaged entry, which it maps
            # rather than reads: the entry is parsed again, with no SIGBUS and
            # no unclosed file.
            assert main(validate) == 0
            cold = capsys.readouterr().out
        # A copy: damaging the entry in place under a mapping of it would
        # make reading the mapping fail.
        expected = fileio.ingest(layout_path).account.Z.copy()
        entry = _z_entry(layout_path)
        whole, whole_json = entry.read_bytes(), entry.with_suffix(".json").read_bytes()
        if damage.startswith("truncated"):
            entry.write_bytes(whole[: len(whole) // 2])
        elif damage.startswith("json"):
            # A json part that parses but does not hold the entry's fields.
            entry.with_suffix(".json").write_text(json.dumps({
                "json missing keys": {}, "json list": [],
                "json wrong types": {"headers": 1, "labels": 2, "linenos": 3}}[damage]))
        else:
            np.save(entry, expected[:-1])
        if damage.endswith("validate"):
            assert main(validate) == 0
            assert capsys.readouterr().out == cold
        assert fileio.ingest(layout_path).account.Z.tobytes() == expected.tobytes()
        assert entry.read_bytes() == whole
        assert entry.with_suffix(".json").read_bytes() == whole_json

    @pytest.mark.parametrize("run", ["cold", "warm"])
    def test_ingested_arrays_are_read_only(self, written_set, run):
        # Parsed or mapped from the cache, an ingested array cannot be
        # written; nor can labour rows, which ingest converts into new arrays.
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        for entry in descriptor["extensions"]:
            if entry["name"] == "labour":
                entry["workers_per_unit"] = 1000.0
        layout_path.write_text(json.dumps(descriptor))
        if run == "warm":
            fileio.ingest(layout_path)
        account = fileio.ingest(layout_path).account
        for array in (account.Z, account.Y, account.x,
                      *(ext.rows for ext in account.extensions.values())):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    @pytest.mark.parametrize("bad", ["repeated label", "negative cell"])
    def test_entry_of_a_bad_grid_is_parsed_again(self, written_set, tmp_path, bad):
        # An entry that fails a check of the parse, such as one stored by a
        # reader without that check, is parsed again to name the row. An
        # entry with a negative cell holds the file's values, as every entry
        # does: it is served, and the account's screen names the cell by the
        # entry's row lines.
        _, layout_path = written_set
        z_path = tmp_path / "z.tsv"
        if bad == "repeated label":
            lines = z_path.read_text().splitlines()
            lines[3] = lines[2]
            z_path.write_text("\n".join(lines) + "\n")
        else:
            TestParseErrors._set_cell(z_path, 3, 4, "-0.5")
        rows = [line.split("\t") for line in z_path.read_text().splitlines()]
        entry = _z_entry(layout_path).with_suffix("")
        fileio._cache_store(entry, np.array([[float(c) for c in row[2:]] for row in rows[2:]]),
                            {"headers": rows[:2], "labels": [row[:2] for row in rows[2:]],
                             "linenos": list(range(3, len(rows) + 1))})
        assert entry.with_suffix(".npy").exists()
        assert (fileio._grid_load(entry, 2, 2) is None) == (bad == "repeated label")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 4
        assert excinfo.value.column == (None if bad == "repeated label" else 5)
        assert ("'R0 / S0' is repeated" if bad == "repeated label"
                else "negative value -0.5") in str(excinfo.value)

    def test_each_array_is_screened_once(self, tmp_path, monkeypatch):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        screen, screened = model._screen, []

        def counted(values, name, *args):
            screened.append(name)
            return screen(values, name, *args)
        monkeypatch.setattr(model, "_screen", counted)
        for run in ("cold", "warm"):
            screened.clear()
            extensions = fileio.ingest(layout_path).account.extensions
            expected = ["Z", "Y", "x", *(f"extension {name!r} rows" for name in extensions),
                        *(f"extension {name!r} direct use" for name, ext in extensions.items()
                          if ext.direct is not None)]
            assert sorted(screened) == sorted(expected), run

    def test_unwritable_cache_is_skipped(self, written_set, tmp_path):
        account, layout_path = written_set
        (tmp_path / fileio.CACHE_DIR).write_text("not a directory")
        for _ in range(2):
            np.testing.assert_array_equal(fileio.ingest(layout_path).account.Z, account.Z)
        assert (tmp_path / fileio.CACHE_DIR).read_text() == "not a directory"


# The paths opened while a test holds the ``opened`` fixture. An audit hook
# cannot be removed, so one hook, added here, records them only then.
_OPENED: list[list[str]] = []


def _record_open(event: str, args: tuple) -> None:
    if event == "open" and _OPENED and isinstance(args[0], (str, os.PathLike)):
        _OPENED[-1].append(os.fspath(args[0]))


sys.addaudithook(_record_open)


@pytest.fixture()
def opened():
    """The paths the test opens, in order, as the audit hook sees them."""
    _OPENED.append([])
    yield _OPENED[-1]
    _OPENED.clear()


class TestOneDescriptor:
    """A grid is opened once, and hashed and parsed through that descriptor;
    one that changes while it is read fails the run, and nothing is stored."""

    def test_a_rename_between_the_hash_and_the_parse(self, written_set, tmp_path, monkeypatch):
        _, layout_path = written_set
        path, edited = tmp_path / "x.tsv", tmp_path / "x.tsv.new"
        original = path.read_bytes()
        cache_key = fileio._cache_key

        def replaced_once_hashed(*args):
            key = cache_key(*args)
            if key.startswith("x.tsv-"):
                edited.write_bytes(original.replace(b"29.121612299497247", b"35"))
                os.replace(edited, path)
            return key
        with monkeypatch.context() as patch:
            patch.setattr(fileio, "_cache_key", replaced_once_hashed)
            with pytest.raises(ParseError, match="the file changed while being read") as caught:
                fileio.ingest(layout_path)
        assert caught.value.path == str(path)
        assert not list((tmp_path / fileio.CACHE_DIR).glob("x.tsv-*/*"))
        path.write_bytes(original)
        assert fileio.ingest(layout_path).account.x[0] == 29.121612299497247

    @pytest.mark.parametrize("processes", [2, 3])
    @pytest.mark.parametrize("change", ["truncated", "rewritten"])
    def test_a_rewrite_in_place_during_a_parse_in_shares(self, tmp_path, monkeypatch,
                                                         processes, change):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        original = path.read_bytes()
        monkeypatch.setattr(fileio, "PARALLEL_BYTES", 1001)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: processes)
        parent, parse_span, changed = os.getpid(), fileio._parse_span, []

        def changed_after_the_first_span(grid, span):
            parsed = parse_span(grid, span)
            if os.getpid() == parent and grid[0] == path and not changed:
                changed.append(span)
                if change == "truncated":
                    os.truncate(path, len(original) // 2)
                else:  # other digits at the same size, and an mtime past one tick
                    with open(path, "r+b") as handle:
                        handle.write(original.translate(bytes.maketrans(b"56789", b"67895")))
                    mtime = path.stat().st_mtime_ns + 10 ** 9
                    os.utime(path, ns=(mtime, mtime))
            return parsed
        monkeypatch.setattr(fileio, "_parse_span", changed_after_the_first_span)
        with pytest.raises(ParseError, match="the file changed while being read") as caught:
            fileio.ingest(layout_path)
        assert caught.value.path == str(path)
        assert changed and changed[0][1] < len(original) // 2
        assert not list((tmp_path / fileio.CACHE_DIR / "z.tsv-tab-2-2").glob("*"))

    def test_each_grid_is_opened_once(self, tmp_path, monkeypatch, opened):
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        grids = sorted(str(path) for path in tmp_path.glob("*.tsv"))
        monkeypatch.setattr(fileio, "PARALLEL_BYTES", 1001)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 3)
        for run in ("cold", "warm"):
            opened.clear()
            fileio.ingest(layout_path)
            assert [opened.count(grid) for grid in grids] == [1] * len(grids), run


class TestFixtureSet:
    def test_same_seed_is_byte_identical(self, tmp_path):
        fixtures.write_fixture_set(2, 3, 42, tmp_path / "a")
        fixtures.write_fixture_set(2, 3, 42, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                         if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_output_comes_from_one_in_place_factorization(self, monkeypatch, factorizations):
        # The pipeline's LU path builds I - A in one Fortran buffer and
        # dgetrf factorizes it in place, so no n x n identity or difference
        # is made.
        buffers = []
        getrf = algebra._getrf

        def recorded(m, n, a, *rest):
            buffers.append(a)
            return getrf(m, n, a, *rest)
        monkeypatch.setattr(algebra, "_getrf", recorded)
        fixtures.fixture(2, 3, 42)
        ((lu, _),) = factorizations
        assert lu.flags.f_contiguous and buffers == [lu.ctypes.data]

    def test_contains_runnable_inputs(self, tmp_path):
        layout_path = fixtures.write_fixture_set(2, 3, 1, tmp_path)
        assert layout_path.exists()
        for name in ("category_concordance.tsv", "sector_groups.tsv", "params.json"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "scenarios" / "baseline.json").exists()
        assert (tmp_path / "scenarios" / "halved.json").exists()


def _parse_file(path, delimiter, index_cols, header_rows):
    """fileio._parse_grid of the grid at ``path``, opened for the call."""
    with path.open("rb") as handle:
        return fileio._parse_grid(handle.fileno(), path.stat().st_size, path, delimiter,
                                  index_cols, header_rows)


def _spans(path, start, end, size):
    """fileio._spans of the file at ``path``, opened for the call."""
    with path.open("rb") as handle:
        return fileio._spans(handle.fileno(), start, end, size)


def _parse(path, index_cols=2, header_rows=2, delimiter="\t"):
    """A grid parsed by the pipeline, its bytes with its rows' lines, or the
    ParseError it raises."""
    try:
        headers, labels, matrix, linenos = _parse_file(path, delimiter, index_cols, header_rows)
    except ParseError as exc:
        return str(exc), exc.path, exc.row, exc.column
    return headers, labels, matrix.shape, (matrix.tobytes(), linenos)


# Span sizes: one byte, so that each line is a span; sizes that cut the
# fixtures' lines at odd places; and more than any body, one span in all.
SPAN_SIZES = [1, 61, 333, 1001, 1 << 40]


def _compare(monkeypatch, path, *args, **kwargs):
    """Parse a grid in spans of each of SPAN_SIZES, in one, two and three
    shares; returns the parse, which must be the same every way."""
    expected = _parse(path, *args, **kwargs)
    for size in SPAN_SIZES:
        for processes in (1, 2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(fileio, "PARALLEL_BYTES", size)
                patch.setattr(fileio, "_processes", lambda nbytes: processes)
                assert _parse(path, *args, **kwargs) == expected, (size, processes)
    return expected


GRIDS = [("z.tsv", 2, 2), ("y.tsv", 2, 2), ("x.tsv", 2, 1), ("ext_labour.tsv", 1, 2),
         ("ext_energy.tsv", 1, 2), ("ext_emissions.tsv", 1, 2), ("ext_material.tsv", 1, 2)]


class TestParallelGrids:
    """Grids cut into spans of any size, parsed in-process or split over
    processes, parse and write exactly as in one span and one process."""

    def test_caller_parses_the_first_share_and_each_worker_one(self, tmp_path, monkeypatch):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path, log = tmp_path / "z.tsv", tmp_path / "spans.log"
        monkeypatch.setattr(fileio, "PARALLEL_BYTES", 333)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 3)
        parse_span = fileio._parse_span

        def logged(grid, span):
            # One write of one line to a file opened for appending is
            # atomic, so workers' lines never mix.
            with log.open("a") as handle:
                handle.write(f"{os.getpid()} {span[0]} {span[1]}\n")
            return parse_span(grid, span)
        monkeypatch.setattr(fileio, "_parse_span", logged)
        assert _parse(path)[2] == (15, 15)
        spans: dict[int, list[tuple[int, int]]] = {}
        for line in log.read_text().splitlines():
            pid, start, end = map(int, line.split())
            spans.setdefault(pid, []).append((start, end))
        body = len("".join(path.read_text().splitlines(True)[:2]))
        size = path.stat().st_size
        shares = _spans(path, body, size, -(-(size - body) // 3))
        assert len(shares) == 3 and len(spans) == 3
        # Each process's spans, in the order it parsed them, tile one share.
        covered = {(pid_spans[0][0], pid_spans[-1][1]): pid for pid, pid_spans in spans.items()}
        for pid_spans in spans.values():
            assert all(a[1] == b[0] for a, b in zip(pid_spans, pid_spans[1:]))
            assert len(pid_spans) > 1
        assert sorted(covered) == shares
        assert covered[shares[0]] == os.getpid()

    @pytest.mark.parametrize("share", [2, 3])
    @pytest.mark.parametrize("fault", ["bad cell", "ragged row", "repeated label", "not UTF-8"])
    def test_bad_line_in_a_workers_share(self, tmp_path, monkeypatch, share, fault):
        # fixture(3, 5, 7)'s z.tsv has 15 body lines, 5 in each of 3 shares.
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_bytes().splitlines()
        line = 2 + 5 * (share - 1) + 2  # the middle line of the share
        cells = lines[line].split(b"\t")
        if fault == "bad cell":
            cells[6] = b"oops"
        elif fault == "ragged row":
            del cells[6]
        elif fault == "repeated label":
            cells[:2] = lines[2].split(b"\t")[:2]
        else:
            cells[6] = b"\xff"
        lines[line] = b"\t".join(cells)
        path.write_bytes(b"\n".join(lines) + b"\n")
        body = len(b"\n".join(lines[:2])) + 1
        size = path.stat().st_size
        cuts = [start for start, _ in _spans(path, body, size, -(-(size - body) // 3))]
        assert len(cuts) == 3
        assert cuts[share - 1] <= len(b"\n".join(lines[:line])) + 1 < (cuts + [1 << 40])[share]
        message, where, row, column = _compare(monkeypatch, path)
        expected = {"bad cell": ("non-numeric value 'oops'", 7),
                    "ragged row": ("expected 17 cells, found 16", 17),
                    "repeated label": ("region-sector label 'R0 / S0' is repeated", None),
                    "not UTF-8": ("text is not UTF-8", None)}[fault]
        assert (where, row, column) == (str(path), line + 1, expected[1])
        assert expected[0] in message

    @pytest.mark.parametrize("verb", ["parse", "write", "hash"])
    def test_a_worker_that_dies_names_the_grid(self, tmp_path, monkeypatch, verb):
        account = fixtures.fixture(3, 5, 7)
        layout_path = fileio.write_account(account, tmp_path)
        parent = os.getpid()
        name = {"parse": "_parse_span", "write": "_format_rows", "hash": "_hash_leaves"}[verb]
        function = getattr(fileio, name)

        def dies_in_a_worker(*args):
            if os.getpid() != parent:
                os._exit(3)
            return function(*args)
        monkeypatch.setattr(fileio, name, dies_in_a_worker)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 2)
        monkeypatch.setattr(fileio, "LEAF_BYTES", 1001)  # several leaves a grid
        path = tmp_path / "out" / "z.tsv" if verb == "write" else tmp_path / "z.tsv"
        with pytest.raises(MrioError, match="a worker process ended with exit code 3") as caught:
            if verb == "parse":
                _parse_file(path, "\t", 2, 2)
            elif verb == "hash":
                fileio.ingest(layout_path)
            else:
                path.parent.mkdir()
                fileio._write_grid(path, "\t", [["", ""]], account.index.labels(), account.Z)
        assert str(path) in str(caught.value)
        assert not (tmp_path / fileio.CACHE_DIR).exists()

    @pytest.mark.parametrize("job", ["hash", "parse"])
    def test_a_read_error_in_a_worker_is_the_callers(self, tmp_path, monkeypatch, capfd, job):
        # A read that fails in a worker's share fails as in the caller's:
        # a ParseError naming the grid, with nothing stored and nothing
        # printed. One leaf is hashed in-process; several are shared.
        layout_path = fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 2)
        if job == "hash":
            monkeypatch.setattr(fileio, "LEAF_BYTES", 1001)
        parent, pread = os.getpid(), os.pread

        def fails_in_a_worker(fd, size, offset):
            if os.getpid() != parent:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return pread(fd, size, offset)
        monkeypatch.setattr(os, "pread", fails_in_a_worker)
        with pytest.raises(ParseError, match="cannot read file") as caught:
            fileio.ingest(layout_path)
        assert caught.value.path == str(tmp_path / "z.tsv")
        assert not list((tmp_path / fileio.CACHE_DIR).glob("z.tsv-tab-2-2/*"))
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failed_rewrite_leaves_the_old_file(self, tmp_path, monkeypatch, failing):
        account = fixtures.fixture(3, 5, 7)
        path = tmp_path / "z.tsv"
        fileio._write_grid(path, "\t", [["", ""]], account.index.labels(), account.Z)
        old = path.read_bytes()
        parent, format_rows = os.getpid(), fileio._format_rows

        def fails(*args):
            if os.getpid() != parent:
                os._exit(3)
            if failing == "caller":
                raise OSError("no space left")
            return format_rows(*args)
        monkeypatch.setattr(fileio, "_format_rows", fails)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 2)
        with pytest.raises(MrioError if failing == "worker" else OSError):
            fileio._write_grid(path, "\t", [["", ""]], account.index.labels(), 2 * account.Z)
        assert path.read_bytes() == old
        assert [child.name for child in tmp_path.iterdir()] == ["z.tsv"]

    def test_a_failing_first_share_stops_the_workers(self, tmp_path, monkeypatch):
        # The caller's share fails while a worker sleeps through its own;
        # the worker is killed and reaped, and its file closed.
        path = self._bad_z(tmp_path, [(3, 4, "oops")])
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 2)
        parent, parse_span = os.getpid(), fileio._parse_span

        def slow_in_a_worker(grid, span):
            if os.getpid() != parent:
                time.sleep(60)
            return parse_span(grid, span)
        monkeypatch.setattr(fileio, "_parse_span", slow_in_a_worker)
        descriptors = sorted(os.listdir("/proc/self/fd"))
        started = time.monotonic()
        with pytest.raises(ParseError, match="'oops'"):
            _parse_file(path, "\t", 2, 2)
        assert time.monotonic() - started < 30
        assert sorted(os.listdir("/proc/self/fd")) == descriptors
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("name, index_cols, header_rows", GRIDS)
    def test_fixture_grids(self, tmp_path, monkeypatch, name, index_cols, header_rows):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        _, labels, shape, _ = _compare(monkeypatch, tmp_path / name, index_cols, header_rows)
        assert shape[0] == len(labels) > 0

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_chunks_are_cut_at_line_starts(self, tmp_path, ending):
        fileio.write_account(fixtures.fixture(2, 2, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        path.write_bytes((ending.join(lines) + ending).encode())
        starts = np.cumsum([len(line) + len(ending) for line in lines])
        with path.open("rb") as handle:
            for offset in range(1, path.stat().st_size + 1):
                expected = starts[np.searchsorted(starts, offset)]
                assert fileio._line_start(handle.fileno(), offset) == expected
        # A line longer than the 64 KiB that _line_start reads at a time, and
        # one whose end (a CR LF's CR) is the last byte of the first read.
        for line in (b"a" * 70_000, b"a" * ((1 << 16) - 1)):
            path.write_bytes(line + ending.encode() + b"b" + ending.encode())
            with path.open("rb") as handle:
                for offset in (1, (1 << 16) - 1, len(line), len(line) + 1):
                    expected = len(line) + len(ending)
                    assert fileio._line_start(handle.fileno(), offset) == expected

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_blank_lines_and_line_endings(self, tmp_path, monkeypatch, ending):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        for k in (len(lines), 10, 9, 2):
            lines.insert(k, "")
        path.write_bytes((ending.join(lines) + ending * 2).encode())
        headers, labels, shape, (_, linenos) = _compare(monkeypatch, path)
        assert shape == (15, 15) and len(labels) == 15
        assert linenos == [k + 1 for k, line in enumerate(lines) if line][2:]

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("last", ["numbers", "bad cell"])
    def test_last_line_without_a_line_end(self, tmp_path, monkeypatch, ending, last):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        if last == "bad cell":
            lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\toops"
        path.write_bytes((ending.join(lines) + ending).encode())
        ended = _compare(monkeypatch, path)
        path.write_bytes(ending.join(lines).encode())
        assert _compare(monkeypatch, path) == ended
        if last == "bad cell":
            assert ended[1:] == (str(path), 17, 17) and "'oops'" in ended[0]
        else:
            assert ended[2] == (15, 15)

    def test_quoted_label_holding_the_delimiter(self, tmp_path, monkeypatch):
        account = fixtures.fixture(2, 2, 3)
        index = model.RegionSectorIndex(
            regions=account.index.regions,
            sectors=("Vegetables, fruit, nuts", 'Manure treatment ("biogas"), land'))
        fileio.write_account(replace(account, index=index), tmp_path, delimiter_name="comma")
        # A quoted number reads as the number, here in a row with a quoted label.
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ',"0.25"'
        path.write_text("\n".join(lines) + "\n")
        _, labels, shape, (data, _) = _compare(monkeypatch, path, delimiter=",")
        assert labels[-1] == ("R1", 'Manure treatment ("biogas"), land')
        assert np.frombuffer(data).reshape(shape)[-1, -1] == 0.25

    def test_body_with_fewer_lines_than_chunks(self, tmp_path, monkeypatch):
        fileio.write_account(fixtures.fixture(1, 1, 0), tmp_path)
        _, _, shape, _ = _compare(monkeypatch, tmp_path / "z.tsv")
        assert shape == (1, 1)

    def test_empty_body(self, tmp_path, monkeypatch):
        path = tmp_path / "z.tsv"
        path.write_text("\t\tR0\nregion\tsector\tS0\n\n\n")
        message, *_ = _compare(monkeypatch, path)
        assert "file has no data rows" in message

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("text", ["oops", "1_000", "nan", "ragged"])
    def test_bad_cell_in_the_last_chunk(self, tmp_path, monkeypatch, text, ending):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        cells = lines[-2].split("\t")
        if text == "ragged":
            del cells[-3]
        else:
            cells[-3] = text
        lines[-2] = "\t".join(cells)
        lines.insert(3, "")  # a blank line is not a row, but it is a line
        path.write_bytes((ending.join(lines) + ending).encode())
        parsed = _compare(monkeypatch, path)
        if text == "nan":
            # A number parses whatever its value; the account's screen names
            # the cell.
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(tmp_path / "layout.json")
            error = excinfo.value
            parsed = str(error), error.path, error.row, error.column
        message, where, row, column = parsed
        assert (where, row) == (str(path), len(lines) - 1)
        if text == "ragged":
            assert column == 17 and "expected 17 cells, found 16" in message
        else:
            assert column == 15 and text in message

    @staticmethod
    def _bad_z(tmp_path, edits):
        """fixture(3, 5, 7)'s z.tsv, with a blank line after the headers and
        each (line, cell, text) of ``edits`` made; returns its path."""
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        for line, cell, text in edits:
            cells = lines[line].split("\t")
            cells[cell] = text
            lines[line] = "\t".join(cells)
        lines.insert(2, "")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_bad_cell_in_the_first_chunk(self, tmp_path, monkeypatch):
        path = self._bad_z(tmp_path, [(3, 4, "oops")])
        message, where, row, column = _compare(monkeypatch, path)
        assert (where, row, column) == (str(path), 5, 5) and "'oops'" in message

    def test_bad_cells_in_both_chunks_name_the_first(self, tmp_path, monkeypatch):
        path = self._bad_z(tmp_path, [(3, 4, "oops"), (15, 6, "nan")])
        message, _, row, column = _compare(monkeypatch, path)
        assert (row, column) == (5, 5) and "'oops'" in message
        path = self._bad_z(tmp_path, [(3, 4, "inf"), (15, 6, "1,5")])
        message, _, row, column = _compare(monkeypatch, path)
        assert (row, column) == (17, 7) and "'1,5'" in message

    @pytest.mark.parametrize("later", [b"\t".join([b"R2", b"S4", *[b"1"] * 14]), b"\xff",
                                       b'"1\t5"'], ids=["ragged row", "not UTF-8",
                                                       "quoted delimiter"])
    def test_a_bad_number_before_a_later_fault_is_named(self, tmp_path, monkeypatch, later):
        # The first fault in file order is named, whatever the spans: a
        # one-span parse once checked every row's cells, UTF-8 and quoting
        # before any of its numbers.
        path = self._bad_z(tmp_path, [(3, 4, "oops")])
        lines = path.read_bytes().split(b"\n")
        if later.startswith(b"R2"):  # the whole line, one cell short
            lines[15] = later
        else:
            cells = lines[15].split(b"\t")
            cells[6] = later
            lines[15] = b"\t".join(cells)
        path.write_bytes(b"\n".join(lines))
        message, _, row, column = _compare(monkeypatch, path)
        assert (message, row, column) == (f"non-numeric value 'oops' ({path}, row 5, column 5)",
                                          5, 5)

    @pytest.mark.skipif(not fileio._EXACT_DECIMALS, reason="long double is not the x87 format")
    def test_a_bad_cell_costs_no_second_pass(self, tmp_path, monkeypatch):
        # A span whose last row holds a bad cell makes as many kernel calls
        # as a sound span: the bad cell is named from the cut, not searched
        # for by reading the span's rows again.
        monkeypatch.setattr(fileio, "PARALLEL_BYTES", 1 << 40)
        monkeypatch.setattr(fileio, "NUMBER_BLOCK_BYTES", 333)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 1)
        calls, read_decimals = [], fileio._read_decimals

        def counted(*args):
            calls.append(args)
            return read_decimals(*args)
        monkeypatch.setattr(fileio, "_read_decimals", counted)
        counts = []
        for edits in ([], [(16, 14, "oops")]):
            path = self._bad_z(tmp_path / str(len(edits)), edits)
            calls.clear()
            parsed = _parse(path)
            counts.append(len(calls))
        assert parsed == (f"non-numeric value 'oops' ({path}, row 18, column 15)", str(path), 18,
                          15)
        assert counts[0] == counts[1] > 1

    @pytest.mark.parametrize("line, row", [(3, 5), (15, 17)], ids=["first", "last"])
    def test_empty_cell_in_either_chunk(self, tmp_path, monkeypatch, line, row):
        path = self._bad_z(tmp_path, [(line, 4, "")])
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            message, _, found_row, column = _compare(monkeypatch, path)
        assert (found_row, column) == (row, 5)
        assert "non-numeric value ''" in message

    def test_label_repeating_one_of_the_first_chunk(self, tmp_path, monkeypatch):
        path = self._bad_z(tmp_path, [(15, 0, "R0"), (15, 1, "S1")])
        message, _, row, column = _compare(monkeypatch, path)
        assert (row, column) == (17, None)
        assert "region-sector label 'R0 / S1' is repeated" in message

    @pytest.mark.parametrize("edits", [[], [(3, 4, "oops")], [(15, 4, "oops")]],
                             ids=["good", "bad-first", "bad-last"])
    def test_every_span_is_opened_and_read_once(self, tmp_path, monkeypatch, edits):
        path = self._bad_z(tmp_path, edits)
        monkeypatch.setattr(fileio, "PARALLEL_BYTES", 1001)
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: 1)
        reads, parsed = [], []
        pread, parse_span = os.pread, fileio._parse_span

        def recorded_pread(fd, size, offset):
            reads.append((offset, size))
            return pread(fd, size, offset)

        def parse(grid, span):
            first = len(reads)
            try:
                return parse_span(grid, span)
            finally:
                parsed.append((span, reads[first:]))
        monkeypatch.setattr(os, "pread", recorded_pread)
        monkeypatch.setattr(fileio, "_parse_span", parse)
        result = _parse(path)
        # The body's spans are parsed in order up to the failing one, and
        # each is read once, whole.
        body = len("".join(path.read_text().splitlines(True)[:2]))
        cuts = [body] + [end for (_, end), _ in parsed]
        assert [span for span, _ in parsed] == list(zip(cuts, cuts[1:]))
        assert all(span_reads == [(start, end - start)] for (start, end), span_reads in parsed)
        if edits == [(3, 4, "oops")]:
            assert len(parsed) == 1 and cuts[-1] < path.stat().st_size
        else:
            assert len(parsed) > 1 and cuts[-1] == path.stat().st_size
        assert ("oops" in result[0]) == bool(edits)

    def test_written_grids_are_byte_identical(self, tmp_path, monkeypatch):
        account = fixtures.fixture(3, 5, 7)
        fileio.write_account(account, tmp_path / "in-process")
        for processes in (1, 2, 3):
            shared = tmp_path / f"{processes}-shares"
            with monkeypatch.context() as patch:
                patch.setattr(fileio, "PARALLEL_BYTES", 1)
                patch.setattr(fileio, "NUMBER_BLOCK_BYTES", 1)
                patch.setattr(fileio, "_processes", lambda nbytes: processes)
                fileio.write_account(account, shared)
            for path in (tmp_path / "in-process").iterdir():
                assert (shared / path.name).read_bytes() == path.read_bytes(), processes

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_grid_of_no_rows_is_its_header_rows(self, tmp_path, monkeypatch, processes):
        monkeypatch.setattr(fileio, "_processes", lambda nbytes: processes)
        path = tmp_path / "x.tsv"
        fileio._write_grid(path, ",", [["region", "sector", "total output, all"]], [],
                           np.empty((0, 1)))
        assert path.read_bytes() == b'region,sector,"total output, all"\n'

    def test_one_usable_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert fileio._processes(1 << 40) == 1

    def test_a_live_thread_keeps_the_work_in_process(self, tmp_path, monkeypatch):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        expected = _parse(tmp_path / "z.tsv")
        monkeypatch.setattr(fileio, "PARALLEL_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks = []
        fork = os.fork

        def recorded_fork():
            forks.append(os.getpid())
            return fork()
        monkeypatch.setattr(os, "fork", recorded_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert fileio._processes(1 << 40) == 1
            assert _parse(tmp_path / "z.tsv") == expected
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive() and forks == []
        # With the thread gone, the same parse forks a worker.
        assert _parse(tmp_path / "z.tsv") == expected and forks


# Cells the decimal kernel must read as np.loadtxt does.
KERNEL_CASES = [
    "9007199254740993",  # 2**53 + 1, a double midpoint
    "2.2250738585072011e-308", "2.2250738585072014e-308",  # either side of the least normal
    "4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308",  # the least, the greatest, inf
    "-0", "-0.0", "0.1",
    "1234567890123456789", "-9999999999999999999",  # 19 digits
    "12345678901234567891", "0.99999999999999999999",  # 20 digits
    "0001.5", "-0000000000000000000000000012.5", "0." + "0" * 30 + "7",  # leading zeros
    "1" + "0" * 24, "1" + "0" * 24 + ".5", "9" * 30 + "e-400",  # more digits than 24 bytes
    "1E+05", "1e-5", "2E5",
    "1e27", "5e-27", "1.2345678901234567e-11",  # q = 27, -27, -27
    "1e28", "5e-28", "1.2345678901234567e-12",  # q = 28, -28, -28
]

# Cells outside the kernel's form, which the rule reads or rejects as
# np.loadtxt does.
OUTSIDE_THE_KERNEL = [
    " 1.5", "1.5 ", "+1.5", "nan", "-inf", "1e0001", ".5", "1.", "1_000", "\u0661\u0662",
    "\uff11", "", "-", "1-2", "5-3", "1+2", "1.2.3", "1e5.3", "1e5e3", "--1", "e5", "1e", "1e+",
    "-.5", "1ee5", "1.e5", "0x10", "1e+-5", "1e5-", "1,5",
    # whitespace and control bytes
    "\xa01.5", "1.5\x0b", "\x1c1", "1\x1f", "1.5\x00",
    # spellings of NaN and infinity
    "-NaN", "+nan", "infinity", "-Infinity",
    # past the range of doubles
    "1e400", "-1e-400",
    # spellings np.loadtxt rejects
    "1e5_0", "1__0", "1d5", "1.5f", "+-1",
]

# The kernel's form, checked cell by cell.
KERNEL_FORM = re.compile(rb"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]{1,3})?")


def _nearest_long_double(value: Fraction) -> Fraction:
    """``value`` > 0 rounded to a 64-bit significand, ties to even."""
    exponent = value.numerator.bit_length() - value.denominator.bit_length()
    if Fraction(2) ** exponent > value:
        exponent -= 1
    scale = Fraction(2) ** (63 - exponent)
    return round(value * scale) / scale


def _cells_to_lines(cells: list[str], delimiter: str, width: int = 10) -> list[str]:
    cells = cells + ["0"] * (-len(cells) % width)
    return [delimiter.join(cells[k:k + width]) for k in range(0, len(cells), width)]


def _number_grid(path: Path, lines: list[str], delimiter: str = "\t") -> Path:
    """A grid of one header row whose body rows are ``lines`` of number
    cells, each after a label cell; returns its path. The labels are 24
    characters long, so that every number cell lies as far into its block of
    text as the kernel reads before a cell's end."""
    width = max(line.count(delimiter) for line in lines) + 1
    header = delimiter.join(["label", *(f"c{j}" for j in range(width))])
    path.write_bytes("\n".join([header, *(f"row {k:020d}{delimiter}{line}"
                                          for k, line in enumerate(lines))]).encode() + b"\n")
    return path


@pytest.fixture()
def paths(monkeypatch):
    """How many number cells the kernel is given during the test, by what
    becomes of them: ``kernel`` (read by it), ``float`` (of its form, left
    to float()) and ``rule`` (outside the form, left to the rule that reads
    a cell as np.loadtxt does). The form is checked here cell by cell, and
    the kernel must read no cell outside it. Forked workers' cells are not
    counted, nor are grids with quoted labels handled."""
    counts = {"kernel": 0, "float": 0, "rule": 0}
    parse_span, read_decimals = fileio._parse_span, fileio._read_decimals
    index_cols = []

    def counted_span(grid, *args):
        index_cols[:] = [grid[2]]
        return parse_span(grid, *args)

    def counted_decimals(text, marks, is_end):
        values = read_decimals(text, marks, is_end)
        ends = marks[is_end].tolist()
        column = 0
        for start, end, by_kernel in zip([0, *(end + 1 for end in ends)], ends,
                                         (~np.isnan(values)).tolist()):
            if column >= index_cols[0]:
                in_form = KERNEL_FORM.fullmatch(text[start:end]) is not None
                assert in_form or not by_kernel
                counts["kernel" if by_kernel else "float" if in_form else "rule"] += 1
            column = 0 if text[end] == ord("\n") else column + 1
        return values
    monkeypatch.setattr(fileio, "_parse_span", counted_span)
    monkeypatch.setattr(fileio, "_read_decimals", counted_decimals)
    return counts


@pytest.mark.skipif(platform.machine() != "x86_64", reason="not an x86-64 machine")
def test_the_decimal_kernel_runs_on_x86_64():
    # A numpy or platform change that turns the kernel off fails here, not
    # only in the time of a cold run.
    assert fileio._EXACT_DECIMALS


@pytest.mark.skipif(not fileio._EXACT_DECIMALS, reason="long double is not the x87 format")
class TestDecimalKernel:
    """Grid numbers read by the exact decimal kernel, float() and the rule
    for cells outside the kernel's form come out bit-identical to
    np.loadtxt's, and each converter runs where it should."""

    @staticmethod
    def _same_as_loadtxt(path: Path, lines: list[str], delimiter: str) -> None:
        expected = np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)
        _, _, found, _ = _parse_file(_number_grid(path, lines, delimiter), delimiter, 1, 1)
        assert found.shape == expected.shape
        differ = np.flatnonzero(found.view(np.uint64) != expected.view(np.uint64))
        assert differ.size == 0, [(lines[k // found.shape[1]].split(delimiter)[k % found.shape[1]],
                                   found.flat[k], expected.flat[k]) for k in differ[:5]]

    @pytest.mark.parametrize("delimiter", ["\t", ","], ids=["tab", "comma"])
    def test_bit_identical_to_loadtxt(self, tmp_path, rng, paths, delimiter):
        # Any bit pattern but nan and inf, and values of the size of an account's.
        values = rng.integers(0, 1 << 64, 60_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([values[np.isfinite(values)],
                                 rng.random(50_000) * 10.0 ** rng.integers(-20, 20, 50_000)])
        assert len(values) >= 100_000
        cells = list(KERNEL_CASES)
        for form in ("%.17g", "%.15g"):
            cells += [form % value for value in values.tolist()]
        cells += [repr(value) for value in values.tolist()]
        self._same_as_loadtxt(tmp_path / "grid.tsv", _cells_to_lines(cells, delimiter),
                              delimiter)
        for case in KERNEL_CASES:
            self._same_as_loadtxt(tmp_path / "grid.tsv", [case], delimiter)
        assert paths["rule"] == 0
        assert 0 < paths["float"] < paths["kernel"] / 10

    def test_cells_within_two_units_of_a_midpoint(self, tmp_path, rng, paths):
        # 16 to 19 digits on either side of the midpoint above a double: a
        # long double read of such a cell can be rounded onto or across the
        # midpoint, so rounding it again to a double goes wrong.
        values = rng.integers(0, 1 << 64, 2_000, dtype=np.uint64).view(np.float64)
        cells = []
        for value in np.abs(values[np.isfinite(values) & (values != 0)]).tolist():
            above = math.nextafter(value, math.inf)
            if math.isinf(above):
                continue
            midpoint = (Fraction(value) + Fraction(above)) / 2
            decimal = Decimal(midpoint.numerator) / Decimal(midpoint.denominator)
            for digits in (16, 17, 18, 19):
                step = Decimal(1).scaleb(decimal.adjusted() - digits + 1)
                cells += [format(decimal.quantize(step, rounding=way), "e")
                          for way in (ROUND_FLOOR, ROUND_CEILING)]
        twice = np.array([np.longdouble(cell) for cell in cells]).astype(np.float64)
        once = np.array([float(cell) for cell in cells])
        assert np.any(twice != once)  # the set holds such traps
        self._same_as_loadtxt(tmp_path / "grid.tsv", _cells_to_lines(cells, "\t"), "\t")
        assert paths["float"] > 0 and paths["rule"] == 0

    @pytest.mark.parametrize("cell", OUTSIDE_THE_KERNEL)
    def test_cells_outside_the_form_are_left_to_loadtxt(self, tmp_path, monkeypatch, cell,
                                                        paths):
        # Left to the rule that reads a cell as np.loadtxt does, or rejects it.
        for k, lines in enumerate(([cell], [f"1.5\t{cell}\t2"], [f"{cell}\t3", "4\t5"])):
            path = _number_grid(tmp_path / f"grid{k}.tsv", lines)
            with warnings.catch_warnings():
                # loadtxt skips a line of one empty cell, with a warning; a
                # grid row holds an empty number cell, which is not a number.
                warnings.simplefilter("error", UserWarning)
                try:
                    expected = np.loadtxt(lines, delimiter="\t", comments=None, ndmin=2)
                except (ValueError, UserWarning):
                    expected = None
            # Cold parses in one, two and three shares, at every span size.
            parsed = _compare(monkeypatch, path, 1, 1)
            if expected is None:
                column = 2 + lines[0].split("\t").index(cell)
                assert parsed == (f"non-numeric value {cell!r} ({path}, row 2, column {column})",
                                  str(path), 2, column)
            else:
                _, _, shape, (data, _) = parsed
                assert shape == expected.shape
                assert data == expected.tobytes()
        # The kernel leaves the cell to float() if it has the kernel's form,
        # as 1e400 has, and to the rule otherwise.
        paths.update(kernel=0, float=0, rule=0)
        _parse(tmp_path / "grid0.tsv", 1, 1)
        converter = "float" if KERNEL_FORM.fullmatch(cell.encode()) else "rule"
        assert paths == {"kernel": 0, "float": 0, "rule": 0, converter: 1}

    def test_rows_of_differing_widths_are_rejected(self, tmp_path):
        # The cutter counts each row's cells; the kernel never sees a row.
        path = tmp_path / "grid.tsv"
        for header, lines, found in (("label\tc0\tc1", ["1\t2", "3"], 2),
                                     ("label\tc0\tc1", ["1\t2", "3\t4\t5"], 4),
                                     ("label\tc0", ["1", "2\t3"], 3)):
            path.write_text("\n".join([header, *(f"r{k}\t{line}" for k, line in
                                                 enumerate(lines))]) + "\n")
            width = header.count("\t") + 1
            with pytest.raises(ParseError) as caught:
                _parse_file(path, "\t", 1, 1)
            assert (caught.value.message, caught.value.row, caught.value.column) == (
                f"expected {width} cells, found {found}", 3, min(found, width) + 1)

    def test_powers_of_ten_are_correctly_rounded(self):
        for q, power in zip(range(-fileio._POWER_RANGE, fileio._POWER_RANGE + 1),
                            fileio._POWERS_OF_TEN):
            assert Fraction(*power.as_integer_ratio()) == _nearest_long_double(Fraction(10) ** q)

    @pytest.mark.parametrize("text, value", [("1_000", None), ("\u0661\u0662", None),
                                             ("\uff11", None), (" 1.5", 1.5), ("+1.5", 1.5),
                                             ("nan", math.nan), ("1e0001", 10.0)],
                             ids=["underscore", "arabic-indic", "full-width", "space", "plus",
                                  "nan", "four-digit-exponent"])
    def test_no_fast_path_widens_what_a_parse_accepts(self, tmp_path, monkeypatch, text,
                                                      value):
        # float() reads the first three and np.loadtxt does not, so a parse
        # rejects them; it reads the others as np.loadtxt does.
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        cells = lines[9].split("\t")
        cells[6] = text
        lines[9] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        parsed = _compare(monkeypatch, path)
        if value is None:
            assert parsed == (f"non-numeric value {text!r} ({path}, row 10, column 7)",
                              str(path), 10, 7)
        else:
            _, _, shape, (data, _) = parsed
            read = np.frombuffer(data).reshape(shape)[7, 4]
            assert read == value or (math.isnan(value) and math.isnan(read))

    def test_every_double_round_trips(self, tmp_path, rng, paths):
        # Random bit patterns, a quarter of them subnormal, with the extremes
        # and both zeros; negative only in Y, where the account allows it.
        extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                             -2.2250738585072014e-308, 1.7976931348623157e308,
                             -1.7976931348623157e308])

        def doubles(shape, signed=False):
            bits = rng.integers(0, 1 << 64, shape, dtype=np.uint64)
            bits[rng.random(shape) < 0.25] &= np.uint64(0x800FFFFFFFFFFFFF)
            values = bits.view(np.float64)
            values[~np.isfinite(values)] = 1.0
            values.flat[:len(extremes)] = extremes
            return values if signed else np.abs(values)
        account = fixtures.fixture(5, 40, 11)
        account = replace(account, Z=doubles(account.Z.shape), Y=doubles(account.Y.shape, True),
                          x=doubles(account.x.shape), extensions={
                              name: replace(ext, rows=doubles(ext.rows.shape))
                              for name, ext in account.extensions.items()})
        read = fileio.ingest(fileio.write_account(account, tmp_path)).account
        for name in ("Z", "Y", "x"):
            assert getattr(read, name).tobytes() == getattr(account, name).tobytes(), name
        for name, ext in account.extensions.items():
            assert read.extensions[name].rows.tobytes() == ext.rows.tobytes(), name
        assert paths["kernel"] > 0 and paths["float"] > 0 and paths["rule"] == 0

    def test_compare_is_byte_identical_without_the_kernel(self, tmp_path, monkeypatch, paths):
        trees = {}
        for kernel in (True, False):
            root = tmp_path / str(kernel)
            fixtures.write_fixture_set(5, 40, 11, root / "fx")
            with monkeypatch.context() as patch:
                patch.setattr(fileio, "_EXACT_DECIMALS", kernel)
                assert main(["compare", "--layout", str(root / "fx" / "layout.json"),
                             "--params", str(root / "fx" / "params.json"),
                             "--scenario", str(root / "fx" / "scenarios" / "baseline.json"),
                             "--scenario", str(root / "fx" / "scenarios" / "halved.json"),
                             "--out", str(root / "out")]) == 0
            assert (paths["kernel"] > 0) == kernel
            paths["kernel"] = 0
            trees[kernel] = {str(p.relative_to(root)): p.read_bytes()
                             for p in sorted(root.rglob("*")) if p.is_file()}
        assert any(name.startswith("fx/.mrio-cache/lu-") for name in trees[True])
        assert trees[True] == trees[False]


# Doubles whose exact value times 10**(16 - x) lies so close to a
# half-integer that the kernel's long double product can round to its other
# side. Cut the kernel's margin from D * 2**-62 to D * 2**-64 and it
# misformats every one of them; at D * 2**-63 it misformats none. Found
# among 3.8 million random bit patterns.
NEAR_HALF_INTEGERS = [float.fromhex(text) for text in (
    "-0x1.f18394792d5c5p-421", "-0x1.cef575998b9f4p-111", "0x1.860e306fdf443p-214",
    "-0x1.a7592b295187fp+712", "0x1.cc3e5e57dc6bep+859", "0x1.9f0f15d5539a7p+178",
    "-0x1.7082a8e67c555p-814", "0x1.d4f207ff01f41p+849", "-0x1.7bc521199c6f4p+693",
    "0x1.429eec1730710p+198")]


def _trap_values(rng) -> np.ndarray:
    """Doubles that a "%.17g" writer may get wrong, each with both signs:
    random finite bit patterns, subnormals, powers of two and of ten with
    their neighbours one unit in the last place away, one digit times a
    power of ten, 17 digits and a 5 (within a unit in the last place of a
    tie), NEAR_HALF_INTEGERS, both zeros, both infinities and nan."""
    bits = rng.integers(0, 1 << 64, 20000, dtype=np.uint64)
    random = bits.view(np.float64)
    subnormal = (bits[:2000] & np.uint64(0x000FFFFFFFFFFFFF)).view(np.float64)
    powers = np.array([2.0 ** k for k in range(-1074, 1024)]
                      + [float(f"1e{k}") for k in range(-323, 309)])
    single_digits = [float(f"{digit}e{exponent}") for digit in range(1, 10)
                     for exponent in range(-30, 31)]
    near_ties = [float(f"{digits}5e{exponent}") for digits, exponent in
                 zip(rng.integers(10 ** 16, 10 ** 17, 4000).tolist(),
                     rng.integers(-340, 290, 4000).tolist())]
    values = np.concatenate([random[np.isfinite(random)], subnormal, np.nextafter(powers, 0),
                             powers, np.nextafter(powers, np.inf), single_digits, near_ties,
                             NEAR_HALF_INTEGERS, [0.0, np.inf, np.nan]])
    return np.concatenate([values, -values])


# The writer's settings under test: the kernel with blocks of about
# NUMBER_BLOCK_BYTES, format_number alone, and the kernel a row at a time.
WRITER_SETTINGS = {"kernel": {}, "no kernel": {"_EXACT_DECIMALS": False},
                   "one-row blocks": {"NUMBER_BLOCK_BYTES": 1}}


def _comma_set():
    """A comma-delimited account whose labels are quoted: they hold commas
    and quotes."""
    account = fixtures.fixture(2, 3, 5)
    index = model.RegionSectorIndex(
        regions=account.index.regions,
        sectors=("Vegetables, fruit, nuts", 'Manure treatment ("biogas"), land', "Other"))
    labour = account.extensions["labour"]
    return replace(account, index=index, extensions=account.extensions | {
        "labour": replace(labour, stressors=tuple(f'"{s}", all ages' for s in labour.stressors))})


class TestNumberWriter:
    """Grid text written by the "%.17g" kernel and format_number is
    byte-identical to the row formatter they replaced
    (``_oracles.format_rows``), whatever the writer's settings."""

    @pytest.mark.parametrize("setting", WRITER_SETTINGS)
    @pytest.mark.parametrize("delimiter", ["\t", ","], ids=["tab", "comma"])
    def test_trap_values_cell_by_cell(self, rng, monkeypatch, setting, delimiter):
        for name, value in WRITER_SETTINGS[setting].items():
            monkeypatch.setattr(fileio, name, value)
        values = _trap_values(rng)
        matrix = np.append(values, np.zeros(-len(values) % 8)).reshape(-1, 8)
        grid = (delimiter, [(f"r{k}",) for k in range(len(matrix))], matrix)
        written = b"".join(fileio._write_rows(grid, (0, len(matrix))))
        expected = format_rows(grid, (0, len(matrix))).encode()

        def cells(text: bytes) -> list[bytes]:
            return [cell for line in text.splitlines()
                    for cell in line.split(delimiter.encode())[1:]]
        differ = [(value, found, wanted) for value, found, wanted
                  in zip(matrix.ravel().tolist(), cells(written), cells(expected))
                  if found != wanted]
        assert differ == []
        assert written == expected

    @pytest.mark.parametrize("setting", WRITER_SETTINGS)
    @pytest.mark.parametrize("account, delimiter", [
        (lambda: fixtures.fixture(3, 5, 7), "tab"), (lambda: fixtures.fixture(5, 40, 11), "tab"),
        (_comma_set, "comma")], ids=["fixture(3, 5, 7)", "fixture(5, 40, 11)", "comma"])
    def test_every_written_file_matches_the_oracle(self, tmp_path, monkeypatch, setting,
                                                   account, delimiter):
        account = account()
        for name, value in WRITER_SETTINGS[setting].items():
            monkeypatch.setattr(fileio, name, value)
        fileio.write_account(account, tmp_path / "written", delimiter)
        monkeypatch.setattr(fileio, "_format_rows",
                            lambda grid, rows: format_rows(grid, rows).encode())
        fileio.write_account(account, tmp_path / "oracle", delimiter)
        oracle = sorted(path.name for path in (tmp_path / "oracle").iterdir())
        assert sorted(path.name for path in (tmp_path / "written").iterdir()) == oracle
        assert len(oracle) == 10
        for name in oracle:
            assert ((tmp_path / "written" / name).read_bytes()
                    == (tmp_path / "oracle" / name).read_bytes()), name

    @pytest.mark.skipif(not fileio._EXACT_DECIMALS, reason="long double is not the x87 format")
    def test_the_kernel_writes_nine_in_ten_fixture_cells(self, tmp_path, monkeypatch):
        account = fixtures.fixture(5, 40, 11)
        cells = account.Z.size + account.Y.size + account.x.size + sum(
            ext.rows.size + len(ext.direct or ()) for ext in account.extensions.values())
        fallback = []
        format_number = fileio.format_number
        monkeypatch.setattr(fileio, "format_number",
                            lambda value: fallback.append(value) or format_number(value))
        fileio.write_account(account, tmp_path)
        assert 0 < len(fallback) <= cells / 10
