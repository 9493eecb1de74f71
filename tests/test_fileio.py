"""Ingest / emit round-trip and parse-error tests."""

import gc
import json
import os
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrio_footprint import algebra, fileio, fixtures, model
from mrio_footprint.cli import main
from mrio_footprint.errors import DimensionMismatch, ParseError, UnitMismatch


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
    def test_direct_use_must_cover_each_region_once(self, account_357, tmp_path, direct):
        energy = replace(account_357.extensions["energy"], direct=direct)
        account = replace(account_357, extensions=account_357.extensions | {"energy": energy})
        with pytest.raises(DimensionMismatch, match="not one value for each account region"):
            fileio.write_account(account, tmp_path)

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

    @pytest.mark.parametrize("text", ["", "  "])
    def test_empty_cell_names_row_and_column(self, written_set, tmp_path, text):
        _, layout_path = written_set
        self._set_cell(tmp_path / "z.tsv", 4, 5, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(ParseError) as excinfo:
                fileio.ingest(layout_path)
        assert (excinfo.value.row, excinfo.value.column) == (5, 6)
        assert f"non-numeric value {text!r}" in str(excinfo.value)

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
        ('"1\t2"', "non-numeric value '1\\t2'"), ("-5", "negative value -5")])
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

    @pytest.mark.parametrize("name, line, cell, row", [
        ("z.tsv", 4, 2, 5), ("z.tsv", 4, 0, 5), ("z.tsv", 1, 3, 2), ("ext_energy.tsv", 2, 3, 3),
        ("x.tsv", 0, 2, 1)])
    def test_byte_that_is_not_utf8_names_file_and_row(self, written_set, tmp_path, name, line,
                                                      cell, row):
        # A header is read as text, which reads ahead into the body: a bad
        # body byte must still be named by its own row.
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
        with pytest.raises(ParseError, match="'R0' listed twice") as excinfo:
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
        with pytest.raises(DimensionMismatch):
            fileio.ingest(layout_path)

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

    def test_missing_unit_label(self, written_set, tmp_path):
        _, layout_path = written_set
        descriptor = json.loads(layout_path.read_text())
        descriptor["extensions"][0]["unit"] = ""
        layout_path.write_text(json.dumps(descriptor))
        with pytest.raises(UnitMismatch):
            fileio.ingest(layout_path)

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
        assert (warning.region, warning.sector) == ("R0", "S1")
        assert "known gap" in warning.note

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


def _z_entry(layout_path):
    """The cached matrix of a layout's transaction grid."""
    key = fileio._cache_key(layout_path.parent / "z.tsv", layout_path.parent, "\t", 2, 2)
    return layout_path.parent / fileio.CACHE_DIR / f"{key}.npy"


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

    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape", "truncated-validate"])
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
        whole = entry.read_bytes()
        if damage.startswith("truncated"):
            entry.write_bytes(whole[: len(whole) // 2])
        else:
            np.save(entry, expected[:-1])
        if damage.endswith("validate"):
            assert main(validate) == 0
            assert capsys.readouterr().out == cold
        assert fileio.ingest(layout_path).account.Z.tobytes() == expected.tobytes()
        assert entry.read_bytes() == whole

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
        # reader without that check, is parsed again to name the row.
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
                            {"headers": rows[:2], "labels": [row[:2] for row in rows[2:]]})
        assert entry.with_suffix(".npy").exists()
        assert fileio._grid_load(entry, 2, 2, nonnegative=True) is None
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 4
        assert ("'R0 / S0' is repeated" if bad == "repeated label"
                else "negative value -0.5") in str(excinfo.value)

    def test_unwritable_cache_is_skipped(self, written_set, tmp_path):
        account, layout_path = written_set
        (tmp_path / fileio.CACHE_DIR).write_text("not a directory")
        for _ in range(2):
            np.testing.assert_array_equal(fileio.ingest(layout_path).account.Z, account.Z)
        assert (tmp_path / fileio.CACHE_DIR).read_text() == "not a directory"


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

    def test_output_comes_from_one_in_place_factorization(self, monkeypatch):
        # The pipeline's LU path builds I - A in one Fortran buffer and
        # factorizes it in place, so no n x n identity or difference is made.
        calls = []
        factor = algebra.lu_factor

        def recorded(a, overwrite_a=False):
            calls.append((a.flags.f_contiguous, overwrite_a))
            return factor(a, overwrite_a=overwrite_a)
        monkeypatch.setattr(algebra, "lu_factor", recorded)
        fixtures.fixture(2, 3, 42)
        assert calls == [(True, True)]

    def test_contains_runnable_inputs(self, tmp_path):
        layout_path = fixtures.write_fixture_set(2, 3, 1, tmp_path)
        assert layout_path.exists()
        for name in ("category_concordance.tsv", "sector_groups.tsv", "params.json"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "scenarios" / "baseline.json").exists()
        assert (tmp_path / "scenarios" / "halved.json").exists()


def _pid(shared, chunk):
    return os.getpid()


def _parse(path, index_cols=2, header_rows=2, delimiter="\t"):
    """A grid parsed by the pipeline, or the ParseError it raises."""
    try:
        headers, labels, matrix = fileio._parse_grid(path, delimiter, index_cols, header_rows)
    except ParseError as exc:
        return str(exc), exc.path, exc.row, exc.column
    return headers, labels, matrix.shape, matrix.tobytes()


# Span sizes: one byte, so that each line is a span; sizes that cut the
# fixtures' lines at odd places; and more than any body, one span in all.
SPAN_SIZES = [1, 61, 333, 1001, 1 << 40]


def _compare(monkeypatch, path, *args, **kwargs):
    """Parse a grid in spans of each of SPAN_SIZES, in-process and with a
    forked worker; returns the parse, which must be the same every way."""
    expected = _parse(path, *args, **kwargs)
    for size in SPAN_SIZES:
        for processes in (1, 2):
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

    def test_workers_take_every_other_chunk(self):
        parent = os.getpid()
        pids = list(fileio._fork_map(_pid, None, list(range(5)), 2))
        assert pids[0::2] == [parent] * 3 and parent not in pids[1::2]

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
                assert fileio._line_start(handle, offset) == expected

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_blank_lines_and_line_endings(self, tmp_path, monkeypatch, ending):
        fileio.write_account(fixtures.fixture(3, 5, 7), tmp_path)
        path = tmp_path / "z.tsv"
        lines = path.read_text().splitlines()
        for k in (len(lines), 10, 9, 2):
            lines.insert(k, "")
        path.write_bytes((ending.join(lines) + ending * 2).encode())
        headers, labels, shape, _ = _compare(monkeypatch, path)
        assert shape == (15, 15) and len(labels) == 15

    def test_quoted_label_holding_the_delimiter(self, tmp_path, monkeypatch):
        account = fixtures.fixture(2, 2, 3)
        index = model.RegionSectorIndex(
            regions=account.index.regions,
            sectors=("Vegetables, fruit, nuts", 'Manure treatment ("biogas"), land'))
        fileio.write_account(replace(account, index=index), tmp_path, delimiter_name="comma")
        _, labels, _, _ = _compare(monkeypatch, tmp_path / "z.tsv", delimiter=",")
        assert labels[-1] == ("R1", 'Manure treatment ("biogas"), land')

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
        message, where, row, column = _compare(monkeypatch, path)
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
        opened, parsed = [], []
        open_file, parse_span = Path.open, fileio._parse_span

        class Recorded:
            """A binary file that records the (position, size) of its reads."""

            def __init__(self, handle):
                self.handle, self.reads = handle, []
                opened.append(self.reads)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def seek(self, offset):
                return self.handle.seek(offset)

            def read(self, size=-1):
                self.reads.append((self.handle.tell(), size))
                return self.handle.read(size)

        def recorded_open(self, mode="r", *args, **kwargs):
            handle = open_file(self, mode, *args, **kwargs)
            return Recorded(handle) if mode == "rb" else handle

        def parse(grid, span):
            first = len(opened)
            try:
                return parse_span(grid, span)
            finally:
                parsed.append((span, opened[first:]))
        monkeypatch.setattr(Path, "open", recorded_open)
        monkeypatch.setattr(fileio, "_parse_span", parse)
        result = _parse(path)
        # The body's spans are parsed in order up to the failing one, and
        # each is opened once and read once, whole.
        body = len("".join(path.read_text().splitlines(True)[:2]))
        cuts = [body] + [end for (_, end), _ in parsed]
        assert [span for span, _ in parsed] == list(zip(cuts, cuts[1:]))
        assert all(reads == [[(start, end - start)]] for (start, end), reads in parsed)
        if edits == [(3, 4, "oops")]:
            assert len(parsed) == 1 and cuts[-1] < path.stat().st_size
        else:
            assert len(parsed) > 1 and cuts[-1] == path.stat().st_size
        assert ("oops" in result[0]) == bool(edits)

    def test_written_grids_are_byte_identical(self, tmp_path, monkeypatch):
        account = fixtures.fixture(3, 5, 7)
        fileio.write_account(account, tmp_path / "in-process")
        with monkeypatch.context() as patch:
            patch.setattr(fileio, "PARALLEL_BYTES", 1)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            fileio.write_account(account, tmp_path / "forked")
        for path in (tmp_path / "in-process").iterdir():
            assert (tmp_path / "forked" / path.name).read_bytes() == path.read_bytes()

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
