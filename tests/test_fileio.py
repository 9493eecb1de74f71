"""Ingest / emit round-trip and parse-error tests."""

import json

import numpy as np
import pytest

from mrio_footprint import fileio, fixtures
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

    def test_extension_with_missing_column(self, written_set, tmp_path):
        _, layout_path = written_set
        ext_path = tmp_path / "ext_energy.tsv"
        lines = ext_path.read_text().splitlines()
        trimmed = ["\t".join(line.split("\t")[:-1]) for line in lines]
        ext_path.write_text("\n".join(trimmed) + "\n")
        with pytest.raises(DimensionMismatch):
            fileio.ingest(layout_path)

    def test_ragged_row_is_a_parse_error(self, written_set, tmp_path):
        _, layout_path = written_set
        y_path = tmp_path / "y.tsv"
        lines = y_path.read_text().splitlines()
        lines[3] += "\t1.0"
        y_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as excinfo:
            fileio.ingest(layout_path)
        assert excinfo.value.row == 4

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
        account = fixtures.fixture(1, 2, 3)
        layout_path = fileio.write_account(account, tmp_path, delimiter_name="comma")
        back = fileio.ingest(layout_path).account
        np.testing.assert_array_equal(back.Z, account.Z)


class TestFixtureSet:
    def test_same_seed_is_byte_identical(self, tmp_path):
        fileio.write_fixture_set(2, 3, 42, tmp_path / "a")
        fileio.write_fixture_set(2, 3, 42, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                         if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_contains_runnable_inputs(self, tmp_path):
        layout_path = fileio.write_fixture_set(2, 3, 1, tmp_path)
        assert layout_path.exists()
        for name in ("category_concordance.tsv", "sector_groups.tsv", "params.json"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "scenarios" / "baseline.json").exists()
        assert (tmp_path / "scenarios" / "halved.json").exists()
