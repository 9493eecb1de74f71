"""End-to-end CLI tests: exit codes, pipeline consistency, determinism."""

import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mrio_footprint
from _oracles import exact_solve, operator, technical_coefficients, total_row
from mrio_footprint import algebra, cli, fileio, fixtures, indicators, model, scenario
from mrio_footprint.cli import main


@pytest.fixture()
def fixture_dir(tmp_path):
    out = tmp_path / "fx"
    assert main(["fixture", "--regions", "3", "--sectors", "5", "--seed", "7",
                 "--out", str(out)]) == 0
    return out


def run_footprint(fixture_dir: Path, out: Path, scenario: str = "baseline") -> int:
    return main([
        "footprint",
        "--layout", str(fixture_dir / "layout.json"),
        "--scenario", str(fixture_dir / "scenarios" / f"{scenario}.json"),
        "--params", str(fixture_dir / "params.json"),
        "--out", str(out),
    ])


def run_compare(fixture_dir: Path, out: Path, scenarios: list[str]) -> int:
    argv = ["compare", "--layout", str(fixture_dir / "layout.json"),
            "--params", str(fixture_dir / "params.json"), "--out", str(out)]
    for name in scenarios:
        argv += ["--scenario", str(fixture_dir / "scenarios" / f"{name}.json")]
    return main(argv)


def read_report(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def report_value(rows: list[dict], extension: str, dimension: str, label: str = "") -> float:
    for row in rows:
        if (row["extension"], row["dimension"], row["label"]) == (extension, dimension, label):
            return float(row["value"])
    raise KeyError((extension, dimension, label))


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestValidate:
    def test_clean_fixture_exits_zero(self, fixture_dir, capsys):
        assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "productive" in out

    def test_perturbed_fixture_exits_two_with_flagged_row(self, fixture_dir, tmp_path, capsys):
        account = fileio.ingest(fixture_dir / "layout.json").account
        Z = account.Z.copy()
        Z[2, 3] += 0.1 * account.x[2]
        broken = model.MrioAccount(index=account.index, Z=Z, Y=account.Y,
                                   y_columns=account.y_columns, x=account.x,
                                   extensions=account.extensions, year=account.year)
        layout_path = fileio.write_account(broken, tmp_path / "broken")
        assert main(["validate", "--layout", str(layout_path)]) == 2
        assert "row 2" in capsys.readouterr().out

    @staticmethod
    def write_two_sector_account(out_dir: Path, Z, y_columns, Y, extensions=None,
                                 x=(100.0, 100.0)) -> Path:
        index = model.RegionSectorIndex(regions=("R0",), sectors=("S0", "S1"))
        account = model.MrioAccount(index=index, Z=np.array(Z), Y=np.array(Y),
                                    y_columns=y_columns, x=np.array(x),
                                    extensions=extensions or {}, year=2012)
        return fileio.write_account(account, out_dir)

    def test_periodic_account_is_certified_productive(self, tmp_path, capsys):
        # Two sectors that trade only with each other: A = [[0, 0.9], [0.1, 0]]
        # has eigenvalues +-0.3, on which a power iteration never settles.
        layout_path = self.write_two_sector_account(
            tmp_path / "periodic", [[0.0, 90.0], [10.0, 0.0]],
            (("R0", "households"),), [[10.0], [90.0]])
        assert main(["validate", "--layout", str(layout_path)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "productivity: spectral radius <= " in out and "— productive" in out

    def test_unproductive_account_exits_two(self, tmp_path, capsys):
        # Balanced through a negative inventory change, but sector S0 uses
        # 1.5 units of its own output per unit produced.
        layout_path = self.write_two_sector_account(
            tmp_path / "unproductive", [[150.0, 0.0], [0.0, 50.0]],
            (("R0", "households"), ("R0", "inventory-change")),
            [[0.0, -50.0], [50.0, 0.0]])
        out_dir = tmp_path / "report"
        assert main(["validate", "--layout", str(layout_path), "--out", str(out_dir)]) == 2
        out = capsys.readouterr().out
        assert "0 violation(s)" in out and "— UNPRODUCTIVE" in out
        payload = json.loads((out_dir / "validation.json").read_text())
        assert payload["productivity"] == {"spectral_radius": None, "productive": False}

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_nan_or_negative_tol_exits_one_before_ingest(self, fixture_dir, capsys,
                                                        monkeypatch, tol):
        def no_ingest(*args):
            raise AssertionError("ingest ran before --tol was checked")
        monkeypatch.setattr(fileio, "ingest", no_ingest)
        assert main(["validate", "--layout", str(fixture_dir / "layout.json"),
                     "--tol", tol]) == 1
        assert f"--tol {tol} is not a nonnegative number" in capsys.readouterr().err

    def test_infinite_tol_passes_every_row(self, fixture_dir, capsys):
        x_path = fixture_dir / "x.tsv"
        lines = x_path.read_text().splitlines(True)
        region, sector, value = lines[1].rstrip("\n").split("\t")
        lines[1] = f"{region}\t{sector}\t{float(value) * 1.5!r}\n"
        x_path.write_text("".join(lines))
        layout = str(fixture_dir / "layout.json")
        assert main(["validate", "--layout", layout]) == 2
        assert "1 violation(s)" in capsys.readouterr().out
        assert main(["validate", "--layout", layout, "--tol", "inf"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_missing_file_exits_one_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere" / "layout.json"
        assert main(["validate", "--layout", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_byte_that_is_not_utf8_exits_one_naming_its_row(self, fixture_dir, capsys):
        path = fixture_dir / "z.tsv"
        lines = path.read_bytes().split(b"\n")
        lines[4] += b"\xe9"
        path.write_bytes(b"\n".join(lines))
        assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 1
        err = capsys.readouterr().err
        assert "text is not UTF-8" in err and f"{path}, row 5)" in err
        assert "Traceback" not in err

    def test_quoted_value_holding_the_delimiter_exits_one(self, fixture_dir, capsys):
        path = fixture_dir / "ext_energy.tsv"
        lines = path.read_text().splitlines()
        cells = lines[2].split("\t")
        cells[3] = '"1\t2"'
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: non-numeric value '1\\t2' ({path}, row 3, column 4)"]

    def test_machine_readable_output(self, fixture_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["validate", "--layout", str(fixture_dir / "layout.json"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "validation.json").read_text())
        assert payload["balance"]["violations"] == []
        assert payload["productivity"]["productive"] is True

    def test_ingest_warnings_are_printed_and_recorded(self, fixture_dir, tmp_path, capsys):
        layout_path = fixture_dir / "layout.json"
        descriptor = json.loads(layout_path.read_text())
        descriptor["ingest_warnings"] = [
            {"region": "R0", "sector": "S1", "note": "zero output in the source year"}]
        layout_path.write_text(json.dumps(descriptor))
        out = tmp_path / "report"
        assert main(["validate", "--layout", str(layout_path), "--out", str(out)]) == 0
        assert ("warning: (R0, S1) zero output in the source year"
                in capsys.readouterr().out.splitlines())
        payload = json.loads((out / "validation.json").read_text())
        assert payload["warnings"] == [
            {"region": "R0", "sector": "S1", "note": "zero output in the source year"}]


class TestFootprint:
    def test_identity_scenario_matches_library_computation(self, fixture_dir, tmp_path):
        assert run_footprint(fixture_dir, tmp_path / "out") == 0
        rows = read_report(tmp_path / "out" / "baseline" / "report.csv")

        account = fileio.ingest(fixture_dir / "layout.json").account
        op = operator(technical_coefficients(account.Z, account.x))
        codes = scenario.load_concordance(fixture_dir / "category_concordance.tsv",
                                          account.index)
        # The run's block is the home region's category basis, and the
        # identity scenario's factors are all one.
        basis, _ = scenario.category_basis(*model.home_demand(account, "R0"), codes,
                                           account.index)
        q = op.apply(basis)
        for name in ("labour", "energy", "emissions"):
            s = algebra.intensity(total_row(account.extensions[name]), account.x)
            expected = ((s[:, np.newaxis] * q).sum(axis=0) * np.ones(13)).sum()
            assert report_value(rows, name, "total") == expected

    def test_identity_scenarios_of_two_home_regions_keep_their_direct_use(
            self, fixture_dir, tmp_path):
        spec = json.loads((fixture_dir / "scenarios" / "baseline.json").read_text())
        spec.update(name="baseline-r1", home_region="R1")
        (fixture_dir / "scenarios" / "baseline-r1.json").write_text(json.dumps(spec))
        assert main(["footprint", "--layout", str(fixture_dir / "layout.json"),
                     "--params", str(fixture_dir / "params.json"),
                     "--out", str(tmp_path / "out"),
                     "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                     "--scenario", str(fixture_dir / "scenarios" / "baseline-r1.json")]) == 0
        with (fixture_dir / "direct_energy.tsv").open(newline="") as handle:
            direct = {row["region"]: float(row["value"])
                      for row in csv.DictReader(handle, delimiter="\t")}
        for name, region in (("baseline", "R0"), ("baseline-r1", "R1")):
            rows = read_report(tmp_path / "out" / name / "report.csv")
            assert report_value(rows, "energy", "direct-use") == direct[region]
        assert direct["R0"] != direct["R1"]

    def test_halved_scenario_halves_one_category(self, fixture_dir, tmp_path):
        assert run_footprint(fixture_dir, tmp_path / "base", "baseline") == 0
        assert run_footprint(fixture_dir, tmp_path / "half", "halved") == 0
        base = read_report(tmp_path / "base" / "baseline" / "report.csv")
        half = read_report(tmp_path / "half" / "halved" / "report.csv")

        halved_spec = json.loads(
            (fixture_dir / "scenarios" / "halved.json").read_text())
        halved_category = next(c for c, v in halved_spec["category_targets"].items()
                               if v is not None)
        for row in base:
            if row["extension"] != "labour" or row["dimension"] != "category":
                continue
            before = float(row["value"])
            after = report_value(half, "labour", "category", row["label"])
            if row["label"] == halved_category:
                assert after == pytest.approx(0.5 * before, rel=1e-9)
            elif row["label"] == "Gross fixed capital formation":
                assert after == pytest.approx(before, rel=1e-12)
            else:
                assert after == pytest.approx(before, rel=1e-12)

    def test_direct_use_scales_with_embedded(self, fixture_dir, tmp_path):
        assert run_footprint(fixture_dir, tmp_path / "base", "baseline") == 0
        assert run_footprint(fixture_dir, tmp_path / "half", "halved") == 0
        base = read_report(tmp_path / "base" / "baseline" / "report.csv")
        half = read_report(tmp_path / "half" / "halved" / "report.csv")
        ratio = (report_value(half, "energy", "total")
                 / report_value(base, "energy", "total"))
        assert report_value(half, "energy", "direct-use") == pytest.approx(
            ratio * report_value(base, "energy", "direct-use"), rel=1e-9)

    def test_material_variants_are_ordered(self, fixture_dir, tmp_path):
        assert run_footprint(fixture_dir, tmp_path / "out") == 0
        rows = read_report(tmp_path / "out" / "baseline" / "report.csv")
        tmc = report_value(rows, "material-tmc", "total")
        mf = report_value(rows, "material-mf", "total")
        assert 0.0 < mf < tmc

    def test_two_invocations_are_byte_identical(self, fixture_dir, tmp_path):
        assert run_footprint(fixture_dir, tmp_path / "a") == 0
        assert run_footprint(fixture_dir, tmp_path / "b") == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


class TestCompare:
    def test_self_comparison_has_zero_deltas(self, fixture_dir, tmp_path):
        spec = json.loads((fixture_dir / "scenarios" / "baseline.json").read_text())
        spec["name"] = "baseline-again"
        (fixture_dir / "scenarios" / "baseline-again.json").write_text(json.dumps(spec))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "baseline-again"]) == 0
        with (tmp_path / "cmp" / "comparison.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(float(r["delta_total"]) == 0.0 for r in rows)

    def test_deltas_match_report_subtraction(self, fixture_dir, tmp_path):
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "halved"]) == 0
        reports = {name: read_report(tmp_path / "cmp" / name / "report.csv")
                   for name in ("baseline", "halved")}
        with (tmp_path / "cmp" / "comparison.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            for column, dimension in (("delta_total", "total"),
                                      ("delta_per_capita", "per-capita")):
                values = [report_value(reports[name], row["extension"], dimension)
                          for name in (row["scenario"], "baseline")]
                assert float(row[column]) == values[0] - values[1]

    def test_comparison_rows_run_extension_major(self, fixture_dir, tmp_path):
        assert run_compare(fixture_dir, tmp_path / "cmp", ["halved", "baseline"]) == 0
        report = read_report(tmp_path / "cmp" / "halved" / "report.csv")
        extensions = list(dict.fromkeys(r["extension"] for r in report))
        with (tmp_path / "cmp" / "comparison.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["extension"], r["scenario"]) for r in rows] == [
            (extension, name) for extension in extensions for name in ("halved", "baseline")]

    @pytest.mark.parametrize("extensions, figures", [
        (None, ["fig1", "fig2", "fig3", "fig4", "fig5"]),
        ("labour", ["fig1", "fig2", "fig3", "fig4"]),
        ("energy", ["fig5"]),
    ])
    def test_a_figure_is_written_when_it_has_rows(self, fixture_dir, tmp_path,
                                                 extensions, figures):
        argv = ["compare", "--layout", str(fixture_dir / "layout.json"),
                "--params", str(fixture_dir / "params.json"), "--out", str(tmp_path / "cmp"),
                "--scenario", str(fixture_dir / "scenarios" / "baseline.json")]
        if extensions is not None:
            argv += ["--extensions", extensions]
        assert main(argv) == 0
        assert sorted(p.stem for p in (tmp_path / "cmp" / "plots").iterdir()) == figures

    def test_a_rerun_deletes_the_figures_it_does_not_write(self, fixture_dir, tmp_path):
        out = tmp_path / "cmp"
        assert run_compare(fixture_dir, out, ["baseline", "halved"]) == 0
        assert main(["compare", "--layout", str(fixture_dir / "layout.json"),
                     "--params", str(fixture_dir / "params.json"), "--out", str(out),
                     "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                     "--extensions", "labour"]) == 0
        figures = sorted((out / "plots").iterdir())
        assert [path.stem for path in figures] == ["fig1", "fig2", "fig3", "fig4"]
        for path in [*figures, out / "comparison.csv"]:
            with path.open(newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert {(row["extension"], row["scenario"]) for row in rows} == {
                ("labour", "baseline")}, path
        # A scenario directory this run does not write is left alone.
        assert (out / "halved" / "report.csv").is_file()

    def test_plot_segments_sum_to_report_totals(self, fixture_dir, tmp_path):
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "halved"]) == 0
        reports = {
            name: read_report(tmp_path / "cmp" / name / "report.csv")
            for name in ("baseline", "halved")
        }
        params = json.loads((fixture_dir / "params.json").read_text())

        def plot_rows(figure: str) -> list[dict]:
            with (tmp_path / "cmp" / "plots" / f"{figure}.csv").open(newline="") as handle:
                return list(csv.DictReader(handle))

        for name, rows in reports.items():
            fig1 = [r for r in plot_rows("fig1") if r["scenario"] == name]
            total_week = report_value(rows, "labour", "hours-week-equivalent")
            assert sum(float(r["value"]) for r in fig1) == pytest.approx(
                total_week, rel=1e-9)

            fig3 = [r for r in plot_rows("fig3") if r["scenario"] == name]
            assert sum(float(r["value"]) for r in fig3) == pytest.approx(
                report_value(rows, "labour", "total"), rel=1e-9)
            assert sum(float(r["share"]) for r in fig3) == pytest.approx(100.0, rel=1e-9)

            fig5 = [r for r in plot_rows("fig5") if r["scenario"] == name
                    and r["extension"] == "energy"]
            expected = (report_value(rows, "energy", "total")
                        + report_value(rows, "energy", "direct-use"))
            assert sum(float(r["value"]) for r in fig5) == pytest.approx(
                expected / params["total_population"], rel=1e-9)

    def test_category_rows_are_within_two_ulps_of_the_exact_split(self, fixture_dir, tmp_path):
        # Category c's baseline figure is s (I - A)^-1 b_c for basis column
        # b_c. Solved exactly, with the engine's s and basis and A = Z / x
        # (zero-output columns zeroed), every row of report.csv lies within
        # 2 ulps of the correctly rounded value: the worst case, on these
        # values, of the other route, m b_c with m = s (I - A)^-1.
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline"]) == 0
        account = fileio.ingest(fixture_dir / "layout.json").account
        index, x = account.index, account.x
        codes = scenario.load_concordance(fixture_dir / "category_concordance.tsv", index)
        basis, _ = scenario.category_basis(*model.home_demand(account, "R0"), codes, index)
        A = [[Fraction(z) / Fraction(x[j]) if x[j] > algebra.ZERO_OUTPUT_EPS else 0
              for j, z in enumerate(row)] for row in account.Z.tolist()]
        Q = exact_solve(A, basis.tolist())
        exact = {}
        for variant in indicators.report_variants(account, list(account.extensions)):
            for c, category in enumerate(scenario.SPENDING_CATEGORIES):
                exact[variant.name, category] = float(sum(
                    Fraction(s) * q[c] for s, q in zip(variant.total_intensity.tolist(), Q)))
        rows = [row for row in read_report(tmp_path / "cmp" / "baseline" / "report.csv")
                if row["dimension"] == "category"]
        assert {(row["extension"], row["label"]) for row in rows} == set(exact)
        for row in rows:
            value, expected = float(row["value"]), exact[row["extension"], row["label"]]
            # Floats of one sign are ordered as their bit patterns.
            assert value >= 0.0 and expected >= 0.0
            bits = np.array([value, expected]).view(np.int64)
            assert abs(int(bits[0]) - int(bits[1])) <= 2, row

    def test_plot_rows_follow_each_reports_params(self, account_357):
        index = account_357.index
        operator = algebra.LeontiefOperator(account_357.Z, account_357.x)
        variants = indicators.report_variants(account_357, list(account_357.extensions))
        codes = scenario.category_codes(fixtures.fixture_category_concordance(index), index)
        basis, _ = scenario.category_basis(*model.home_demand(account_357, "R0"), codes, index)
        groups = indicators.sector_group_codes(fixtures.fixture_sector_groups(index), index)
        params = fixtures.fixture_conversion_params()
        # The second scenario halves consumption and keeps capital formation.
        reports = indicators.footprint_reports(
            account_357, variants, {"R0": operator.apply(basis)},
            [("first", "R0", np.ones(13)), ("second", "R0", np.r_[np.full(12, 0.5), 1.0])],
            *groups, params)
        other = dataclasses.replace(params, working_age_population=1.3e6,
                                    total_population=2.5e6, weeks_worked_per_year=40.0)
        reports[1] = [dataclasses.replace(report, params=other) for report in reports[1]]

        figures = cli._plot_rows(reports)
        for report in (report for scenario_reports in reports for report in scenario_reports):
            origin = [("domestic", report.by_origin.domestic),
                      ("imported", report.by_origin.imported)]
            if report.hours_week_equivalent is None:
                figure, unit = "fig5", f"{report.unit}/person/year"
                if report.direct_use is not None:
                    origin.append(("direct use", report.direct_use))
                expected = [(label, indicators.per_capita(value,
                                                          report.params.total_population))
                            for label, value in origin]
            else:
                figure, unit = "fig1", "hours/week"
                expected = [(label, indicators.hours_per_week_equivalent(value, report.params))
                            for label, value in report.by_category.items()]
            rows = [row for row in figures[figure]
                    if row[1:3] == [report.scenario, report.extension_name]]
            assert rows == [[figure, report.scenario, report.extension_name, label,
                             fileio.format_number(value), "", unit]
                            for label, value in expected]
        # The first scenario's params would give the second's rows other values.
        [energy] = [report for report in reports[1] if report.extension_name == "energy"]
        row = next(row for row in figures["fig5"] if row[1:4] == ["second", "energy", "domestic"])
        assert row[4] != fileio.format_number(energy.by_origin.domestic / params.total_population)

    def test_unknown_scenario_exits_one(self, fixture_dir, tmp_path, capsys):
        rc = main(["compare", "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "cmp"),
                   "--scenario", str(fixture_dir / "scenarios" / "absent.json")])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sector_groups.tsv", "category_concordance.tsv"])
    def test_table_that_is_not_utf8_exits_one_naming_it(self, fixture_dir, tmp_path, capsys,
                                                        name):
        path = fixture_dir / name
        text = path.read_bytes()
        row = text[:text.index(b"S1")].count(b"\n") + 1
        path.write_bytes(text.replace(b"S1", b"S\xe91", 1))
        assert run_footprint(fixture_dir, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"text is not UTF-8 ({path}, row {row})" in err and "Traceback" not in err

    def test_spec_that_is_not_utf8_exits_one_naming_it(self, fixture_dir, tmp_path, capsys):
        path = fixture_dir / "scenarios" / "baseline.json"
        path.write_bytes(path.read_bytes().replace(b'"baseline"', b'"basel\xe9ne"', 1))
        assert run_footprint(fixture_dir, tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: text is not UTF-8 ({path})\n"

    # Excel's "UTF-8" export starts a file with a byte-order mark.
    @pytest.mark.parametrize("name", [
        "category_concordance.tsv", "sector_groups.tsv", "params.json", "layout.json",
        "scenarios/halved.json", "z.tsv", "y.tsv", "x.tsv", "ext_labour.tsv",
        "direct_energy.tsv"])
    def test_leading_byte_order_mark_is_skipped(self, fixture_dir, tmp_path, name):
        assert run_compare(fixture_dir, tmp_path / "plain", ["baseline", "halved"]) == 0
        path = fixture_dir / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run_compare(fixture_dir, tmp_path / "bom", ["baseline", "halved"]) == 0
        assert tree_bytes(tmp_path / "bom") == tree_bytes(tmp_path / "plain")

    @pytest.mark.parametrize("verb", ["compare", "footprint"])
    def test_duplicate_scenario_names_exit_one(self, fixture_dir, tmp_path, capsys, verb):
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec["name"] = "baseline"
        (fixture_dir / "scenarios" / "renamed.json").write_text(json.dumps(spec))
        rc = main([verb, "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "out"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--scenario", str(fixture_dir / "scenarios" / "renamed.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "baseline.json" in err and "renamed.json" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, name", [
        ("compare", ".."), ("footprint", ".."), ("compare", "a/b"),
        ("compare", "comparison.csv"), ("compare", "plots"),
    ])
    def test_spec_name_outside_its_directory_exits_one_before_ingest(
            self, fixture_dir, tmp_path, capsys, monkeypatch, verb, name):
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec["name"] = name
        (fixture_dir / "scenarios" / "renamed.json").write_text(json.dumps(spec))

        def no_ingest(*args):
            raise AssertionError("ingest ran before the scenario names were checked")
        monkeypatch.setattr(fileio, "ingest", no_ingest)
        out = tmp_path / "runs" / "out"
        rc = main([verb, "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"), "--out", str(out),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--scenario", str(fixture_dir / "scenarios" / "renamed.json")])
        assert rc == 1
        assert "renamed.json" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_footprint_may_name_a_scenario_plots(self, fixture_dir, tmp_path):
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec["name"] = "plots"
        (fixture_dir / "scenarios" / "plots.json").write_text(json.dumps(spec))
        assert run_footprint(fixture_dir, tmp_path / "fp", "plots") == 0
        assert (tmp_path / "fp" / "plots" / "report.csv").exists()

    def test_mixed_home_regions_exit_one(self, fixture_dir, tmp_path, capsys, monkeypatch):
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec["home_region"] = "R1"
        (fixture_dir / "scenarios" / "abroad.json").write_text(json.dumps(spec))

        def no_ingest(*args):
            raise AssertionError("ingest ran before the home regions were checked")
        monkeypatch.setattr(fileio, "ingest", no_ingest)
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "abroad"]) == 1
        err = capsys.readouterr().err
        assert "baseline.json" in err and "abroad.json" in err
        assert "'R0'" in err and "'R1'" in err
        assert not (tmp_path / "cmp").exists()

        monkeypatch.undo()
        argv = ["compare", "--layout", str(fixture_dir / "layout.json"),
                "--params", str(fixture_dir / "params.json"), "--out", str(tmp_path / "cmp"),
                "--home-region", "R0",
                "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                "--scenario", str(fixture_dir / "scenarios" / "abroad.json")]
        assert main(argv) == 0

    def test_sector_missing_from_groups_fails_before_factorize(
            self, fixture_dir, tmp_path, capsys, monkeypatch):
        groups = fixture_dir / "sector_groups.tsv"
        groups.write_text("".join(line for line in groups.read_text().splitlines(True)
                                  if not line.startswith("S3\t")))

        def no_factorize(*args):
            raise AssertionError("factorize ran before the sector groups were checked")
        monkeypatch.setattr(algebra, "LeontiefOperator", no_factorize)
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline"]) == 1
        err = capsys.readouterr().err
        assert "'S3' has no sector group" in err and "sector_groups.tsv" in err

    @pytest.mark.parametrize("verb, columns", [("compare", 14), ("footprint", 27),
                                               ("validate", 1)])
    def test_one_forward_solve_per_run(self, fixture_dir, tmp_path, monkeypatch, verb,
                                       columns):
        # One dgetrs call, never transposed: the 13 category-basis columns of
        # every home region and a column of ones for the productivity
        # certificate; validate solves the column of ones alone.
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec.update(name="abroad", home_region="R1")
        (fixture_dir / "scenarios" / "abroad.json").write_text(json.dumps(spec))
        calls = []
        getrs = algebra._getrs

        def recorded(trans, order, nrhs, *rest):
            calls.append((trans, nrhs.value))
            return getrs(trans, order, nrhs, *rest)

        monkeypatch.setattr(algebra, "_getrs", recorded)
        argv = [verb, "--layout", str(fixture_dir / "layout.json"), "--out", str(tmp_path / "out")]
        if verb != "validate":
            argv += ["--params", str(fixture_dir / "params.json")]
            for name in ("baseline", "halved", "abroad"):
                argv += ["--scenario", str(fixture_dir / "scenarios" / f"{name}.json")]
        # compare takes one home region; footprint each spec's own, R0 and R1.
        assert main(argv + (["--home-region", "R2"] if verb == "compare" else [])) == 0
        assert calls == [(b"N", columns)]

    @pytest.mark.parametrize("count", [2, 64])
    def test_forward_solve_has_13_columns_whatever_the_scenario_count(
            self, fixture_dir, tmp_path, monkeypatch, count):
        baseline = json.loads((fixture_dir / "scenarios" / "baseline.json").read_text())
        names = ["baseline", "halved"]
        for k in range(count - 2):
            names.append(f"extra-{k}")
            spec = baseline | {"name": names[-1], "government_factor": k / (count - 2)}
            (fixture_dir / "scenarios" / f"{names[-1]}.json").write_text(json.dumps(spec))
        shapes = []
        apply = algebra.LeontiefOperator.apply

        def recorded(self, demand):
            shapes.append(np.shape(demand))
            return apply(self, demand)

        monkeypatch.setattr(algebra.LeontiefOperator, "apply", recorded)
        assert run_compare(fixture_dir, tmp_path / "out", names) == 0
        assert shapes == [(15, 14)]

    def test_failing_scenario_writes_nothing(self, fixture_dir, tmp_path, capsys):
        # The fixture's home region spends nothing on education.
        spec = json.loads((fixture_dir / "scenarios" / "baseline.json").read_text())
        spec["name"] = "schooling"
        spec["category_targets"]["Education"] = 1.0
        (fixture_dir / "scenarios" / "schooling.json").write_text(json.dumps(spec))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "schooling"]) == 1
        assert "Education" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("own_use, extensions", [
        (1.5, ("labour",)), (1.5, ()), (1.0 - 2.0 ** -21, ("labour",))],
        ids=["labour", "none", "within the margin"])
    def test_unproductive_account_exits_two_and_writes_nothing(self, tmp_path, capsys,
                                                               own_use, extensions):
        # Balanced, with unit output, but S0 uses ``own_use`` units of its own
        # output per unit; S1 carries the only labour (30 hours) and the only
        # home demand. 1 - 2^-21 solves exactly, to a bound of 1 - 2^-21,
        # which is within PRODUCTIVITY_MARGIN of 1.
        fx = tmp_path / "fx"
        fixtures.write_fixture_set(1, 2, 0, fx)
        labour = model.ExtensionAccount(
            name="labour", unit="hours", stressors=fixtures.LABOUR_STRESSORS,
            rows=np.tile([0.0, 5.0], (6, 1)), kind="labour")
        Y = np.zeros((2, len(model.DEMAND_CATEGORIES)))
        Y[:, model.DEMAND_CATEGORIES.index(model.CATEGORY_HOUSEHOLDS)] = [0.0, 0.5]
        Y[:, model.DEMAND_CATEGORIES.index(model.CATEGORY_INVENTORY)] = [1.0 - own_use, 0.0]
        layout = str(TestValidate.write_two_sector_account(
            fx, [[own_use, 0.0], [0.0, 0.5]],
            tuple(("R0", category) for category in model.DEMAND_CATEGORIES), Y,
            {"labour": labour} if extensions else None, x=(1.0, 1.0)))
        for verb in ("compare", "footprint"):
            out = tmp_path / verb
            assert main([verb, "--layout", layout, "--params", str(fx / "params.json"),
                         "--scenario", str(fx / "scenarios" / "baseline.json"),
                         "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "spectral radius" in captured.err
            assert ("too close to 1" in captured.err) == (own_use < 1.0)
        assert main(["validate", "--layout", layout]) == 2
        assert "— UNPRODUCTIVE" in capsys.readouterr().out

    def test_extension_selection(self, fixture_dir, tmp_path):
        rc = main(["compare", "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "cmp"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--extensions", "labour"])
        assert rc == 0
        rows = read_report(tmp_path / "cmp" / "baseline" / "report.csv")
        assert {r["extension"] for r in rows} == {"labour"}

    def test_unknown_extension_exits_one_before_the_factorization(self, fixture_dir, tmp_path,
                                                                  capsys, factorizations):
        rc = main(["compare", "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "cmp"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--extensions", "labour,nope"])
        assert rc == 1
        assert capsys.readouterr().err == "error: extension 'nope' not present in the account\n"
        assert factorizations == []

    @pytest.mark.parametrize("verb", ["compare", "footprint"])
    def test_extension_listed_twice_exits_one(self, fixture_dir, tmp_path, capsys,
                                              monkeypatch, verb):
        def no_ingest(*args):
            raise AssertionError("ingest ran before --extensions was checked")
        monkeypatch.setattr(fileio, "ingest", no_ingest)
        rc = main([verb, "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "out"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--extensions", "labour,energy,labour"])
        assert rc == 1
        assert "'labour'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("selection", [",", ""])
    @pytest.mark.parametrize("verb", ["compare", "footprint"])
    def test_extensions_naming_none_exits_one(self, fixture_dir, tmp_path, capsys,
                                              monkeypatch, verb, selection):
        def no_ingest(*args):
            raise AssertionError("ingest ran before --extensions was checked")
        monkeypatch.setattr(fileio, "ingest", no_ingest)
        rc = main([verb, "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "out"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--extensions", selection])
        assert rc == 1
        assert f"--extensions {selection!r} names no extension" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target", [float("nan"), float("inf")])
    def test_non_finite_target_exits_one(self, fixture_dir, tmp_path, capsys, target):
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec["name"] = "odd"
        spec["category_targets"]["Housing"] = target
        # json writes NaN and Infinity, which its reader accepts.
        (fixture_dir / "scenarios" / "odd.json").write_text(json.dumps(spec))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "odd"]) == 1
        err = capsys.readouterr().err
        assert "odd.json" in err and "'Housing'" in err and "finite" in err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("category", ["Yachts", "Gross fixed capital formation"])
    def test_concordance_category_outside_the_sector_categories_exits_one(
            self, fixture_dir, tmp_path, capsys, category):
        path = fixture_dir / "category_concordance.tsv"
        lines = path.read_text().splitlines(True)
        lines[2] = f"S2\t{category}\n"
        path.write_text("".join(lines))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline"]) == 1
        err = capsys.readouterr().err
        assert "'S2'" in err and "category_concordance.tsv, row 3" in err

    def test_home_region_with_demand_but_no_sectors_exits_one(self, fixture_dir, tmp_path,
                                                              capsys):
        # Final-demand columns may name a region that owns no sector; as home
        # region it has no direct use and no domestic block.
        y_path = fixture_dir / "y.tsv"
        header, rest = y_path.read_text().split("\n", 1)
        y_path.write_text(header.replace("R2", "R9") + "\n" + rest)
        rc = main(["footprint", "--layout", str(fixture_dir / "layout.json"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "out"), "--home-region", "R9",
                   "--extensions", "energy"])
        assert rc == 1
        assert "unknown region 'R9'" in capsys.readouterr().err

    @pytest.mark.parametrize("region", ["", "  "], ids=["empty", "blank"])
    @pytest.mark.parametrize("verb", ["footprint", "compare"])
    def test_empty_home_region_exits_one_before_ingest(
            self, fixture_dir, tmp_path, capsys, monkeypatch, verb, region):
        # A spec of each home region: an empty flag must not let them mix.
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec["home_region"] = "R1"
        (fixture_dir / "scenarios" / "abroad.json").write_text(json.dumps(spec))

        def no_ingest(*args):
            raise AssertionError("ingest ran before --home-region was checked")
        monkeypatch.setattr(fileio, "ingest", no_ingest)
        argv = [verb, "--layout", str(fixture_dir / "layout.json"),
                "--params", str(fixture_dir / "params.json"), "--out", str(tmp_path / "out"),
                "--home-region", region]
        for name in (["baseline", "abroad"] if verb == "compare" else ["abroad"]):
            argv += ["--scenario", str(fixture_dir / "scenarios" / f"{name}.json")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: --home-region {region!r} names no region\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [False, True], ids=["spec", "--home-region"])
    def test_unknown_home_region_exits_one_before_factorize(
            self, fixture_dir, tmp_path, capsys, monkeypatch, flag):
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        if not flag:
            spec["home_region"] = "R9"
        (fixture_dir / "scenarios" / "abroad.json").write_text(json.dumps(spec))

        def no_factorize(*args):
            raise AssertionError("factorize ran before the home region was checked")
        monkeypatch.setattr(algebra, "LeontiefOperator", no_factorize)
        argv = ["compare", "--layout", str(fixture_dir / "layout.json"),
                "--params", str(fixture_dir / "params.json"), "--out", str(tmp_path / "cmp"),
                "--scenario", str(fixture_dir / "scenarios" / "abroad.json")]
        assert main(argv + ["--home-region", "R9"] if flag else argv) == 1
        err = capsys.readouterr().err
        assert "unknown region 'R9'" in err
        assert ("--home-region" in err) if flag else ("abroad.json" in err)
        assert not (tmp_path / "cmp").exists()

    def test_misspelt_demand_category_exits_one_before_factorize(
            self, fixture_dir, tmp_path, capsys, monkeypatch):
        # Extra categories stay allowed, but a selected one may not go missing.
        y_path = fixture_dir / "y.tsv"
        header, categories, rest = y_path.read_text().split("\n", 2)
        categories = categories.replace("households", "household")
        y_path.write_text("\n".join([header, categories, rest]))

        def no_factorize(*args):
            raise AssertionError("factorize ran before the demand columns were checked")
        monkeypatch.setattr(algebra, "LeontiefOperator", no_factorize)
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "halved"]) == 1
        err = capsys.readouterr().err
        assert "region 'R0' has no final-demand column for category 'households'" in err
        assert not (tmp_path / "cmp").exists()

    def test_direct_use_without_the_home_region_exits_one(self, fixture_dir, tmp_path, capsys):
        path = fixture_dir / "direct_energy.tsv"
        lines = path.read_text().splitlines(True)
        path.write_text("".join(line for line in lines if not line.startswith("R0\t")))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline"]) == 1
        err = capsys.readouterr().err
        assert "'R0'" in err and "direct_energy.tsv" in err
        assert not (tmp_path / "cmp").exists()

    def test_non_finite_workers_per_unit_exits_one(self, fixture_dir, tmp_path, capsys):
        path = fixture_dir / "layout.json"
        layout = json.loads(path.read_text())
        (labour,) = (e for e in layout["extensions"] if e["name"] == "labour")
        labour["workers_per_unit"] = float("nan")
        path.write_text(json.dumps(layout))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline"]) == 1
        err = capsys.readouterr().err
        assert "layout.json" in err and "workers_per_unit" in err and "spectral" not in err

    @pytest.mark.parametrize("field", ["working_age_population", "total_population"])
    def test_non_finite_population_exits_one(self, fixture_dir, tmp_path, capsys, field):
        path = fixture_dir / "params.json"
        params = json.loads(path.read_text())
        params[field] = float("nan")
        path.write_text(json.dumps(params))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline"]) == 1
        err = capsys.readouterr().err
        assert "params.json" in err and "finite and positive" in err


SCENARIOS = ["baseline", "halved"]


def cached_operator(ingested: fileio.IngestResult) -> algebra.LeontiefOperator:
    """The account's Leontief operator, on its cached LU as the verbs make it."""
    account = ingested.account
    return algebra.LeontiefOperator(account.Z, account.x, fileio.factorization_entry(
        ingested, algebra.factorization_identity()))


def lu_entry(fixture_dir: Path) -> Path:
    """The one cached LU factorization of a fixture set."""
    (entry,) = (fixture_dir / fileio.CACHE_DIR).glob("lu-*/*.npy")
    return entry


class TestFactorizationCache:
    @pytest.fixture(autouse=True)
    def identified_blas(self):
        if algebra.factorization_identity() is None:
            pytest.skip("numpy's OpenBLAS cannot be identified, so no LU is cached")

    def test_warm_compare_makes_no_factorization(self, fixture_dir, tmp_path, factorizations):
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        assert len(factorizations) == 1
        assert run_compare(fixture_dir, tmp_path / "warm", SCENARIOS) == 0
        assert len(factorizations) == 1

    def test_outputs_identical_computed_and_loaded(self, fixture_dir, tmp_path):
        for run in ("computed", "loaded"):
            assert run_compare(fixture_dir, tmp_path / run / "compare", SCENARIOS) == 0
            assert run_footprint(fixture_dir, tmp_path / run / "footprint") == 0
            assert main(["validate", "--layout", str(fixture_dir / "layout.json"),
                         "--out", str(tmp_path / run / "validate")]) == 0
        assert tree_bytes(tmp_path / "loaded") == tree_bytes(tmp_path / "computed")

    @pytest.mark.parametrize("verb", ["compare", "validate"])
    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape", "C-ordered", "nan",
                                        "perturbed", "ipiv zero", "ipiv past n", "ipiv float",
                                        "ipiv short", "ipiv not a list"])
    def test_damaged_entry_is_refactorized_and_rewritten(
            self, fixture_dir, tmp_path, factorizations, damage, verb):
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        entry = lu_entry(fixture_dir)
        whole, pivots = entry.read_bytes(), entry.with_suffix(".json").read_text()
        lu = np.load(entry)
        n = len(lu)
        # dgetrs reads the pivots through a raw pointer: one out of [1, n]
        # must never reach it.
        ipiv = {"ipiv zero": [0] * n, "ipiv past n": [n + 1] * n,
                "ipiv float": [float(p) for p in range(1, n + 1)],
                "ipiv short": list(range(1, n)), "ipiv not a list": n}.get(damage)
        if ipiv is not None:
            entry.with_suffix(".json").write_text(json.dumps({"ipiv": ipiv}))
        elif damage == "truncated":
            entry.write_bytes(whole[: len(whole) // 2])
        elif damage == "wrong-shape":
            np.save(entry, lu[:-1, :-1])
        elif damage == "C-ordered":
            # The right numbers, but LAPACK could read them only from a copy.
            np.save(entry, np.ascontiguousarray(lu))
        elif damage == "nan":
            np.save(entry, np.full_like(lu, np.nan))
        else:
            np.save(entry, lu * (1.0 + 1e-3))
        if verb == "compare":
            assert run_compare(fixture_dir, tmp_path / "again", SCENARIOS) == 0
            assert tree_bytes(tmp_path / "again") == tree_bytes(tmp_path / "cold")
        else:
            # Never an UNPRODUCTIVE verdict (exit 2) from a damaged entry.
            assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 0
        assert len(factorizations) == 2
        assert entry.read_bytes() == whole
        assert entry.with_suffix(".json").read_text() == pivots

    def test_entry_with_0_based_pivots_is_refactorized_once_and_rewritten(
            self, fixture_dir, tmp_path, factorizations):
        # An entry as written before the cache held LAPACK's own pivots: the
        # same LU, with 0-based pivots under "piv". It is never solved on:
        # the first run factorizes again and rewrites it, the second reads it.
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        meta = lu_entry(fixture_dir).with_suffix(".json")
        written = meta.read_text()
        ipiv = json.loads(written)["ipiv"]
        assert ipiv == list(range(1, len(ipiv) + 1))
        meta.write_text(json.dumps({"piv": [p - 1 for p in ipiv]}))
        assert run_compare(fixture_dir, tmp_path / "first", SCENARIOS) == 0
        assert len(factorizations) == 2 and meta.read_text() == written
        assert run_compare(fixture_dir, tmp_path / "second", SCENARIOS) == 0
        assert len(factorizations) == 2
        for run in ("first", "second"):
            assert tree_bytes(tmp_path / run) == tree_bytes(tmp_path / "cold")

    def test_changed_blas_identity_replaces_the_entry(self, fixture_dir, tmp_path,
                                                      factorizations, monkeypatch):
        assert run_compare(fixture_dir, tmp_path / "first", SCENARIOS) == 0
        first = lu_entry(fixture_dir)
        identity = algebra.factorization_identity()
        monkeypatch.setattr(algebra, "factorization_identity", lambda: identity + "; other")
        assert run_compare(fixture_dir, tmp_path / "second", SCENARIOS) == 0
        assert len(factorizations) == 2
        second = lu_entry(fixture_dir)
        assert second != first and not first.exists() and not first.with_suffix(".json").exists()

    def test_unidentified_blas_uses_no_entry(self, fixture_dir, tmp_path, factorizations,
                                             monkeypatch):
        assert run_compare(fixture_dir, tmp_path / "cached", SCENARIOS) == 0
        entry = lu_entry(fixture_dir)
        whole = entry.read_bytes()
        monkeypatch.setattr(algebra, "factorization_identity", lambda: None)
        for run in ("first", "second"):
            assert run_compare(fixture_dir, tmp_path / run, SCENARIOS) == 0
            assert tree_bytes(tmp_path / run) == tree_bytes(tmp_path / "cached")
        assert len(factorizations) == 3
        assert lu_entry(fixture_dir) == entry and entry.read_bytes() == whole

    def test_unwritable_cache_factorizes_every_run(self, fixture_dir, tmp_path,
                                                  factorizations):
        (fixture_dir / fileio.CACHE_DIR).write_text("not a directory")
        for run in ("first", "second"):
            assert run_compare(fixture_dir, tmp_path / run, SCENARIOS) == 0
        assert len(factorizations) == 2
        assert tree_bytes(tmp_path / "second") == tree_bytes(tmp_path / "first")

    def test_unproductive_account_stores_no_entry(self, tmp_path, factorizations):
        # A factorization is saved only once a solve with it passes its check.
        layout_path = TestValidate.write_two_sector_account(
            tmp_path / "unproductive", [[150.0, 0.0], [0.0, 50.0]],
            (("R0", "households"), ("R0", "inventory-change")),
            [[0.0, -50.0], [50.0, 0.0]])
        for _ in range(2):
            assert main(["validate", "--layout", str(layout_path)]) == 2
        assert len(factorizations) == 2
        assert not list((layout_path.parent / fileio.CACHE_DIR).glob("lu-*/*"))

    def test_warm_run_maps_every_entry(self, fixture_dir, factorizations, monkeypatch):
        # A cold run parses, factorizes, and stores its LU after one solve.
        layout_path = fixture_dir / "layout.json"
        cold = fileio.ingest(layout_path)
        cached_operator(cold).apply(np.ones(cold.account.index.n))

        def no_copy(*args, **kwargs):
            raise AssertionError("a cache entry was copied into memory")
        monkeypatch.setattr(np, "fromfile", no_copy)
        ingested = fileio.ingest(layout_path)
        operator = cached_operator(ingested)
        certificate = algebra.ProductivityEstimate.of(
            operator.apply(np.ones(ingested.account.index.n)))
        assert certificate.productive
        assert len(factorizations) == 1
        lu, _ = operator._lu
        assert not (lu.flags.writeable or lu.flags.owndata)
        assert not (ingested.account.Z.flags.writeable or ingested.account.Z.flags.owndata)

    @pytest.mark.parametrize("what", ["grids re-stored", "grids replaced", "lu re-stored"])
    def test_entries_stored_mid_run_leave_the_run_unchanged(
            self, fixture_dir, tmp_path, factorizations, monkeypatch, what):
        # Entries are replaced by a rename, never rewritten in place, so a run
        # that holds them mapped keeps reading what it mapped.
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        cache = fixture_dir / fileio.CACHE_DIR
        held, before = [], []
        leontief_operator = algebra.LeontiefOperator

        def store_mid_run(Z, x, store):
            result = leontief_operator(Z, x, store)
            held[:] = [Z, result._lu[0]]
            before[:] = [array.tobytes() for array in held]
            pattern = "lu-*/*.npy" if what.startswith("lu") else "*.tsv-*/*.npy"
            for entry in cache.glob(pattern):
                matrix, meta = fileio._cache_load(entry.with_suffix(""))
                target = (entry.parent / ("0" * 64) if what == "grids replaced"
                          else entry.with_suffix(""))
                fileio._cache_store(target, matrix * 2.0 + 1.0, meta)
            return result
        monkeypatch.setattr(algebra, "LeontiefOperator", store_mid_run)
        assert run_compare(fixture_dir, tmp_path / "warm", SCENARIOS) == 0
        assert tree_bytes(tmp_path / "warm") == tree_bytes(tmp_path / "cold")
        assert len(factorizations) == 1
        assert [array.tobytes() for array in held] == before

    def test_a_dead_writers_temporary_files_are_removed(self, fixture_dir, tmp_path,
                                                        factorizations):
        # A writer killed while storing an entry leaves its temporary file and
        # no .json; the next run stores the entry and removes the file.
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        cache = fixture_dir / fileio.CACHE_DIR
        entries = [lu_entry(fixture_dir), *cache.glob("z.tsv-*/*.npy")]
        assert len(entries) == 2
        for entry in entries:
            entry.with_suffix(".json").unlink()
            (entry.parent / f".{entry.name}.{os.getpid() + 1}.tmp").write_bytes(b"part")
        assert run_compare(fixture_dir, tmp_path / "again", SCENARIOS) == 0
        assert len(factorizations) == 2
        for entry in entries:
            assert sorted(entry.parent.iterdir()) == [entry.with_suffix(".json"), entry]

    def test_validate_reuses_the_entry_compare_wrote(self, fixture_dir, tmp_path,
                                                     factorizations):
        assert run_compare(fixture_dir, tmp_path / "cmp", SCENARIOS) == 0
        assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 0
        assert len(factorizations) == 1


# Every verb in one fresh interpreter; the last line of its output is a JSON
# list of the exit codes, the scipy and process-pool modules imported, and
# the OpenBLAS libraries mapped (null where /proc/self/maps does not exist).
EVERY_VERB = """
import json, sys
from mrio_footprint.cli import main
out = sys.argv[1]
fx = out + "/fx"
run = ["--layout", fx + "/layout.json", "--params", fx + "/params.json",
       "--scenario", fx + "/scenarios/baseline.json"]
codes = [main(["fixture", "--regions", "3", "--sectors", "5", "--seed", "7", "--out", fx]),
         main(["validate", "--layout", fx + "/layout.json", "--out", out + "/validate"]),
         main(["footprint", *run, "--out", out + "/footprint"]),
         main(["compare", *run, "--scenario", fx + "/scenarios/halved.json",
               "--out", out + "/compare"])]
imported = [name for name in sys.modules
            if name.split(".")[0] in ("scipy", "multiprocessing", "concurrent")
            or name == "numpy.ma"]
try:
    with open("/proc/self/maps") as maps:
        blas = sorted({line.split(None, 5)[-1].strip() for line in maps
                       if "openblas" in line.lower()})
except FileNotFoundError:
    blas = None
print(json.dumps([codes, imported, blas]))
"""


# Checks that run before ingest: --out on or under a plain file, a missing
# input file, and an --extensions list naming no extension or one twice.
BEFORE_INGEST = ("a-file", "under-a-file", "no-layout", "no-scenario", "no-params",
                 "no-categories", "no-groups", "extensions-comma", "extension-twice")


@pytest.mark.parametrize("verb, case", [
    (verb, case) for case in BEFORE_INGEST for verb in ("compare", "footprint", "validate")
    if verb != "validate" or case in ("a-file", "under-a-file", "no-layout")])
def test_out_on_a_file_exits_one_before_ingest(fixture_dir, tmp_path, capsys, monkeypatch,
                                               verb, case):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    missing = tmp_path / "nowhere"

    def no_ingest(*args):
        raise AssertionError(f"ingest ran before the {case} check")
    monkeypatch.setattr(fileio, "ingest", no_ingest)
    flags = {"--layout": fixture_dir / "layout.json", "--out": tmp_path / "out"}
    if verb != "validate":
        flags |= {"--params": fixture_dir / "params.json",
                  "--scenario": fixture_dir / "scenarios" / "baseline.json"}
    expected = f"missing file: {missing}"
    if case in ("a-file", "under-a-file"):
        flags["--out"] = afile if case == "a-file" else afile / "sub"
        expected = f"{afile} exists and is not a directory"
    elif case.startswith("no-"):
        flags["--" + case[3:]] = missing
    elif case == "extensions-comma":
        flags["--extensions"] = ","
        expected = "--extensions ',' names no extension"
    else:
        flags["--extensions"] = "labour,energy,labour"
        expected = "extension 'labour' is listed twice in --extensions"
    assert main([verb, *(str(item) for pair in flags.items() for item in pair)]) == 1
    assert expected in capsys.readouterr().err
    assert afile.read_text() == "kept\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["", "  "], ids=["empty", "blank"])
@pytest.mark.parametrize("verb", ["validate", "footprint", "compare", "fixture"])
def test_out_naming_no_directory_exits_one(fixture_dir, tmp_path, capsys, monkeypatch, verb,
                                           out):
    # Path("") is the working directory, which --out '' must not write into.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    flags = {"validate": ["--layout", fixture_dir / "layout.json"],
             "fixture": ["--regions", 1, "--sectors", 2, "--seed", 0]}.get(verb, [
        "--layout", fixture_dir / "layout.json", "--params", fixture_dir / "params.json",
        "--scenario", fixture_dir / "scenarios" / "baseline.json"])
    assert main([verb, *map(str, flags), "--out", out]) == 1
    assert capsys.readouterr().err == f"error: --out {out!r} names no directory\n"
    assert list(cwd.iterdir()) == []


def test_repeated_final_demand_column_fails_at_ingest(fixture_dir, tmp_path, capsys):
    # Summed with R0's own households column, the relabelled inventory
    # change would quietly change every footprint.
    path = fixture_dir / "y.tsv"
    lines = path.read_text().split("\n")
    categories = lines[1].split("\t")
    k = categories.index("inventory-change")
    categories[k] = "households"
    lines[1] = "\t".join(categories)
    path.write_text("\n".join(lines))
    assert lines[0].split("\t")[k] == "R0"
    assert run_footprint(fixture_dir, tmp_path / "fp") == 1
    err = capsys.readouterr().err
    assert "final-demand column 'R0 / households' is repeated" in err
    assert f"({path}, row 2, column {k + 1})" in err
    assert not (tmp_path / "fp").exists()


@pytest.mark.parametrize("target, kind", [
    ("--layout", "directory"), ("--scenario", "directory"), ("--params", "directory"),
    ("--categories", "directory"), ("--groups", "directory"), ("direct_file", "directory"),
    ("direct_file", "missing"),
])
def test_unreadable_input_exits_one_without_a_traceback(fixture_dir, tmp_path, target, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    flags = {"--layout": fixture_dir / "layout.json", "--params": fixture_dir / "params.json",
             "--scenario": fixture_dir / "scenarios" / "baseline.json",
             "--categories": fixture_dir / "category_concordance.tsv",
             "--groups": fixture_dir / "sector_groups.tsv"}
    if target == "direct_file":
        layout = json.loads(flags["--layout"].read_text())
        (energy,) = (e for e in layout["extensions"] if e["name"] == "energy")
        energy["direct_file"] = str(path)
        flags["--layout"].write_text(json.dumps(layout))
    else:
        flags[target] = path
    argv = ["compare", "--out", str(tmp_path / "cmp")]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    source = str(Path(mrio_footprint.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-m", "mrio_footprint.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=source),
                          capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    expected = "cannot read file: " if kind == "directory" else "missing file: "
    assert done.stderr.startswith("error: " + expected) and str(path) in done.stderr


@pytest.mark.parametrize("target", ["--params", "transactions"])
def test_directory_for_a_file_exits_one_naming_it(fixture_dir, tmp_path, capsys, target):
    path = tmp_path / "input"
    path.mkdir()
    params = fixture_dir / "params.json"
    if target == "transactions":
        layout = json.loads((fixture_dir / "layout.json").read_text())
        layout["files"]["transactions"] = str(path)
        (fixture_dir / "layout.json").write_text(json.dumps(layout))
    else:
        params = path
    assert main(["compare", "--layout", str(fixture_dir / "layout.json"),
                 "--params", str(params), "--out", str(tmp_path / "cmp"),
                 "--scenario", str(fixture_dir / "scenarios" / "baseline.json")]) == 1
    error = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    assert capsys.readouterr().err == f"error: cannot read file: {error} ({path})\n"


def test_labour_stressor_without_a_skill_level_fails_at_ingest(fixture_dir, tmp_path, capsys,
                                                              monkeypatch):
    path = fixture_dir / "ext_labour.tsv"
    text = path.read_text()
    assert "female low-skilled\t" in text
    path.write_text(text.replace("female low-skilled\t", "female unskilled\t"))
    assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 1
    err = capsys.readouterr().err
    assert "labour stressor 'female unskilled'" in err and "ext_labour.tsv" in err

    def no_factorize(*args):
        raise AssertionError("factorize ran before the labour stressors were checked")
    monkeypatch.setattr(algebra, "LeontiefOperator", no_factorize)
    assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "halved"]) == 1
    err = capsys.readouterr().err
    assert "labour stressor 'female unskilled'" in err and "ext_labour.tsv" in err


def test_no_verb_imports_scipy_linalg(tmp_path):
    # The LU and its solves run in numpy's own OpenBLAS, so no verb imports
    # any scipy module or maps a second BLAS. Grids this small are parsed
    # and written in-process, so no verb loads the process-pool modules
    # either. Nor does any verb load numpy.ma, which np.unique imports on
    # its first call: 20-30 ms of every cold run.
    source = str(Path(mrio_footprint.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", EVERY_VERB, str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    codes, imported, blas = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert imported == []
    assert blas is None or len(blas) == 1


class TestFixtureCommand:
    def test_round_trips_through_validate(self, fixture_dir):
        assert main(["validate", "--layout", str(fixture_dir / "layout.json"),
                     "--tol", "1e-9"]) == 0

    def test_same_seed_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["fixture", "--regions", "2", "--sectors", "4", "--seed", "11",
                         "--out", str(tmp_path / name)]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    @pytest.mark.parametrize("flag, value, message", [
        ("--regions", "0", "--regions 0 is not a positive count"),
        ("--sectors", "0", "--sectors 0 is not a positive count"),
        ("--seed", "-1", "--seed -1 is negative"),
        ("--out", "afile", "afile exists and is not a directory"),
        ("--out", "afile/fx", "afile exists and is not a directory"),
    ], ids=["no-regions", "no-sectors", "negative-seed", "out-a-file", "out-under-a-file"])
    def test_bad_argument_exits_one_writing_nothing(self, tmp_path, capsys, flag, value,
                                                    message):
        (tmp_path / "afile").write_text("kept\n")
        flags = {"--regions": "2", "--sectors": "3", "--seed": "1",
                 "--out": str(tmp_path / "fx")}
        flags[flag] = str(tmp_path / value) if flag == "--out" else value
        assert main(["fixture", *(item for pair in flags.items() for item in pair)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert [path.name for path in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_an_os_error_is_one_line_naming_the_path(self, tmp_path, capsys):
        # The scenario directory's name is taken by a plain file, which only
        # the write finds.
        blocked = tmp_path / "fx" / "scenarios"
        blocked.parent.mkdir()
        blocked.write_text("kept\n")
        assert main(["fixture", "--regions", "2", "--sectors", "3", "--seed", "1",
                     "--out", str(tmp_path / "fx")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {blocked}: File exists\n"
        assert blocked.read_text() == "kept\n"

    def test_minimal_economy_end_to_end(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["fixture", "--regions", "1", "--sectors", "1", "--seed", "0",
                     "--out", str(fx)]) == 0
        assert main(["validate", "--layout", str(fx / "layout.json")]) == 0
        assert run_footprint(fx, tmp_path / "fp") == 0
        assert run_compare(fx, tmp_path / "cmp", ["baseline", "halved"]) == 0
