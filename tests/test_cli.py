"""End-to-end CLI tests: exit codes, pipeline consistency, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mrio_footprint
from _oracles import technical_coefficients, total_row
from mrio_footprint import algebra, cli, fileio, model
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
    def write_two_sector_account(out_dir: Path, Z, y_columns, Y) -> Path:
        index = model.RegionSectorIndex(regions=("R0",), sectors=("S0", "S1"))
        account = model.MrioAccount(index=index, Z=np.array(Z), Y=np.array(Y),
                                    y_columns=y_columns, x=np.array([100.0, 100.0]),
                                    extensions={}, year=2012)
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

    def test_machine_readable_output(self, fixture_dir, tmp_path):
        out = tmp_path / "report"
        assert main(["validate", "--layout", str(fixture_dir / "layout.json"),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "validation.json").read_text())
        assert payload["balance"]["violations"] == []
        assert payload["productivity"]["productive"] is True


class TestFootprint:
    def test_identity_scenario_matches_library_computation(self, fixture_dir, tmp_path):
        assert run_footprint(fixture_dir, tmp_path / "out") == 0
        rows = read_report(tmp_path / "out" / "baseline" / "report.csv")

        account = fileio.ingest(fixture_dir / "layout.json").account
        op = algebra.factorize(technical_coefficients(account.Z, account.x))
        y, gfcf = model.home_demand(account, "R0")
        # The run's block: the home region's baseline, then the identity
        # scenario, which is the same demand.
        q = op.apply(np.column_stack([y, y]) + np.column_stack([gfcf, gfcf]))
        for name in ("labour", "energy", "emissions"):
            s = algebra.intensity(total_row(account.extensions[name]), account.x)
            expected = (s[:, np.newaxis] * q).sum(axis=0)[1]
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
        path.write_bytes(path.read_bytes().replace(b"S1", b"S\xe91", 1))
        assert run_footprint(fixture_dir, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"text is not UTF-8 ({path})" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("verb", ["compare", "footprint"])
    def test_one_forward_and_one_transposed_solve_per_run(self, fixture_dir, tmp_path,
                                                          monkeypatch, verb):
        # One block solve for every home region's baseline and every
        # scenario, and one for the multipliers of all five reports.
        spec = json.loads((fixture_dir / "scenarios" / "halved.json").read_text())
        spec.update(name="abroad", home_region="R1")
        (fixture_dir / "scenarios" / "abroad.json").write_text(json.dumps(spec))
        calls = {"apply": 0, "multipliers": 0}

        def counted(name):
            method = getattr(algebra.LeontiefOperator, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(algebra.LeontiefOperator, name, counted(name))
        argv = [verb, "--layout", str(fixture_dir / "layout.json"),
                "--params", str(fixture_dir / "params.json"), "--out", str(tmp_path / "out")]
        for name in ("baseline", "halved", "abroad"):
            argv += ["--scenario", str(fixture_dir / "scenarios" / f"{name}.json")]
        # compare takes one home region, footprint each spec's own.
        assert main(argv + (["--home-region", "R2"] if verb == "compare" else [])) == 0
        assert calls == {"apply": 1, "multipliers": 1}

    def test_failing_scenario_writes_nothing(self, fixture_dir, tmp_path, capsys):
        # The fixture's home region spends nothing on education.
        spec = json.loads((fixture_dir / "scenarios" / "baseline.json").read_text())
        spec["name"] = "schooling"
        spec["category_targets"]["Education"] = 1.0
        (fixture_dir / "scenarios" / "schooling.json").write_text(json.dumps(spec))
        assert run_compare(fixture_dir, tmp_path / "cmp", ["baseline", "schooling"]) == 1
        assert "Education" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_extension_selection(self, fixture_dir, tmp_path):
        rc = main(["compare", "--layout", str(fixture_dir / "layout.json"),
                   "--params", str(fixture_dir / "params.json"),
                   "--out", str(tmp_path / "cmp"),
                   "--scenario", str(fixture_dir / "scenarios" / "baseline.json"),
                   "--extensions", "labour"])
        assert rc == 0
        rows = read_report(tmp_path / "cmp" / "baseline" / "report.csv")
        assert {r["extension"] for r in rows} == {"labour"}

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


def lu_entry(fixture_dir: Path) -> Path:
    """The one cached LU factorization of a fixture set."""
    (entry,) = (fixture_dir / fileio.CACHE_DIR).glob("lu-*/*.npy")
    return entry


@pytest.fixture()
def lu_factor_calls(monkeypatch) -> list:
    calls = []
    factor = algebra.lu_factor

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)
    monkeypatch.setattr(algebra, "lu_factor", counted)
    return calls


class TestFactorizationCache:
    @pytest.fixture(autouse=True)
    def identified_blas(self):
        if algebra.factorization_identity() is None:
            pytest.skip("the BLAS under scipy cannot be identified, so no LU is cached")

    def test_warm_compare_makes_no_factorization(self, fixture_dir, tmp_path, lu_factor_calls):
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        assert len(lu_factor_calls) == 1
        assert run_compare(fixture_dir, tmp_path / "warm", SCENARIOS) == 0
        assert len(lu_factor_calls) == 1

    def test_outputs_identical_computed_and_loaded(self, fixture_dir, tmp_path):
        for run in ("computed", "loaded"):
            assert run_compare(fixture_dir, tmp_path / run / "compare", SCENARIOS) == 0
            assert run_footprint(fixture_dir, tmp_path / run / "footprint") == 0
            assert main(["validate", "--layout", str(fixture_dir / "layout.json"),
                         "--out", str(tmp_path / run / "validate")]) == 0
        assert tree_bytes(tmp_path / "loaded") == tree_bytes(tmp_path / "computed")

    @pytest.mark.parametrize("verb", ["compare", "validate"])
    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape", "nan", "perturbed"])
    def test_damaged_entry_is_refactorized_and_rewritten(
            self, fixture_dir, tmp_path, lu_factor_calls, damage, verb):
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        entry = lu_entry(fixture_dir)
        whole = entry.read_bytes()
        lu = np.load(entry)
        if damage == "truncated":
            entry.write_bytes(whole[: len(whole) // 2])
        elif damage == "wrong-shape":
            np.save(entry, lu[:-1, :-1])
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
        assert len(lu_factor_calls) == 2
        assert entry.read_bytes() == whole

    def test_changed_blas_identity_replaces_the_entry(self, fixture_dir, tmp_path,
                                                      lu_factor_calls, monkeypatch):
        assert run_compare(fixture_dir, tmp_path / "first", SCENARIOS) == 0
        first = lu_entry(fixture_dir)
        identity = algebra.factorization_identity()
        monkeypatch.setattr(algebra, "factorization_identity", lambda: identity + "; other")
        assert run_compare(fixture_dir, tmp_path / "second", SCENARIOS) == 0
        assert len(lu_factor_calls) == 2
        second = lu_entry(fixture_dir)
        assert second != first and not first.exists() and not first.with_suffix(".json").exists()

    def test_unidentified_blas_uses_no_entry(self, fixture_dir, tmp_path, lu_factor_calls,
                                             monkeypatch):
        assert run_compare(fixture_dir, tmp_path / "cached", SCENARIOS) == 0
        entry = lu_entry(fixture_dir)
        whole = entry.read_bytes()
        monkeypatch.setattr(algebra, "factorization_identity", lambda: None)
        for run in ("first", "second"):
            assert run_compare(fixture_dir, tmp_path / run, SCENARIOS) == 0
            assert tree_bytes(tmp_path / run) == tree_bytes(tmp_path / "cached")
        assert len(lu_factor_calls) == 3
        assert lu_entry(fixture_dir) == entry and entry.read_bytes() == whole

    def test_unwritable_cache_factorizes_every_run(self, fixture_dir, tmp_path,
                                                  lu_factor_calls):
        (fixture_dir / fileio.CACHE_DIR).write_text("not a directory")
        for run in ("first", "second"):
            assert run_compare(fixture_dir, tmp_path / run, SCENARIOS) == 0
        assert len(lu_factor_calls) == 2
        assert tree_bytes(tmp_path / "second") == tree_bytes(tmp_path / "first")

    def test_unproductive_account_stores_no_entry(self, tmp_path, lu_factor_calls):
        # A factorization is saved only once a solve with it passes its check.
        layout_path = TestValidate.write_two_sector_account(
            tmp_path / "unproductive", [[150.0, 0.0], [0.0, 50.0]],
            (("R0", "households"), ("R0", "inventory-change")),
            [[0.0, -50.0], [50.0, 0.0]])
        for _ in range(2):
            assert main(["validate", "--layout", str(layout_path)]) == 2
        assert len(lu_factor_calls) == 2
        assert not list((layout_path.parent / fileio.CACHE_DIR).glob("lu-*/*"))

    def test_warm_run_maps_every_entry(self, fixture_dir, lu_factor_calls, monkeypatch):
        # A cold run parses, factorizes, and stores its LU after one solve.
        layout_path = fixture_dir / "layout.json"
        algebra.productivity_check(cli._operator(fileio.ingest(layout_path)))

        def no_copy(*args, **kwargs):
            raise AssertionError("a cache entry was copied into memory")
        monkeypatch.setattr(np, "fromfile", no_copy)
        ingested = fileio.ingest(layout_path)
        operator = cli._operator(ingested)
        assert algebra.productivity_check(operator).productive
        assert len(lu_factor_calls) == 1
        lu, _ = operator._lu
        assert not (lu.flags.writeable or lu.flags.owndata)
        assert not (ingested.account.Z.flags.writeable or ingested.account.Z.flags.owndata)

    @pytest.mark.parametrize("what", ["grids re-stored", "grids replaced", "lu re-stored"])
    def test_entries_stored_mid_run_leave_the_run_unchanged(
            self, fixture_dir, tmp_path, lu_factor_calls, monkeypatch, what):
        # Entries are replaced by a rename, never rewritten in place, so a run
        # that holds them mapped keeps reading what it mapped.
        assert run_compare(fixture_dir, tmp_path / "cold", SCENARIOS) == 0
        cache = fixture_dir / fileio.CACHE_DIR
        held, before = [], []
        operator = cli._operator

        def store_mid_run(ingested):
            result = operator(ingested)
            held[:] = [ingested.account.Z, result._lu[0]]
            before[:] = [array.tobytes() for array in held]
            pattern = "lu-*/*.npy" if what.startswith("lu") else "*.tsv-*/*.npy"
            for entry in cache.glob(pattern):
                matrix, meta = fileio._cache_load(entry.with_suffix(""))
                target = (entry.parent / ("0" * 64) if what == "grids replaced"
                          else entry.with_suffix(""))
                fileio._cache_store(target, matrix * 2.0 + 1.0, meta)
            return result
        monkeypatch.setattr(cli, "_operator", store_mid_run)
        assert run_compare(fixture_dir, tmp_path / "warm", SCENARIOS) == 0
        assert tree_bytes(tmp_path / "warm") == tree_bytes(tmp_path / "cold")
        assert len(lu_factor_calls) == 1
        assert [array.tobytes() for array in held] == before

    def test_validate_reuses_the_entry_compare_wrote(self, fixture_dir, tmp_path,
                                                     lu_factor_calls):
        assert run_compare(fixture_dir, tmp_path / "cmp", SCENARIOS) == 0
        assert main(["validate", "--layout", str(fixture_dir / "layout.json")]) == 0
        assert len(lu_factor_calls) == 1


# Every verb in one fresh interpreter; the last line of its output is a JSON
# list of the exit codes and whether scipy.linalg was imported.
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
print(json.dumps([codes, [name for name in ("scipy.linalg", "multiprocessing",
                                             "concurrent.futures") if name in sys.modules]]))
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
        if case == "no-scenario":
            expected = f"scenario spec not found: {missing}"
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
    # The LU and its solves need scipy's LAPACK wrappers only; importing the
    # scipy.linalg package would double the start-up time of a warm run.
    # Grids this small are parsed and written in-process, so no verb loads
    # the process-pool modules either.
    source = str(Path(mrio_footprint.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", EVERY_VERB, str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    codes, imported = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0]
    assert imported == []


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

    def test_minimal_economy_end_to_end(self, tmp_path):
        fx = tmp_path / "fx"
        assert main(["fixture", "--regions", "1", "--sectors", "1", "--seed", "0",
                     "--out", str(fx)]) == 0
        assert main(["validate", "--layout", str(fx / "layout.json")]) == 0
        assert run_footprint(fx, tmp_path / "fp") == 0
        assert run_compare(fx, tmp_path / "cmp", ["baseline", "halved"]) == 0
