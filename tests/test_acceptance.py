"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Criterion 8 needs a user-supplied full-scale data set and is skipped unless
MRIO_EXIOBASE_LAYOUT and MRIO_EXIOBASE_PARAMS are set (see README).
"""

import csv
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from _oracles import (WEEKS_PER_YEAR, leontief_solve, power_series_solve, relative_error,
                      technical_coefficients)
from _oracles import operator as leontief_operator
from mrio_footprint import fileio, fixtures, indicators, model, scenario
from mrio_footprint.cli import main


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def _rel(actual: float, expected: float) -> float:
    return abs(actual - expected) / max(abs(expected), 1e-300)


def test_criterion_1_leontief_oracle_equivalence():
    with criterion(1, "leontief_solve matches the power-series oracle on 200 "
                      "random productive fixtures within 1e-6"):
        start = time.perf_counter()
        worst = 0.0
        for seed in range(200):
            n_regions = seed % 6 + 1
            n_sectors = seed % 8 + 1
            account = fixtures.fixture(n_regions, n_sectors, seed)
            coefficients = technical_coefficients(account.Z, account.x)
            y, _ = model.home_demand(account, account.index.regions[0])
            solved = leontief_solve(coefficients, y)
            series = power_series_solve(coefficients, y)
            worst = max(worst, relative_error(solved, series))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6, f"worst relative error {worst:.3e}"
        assert elapsed < 10.0, f"suite took {elapsed:.1f} s"
        print(f"  [criterion 1] worst relative error {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_worked_2x2_example():
    with criterion(2, "hand-derived 2x2 economy: q = [17.5, 13.3333], "
                      "footprint 22.0833 within 1e-9"):
        A = np.array([[0.2, 0.3], [0.4, 0.1]])
        q = leontief_solve(A, np.array([10.0, 5.0]))
        np.testing.assert_allclose(q, [17.5, 40.0 / 3.0], atol=1e-9, rtol=0)
        footprint = np.array([0.5, 1.0]) @ q
        assert abs(footprint - 66.25 / 3.0) <= 1e-9


def test_criterion_3_additivity_suite():
    with criterion(3, "origin, sector-group, skill, and category splits each "
                      "sum to the report total within 1e-9 relative"):
        for n_regions, n_sectors, seed in ((3, 5, 7), (2, 13, 1), (1, 1, 0), (6, 8, 42)):
            account = fixtures.fixture(n_regions, n_sectors, seed)
            index = account.index
            codes = scenario.category_codes(fixtures.fixture_category_concordance(index), index)
            labels, group_codes = indicators.sector_group_codes(
                fixtures.fixture_sector_groups(index), index)
            params = fixtures.fixture_conversion_params()
            operator = leontief_operator(
                technical_coefficients(account.Z, account.x))
            basis, _ = scenario.category_basis(*model.home_demand(account, "R0"), codes, index)
            variants = indicators.report_variants(account, list(account.extensions))
            [reports] = indicators.footprint_reports(
                account, variants, {"R0": operator.apply(basis)},
                [("baseline", "R0", np.ones(len(scenario.SPENDING_CATEGORIES)))],
                labels, group_codes, params)

            for report in reports:
                if report.total == 0.0:
                    continue
                assert _rel(report.by_origin.total, report.total) <= 1e-9
                assert _rel(sum(report.by_sector_group.values()), report.total) <= 1e-9
                assert _rel(sum(report.by_category.values()), report.total) <= 1e-9
                if report.by_skill is not None:
                    assert _rel(sum(report.by_skill.values()), report.total) <= 1e-9


def test_criterion_4_scenario_conformance():
    with criterion(4, "random category targets are hit within 1e-9 relative and "
                      "the identity scenario reproduces baseline demand elementwise"):
        rng = np.random.default_rng(4)
        for seed in range(10):
            account = fixtures.fixture(seed % 3 + 1, 13, seed)
            index = account.index
            codes = scenario.category_codes(fixtures.fixture_category_concordance(index), index)
            y, gfcf = model.home_demand(account, "R0")
            basis, baseline = scenario.category_basis(y, gfcf, codes, index)

            targets: dict[str, float | None] = {
                c: (float(rng.uniform(0.0, 2.5)) * baseline[c] if baseline[c] > 0 else 0.0)
                for c in scenario.CONSUMPTION_SPENDING_CATEGORIES
            }
            targets[scenario.GFCF_CATEGORY] = float(rng.uniform(0.0, 2.5) * gfcf.sum())
            spec = scenario.ScenarioSpec(name="random", home_region="R0",
                                         category_targets=targets)
            # Column k of basis @ diag(factors) is category k's share of
            # the scenario's demand basis @ factors.
            factors = scenario.scenario_factors(spec, baseline)
            achieved = (basis @ np.diag(factors)).sum(axis=0)
            for category, target in targets.items():
                k = scenario.SPENDING_CATEGORIES.index(category)
                assert abs(achieved[k] - target) <= 1e-9 * max(target, 1e-9), (
                    f"{category}: {achieved[k]} != {target}")

            identity = scenario.ScenarioSpec(
                name="identity", home_region="R0",
                category_targets={c: None for c in scenario.SPENDING_CATEGORIES})
            factors = scenario.scenario_factors(identity, baseline)
            assert factors.tolist() == [1.0] * len(scenario.SPENDING_CATEGORIES)
            assert (basis @ factors).tobytes() == (y + gfcf).tobytes()


def test_criterion_5_unit_conversion_anchor():
    with criterion(5, "19.6 average weekly hours converts to 27.4 +/- 0.05 "
                      "hours per week equivalent under default constants"):
        params = indicators.ConversionParams(working_age_population=1.0,
                                             total_population=1.0)
        assert params.weeks_worked_per_year == 46.6
        assert params.working_life_share == 0.8
        annual = 19.6 * WEEKS_PER_YEAR
        converted = indicators.hours_per_week_equivalent(annual, params)
        assert abs(converted - 27.4) <= 0.05, f"got {converted}"
        print(f"  [criterion 5] converted value {converted:.4f}")


def test_criterion_6_scenario_ratio_anchors():
    with criterion(6, "scenario arithmetic anchors: healthcare 0.700, public "
                      "administration 0.724, education 0.504, dining-out split "
                      "conserves totals exactly"):
        baseline = scenario.load_scenario_spec(
            fileio.data_path("scenarios/baseline-2012.json"))
        good = scenario.load_scenario_spec(fileio.data_path("scenarios/good-life.json"))
        decent = scenario.load_scenario_spec(
            fileio.data_path("scenarios/decent-living.json"))
        base_totals = {c: float(v) for c, v in baseline.category_targets.items()}
        good_factors = dict(zip(scenario.SPENDING_CATEGORIES,
                                scenario.scenario_factors(good, base_totals)))
        decent_factors = dict(zip(scenario.SPENDING_CATEGORIES,
                                  scenario.scenario_factors(decent, base_totals)))

        assert abs(good_factors[scenario.HEALTHCARE] - 0.700) <= 0.001
        assert abs(good_factors[scenario.PUBLIC_ADMIN] - 0.724) <= 0.001
        assert abs(decent_factors[scenario.EDUCATION] - 0.504) <= 0.001

        for food_total in (1000.0, base_totals[scenario.GROCERIES]):
            reduced, moved = scenario.dining_out_adjustment(food_total, 0.116)
            assert reduced + moved == food_total


def test_criterion_7_cli_determinism(tmp_path):
    with criterion(7, "two end-to-end CLI runs on fixture(3, 5, 7) are "
                      "byte-identical in under 5 seconds"):
        start = time.perf_counter()
        trees = []
        for run in ("a", "b"):
            root = tmp_path / run
            fx = root / "fx"
            assert main(["fixture", "--regions", "3", "--sectors", "5", "--seed", "7",
                         "--out", str(fx)]) == 0
            assert main(["validate", "--layout", str(fx / "layout.json")]) == 0
            assert main([
                "compare",
                "--layout", str(fx / "layout.json"),
                "--scenario", str(fx / "scenarios" / "baseline.json"),
                "--scenario", str(fx / "scenarios" / "halved.json"),
                "--params", str(fx / "params.json"),
                "--out", str(root / "out"),
            ]) == 0
            trees.append({
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()
            })
        elapsed = time.perf_counter() - start
        assert trees[0] == trees[1]
        assert elapsed < 5.0, f"end-to-end runs took {elapsed:.1f} s"
        print(f"  [criterion 7] {len(trees[0])} files byte-identical, {elapsed:.2f} s")


FULL_DATA_LAYOUT = os.environ.get("MRIO_EXIOBASE_LAYOUT")
FULL_DATA_PARAMS = os.environ.get("MRIO_EXIOBASE_PARAMS")

# Reference headline values per scenario, at the tolerance justified by the
# reconstructed concordance. Energy/emissions/material per-capita figures
# include direct use and assume the documented units (TJ, kt, persons).
FULL_DATA_EXPECTED = {
    "baseline-2012": {"labour_hours_week": 67.9, "energy_gj_cap": 255.0,
                      "emissions_t_cap": 13.8, "tmc_t_cap": 25.8, "mf_t_cap": 12.6},
    "decent-living": {"labour_hours_week": 26.4, "energy_gj_cap": 89.0,
                      "emissions_t_cap": 5.9, "tmc_t_cap": 10.8, "mf_t_cap": 5.7},
    "good-life": {"labour_hours_week": 52.8, "energy_gj_cap": 165.0,
                  "emissions_t_cap": 9.9, "tmc_t_cap": 21.0, "mf_t_cap": 11.5},
}
BASELINE_IMPORT_SHARE = 0.59


@pytest.mark.skipif(
    not (FULL_DATA_LAYOUT and FULL_DATA_PARAMS),
    reason="full-data integration needs MRIO_EXIOBASE_LAYOUT and MRIO_EXIOBASE_PARAMS",
)
def test_criterion_8_full_data_integration(tmp_path):
    with criterion(8, "full-data run reproduces reference headline values "
                      "within +/-5% (reconstructed concordance)"):
        out = tmp_path / "full"
        argv = [
            "compare",
            "--layout", FULL_DATA_LAYOUT,
            "--params", FULL_DATA_PARAMS,
            "--categories", str(fileio.data_path("concordances/exiobase3_categories.tsv")),
            "--groups", str(fileio.data_path("concordances/exiobase3_sector_groups.tsv")),
            "--out", str(out),
        ]
        for name in FULL_DATA_EXPECTED:
            argv += ["--scenario", str(fileio.data_path(f"scenarios/{name}.json"))]
        assert main(argv) == 0

        params = json.loads(Path(FULL_DATA_PARAMS).read_text())
        population = float(params["total_population"])
        failures = []
        for name, expected in FULL_DATA_EXPECTED.items():
            rows = _read_report(out / name / "report.csv")
            print(f"  [criterion 8] {name} labour hours/week by category:")
            for row in rows:
                if row["extension"] == "labour" and row["dimension"] == "category":
                    print(f"    {row['label']}: {float(row['value']):.4g} hours")

            checks = {
                "labour_hours_week": _value(rows, "labour", "hours-week-equivalent"),
                "energy_gj_cap": (_value(rows, "energy", "total")
                                  + _value(rows, "energy", "direct-use"))
                                 * 1000.0 / population,
                "emissions_t_cap": (_value(rows, "emissions", "total")
                                    + _value(rows, "emissions", "direct-use"))
                                   * 1000.0 / population,
                "tmc_t_cap": _value(rows, "material-tmc", "total") * 1000.0 / population,
                "mf_t_cap": _value(rows, "material-mf", "total") * 1000.0 / population,
            }
            for key, actual in checks.items():
                deviation = _rel(actual, expected[key])
                print(f"  [criterion 8] {name} {key}: {actual:.4g} vs "
                      f"{expected[key]} ({deviation:+.1%})")
                if deviation > 0.05:
                    failures.append(f"{name} {key}: {actual:.4g} vs {expected[key]}")

        rows = _read_report(out / "baseline-2012" / "report.csv")
        domestic = _value(rows, "labour", "origin", "domestic")
        imported = _value(rows, "labour", "origin", "imported")
        share = imported / (domestic + imported)
        print(f"  [criterion 8] baseline import share: {share:.1%}")
        if _rel(share, BASELINE_IMPORT_SHARE) > 0.05:
            failures.append(f"import share {share:.3f} vs {BASELINE_IMPORT_SHARE}")

        assert not failures, "; ".join(failures)


def _read_report(path: Path) -> list[dict]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _value(rows: list[dict], extension: str, dimension: str, label: str = "") -> float:
    for row in rows:
        if (row["extension"], row["dimension"], row["label"]) == (extension, dimension, label):
            return float(row["value"])
    raise KeyError((extension, dimension, label))
