"""Scenario-engine tests: the category basis, factors, and the shipped specs.

Reference ratios implied by the shipped 2012 scenario data (spending in
millions of 2012 euros):

    healthcare factor      149405 / 213436 = 0.700  (a 30% reduction)
    public administration  129328 / 178590 = 0.724  (defence, ~28%, removed)
    education factor       103102 / 204705 = 0.504  (nine school years)
    groceries factor       112297 /  78294 = 1.434  (reallocation above 1)
"""

import json

import numpy as np
import pytest

from mrio_footprint import fileio, fixtures, indicators, model, scenario
from mrio_footprint.errors import (
    ParseError,
    UnsortedNonzeroDemand,
    ZeroBaselineNonzeroTarget,
)
from mrio_footprint.scenario import (
    CONSUMPTION_SPENDING_CATEGORIES,
    GFCF_CATEGORY,
    SPENDING_CATEGORIES,
    ScenarioSpec,
)


def identity_spec(home_region: str = "R0", name: str = "identity") -> ScenarioSpec:
    return ScenarioSpec(name=name, home_region=home_region,
                        category_targets={c: None for c in SPENDING_CATEGORIES})


def scaled_demand(y, gfcf, codes, spec, index):
    """A spec's consumption and capital formation: its home region's
    category basis times the spec's factors, the consumption columns summed."""
    basis, baseline = scenario.category_basis(y, gfcf, codes, index)
    scaled = basis * scenario.scenario_factors(spec, baseline)
    return scaled[:, :-1].sum(axis=1), scaled[:, -1]


@pytest.fixture()
def demand_357(account_357):
    return model.home_demand(account_357, "R0")


@pytest.fixture()
def concordance_357(account_357):
    return fixtures.fixture_category_concordance(account_357.index)


@pytest.fixture()
def codes_357(account_357, concordance_357):
    return scenario.category_codes(concordance_357, account_357.index)


class TestBaselineCategoryTotals:
    def test_hand_sums(self, account_357, demand_357, concordance_357, codes_357):
        y, _ = demand_357
        totals = scenario.baseline_category_totals(y, codes_357, account_357.index)
        for category in CONSUMPTION_SPENDING_CATEGORIES:
            expected = sum(
                y[flat] for flat, (_, sector) in enumerate(account_357.index.labels())
                if concordance_357.get(sector) == category
            )
            assert totals[category] == pytest.approx(expected, rel=1e-12)
        assert sum(totals.values()) == pytest.approx(float(y.sum()), rel=1e-12)

    def test_single_category_holds_everything(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        codes = scenario.category_codes({"S0": scenario.HOUSING, "S1": scenario.HOUSING}, index)
        totals = scenario.baseline_category_totals(np.array([3.0, 4.0]), codes, index)
        assert totals[scenario.HOUSING] == 7.0
        assert all(v == 0.0 for c, v in totals.items() if c != scenario.HOUSING)

    def test_unsorted_sector_with_demand_is_loud(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        codes = scenario.category_codes({"S0": scenario.HOUSING}, index)
        with pytest.raises(UnsortedNonzeroDemand, match="S1"):
            scenario.baseline_category_totals(np.array([1.0, 2.0]), codes, index)

    def test_unsorted_sector_with_zero_demand_is_fine(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        codes = scenario.category_codes({"S0": scenario.HOUSING}, index)
        totals = scenario.baseline_category_totals(np.array([1.0, 0.0]), codes, index)
        assert totals[scenario.HOUSING] == 1.0


class TestCategoryCodes:
    def test_matches_flat_order_loop(self, account_357, demand_357):
        # The loops the code arrays replaced, with S1 unsorted and its demand
        # zeroed, give bit-identical totals and scaled demand.
        index = account_357.index
        mapping = fixtures.fixture_category_concordance(index)
        del mapping["S1"]
        codes = scenario.category_codes(mapping, index)
        y, gfcf = demand_357
        y = y.copy()
        y[[r * index.n_sectors + index.sectors.index("S1") for r in range(index.n_regions)]] = 0.0

        totals = {category: 0.0 for category in CONSUMPTION_SPENDING_CATEGORIES}
        for flat, (_, sector) in enumerate(index.labels()):
            if sector in mapping:
                totals[mapping[sector]] += float(y[flat])
        assert scenario.baseline_category_totals(y, codes, index) == totals

        targets = {category: (k + 1) / 5 * total
                   for k, (category, total) in enumerate(totals.items())}
        spec = ScenarioSpec(name="mixed", home_region="R0",
                            category_targets=targets | {GFCF_CATEGORY: None})
        factors = {category: target / totals[category] if totals[category] > 0.0 else 0.0
                   for category, target in targets.items()}
        per_sector = np.zeros(index.n)
        for flat, (_, sector) in enumerate(index.labels()):
            if sector in mapping:
                per_sector[flat] = factors[mapping[sector]]
        y_scen, _ = scaled_demand(y, gfcf, codes, spec, index)
        assert y_scen.tobytes() == (y * per_sector).tobytes()

    @pytest.mark.parametrize("category", ["Yachts", GFCF_CATEGORY])
    def test_category_outside_the_sector_categories(self, category):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        with pytest.raises(ValueError, match="sector 'S1' mapped to"):
            scenario.category_codes({"S0": scenario.HOUSING, "S1": category}, index)


class TestScalingFactors:
    def test_shipped_spec_ratios(self):
        baseline = scenario.load_scenario_spec(
            fileio.data_path("scenarios/baseline-2012.json"))
        good_life = scenario.load_scenario_spec(fileio.data_path("scenarios/good-life.json"))
        decent = scenario.load_scenario_spec(fileio.data_path("scenarios/decent-living.json"))
        base_totals = {c: float(v) for c, v in baseline.category_targets.items()}

        good_factors = dict(zip(SPENDING_CATEGORIES,
                                scenario.scenario_factors(good_life, base_totals)))
        decent_factors = dict(zip(SPENDING_CATEGORIES,
                                  scenario.scenario_factors(decent, base_totals)))

        assert good_factors[scenario.HEALTHCARE] == pytest.approx(0.700, abs=1e-3)
        assert good_factors[scenario.PUBLIC_ADMIN] == pytest.approx(0.724, abs=1e-3)
        assert decent_factors[scenario.EDUCATION] == pytest.approx(0.504, abs=1e-3)
        assert decent_factors[scenario.RECREATION] == 0.0
        assert decent_factors[scenario.GROCERIES] == pytest.approx(1.434, abs=1e-3)

    def test_zero_baseline_nonzero_target(self):
        spec = ScenarioSpec(name="zero", home_region="R0",
                            category_targets={scenario.HOUSING: 10.0})
        with pytest.raises(ZeroBaselineNonzeroTarget):
            scenario.scenario_factors(spec, dict.fromkeys(SPENDING_CATEGORIES, 0.0))

    def test_zero_baseline_zero_target(self):
        spec = ScenarioSpec(name="zero", home_region="R0",
                            category_targets={scenario.HOUSING: 0.0})
        factors = scenario.scenario_factors(spec, dict.fromkeys(SPENDING_CATEGORIES, 0.0))
        assert factors[SPENDING_CATEGORIES.index(scenario.HOUSING)] == 0.0


class TestApplyScenario:
    """A spec applied to its home region's category basis."""

    def test_basis_holds_each_sectors_demand_in_its_category(self, account_357, demand_357,
                                                            codes_357):
        y, gfcf = demand_357
        index = account_357.index
        basis, baseline = scenario.category_basis(y, gfcf, codes_357, index)
        assert basis.shape == (index.n, len(SPENDING_CATEGORIES))
        for flat, code in enumerate(codes_357):
            expected = np.zeros(len(CONSUMPTION_SPENDING_CATEGORIES))
            expected[code] = y[flat]
            assert basis[flat, :-1].tolist() == expected.tolist()
        assert basis[:, -1].tobytes() == gfcf.tobytes()
        assert baseline == scenario.baseline_category_totals(y, codes_357, index) | {
            GFCF_CATEGORY: float(gfcf.sum())}

    def test_identity_reproduces_baseline_elementwise(self, account_357, demand_357,
                                                      codes_357):
        y, gfcf = demand_357
        y_scen, gfcf_scen = scaled_demand(
            y, gfcf, codes_357, identity_spec(), account_357.index)
        np.testing.assert_array_equal(y_scen, y)
        np.testing.assert_array_equal(gfcf_scen, gfcf)

    def test_halved_category_touches_only_its_sectors(self, account_357, demand_357,
                                                      concordance_357, codes_357):
        y, gfcf = demand_357
        index = account_357.index
        baseline = scenario.baseline_category_totals(y, codes_357, index)
        target_category = concordance_357[index.sectors[0]]
        targets: dict[str, float | None] = {c: None for c in SPENDING_CATEGORIES}
        targets[target_category] = 0.5 * baseline[target_category]
        spec = ScenarioSpec(name="halved", home_region="R0", category_targets=targets)

        y_scen, gfcf_scen = scaled_demand(y, gfcf, codes_357, spec, index)
        for flat, (_, sector) in enumerate(index.labels()):
            if concordance_357[sector] == target_category:
                assert y_scen[flat] == pytest.approx(0.5 * y[flat], rel=1e-12)
            else:
                assert y_scen[flat] == y[flat]
        np.testing.assert_array_equal(gfcf_scen, gfcf)

    def test_mixed_factors_hit_targets(self, account_357, demand_357, codes_357):
        y, gfcf = demand_357
        index = account_357.index
        baseline = scenario.baseline_category_totals(y, codes_357, index)
        # Double one category, halve another, zero a third.
        touched = [c for c in CONSUMPTION_SPENDING_CATEGORIES if baseline[c] > 0][:3]
        factors = dict(zip(touched, (2.0, 0.5, 0.0)))
        targets: dict[str, float | None] = {c: None for c in SPENDING_CATEGORIES}
        for category, factor in factors.items():
            targets[category] = factor * baseline[category]
        spec = ScenarioSpec(name="mixed", home_region="R0", category_targets=targets)

        y_scen, _ = scaled_demand(y, gfcf, codes_357, spec, index)
        scaled = scenario.baseline_category_totals(y_scen, codes_357, index)
        for category in CONSUMPTION_SPENDING_CATEGORIES:
            expected = factors.get(category, 1.0) * baseline[category]
            assert scaled[category] == pytest.approx(expected, rel=1e-9)

    def test_composition_preserved_within_category(self, account_357, demand_357,
                                                   concordance_357, codes_357):
        y, gfcf = demand_357
        index = account_357.index
        baseline = scenario.baseline_category_totals(y, codes_357, index)
        category = concordance_357[index.sectors[0]]
        targets: dict[str, float | None] = {c: None for c in SPENDING_CATEGORIES}
        targets[category] = 1.7 * baseline[category]
        spec = ScenarioSpec(name="scaled", home_region="R0", category_targets=targets)
        y_scen, _ = scaled_demand(y, gfcf, codes_357, spec, index)

        members = [flat for flat, (_, s) in enumerate(index.labels())
                   if concordance_357[s] == category and y[flat] > 0]
        for i in members[1:]:
            assert (y_scen[i] / y_scen[members[0]]
                    == pytest.approx(y[i] / y[members[0]], rel=1e-12))

    def test_random_targets_conform(self):
        rng = np.random.default_rng(99)
        for seed in range(5):
            account = fixtures.fixture(2, 13, seed)
            index = account.index
            codes = scenario.category_codes(fixtures.fixture_category_concordance(index), index)
            y, gfcf = model.home_demand(account, "R0")
            baseline = scenario.baseline_category_totals(y, codes, index)
            targets = {
                c: (rng.uniform(0.0, 2.0) * baseline[c] if baseline[c] > 0 else 0.0)
                for c in CONSUMPTION_SPENDING_CATEGORIES
            }
            targets[GFCF_CATEGORY] = rng.uniform(0.0, 2.0) * float(gfcf.sum())
            spec = ScenarioSpec(name="random", home_region="R0", category_targets=targets)
            y_scen, gfcf_scen = scaled_demand(y, gfcf, codes, spec, index)
            scaled = scenario.baseline_category_totals(y_scen, codes, index)
            for category in CONSUMPTION_SPENDING_CATEGORIES:
                assert scaled[category] == pytest.approx(targets[category], rel=1e-9, abs=1e-12)
            assert float(gfcf_scen.sum()) == pytest.approx(targets[GFCF_CATEGORY], rel=1e-9)


class TestGfcf:
    """Capital formation is scaled by its category's target/baseline factor."""

    INDEX = model.RegionSectorIndex(("R0",), ("S0", "S1"))

    def apply(self, gfcf, target):
        codes = scenario.category_codes({"S0": scenario.HOUSING, "S1": scenario.CLOTHING},
                                        self.INDEX)
        targets = {} if target is None else {GFCF_CATEGORY: target}
        spec = ScenarioSpec(name="gfcf", home_region="R0", category_targets=targets)
        return scaled_demand(np.array([1.0, 2.0]), gfcf, codes, spec, self.INDEX)[1]

    def test_zero_target_zeroes_the_vector(self):
        scaled = self.apply(np.array([100.0, 300.0]), 0.0)
        assert scaled.tobytes() == np.zeros(2).tobytes()

    def test_matching_target_is_identity(self):
        base = np.array([100.0, 300.0])
        assert self.apply(base, None).tobytes() == base.tobytes()

    def test_hand_ratio(self):
        np.testing.assert_allclose(self.apply(np.array([100.0, 300.0]), 200.0),
                                   np.array([50.0, 150.0]), rtol=1e-15)

    def test_zero_base_nonzero_target(self):
        with pytest.raises(ZeroBaselineNonzeroTarget,
                           match="'Gross fixed capital formation' has target 10.0"):
            self.apply(np.zeros(2), 10.0)


def test_factor_fills_absent_public_admin_target(account_357, demand_357, codes_357):
    y, gfcf = demand_357
    index = account_357.index
    baseline = scenario.baseline_category_totals(y, codes_357, index)
    baseline[GFCF_CATEGORY] = float(gfcf.sum())
    spec = ScenarioSpec(
        name="pruned-government", home_region="R0",
        category_targets={c: None for c in SPENDING_CATEGORIES},
        government_factor=0.6,
    )
    factors = dict(zip(SPENDING_CATEGORIES, scenario.scenario_factors(spec, baseline)))
    assert factors[scenario.PUBLIC_ADMIN] * baseline[scenario.PUBLIC_ADMIN] == pytest.approx(
        0.6 * baseline[scenario.PUBLIC_ADMIN], rel=1e-12)


class TestDiningOutAdjustment:
    def test_reference_fraction(self):
        reduced, moved = scenario.dining_out_adjustment(1000.0, 0.116)
        assert reduced == pytest.approx(884.0, abs=1e-9)
        assert moved == pytest.approx(116.0, abs=1e-9)

    def test_boundaries(self):
        assert scenario.dining_out_adjustment(700.0, 0.0) == (700.0, 0.0)
        reduced, moved = scenario.dining_out_adjustment(700.0, 1.0)
        assert (reduced, moved) == (0.0, 700.0)

    def test_conserves_total_exactly(self):
        for food in (1000.0, 78_294.0, 0.1, 3.0):
            for fraction in (0.116, 0.3, 0.9999):
                reduced, moved = scenario.dining_out_adjustment(food, fraction)
                assert reduced + moved == food

    def test_move_applied_through_targets(self):
        baseline = {c: 0.0 for c in SPENDING_CATEGORIES}
        baseline[scenario.GROCERIES] = 1000.0
        baseline[scenario.RECREATION] = 500.0
        spec = ScenarioSpec(
            name="moved", home_region="R0",
            category_targets={c: None for c in SPENDING_CATEGORIES},
            adjustments=(scenario.BudgetMove(source=scenario.GROCERIES, fraction=0.116,
                                             destination=scenario.RECREATION),),
        )
        targets = {category: factor * baseline[category] for category, factor
                   in zip(SPENDING_CATEGORIES, scenario.scenario_factors(spec, baseline))}
        assert targets[scenario.GROCERIES] == pytest.approx(884.0)
        assert targets[scenario.RECREATION] == pytest.approx(616.0)
        assert (targets[scenario.GROCERIES] + targets[scenario.RECREATION]
                == pytest.approx(1500.0, abs=1e-12))


class TestFileFormats:
    def test_concordance_file(self, tmp_path):
        path = tmp_path / "cats.tsv"
        path.write_text(
            "# sector\tcategory\n"
            f"S0\t{scenario.HOUSING}\n"
            f"S9\t{scenario.CLOTHING}\n"
        )
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1"))
        housing = CONSUMPTION_SPENDING_CATEGORIES.index(scenario.HOUSING)
        unsorted = len(CONSUMPTION_SPENDING_CATEGORIES)
        assert scenario.load_concordance(path, index).tolist() == [housing, unsorted] * 2

    @pytest.mark.parametrize("load, message", [
        (scenario.load_concordance, "expected two columns (sector, category), found 3"),
        (indicators.load_sector_groups, "expected two columns (sector, group), found 3"),
    ], ids=["categories", "sector groups"])
    def test_concordance_row_with_a_third_cell(self, tmp_path, load, message):
        path = tmp_path / "concordance.tsv"
        path.write_text(f"S0\t{scenario.HOUSING}\nS1\t{scenario.CLOTHING}\textra\n")
        with pytest.raises(ParseError) as excinfo:
            load(path, model.RegionSectorIndex(("R0",), ("S0", "S1")))
        assert message in str(excinfo.value)
        assert (excinfo.value.path, excinfo.value.row) == (str(path), 2)

    def test_stray_quote_in_a_concordance_ends_at_its_line(self, tmp_path):
        # Each line is split on its own, so a quote that is never closed
        # cannot run into the rows after it, whatever ends the lines.
        path = tmp_path / "cats.tsv"
        path.write_bytes(f'S0\t"{scenario.GROCERIES}\r\nS1\t{scenario.CLOTHING}\r'
                         f'S2\t{scenario.HOUSING}\n'.encode())
        index = model.RegionSectorIndex(("R0",), ("S0", "S1", "S2"))
        expected = [CONSUMPTION_SPENDING_CATEGORIES.index(category) for category in
                    (scenario.GROCERIES, scenario.CLOTHING, scenario.HOUSING)]
        assert scenario.load_concordance(path, index).tolist() == expected

    @pytest.mark.parametrize("load", [scenario.load_concordance, indicators.load_sector_groups],
                             ids=["categories", "sector groups"])
    def test_concordance_cell_past_the_csv_field_limit_names_its_row(self, tmp_path, load):
        path = tmp_path / "concordance.tsv"
        path.write_text(f"S0\t{scenario.HOUSING}\nS1\t{'x' * 140_000}\n")
        with pytest.raises(ParseError, match="field larger than field limit") as excinfo:
            load(path, model.RegionSectorIndex(("R0",), ("S0", "S1")))
        assert (excinfo.value.path, excinfo.value.row) == (str(path), 2)

    def test_scenario_spec_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            scenario.load_scenario_spec(path)

    def test_scenario_spec_rejects_unknown_category(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "home_region": "R0",
            "category_targets": {"Yachts": 1.0},
        }))
        with pytest.raises(ParseError):
            scenario.load_scenario_spec(path)


    @pytest.mark.parametrize("change", [
        {"category_targets": [1]}, {"category_targets": "none"},
        {"name": ""}, {"name": "."}, {"name": ".."}, {"name": "a/b"},
        {"name": "a\\b"}, {"name": "a\0b"}, {"government_factor": 1.5},
        {"adjustments": [{"source": "Yachts", "fraction": 0.5}]},
        {"adjustments": [{"source": scenario.GROCERIES, "fraction": 0.5,
                          "destination": "Yachts"}]},
        {"adjustments": [{"source": scenario.GROCERIES, "fraction": 1.5}]},
    ], ids=repr)
    def test_bad_spec_names_the_spec_file(self, tmp_path, change):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "ok", "home_region": "R0", "category_targets": {}} | change))
        with pytest.raises(ParseError) as excinfo:
            scenario.load_scenario_spec(path)
        assert excinfo.value.path == str(path)

class TestShippedSpecs:
    def test_totals_match_reference_sums(self):
        sums = {
            "baseline-2012": 2_107_318.0,
            "decent-living": 575_085.0,
            "good-life": 1_370_558.0,
        }
        for name, expected in sums.items():
            spec = scenario.load_scenario_spec(fileio.data_path(f"scenarios/{name}.json"))
            total = sum(float(v) for v in spec.category_targets.values())
            # Reference column sums are rounded row-wise; allow 2 units.
            assert total == pytest.approx(expected, abs=2.0)
            assert spec.home_region == "GB"
            assert set(spec.category_targets) == set(SPENDING_CATEGORIES)

    def test_decent_living_zeroes(self):
        spec = scenario.load_scenario_spec(fileio.data_path("scenarios/decent-living.json"))
        for category in (scenario.RECREATION, scenario.CARE_WORK, GFCF_CATEGORY):
            assert spec.category_targets[category] == 0.0
