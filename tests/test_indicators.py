"""Indicator tests: conversions, splits, category attribution, material variants.

Unit-conversion anchor: a working-age person averaging 19.6 hours per week
over ~52.18 calendar weeks works 1022.7 hours per year, which is

    1022.7 / (46.6 weeks x 0.8 working-life share x 1 person) ~ 27.4

hours per week equivalent.
"""

import dataclasses

import numpy as np
import pytest

from mrio_footprint import algebra, fixtures, indicators, model, scenario
from mrio_footprint.errors import (
    MissingStressorLabel,
    ParseError,
    UnmappedSector,
    UnknownRegion,
    ZeroEmbeddedBase,
)
from mrio_footprint.indicators import ConversionParams, OriginSplit, SectorGroupConcordance


def single_person_params(**overrides) -> ConversionParams:
    defaults = dict(working_age_population=1.0, total_population=1.0)
    defaults.update(overrides)
    return ConversionParams(**defaults)


class TestHoursPerWeekEquivalent:
    def test_survey_average_anchor(self):
        annual = indicators.annual_hours_from_weekly(19.6)
        assert annual == pytest.approx(1022.7, abs=0.1)
        hours = indicators.hours_per_week_equivalent(annual, single_person_params())
        assert hours == pytest.approx(27.4, abs=0.05)

    def test_zero_total(self):
        assert indicators.hours_per_week_equivalent(0.0, single_person_params()) == 0.0

    def test_unit_case(self):
        params = single_person_params(weeks_worked_per_year=46.6, working_life_share=1.0)
        assert indicators.hours_per_week_equivalent(46.6, params) == pytest.approx(1.0)

    def test_linear_in_total(self):
        params = single_person_params()
        one = indicators.hours_per_week_equivalent(123.4, params)
        assert indicators.hours_per_week_equivalent(246.8, params) == pytest.approx(
            2 * one, rel=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConversionParams(working_age_population=0.0, total_population=1.0)
        with pytest.raises(ValueError):
            single_person_params(weeks_worked_per_year=60.0)
        with pytest.raises(ValueError):
            single_person_params(working_life_share=0.0)


class TestPerCapita:
    def test_simple_division(self):
        assert indicators.per_capita(10.0, 2.0) == 5.0

    def test_zero_total(self):
        assert indicators.per_capita(0.0, 5.0) == 0.0

    def test_population_must_be_positive(self):
        with pytest.raises(ValueError):
            indicators.per_capita(1.0, 0.0)


class TestSplitOrigin:
    def test_all_home_production(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0",))
        split = indicators.split_origin(np.array([5.0, 0.0]), "R0", index)
        assert split == OriginSplit(domestic=5.0, imported=0.0)

    def test_hand_placed_contributions(self):
        index = model.RegionSectorIndex(("home", "abroad"), ("S0",))
        split = indicators.split_origin(np.array([3.0, 7.0]), "home", index)
        assert split.domestic == 3.0 and split.imported == 7.0
        assert split.import_share == pytest.approx(0.7)

    def test_unknown_region(self):
        index = model.RegionSectorIndex(("R0",), ("S0",))
        with pytest.raises(UnknownRegion):
            indicators.split_origin(np.array([1.0]), "R9", index)


class TestSectorGroups:
    def test_single_group_carries_total(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        groups = SectorGroupConcordance({"S0": "services", "S1": "services"}, ("services",))
        totals = indicators.aggregate_by_sector_group(
            np.array([2.0, 3.0]), groups, groups.codes(index))
        assert totals == {"services": 5.0}

    def test_hand_assignment(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1"))
        groups = SectorGroupConcordance({"S0": "goods", "S1": "services"},
                                        ("goods", "services"))
        totals = indicators.aggregate_by_sector_group(
            np.array([1.0, 2.0, 4.0, 8.0]), groups, groups.codes(index))
        assert totals == {"goods": 5.0, "services": 10.0}

    def test_unmapped_sector(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        groups = SectorGroupConcordance({"S0": "goods"}, ("goods",))
        with pytest.raises(UnmappedSector, match="S1"):
            indicators.aggregate_by_sector_group(np.array([1.0, 2.0]), groups,
                                                 groups.codes(index))

    def test_group_total_preserved(self, account_357):
        groups = fixtures.fixture_sector_groups(account_357.index)
        by_source = np.linspace(0.0, 1.0, account_357.index.n)
        totals = indicators.aggregate_by_sector_group(
            by_source, groups, groups.codes(account_357.index))
        assert sum(totals.values()) == pytest.approx(float(by_source.sum()), rel=1e-12)


    def test_matches_flat_order_loop(self, account_357):
        # The loop bincount replaced adds in the same flat order, so sums are equal.
        groups = fixtures.fixture_sector_groups(account_357.index)
        by_source = np.random.default_rng(7).uniform(0.0, 1.0, account_357.index.n)
        expected = {group: 0.0 for group in groups.groups}
        for flat, (_, sector) in enumerate(account_357.index.labels()):
            expected[groups.mapping[sector]] += float(by_source[flat])
        assert indicators.aggregate_by_sector_group(
            by_source, groups, groups.codes(account_357.index)) == expected


    def test_sector_listed_twice_is_a_parse_error(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("# sector\tgroup\nS0\tgoods\nS1\tservices\nS0\tservices\n")
        with pytest.raises(ParseError, match=r"'S0' listed twice \(.*groups.tsv, row 4\)"):
            indicators.load_sector_groups(path, ["S0", "S1"])


class TestSkillAggregation:
    def test_hand_sums(self):
        labour = {
            "female low-skilled": 1.0, "male low-skilled": 2.0,
            "female medium-skilled": 3.0, "male medium-skilled": 4.0,
            "female high-skilled": 5.0, "male high-skilled": 6.0,
        }
        assert indicators.aggregate_by_skill(labour) == {
            "low": 3.0, "medium": 7.0, "high": 11.0}

    def test_only_low_skill(self):
        labour = {"female low-skilled": 2.5, "male low-skilled": 1.5}
        totals = indicators.aggregate_by_skill(labour)
        assert totals == {"low": 4.0, "medium": 0.0, "high": 0.0}

    def test_shares_sum_to_one(self):
        labour = {"female low-skilled": 1.0, "male medium-skilled": 2.0,
                  "female high-skilled": 3.0}
        totals = indicators.aggregate_by_skill(labour)
        total = sum(totals.values())
        assert sum(v / total for v in totals.values()) == pytest.approx(1.0)

    def test_alternate_label_style(self):
        assert indicators.skill_of("Employment hours: Low-skilled male") == "low"

    def test_unlabelled_stressor(self):
        with pytest.raises(MissingStressorLabel):
            indicators.aggregate_by_skill({"female": 1.0})


class TestCategoryAttribution:
    def test_single_category_demand(self):
        op = algebra.factorize(np.zeros((2, 2)))
        s = np.array([1.0, 1.0])
        parts = {"only": np.array([3.0, 4.0])}
        assert indicators.attribute_by_category(op.multipliers(s), parts) == {"only": 7.0}

    def test_two_categories_hand_solved(self):
        # Reuses the worked 2x2 case: y = [10, 5] split into [10, 0] + [0, 5].
        op = algebra.factorize(np.array([[0.2, 0.3], [0.4, 0.1]]))
        s = np.array([0.5, 1.0])
        parts = {"first": np.array([10.0, 0.0]), "second": np.array([0.0, 5.0])}
        attributed = indicators.attribute_by_category(op.multipliers(s), parts)
        # L columns: [1.5, 2/3] and [0.5, 4/3].
        assert attributed["first"] == pytest.approx(0.5 * 15.0 + 20.0 / 3.0, rel=1e-12)
        assert attributed["second"] == pytest.approx(0.5 * 2.5 + 20.0 / 3.0, rel=1e-12)
        total = algebra.footprint_total(s, op.apply(np.array([10.0, 5.0])))
        assert sum(attributed.values()) == pytest.approx(total, rel=1e-9)

    def test_partition_sums_to_whole(self, account_357):
        codes = fixtures.fixture_category_concordance(account_357.index).codes(account_357.index)
        y = model.select_demand(account_357, model.consumption_selection("R0"))
        gfcf = model.select_demand(account_357, model.gfcf_selection("R0"))
        parts = indicators.decompose_demand_by_category(y, gfcf, codes)
        assert set(parts) == set(scenario.SPENDING_CATEGORIES)
        np.testing.assert_allclose(sum(parts.values()), y + gfcf, rtol=0, atol=0)


class TestDirectUse:
    def test_unchanged_at_ratio_one(self):
        assert indicators.direct_use_scaled(100.0, 50.0, 50.0) == 100.0

    def test_hand_ratio(self):
        assert indicators.direct_use_scaled(100.0, 25.0, 50.0) == 50.0

    def test_zero_scenario(self):
        assert indicators.direct_use_scaled(100.0, 0.0, 50.0) == 0.0

    def test_zero_embedded_base(self):
        with pytest.raises(ZeroEmbeddedBase):
            indicators.direct_use_scaled(100.0, 10.0, 0.0)


class TestMaterialIndicators:
    """report_variants gives a flagged material extension a -tmc report over
    every row and a -mf report over the used rows."""

    @staticmethod
    def _variants(flags):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        Z = np.array([[1.0, 2.0], [3.0, 1.0]])
        x = np.array([10.0, 10.0])
        materials = model.ExtensionAccount(
            name="materials", unit="kt", stressors=("ores", "overburden"),
            rows=np.array([[2.0, 4.0], [1.0, 3.0]]), kind="material",
            material_flags=flags)
        account = model.MrioAccount(
            index=index, Z=Z, Y=np.zeros((2, 0)), y_columns=(), x=x,
            extensions={"materials": materials}, year=2012)
        operator = algebra.LeontiefOperator(Z, x)
        # Demand x - Z 1 = [7, 6] needs gross output x, so each row's
        # footprint is its row sum: ores 6, overburden 4.
        y = x - Z.sum(axis=1)
        return {v.name: (v.labels, float(v.multipliers @ y))
                for v in indicators.report_variants(account, operator, ["materials"])}

    def test_hand_sum(self):
        variants = self._variants({"ores": "used", "overburden": "unused"})
        assert list(variants) == ["materials-tmc", "materials-mf"]
        labels, tmc = variants["materials-tmc"]
        assert labels == ("ores", "overburden")
        assert tmc == pytest.approx(6.0 + 4.0, rel=1e-12)
        labels, mf = variants["materials-mf"]
        assert labels == ("ores",)
        assert mf == pytest.approx(6.0, rel=1e-12)

    def test_no_unused_extraction(self):
        variants = self._variants({"ores": "used", "overburden": "used"})
        assert variants["materials-tmc"][1] == pytest.approx(10.0, rel=1e-12)
        assert variants["materials-mf"][1] == pytest.approx(10.0, rel=1e-12)

    def test_no_mf_report_without_used_rows(self):
        variants = self._variants({"ores": "unused", "overburden": "unused"})
        assert list(variants) == ["materials-tmc"]
        assert variants["materials-tmc"][1] == pytest.approx(10.0, rel=1e-12)


class TestReportAdditivity:
    """Spot check on the pipeline's report builder with a fixture account."""

    @pytest.fixture()
    def report(self, account_357):
        codes = fixtures.fixture_category_concordance(account_357.index).codes(account_357.index)
        groups = fixtures.fixture_sector_groups(account_357.index)
        params = fixtures.fixture_conversion_params()
        A = algebra.technical_coefficients(account_357.Z, account_357.x)
        op = algebra.factorize(A)
        y = model.select_demand(account_357, model.consumption_selection("R0"))
        gfcf = model.select_demand(account_357, model.gfcf_selection("R0"))
        parts = indicators.decompose_demand_by_category(y, gfcf, codes)
        [labour] = indicators.report_variants(account_357, op, ["labour"])
        return indicators.build_footprint_report(
            account=account_357, variant=labour, q=op.apply(y + gfcf),
            demand_by_category=parts,
            home_region="R0", groups=groups,
            group_codes=groups.codes(account_357.index), params=params,
            scenario_name="baseline")

    def test_origin_additivity(self, report):
        assert report.by_origin.total == pytest.approx(report.total, rel=1e-9)

    def test_group_additivity(self, report):
        assert sum(report.by_sector_group.values()) == pytest.approx(report.total, rel=1e-9)

    def test_skill_additivity(self, report):
        assert sum(report.by_skill.values()) == pytest.approx(report.total, rel=1e-9)

    def test_category_additivity(self, report):
        assert sum(report.by_category.values()) == pytest.approx(report.total, rel=1e-9)

    def test_scaling_intensity_scales_everything(self, account_357, report):
        # Doubling every labour stressor doubles each cell and no share moves.
        doubled_ext = model.ExtensionAccount(
            name="labour", unit="hours",
            stressors=account_357.extensions["labour"].stressors,
            rows=account_357.extensions["labour"].rows * 2.0, kind="labour")
        codes = fixtures.fixture_category_concordance(account_357.index).codes(account_357.index)
        groups = fixtures.fixture_sector_groups(account_357.index)
        params = fixtures.fixture_conversion_params()
        op = algebra.factorize(
            algebra.technical_coefficients(account_357.Z, account_357.x))
        y = model.select_demand(account_357, model.consumption_selection("R0"))
        gfcf = model.select_demand(account_357, model.gfcf_selection("R0"))
        parts = indicators.decompose_demand_by_category(y, gfcf, codes)
        doubled_account = dataclasses.replace(account_357, extensions={"labour": doubled_ext})
        [doubled_labour] = indicators.report_variants(doubled_account, op, ["labour"])
        doubled = indicators.build_footprint_report(
            account=account_357, variant=doubled_labour, q=op.apply(y + gfcf),
            demand_by_category=parts, home_region="R0", groups=groups,
            group_codes=groups.codes(account_357.index), params=params,
            scenario_name="baseline")
        assert doubled.total == pytest.approx(2 * report.total, rel=1e-12)
        for group in report.by_sector_group:
            assert doubled.by_sector_group[group] == pytest.approx(
                2 * report.by_sector_group[group], rel=1e-9)
            if report.total > 0:
                assert (doubled.by_sector_group[group] / doubled.total
                        == pytest.approx(report.by_sector_group[group] / report.total,
                                         rel=1e-9))
