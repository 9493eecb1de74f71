"""Indicator tests: conversions, splits, category attribution, material variants.

Unit-conversion anchor: a working-age person averaging 19.6 hours per week
over ~52.18 calendar weeks works 1022.7 hours per year, which is

    1022.7 / (46.6 weeks x 0.8 working-life share x 1 person) ~ 27.4

hours per week equivalent.
"""

import dataclasses

import numpy as np
import pytest

from _oracles import WEEKS_PER_YEAR, total_row
from mrio_footprint import algebra, fileio, fixtures, indicators, model, scenario
from mrio_footprint.errors import (
    MissingStressorLabel,
    MrioError,
    ParseError,
    UnmappedSector,
    UnknownRegion,
    ZeroEmbeddedBase,
    read_pairs,
)
from mrio_footprint.indicators import ConversionParams, OriginSplit


def single_person_params(**overrides) -> ConversionParams:
    defaults = dict(working_age_population=1.0, total_population=1.0)
    defaults.update(overrides)
    return ConversionParams(**defaults)


class TestHoursPerWeekEquivalent:
    def test_survey_average_anchor(self):
        annual = 19.6 * WEEKS_PER_YEAR
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


def one_column_reports(account, y, gfcf=None, home_region="R0", category_codes=None,
                       groups=None, names=None):
    """footprint_reports for the identity scenario of one demand, in variant
    order. Sectors are in the first category and in one group unless
    ``category_codes`` and ``groups`` say otherwise."""
    n = account.index.n
    gfcf = np.zeros(n) if gfcf is None else gfcf
    category_codes = np.zeros(n, dtype=int) if category_codes is None else category_codes
    group_labels, group_codes = groups or (("all",), np.zeros(n, dtype=int))
    operator = algebra.LeontiefOperator(account.Z, account.x)
    variants = indicators.report_variants(account, names or list(account.extensions))
    basis, _ = scenario.category_basis(y, gfcf, category_codes, account.index)
    [reports] = indicators.footprint_reports(
        account, variants, [home_region], operator.apply(basis),
        [("test", home_region, np.ones(len(scenario.SPENDING_CATEGORIES)))],
        group_labels, group_codes, fixtures.fixture_conversion_params())
    return reports


def hand_account(index, Z=None, x=None, intensity=None):
    """An account over ``index`` with one stressor row; by default nothing is
    traded and the row is one per unit of output, so a footprint is the sum
    of its demand."""
    n = index.n
    x = np.ones(n) if x is None else np.asarray(x, dtype=float)
    row = x if intensity is None else np.asarray(intensity, dtype=float) * x
    ext = model.ExtensionAccount(name="use", unit="t", stressors=("use",), rows=row[np.newaxis])
    return model.MrioAccount(index=index, Z=np.zeros((n, n)) if Z is None else Z,
                             Y=np.zeros((n, 0)), y_columns=(), x=x,
                             extensions={"use": ext}, year=2012)


class TestSplitOrigin:
    def test_all_home_production(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0",))
        [report] = one_column_reports(hand_account(index), [5.0, 0.0])
        assert report.by_origin == OriginSplit(domestic=5.0, imported=0.0)

    def test_hand_placed_contributions(self):
        index = model.RegionSectorIndex(("home", "abroad"), ("S0",))
        [report] = one_column_reports(hand_account(index), [3.0, 7.0], home_region="home")
        split = report.by_origin
        assert split.domestic == 3.0 and split.imported == 7.0
        assert split.import_share == pytest.approx(0.7)

    def test_unknown_region(self):
        index = model.RegionSectorIndex(("R0",), ("S0",))
        with pytest.raises(UnknownRegion):
            one_column_reports(hand_account(index), [1.0], home_region="R9")


class TestSectorGroups:
    def test_single_group_carries_total(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        groups = indicators.sector_group_codes({"S0": "services", "S1": "services"}, index)
        [report] = one_column_reports(hand_account(index), [2.0, 3.0], groups=groups)
        assert report.by_sector_group == {"services": 5.0}

    def test_hand_assignment(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1"))
        labels, codes = indicators.sector_group_codes({"S1": "services", "S0": "goods"}, index)
        assert labels == ("services", "goods") and codes.tolist() == [1, 0, 1, 0]
        [report] = one_column_reports(hand_account(index), [1.0, 2.0, 4.0, 8.0],
                                      groups=(labels, codes))
        assert report.by_sector_group == {"services": 10.0, "goods": 5.0}

    def test_unmapped_sector(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        with pytest.raises(UnmappedSector, match="'S1' has no sector group"):
            indicators.sector_group_codes({"S0": "goods"}, index)

    def test_group_total_preserved(self, account_357):
        groups = indicators.sector_group_codes(
            fixtures.fixture_sector_groups(account_357.index), account_357.index)
        y, gfcf = model.home_demand(account_357, "R0")
        for report in one_column_reports(account_357, y, gfcf, groups=groups):
            assert sum(report.by_sector_group.values()) == pytest.approx(report.total,
                                                                         rel=1e-12)

    def test_matches_flat_order_loop(self, account_357):
        # Each region-sector's contribution lands in its own sector's group.
        mapping = fixtures.fixture_sector_groups(account_357.index)
        groups = indicators.sector_group_codes(mapping, account_357.index)
        y = np.random.default_rng(7).uniform(0.0, 1.0, account_357.index.n)
        [report] = one_column_reports(account_357, y, groups=groups, names=["labour"])
        operator = algebra.LeontiefOperator(account_357.Z, account_357.x)
        s = algebra.intensity(total_row(account_357.extensions["labour"]), account_357.x)
        by_source = s * operator.apply(y)
        expected = {group: 0.0 for group in groups[0]}
        for flat, (_, sector) in enumerate(account_357.index.labels()):
            expected[mapping[sector]] += float(by_source[flat])
        assert report.by_sector_group == pytest.approx(expected, rel=1e-12)

    def test_sector_listed_twice_is_a_parse_error(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("# sector\tgroup\nS0\tgoods\nS1\tservices\nS0\tservices\n")
        with pytest.raises(ParseError, match=r"'S0' listed twice \(.*groups.tsv, row 4\)"):
            indicators.load_sector_groups(path, model.RegionSectorIndex(("R0",), ("S0", "S1")))


    def test_stray_quote_ends_at_its_line(self, tmp_path):
        # The quote before "manufacturing" is never closed; it must not
        # swallow the services row after it.
        path = tmp_path / "groups.tsv"
        path.write_text('S0\tagriculture\nS1\t"manufacturing\nS2\tservices\n')
        labels, codes = indicators.load_sector_groups(
            path, model.RegionSectorIndex(("R0",), ("S0", "S1", "S2")))
        assert labels == ("agriculture", "manufacturing", "services")
        assert codes.tolist() == [0, 1, 2]

def test_shipped_concordances_load():
    # An index over the 200 sectors of the group file, in two regions.
    groups_path = fileio.data_path("concordances/exiobase3_sector_groups.tsv")
    sectors = tuple(sector for _, sector, _ in read_pairs(groups_path, ("sector", "group")))
    assert len(sectors) == 200
    index = model.RegionSectorIndex(("GB", "DE"), sectors)
    labels, groups = indicators.load_sector_groups(groups_path, index)
    # Seven groups in file order, each holding some sector.
    assert labels == fixtures.SECTOR_GROUPS and set(groups.tolist()) == set(range(7))
    categories = scenario.load_concordance(
        fileio.data_path("concordances/exiobase3_categories.tsv"), index)
    unsorted = len(scenario.CONSUMPTION_SPENDING_CATEGORIES)
    assert ((categories[:200] < unsorted).sum(), (categories[:200] == unsorted).sum()) == (127, 73)
    for codes in (groups, categories):
        assert (codes[200:] == codes[:200]).all()


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
        assert model.skill_of("Employment hours: Low-skilled male") == "low"

    def test_unlabelled_stressor(self):
        with pytest.raises(MissingStressorLabel):
            indicators.aggregate_by_skill({"female": 1.0})


class TestCategoryAttribution:
    FIRST, SECOND = scenario.CONSUMPTION_SPENDING_CATEGORIES[:2]

    def test_single_category_demand(self):
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        [report] = one_column_reports(hand_account(index), [3.0, 4.0],
                                      category_codes=np.array([0, 0]))
        assert list(report.by_category) == list(scenario.SPENDING_CATEGORIES)
        assert report.by_category[self.FIRST] == 7.0
        assert sum(report.by_category.values()) == 7.0

    def test_two_categories_hand_solved(self):
        # The worked 2x2 case, A = Z / x: y = [10, 5] splits into [10, 0] in
        # the first category and [0, 5] in the second.
        index = model.RegionSectorIndex(("R0",), ("S0", "S1"))
        account = hand_account(index, Z=np.array([[20.0, 30.0], [40.0, 10.0]]),
                               x=[100.0, 100.0], intensity=[0.5, 1.0])
        [report] = one_column_reports(account, [10.0, 5.0], category_codes=np.array([0, 1]))
        attributed = report.by_category
        # L columns: [1.5, 2/3] and [0.5, 4/3].
        assert attributed[self.FIRST] == pytest.approx(0.5 * 15.0 + 20.0 / 3.0, rel=1e-12)
        assert attributed[self.SECOND] == pytest.approx(0.5 * 2.5 + 20.0 / 3.0, rel=1e-12)
        assert report.total == pytest.approx(66.25 / 3.0, rel=1e-12)
        assert sum(attributed.values()) == pytest.approx(report.total, rel=1e-9)

    def test_partition_sums_to_whole(self, account_357):
        codes = scenario.category_codes(
            fixtures.fixture_category_concordance(account_357.index), account_357.index)
        y, gfcf = model.home_demand(account_357, "R0")
        for report in one_column_reports(account_357, y, gfcf, category_codes=codes):
            assert list(report.by_category) == list(scenario.SPENDING_CATEGORIES)
            assert sum(report.by_category.values()) == pytest.approx(report.total, rel=1e-9)


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
        q = operator.apply(y)
        return {v.name: (v.labels, float(v.total_intensity @ q))
                for v in indicators.report_variants(account, ["materials"])}

    def test_unknown_extension_name_raises_mrio_error(self, account_357):
        with pytest.raises(MrioError, match="extension 'nope' not present in the account"):
            indicators.report_variants(account_357, ["labour", "nope"])

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

    @staticmethod
    def labour_report(account):
        index = account.index
        codes = scenario.category_codes(fixtures.fixture_category_concordance(index), index)
        groups = indicators.sector_group_codes(fixtures.fixture_sector_groups(index), index)
        y, gfcf = model.home_demand(account, "R0")
        [labour] = one_column_reports(account, y, gfcf, category_codes=codes, groups=groups,
                                      names=["labour"])
        return labour

    @pytest.fixture()
    def report(self, account_357):
        return self.labour_report(account_357)

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
        doubled = self.labour_report(
            dataclasses.replace(account_357, extensions={"labour": doubled_ext}))
        assert doubled.total == pytest.approx(2 * report.total, rel=1e-12)
        for group in report.by_sector_group:
            assert doubled.by_sector_group[group] == pytest.approx(
                2 * report.by_sector_group[group], rel=1e-9)
            if report.total > 0:
                assert (doubled.by_sector_group[group] / doubled.total
                        == pytest.approx(report.by_sector_group[group] / report.total,
                                         rel=1e-9))
