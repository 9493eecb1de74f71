"""Account model tests: indexing, fixtures, balance, home demand."""

import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import technical_coefficients
from mrio_footprint import algebra, fixtures, model, scenario
from mrio_footprint.errors import (
    DimensionMismatch,
    MissingStressorLabel,
    NegativeEntry,
    NonFiniteEntry,
    UnknownCategory,
    UnknownRegion,
)


class TestRegionSectorIndex:
    def test_lookup_is_a_bijection(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1", "S2"))
        # Flat index r * n_sectors + s, row-major in region blocks.
        assert index.labels() == [(r, s) for r in ("R0", "R1") for s in ("S0", "S1", "S2")]
        assert len(set(index.labels())) == index.n == 6

    def test_region_slice(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1", "S2"))
        assert index.region_slice("R1") == slice(3, 6)

    def test_unknown_region(self):
        index = model.RegionSectorIndex(("R0",), ("S0",))
        with pytest.raises(UnknownRegion):
            index.region_slice("R9")

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValueError):
            model.RegionSectorIndex(("R0", "R0"), ("S0",))

    def test_repeated_sector_rejected(self):
        with pytest.raises(ValueError, match="^sector names are not unique$"):
            model.RegionSectorIndex(("R0",), ("S0", "S1", "S0"))


class TestExtensionAccount:
    @pytest.mark.parametrize("change, error, message", [
        ({"unit": ""}, ValueError, "extension 'e' has no unit label"),
        ({"stressors": ("a", "a")}, ValueError, "extension 'e' has duplicate stressor labels"),
        ({"rows": np.ones((3, 4))}, DimensionMismatch,
         r"extension 'e': 2 stressor labels but row block of shape \(3, 4\)"),
        ({"rows": np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])}, NegativeEntry,
         "extension 'e' stressor 'b' has negative entries"),
    ], ids=["empty unit", "repeated stressor", "row block height", "negative cell"])
    def test_bad_extension_rejected(self, change, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            model.ExtensionAccount(**{"name": "e", "unit": "t", "stressors": ("a", "b"),
                                      "rows": np.ones((2, 4))} | change)

    # fixture(2, 3, 42)'s material extension flags "biomass (used)" and "metal
    # ores (used)" used and "unused extraction" unused.
    @pytest.mark.parametrize("name, change, error, message", [
        ("material", {"kind": "labor"}, ValueError,
         r"extension 'material' has kind 'labor', not one of "
         r"\('labour', 'energy', 'emissions', 'material'\)"),
        ("labour", {"stressors": ("female low-skilled", "female", "female medium-skilled",
                                  "male medium-skilled", "female high-skilled",
                                  "male high-skilled")}, MissingStressorLabel,
         "labour stressor 'female' does not name a skill level: low, medium or high"),
        ("material", {"material_flags": {"biomass (used)": "usde", "metal ores (used)": "used",
                                         "unused extraction": "unused"}}, MissingStressorLabel,
         r"material_flags gives stressor 'biomass \(used\)' of extension 'material' the flag "
         r"'usde', not 'used' or 'unused'"),
        ("material", {"material_flags": {"biomass (used)": "used",
                                         "unused extraction": "unused"}}, MissingStressorLabel,
         r"material_flags gives stressor 'metal ores \(used\)' of extension 'material' the "
         r"flag None, not 'used' or 'unused'"),
        ("material", {"material_flags": {**fixtures.MATERIAL_FLAGS, "metal ores (usde)": "used"}},
         MissingStressorLabel, r"material_flags key 'metal ores \(usde\)' names no stressor of "
                               r"extension 'material'"),
    ], ids=["unknown kind", "labour label without a skill level", "flag neither used nor unused",
            "stressor without a flag", "flag naming no stressor"])
    def test_label_rules_hold_for_accounts_built_in_code(self, name, change, error, message):
        extension = fixtures.fixture(2, 3, 42).extensions[name]
        with pytest.raises(error, match=f"^{message}$") as excinfo:
            replace(extension, **change)
        if error is MissingStressorLabel:
            labels = "rows" if name == "labour" else "material_flags"
            assert excinfo.value.array == f"extension {name!r} {labels}"
            assert getattr(excinfo.value, "cell", None) == ((1,) if name == "labour" else None)

    # fixture(2, 3, 42)'s energy and emissions extensions carry direct use.
    @pytest.mark.parametrize("name, change, message", [
        ("emissions", {"kind": "energy", "material_flags": {"CO2": "used",
                                                            "CH4 (CO2-eq)": "unused"}},
         "extension 'emissions' has material_flags, which is read only for kind material, "
         "but its kind is 'energy'"),
        ("labour", {"direct": {"R0": 1.0, "R1": 2.0}},
         "extension 'labour' has direct, which is read only for kind energy or emissions, "
         "but its kind is 'labour'"),
        ("emissions", {"kind": None},
         "extension 'emissions' has direct, which is read only for kind energy or emissions, "
         "but its kind is None"),
    ], ids=["material flags of energy", "direct use of labour", "direct use without kind"])
    def test_kind_rules_hold_for_accounts_built_in_code(self, name, change, message):
        extension = fixtures.fixture(2, 3, 42).extensions[name]
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(extension, **change)

    @pytest.mark.parametrize("direct, error, message", [
        ({"R0": math.nan, "R1": 1.0}, NonFiniteEntry,
         r"extension 'energy' direct use\[0\] = nan is not finite"),
        ({"R0": -1.0, "R1": 1.0}, NegativeEntry,
         "extension 'energy' has negative direct use for region 'R0'"),
        ({"R0": 1.0}, DimensionMismatch,
         r"extension 'energy' has direct use for regions \['R0'\], not one value for each "
         r"account region \['R0', 'R1'\]"),
        ({"R0": 1.0, "R1": 1.0, "R9": 1.0}, DimensionMismatch,
         r"extension 'energy' has direct use for regions \['R0', 'R1', 'R9'\], not one value "
         r"for each account region \['R0', 'R1'\]"),
    ], ids=["nan", "negative", "missing region", "extra region"])
    def test_bad_direct_use_rejected(self, direct, error, message):
        account = fixtures.fixture(2, 3, 42)
        with pytest.raises(error, match=f"^{message}$"):
            energy = replace(account.extensions["energy"], direct=direct)
            replace(account, extensions=account.extensions | {"energy": energy})


class TestFixture:
    def test_deterministic(self):
        a = fixtures.fixture(2, 3, 42)
        b = fixtures.fixture(2, 3, 42)
        np.testing.assert_array_equal(a.Z, b.Z)
        np.testing.assert_array_equal(a.Y, b.Y)
        np.testing.assert_array_equal(a.x, b.x)
        for name in a.extensions:
            np.testing.assert_array_equal(a.extensions[name].rows,
                                          b.extensions[name].rows)

    def test_balanced_by_construction(self):
        report = model.validate_balance(fixtures.fixture(2, 3, 42), tol=1e-9)
        assert report.ok

    def test_productive(self):
        account = fixtures.fixture(3, 5, 7)
        operator = algebra.LeontiefOperator(account.Z, account.x)
        estimate = algebra.ProductivityEstimate.of(operator.apply(np.ones(account.index.n)))
        assert estimate.productive and estimate.spectral_radius < 0.8

    def test_row_and_column_sum_bounds_dominate_the_spectral_radius(self):
        # The criterion-1 fixtures. The certificate bounds rho by L's row
        # sums, 1 - 1/max(L 1); the column sums of the dense inverse give the
        # other Collatz-Wielandt bound, 1 - 1/max(1^T L).
        for seed in range(200):
            account = fixtures.fixture(seed % 6 + 1, seed % 8 + 1, seed)
            A = technical_coefficients(account.Z, account.x)
            rho = max(abs(np.linalg.eigvals(A)))
            column_bound = 1.0 - 1.0 / max(np.linalg.inv(np.eye(len(A)) - A).sum(axis=0))
            estimate = algebra.ProductivityEstimate.of(
                algebra.LeontiefOperator(account.Z, account.x).apply(np.ones(len(A))))
            assert column_bound >= rho - 1e-12
            assert estimate.spectral_radius >= rho - 1e-12

    def test_a_lone_ones_column_certifies_as_one_in_a_block(self):
        # validate solves the column of ones alone; footprint and compare
        # solve it after their basis columns, where dgetrs may round its last
        # bits otherwise. On the criterion-1 fixtures the bounds agree within
        # 1e-12 relative, with the same verdict.
        for seed in range(200):
            account = fixtures.fixture(seed % 6 + 1, seed % 8 + 1, seed)
            index = account.index
            codes = scenario.category_codes(fixtures.fixture_category_concordance(index), index)
            basis, _ = scenario.category_basis(*model.home_demand(account, "R0"), codes, index)
            operator = algebra.LeontiefOperator(account.Z, account.x)
            ones = np.ones((index.n, 1))
            alone = algebra.ProductivityEstimate.of(operator.apply(ones[:, 0]))
            in_block = algebra.ProductivityEstimate.of(
                operator.apply(np.hstack([basis, ones]))[:, -1])
            assert alone.productive == in_block.productive
            assert alone.spectral_radius == pytest.approx(in_block.spectral_radius, rel=1e-12)

    def test_extension_set(self, account_357):
        assert set(account_357.extensions) == {"labour", "energy", "emissions", "material"}
        labour = account_357.extensions["labour"]
        assert len(labour.stressors) == 6
        assert labour.unit == "hours"
        assert account_357.extensions["energy"].direct is not None
        assert account_357.extensions["material"].material_flags is not None

    def test_inactive_sector_is_consistent(self, account_357):
        # Last region-sector is switched off when there is room: no output,
        # no demand, no extension activity.
        z = account_357.index.n - 1
        assert account_357.x[z] == 0.0
        assert np.all(account_357.Y[z, :] == 0.0)
        for ext in account_357.extensions.values():
            assert np.all(ext.rows[:, z] == 0.0)

    def test_inventory_negatives_exist_in_storage(self, account_357):
        columns = [i for i, (_, c) in enumerate(account_357.y_columns)
                   if c == model.CATEGORY_INVENTORY]
        assert np.min(account_357.Y[:, columns]) < 0.0

    def test_negative_transaction_rejected(self, account_357):
        Z = account_357.Z.copy()
        Z[2, 3] = -1.0
        with pytest.raises(NegativeEntry, match="^transaction matrix contains negative entries$"):
            model.MrioAccount(
                index=account_357.index, Z=Z, Y=account_357.Y,
                y_columns=account_357.y_columns, x=account_357.x,
                extensions=account_357.extensions, year=account_357.year)

    @pytest.mark.parametrize("change, error, message", [
        (lambda a: {"Z": a.Z[1:]}, DimensionMismatch, r"Z shape \(14, 15\) != \(15, 15\)"),
        (lambda a: {"Y": a.Y[1:]}, DimensionMismatch, r"Y shape \(14, 15\) does not have 15 rows"),
        (lambda a: {"Y": a.Y[:, 0]}, DimensionMismatch, r"Y shape \(15,\) does not have 15 rows"),
        (lambda a: {"y_columns": a.y_columns[1:]}, DimensionMismatch,
         "Y has 15 columns but 14 column labels"),
        (lambda a: {"x": a.x[1:]}, DimensionMismatch, r"x shape \(14,\) != \(15,\)"),
        (lambda a: {"x": np.where(np.arange(15) == 4, -1.0, a.x)}, NegativeEntry,
         "total output contains negative entries"),
        (lambda a: {"extensions": {"energy": replace(a.extensions["energy"],
                                                     rows=a.extensions["energy"].rows[:, 1:])}},
         DimensionMismatch, "extension 'energy' has 14 columns, expected 15"),
    ], ids=["Z shape", "Y rows", "Y one-dimensional", "Y column labels", "x shape",
            "negative x", "extension width"])
    def test_bad_account_rejected(self, account_357, change, error, message):
        fields = {"index": account_357.index, "Z": account_357.Z, "Y": account_357.Y,
                  "y_columns": account_357.y_columns, "x": account_357.x,
                  "extensions": account_357.extensions, "year": account_357.year}
        with pytest.raises(error, match=f"^{message}$"):
            model.MrioAccount(**fields | change(account_357))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("array, cell", [("Z", (2, 3)), ("Y", (4, 1)), ("x", (6,)),
                                             ("energy", (0, 5))])
    def test_non_finite_cell_rejected(self, account_357, array, cell, value):
        # nan passes a negative screen (nan < 0 is false) and would surface
        # only as a failed Leontief solve. The first bad cell is named.
        fields = {"index": account_357.index, "Z": account_357.Z, "Y": account_357.Y,
                  "y_columns": account_357.y_columns, "x": account_357.x,
                  "extensions": account_357.extensions, "year": account_357.year}
        extension = account_357.extensions["energy"]
        values = (extension.rows if array == "energy" else fields[array]).copy()
        values[cell] = value
        values.flat[-1] = np.nan
        name = "extension 'energy' rows" if array == "energy" else array
        where = ", ".join(map(str, cell))
        with pytest.raises(NonFiniteEntry, match=rf"^{name}\[{where}\] = {value} is not finite$"):
            if array == "energy":
                replace(extension, rows=values)
            else:
                model.MrioAccount(**fields | {array: values})


class TestValidateBalance:
    def test_perturbed_row_is_flagged(self, account_357):
        Z = account_357.Z.copy()
        Z[2, 3] += 0.1 * account_357.x[2]
        perturbed = model.MrioAccount(
            index=account_357.index, Z=Z, Y=account_357.Y,
            y_columns=account_357.y_columns, x=account_357.x,
            extensions=account_357.extensions, year=account_357.year)
        report = model.validate_balance(perturbed, tol=1e-6)
        assert [v.row for v in report.violations] == [2]

    def test_infinite_tolerance(self, account_357):
        assert model.validate_balance(account_357, tol=math.inf).ok


def _with_y(account, Y, y_columns=None):
    return model.MrioAccount(
        index=account.index, Z=account.Z, Y=Y,
        y_columns=account.y_columns if y_columns is None else y_columns,
        x=account.x, extensions=account.extensions, year=account.year)


def _column(account, region, category):
    return account.y_columns.index((region, category))


class TestSelectDemand:
    """``home_demand``: one region's consumption and capital formation."""

    def test_consumption_is_sum_of_three_columns(self, account_357):
        consumption, gfcf = model.home_demand(account_357, "R0")
        expected = np.zeros(account_357.index.n)
        for category in model.CONSUMPTION_CATEGORIES:
            expected += account_357.Y[:, _column(account_357, "R0", category)]
        np.testing.assert_array_equal(consumption, expected)
        np.testing.assert_array_equal(
            gfcf, account_357.Y[:, _column(account_357, "R0", model.CATEGORY_GFCF)])

    def test_additive_over_disjoint_category_sets(self, account_357):
        consumption, gfcf = model.home_demand(account_357, "R1")
        columns = [_column(account_357, "R1", category)
                   for category in (*model.CONSUMPTION_CATEGORIES, model.CATEGORY_GFCF)]
        np.testing.assert_allclose(consumption + gfcf, account_357.Y[:, columns].sum(axis=1),
                                   rtol=1e-15)

    def test_inventory_change_never_enters(self, account_357):
        Y = account_357.Y.copy()
        for region in account_357.index.regions:
            Y[:, _column(account_357, region, model.CATEGORY_INVENTORY)] = -1e6
        changed = _with_y(account_357, Y)
        for region in account_357.index.regions:
            for before, after in zip(model.home_demand(account_357, region),
                                     model.home_demand(changed, region)):
                np.testing.assert_array_equal(after, before)

    def test_unknown_region(self, account_357):
        with pytest.raises(UnknownRegion, match="'R9' has no final-demand columns"):
            model.home_demand(account_357, "R9")

    def test_repeated_column_rejected(self):
        # Summed twice, its demand would count twice in the region's consumption.
        account = fixtures.fixture(2, 3, 42)
        k = _column(account, "R0", model.CATEGORY_HOUSEHOLDS)
        with pytest.raises(ValueError,
                           match="^final-demand column 'R0 / households' is repeated$"):
            replace(account, Y=np.hstack([account.Y, account.Y[:, [k]]]),
                    y_columns=(*account.y_columns, account.y_columns[k]))

    def test_missing_category_column_rejected(self, account_357):
        keep = [k for k, column in enumerate(account_357.y_columns)
                if column != ("R1", model.CATEGORY_GFCF)]
        partial = _with_y(account_357, account_357.Y[:, keep],
                          [account_357.y_columns[k] for k in keep])
        model.home_demand(partial, "R0")
        with pytest.raises(UnknownCategory, match="'R1' has no final-demand column for "
                                                  "category 'gfcf'"):
            model.home_demand(partial, "R1")

    def test_extra_demand_columns_survive_but_are_unselectable(self, account_357):
        Y = np.hstack([account_357.Y, np.ones((account_357.index.n, 1))])
        extended = _with_y(account_357, Y, account_357.y_columns + (("R0", "exports"),))
        assert extended.y_columns[-1] == ("R0", "exports")
        for before, after in zip(model.home_demand(account_357, "R0"),
                                 model.home_demand(extended, "R0")):
            np.testing.assert_array_equal(after, before)

    def test_negative_selected_demand_rejected(self, account_357):
        for category in (model.CATEGORY_HOUSEHOLDS, model.CATEGORY_GFCF):
            Y = account_357.Y.copy()
            Y[2, _column(account_357, "R0", category)] = -50.0
            with pytest.raises(NegativeEntry, match=rf"\(R0, S2\) in category '{category}'"):
                model.home_demand(_with_y(account_357, Y), "R0")
