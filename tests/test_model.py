"""Account model tests: indexing, fixtures, balance, demand selection."""

import math

import numpy as np
import pytest

from mrio_footprint import algebra, fixtures, model
from mrio_footprint.errors import NegativeEntry, UnknownCategory, UnknownRegion


class TestRegionSectorIndex:
    def test_lookup_is_a_bijection(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1", "S2"))
        flats = [index.lookup(r, s) for r, s in index.labels()]
        assert flats == list(range(index.n))
        assert index.n == 6

    def test_region_slice(self):
        index = model.RegionSectorIndex(("R0", "R1"), ("S0", "S1", "S2"))
        assert index.region_slice("R1") == slice(3, 6)

    def test_unknown_region(self):
        index = model.RegionSectorIndex(("R0",), ("S0",))
        with pytest.raises(UnknownRegion):
            index.lookup("R9", "S0")

    def test_duplicate_codes_rejected(self):
        with pytest.raises(ValueError):
            model.RegionSectorIndex(("R0", "R0"), ("S0",))


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
        A = algebra.technical_coefficients(account.Z, account.x)
        estimate = algebra.productivity_check(algebra.factorize(A))
        assert estimate.productive and estimate.spectral_radius < 0.8

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


class TestSelectDemand:
    def test_single_region_households(self, account_357):
        selection = model.DemandSelection(("R1",), (model.CATEGORY_HOUSEHOLDS,))
        demand = model.select_demand(account_357, selection)
        column = account_357.y_column_indices("R1", model.CATEGORY_HOUSEHOLDS)[0]
        np.testing.assert_array_equal(demand, account_357.Y[:, column])

    def test_consumption_is_sum_of_three_columns(self, account_357):
        demand = model.select_demand(account_357, model.consumption_selection("R0"))
        expected = np.zeros(account_357.index.n)
        for category in model.CONSUMPTION_CATEGORIES:
            expected += account_357.Y[:, account_357.y_column_indices("R0", category)[0]]
        np.testing.assert_array_equal(demand, expected)

    def test_additive_over_disjoint_category_sets(self, account_357):
        households = model.select_demand(
            account_357, model.DemandSelection(("R0",), (model.CATEGORY_HOUSEHOLDS,)))
        rest = model.select_demand(
            account_357,
            model.DemandSelection(("R0",), (model.CATEGORY_NON_PROFIT,
                                            model.CATEGORY_GOVERNMENT)))
        union = model.select_demand(account_357, model.consumption_selection("R0"))
        np.testing.assert_allclose(households + rest, union, rtol=1e-15)

    def test_inventory_change_rejected_at_selection(self):
        with pytest.raises(UnknownCategory):
            model.DemandSelection(("R0",), (model.CATEGORY_INVENTORY,))

    def test_unknown_category_rejected(self):
        with pytest.raises(UnknownCategory):
            model.DemandSelection(("R0",), ("exports",))

    def test_unknown_region(self, account_357):
        with pytest.raises(UnknownRegion):
            model.select_demand(
                account_357, model.DemandSelection(("R9",), (model.CATEGORY_HOUSEHOLDS,)))

    def test_missing_category_column_rejected(self, account_357):
        keep = [k for k, column in enumerate(account_357.y_columns)
                if column != ("R1", model.CATEGORY_GFCF)]
        partial = model.MrioAccount(
            index=account_357.index, Z=account_357.Z, Y=account_357.Y[:, keep],
            y_columns=[account_357.y_columns[k] for k in keep],
            x=account_357.x, extensions=account_357.extensions, year=account_357.year)
        model.select_demand(partial, model.consumption_selection("R1"))
        with pytest.raises(UnknownCategory, match="'R1' has no final-demand column for "
                                                  "category 'gfcf'"):
            model.select_demand(partial, model.gfcf_selection("R1"))

    def test_extra_demand_columns_survive_but_are_unselectable(self, account_357):
        Y = np.hstack([account_357.Y, np.ones((account_357.index.n, 1))])
        extended = model.MrioAccount(
            index=account_357.index, Z=account_357.Z, Y=Y,
            y_columns=account_357.y_columns + (("R0", "exports"),),
            x=account_357.x, extensions=account_357.extensions, year=account_357.year)
        demand = model.select_demand(extended, model.consumption_selection("R0"))
        baseline = model.select_demand(account_357, model.consumption_selection("R0"))
        np.testing.assert_array_equal(demand, baseline)
        with pytest.raises(UnknownCategory):
            model.DemandSelection(("R0",), ("exports",))

    def test_negative_selected_demand_rejected(self, account_357):
        Y = account_357.Y.copy()
        column = account_357.y_column_indices("R0", model.CATEGORY_HOUSEHOLDS)[0]
        Y[0, column] = -5.0
        corrupt = model.MrioAccount(
            index=account_357.index, Z=account_357.Z, Y=Y,
            y_columns=account_357.y_columns, x=account_357.x,
            extensions=account_357.extensions, year=account_357.year)
        with pytest.raises(NegativeEntry):
            model.select_demand(corrupt, model.consumption_selection("R0"))
