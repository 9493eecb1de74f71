"""Account model tests: indexing, fixtures, balance, home demand."""

import math

import numpy as np
import pytest

from _oracles import technical_coefficients
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
        A = technical_coefficients(account.Z, account.x)
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
