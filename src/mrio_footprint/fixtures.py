"""Deterministic synthetic accounts for desk-scale verification, and the
runnable fixture sets written from them.

Fixture accounts are balanced by construction (total output solves the
quantity model for the drawn demand) and productive (coefficient columns sum
to at most 0.7, bounding the spectral radius below 0.8). They carry the full
extension set the pipeline expects: six labour stressors, energy and
emissions with per-region direct use, and used/unused materials.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algebra import leontief_solve
from .fileio import _writer, write_account
from .indicators import ConversionParams
from .model import (
    CATEGORY_GFCF,
    CATEGORY_GOVERNMENT,
    CATEGORY_HOUSEHOLDS,
    CATEGORY_INVENTORY,
    CATEGORY_NON_PROFIT,
    DEMAND_CATEGORIES,
    ExtensionAccount,
    MrioAccount,
    RegionSectorIndex,
    home_demand,
)
from .scenario import (
    CONSUMPTION_SPENDING_CATEGORIES,
    GFCF_CATEGORY,
    baseline_category_totals,
    category_codes,
)

FIXTURE_YEAR = 2012

LABOUR_STRESSORS = (
    "female low-skilled",
    "male low-skilled",
    "female medium-skilled",
    "male medium-skilled",
    "female high-skilled",
    "male high-skilled",
)

MATERIAL_STRESSORS = ("biomass (used)", "metal ores (used)", "unused extraction")
MATERIAL_FLAGS = {
    "biomass (used)": "used",
    "metal ores (used)": "used",
    "unused extraction": "unused",
}

SECTOR_GROUPS = (
    "agriculture",
    "mining and quarrying",
    "manufacturing",
    "energy and water supply",
    "construction",
    "trade and transport",
    "services",
)


def fixture(n_regions: int, n_sectors: int, seed: int) -> MrioAccount:
    """Build a balanced, productive account from a seed (same seed, same account)."""
    if n_regions < 1 or n_sectors < 1:
        raise ValueError("fixture needs at least one region and one sector")
    rng = np.random.default_rng(seed)
    index = RegionSectorIndex(
        regions=tuple(f"R{i}" for i in range(n_regions)),
        sectors=tuple(f"S{j}" for j in range(n_sectors)),
    )
    n = index.n

    # Coefficients with column sums in [0.2, 0.7] keep the economy productive.
    A = rng.uniform(0.0, 1.0, size=(n, n))
    target_sums = rng.uniform(0.2, 0.7, size=n)
    A *= target_sums / A.sum(axis=0)

    y_blocks = {
        CATEGORY_HOUSEHOLDS: rng.uniform(2.0, 10.0, size=(n, n_regions)),
        CATEGORY_NON_PROFIT: rng.uniform(0.0, 0.5, size=(n, n_regions)),
        CATEGORY_GOVERNMENT: rng.uniform(0.0, 3.0, size=(n, n_regions)),
        CATEGORY_GFCF: rng.uniform(0.5, 3.0, size=(n, n_regions)),
        # Real tables record inventory drawdowns as negatives; keep them small
        # enough that row totals stay positive.
        CATEGORY_INVENTORY: rng.uniform(-0.5, 0.5, size=(n, n_regions)),
    }

    # One inactive region-sector, as real tables have, once there is room.
    inactive = n - 1 if n >= 4 else None
    if inactive is not None:
        A[inactive, :] = 0.0
        A[:, inactive] = 0.0
        for block in y_blocks.values():
            block[inactive, :] = 0.0

    Y = np.zeros((n, n_regions * len(DEMAND_CATEGORIES)))
    y_columns = []
    for r, region in enumerate(index.regions):
        for c, category in enumerate(DEMAND_CATEGORIES):
            Y[:, r * len(DEMAND_CATEGORIES) + c] = y_blocks[category][:, r]
            y_columns.append((region, category))

    y_total = Y.sum(axis=1)
    x = leontief_solve(A, y_total)
    x[np.abs(x) < 1e-12] = 0.0
    Z = A * x[np.newaxis, :]

    def activity_scaled(low: float, high: float, rows: int = 1) -> np.ndarray:
        return rng.uniform(low, high, size=(rows, n)) * x[np.newaxis, :]

    extensions = {
        "labour": ExtensionAccount(
            name="labour", unit="hours", stressors=LABOUR_STRESSORS,
            rows=activity_scaled(0.02, 0.4, rows=6), kind="labour",
        ),
        "energy": ExtensionAccount(
            name="energy", unit="TJ", stressors=("gross energy use",),
            rows=activity_scaled(0.1, 2.0),
            direct={region: float(v) for region, v in
                    zip(index.regions, rng.uniform(5.0, 50.0, size=n_regions))},
            kind="energy",
        ),
        "emissions": ExtensionAccount(
            name="emissions", unit="kt CO2-eq", stressors=("CO2", "CH4 (CO2-eq)"),
            rows=activity_scaled(0.05, 1.0, rows=2),
            direct={region: float(v) for region, v in
                    zip(index.regions, rng.uniform(1.0, 10.0, size=n_regions))},
            kind="emissions",
        ),
        "material": ExtensionAccount(
            name="material", unit="kt", stressors=MATERIAL_STRESSORS,
            rows=activity_scaled(0.05, 1.5, rows=3), kind="material",
            material_flags=dict(MATERIAL_FLAGS),
        ),
    }

    return MrioAccount(index=index, Z=Z, Y=Y, y_columns=tuple(y_columns), x=x,
                       extensions=extensions, year=FIXTURE_YEAR)


def fixture_category_concordance(index: RegionSectorIndex) -> dict[str, str]:
    """Round-robin sectors over the 12 consumption categories (all sorted)."""
    return {
        sector: CONSUMPTION_SPENDING_CATEGORIES[j % len(CONSUMPTION_SPENDING_CATEGORIES)]
        for j, sector in enumerate(index.sectors)
    }


def fixture_sector_groups(index: RegionSectorIndex) -> dict[str, str]:
    """Round-robin sectors over the seven sector groups."""
    return {
        sector: SECTOR_GROUPS[j % len(SECTOR_GROUPS)]
        for j, sector in enumerate(index.sectors)
    }


def fixture_conversion_params() -> ConversionParams:
    return ConversionParams(working_age_population=650_000.0, total_population=1_000_000.0)


def write_fixture_set(n_regions: int, n_sectors: int, seed: int,
                      out_dir: str | Path) -> Path:
    """Write a complete runnable fixture: account files plus concordances,
    conversion params, and two scenario specs (identity and one halved
    category). Byte-identical for a given seed. Returns the layout path.
    """
    out_dir = Path(out_dir)
    account = fixture(n_regions, n_sectors, seed)
    layout_path = write_account(account, out_dir)
    index = account.index
    home_region = index.regions[0]

    concordance = fixture_category_concordance(index)
    with (out_dir / "category_concordance.tsv").open("w", newline="", encoding="utf-8") as handle:
        _writer(handle, "\t").writerows(concordance.items())
    with (out_dir / "sector_groups.tsv").open("w", newline="", encoding="utf-8") as handle:
        _writer(handle, "\t").writerows(fixture_sector_groups(index).items())

    params = fixture_conversion_params()
    (out_dir / "params.json").write_text(json.dumps({
        "working_age_population": params.working_age_population,
        "total_population": params.total_population,
        "weeks_worked_per_year": params.weeks_worked_per_year,
        "working_life_share": params.working_life_share,
    }, indent=2) + "\n", encoding="utf-8")

    scenario_dir = out_dir / "scenarios"
    scenario_dir.mkdir(exist_ok=True)

    baseline_spec = {
        "name": "baseline",
        "home_region": home_region,
        "category_targets": {category: None for category in CONSUMPTION_SPENDING_CATEGORIES}
        | {GFCF_CATEGORY: None},
    }
    (scenario_dir / "baseline.json").write_text(
        json.dumps(baseline_spec, indent=2) + "\n", encoding="utf-8")

    # Halve the category of the first sector, leave everything else alone.
    y_base, _ = home_demand(account, home_region)
    totals = baseline_category_totals(y_base, category_codes(concordance, index), index)
    halved_category = concordance[index.sectors[0]]
    halved_targets: dict[str, float | None] = {
        category: None for category in CONSUMPTION_SPENDING_CATEGORIES
    }
    halved_targets[halved_category] = 0.5 * totals[halved_category]
    halved_spec = {
        "name": "halved",
        "home_region": home_region,
        "category_targets": halved_targets | {GFCF_CATEGORY: None},
    }
    (scenario_dir / "halved.json").write_text(
        json.dumps(halved_spec, indent=2) + "\n", encoding="utf-8")

    return layout_path
