"""Low-consumption scenario construction and final-demand scaling.

A scenario is a set of annual national spending targets over 13 fixed
categories. Applying one to a baseline rescales every sector's demand by its
category's target/baseline ratio, so the composition of spending inside a
category is preserved; capital formation is scaled separately as a single
block. Factors above 1 are legal: a scenario can reallocate spending into a
category beyond its baseline total.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ParseError,
    UnsortedNonzeroDemand,
    ZeroBaselineNonzeroTarget,
    read_json,
)
from .model import RegionSectorIndex

# The 13 spending categories, in canonical order. The final one is the
# capital-formation block, which is a demand column rather than a set of
# sectors; the other 12 partition the sorted sectors.
GROCERIES = "Groceries (food and drinks)"
CLOTHING = "Clothing"
HOUSING = "Housing"
UTILITIES = "Utilities and insurance"
HEALTHCARE = "Healthcare"
APPLIANCES = "Appliances, furnishing, and maintenance"
EDUCATION = "Education"
DEVICES = "Devices (TVs, phones, computers)"
TRANSPORT = "Transport"
PUBLIC_ADMIN = "Public administration and defence"
RECREATION = "Recreation (vacations, toys, dining out)"
CARE_WORK = "Care work (babysitters, senior care)"
GFCF_CATEGORY = "Gross fixed capital formation"

SPENDING_CATEGORIES = (
    GROCERIES,
    CLOTHING,
    HOUSING,
    UTILITIES,
    HEALTHCARE,
    APPLIANCES,
    EDUCATION,
    DEVICES,
    TRANSPORT,
    PUBLIC_ADMIN,
    RECREATION,
    CARE_WORK,
    GFCF_CATEGORY,
)

CONSUMPTION_SPENDING_CATEGORIES = SPENDING_CATEGORIES[:-1]

# Calendar weeks in an average year, used to annualise average weekly hours.
WEEKS_PER_YEAR = 365.25 / 7  # ~52.18


def _sector_codes(mapping: dict[str, str], labels: tuple[str, ...],
                  index: RegionSectorIndex) -> np.ndarray:
    """Position in ``labels`` of every region-sector's label, in flat
    region-major order; sectors absent from ``mapping`` get ``len(labels)``."""
    position = {label: k for k, label in enumerate(labels)}
    per_sector = [position.get(mapping.get(sector), len(labels)) for sector in index.sectors]
    return np.tile(np.array(per_sector, dtype=np.intp), index.n_regions)


def _check_category(sector: str, category: str) -> None:
    """A sector's category must be one of the 12 sector categories."""
    if category == GFCF_CATEGORY:
        raise ValueError(
            f"sector {sector!r} mapped to the capital-formation block; "
            "it is a demand column, not a sector category"
        )
    if category not in CONSUMPTION_SPENDING_CATEGORIES:
        raise ValueError(f"sector {sector!r} mapped to unknown category {category!r}")


@dataclass(frozen=True)
class CategoryConcordance:
    """Maps each sector name to one spending category.

    Sectors absent from ``mapping`` are unsorted; that is only legal while
    their final demand is zero, and violations are loud (see
    ``baseline_category_totals``). The capital-formation category may not
    appear here because it is a demand block, not a group of sectors.
    """

    mapping: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        for sector, category in self.mapping.items():
            _check_category(sector, category)

    def codes(self, index: RegionSectorIndex) -> np.ndarray:
        """Position in ``CONSUMPTION_SPENDING_CATEGORIES`` of every
        region-sector's category, in flat order; unsorted sectors get 12."""
        return _sector_codes(self.mapping, CONSUMPTION_SPENDING_CATEGORIES, index)


@dataclass(frozen=True)
class BudgetMove:
    """Move a fraction of one category's target into another (or drop it)."""

    source: str
    fraction: float
    destination: str | None = None

    def __post_init__(self):
        if self.source not in SPENDING_CATEGORIES:
            raise ValueError(f"unknown source category {self.source!r}")
        if self.destination is not None and self.destination not in SPENDING_CATEGORIES:
            raise ValueError(f"unknown destination category {self.destination!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Spending targets for one scenario.

    ``category_targets`` covers the 13 categories; a None target means "keep
    the baseline total" (factor 1). The public-administration target may
    instead be derived from ``government_factor`` times its baseline.
    ``adjustments`` are budget moves applied to the resolved targets, in
    order; shipped specs carry final totals and no adjustments.
    """

    name: str
    home_region: str
    category_targets: dict[str, float | None]
    government_factor: float | None = None
    adjustments: tuple[BudgetMove, ...] = ()

    def __post_init__(self):
        # The name is a directory under --out.
        if (self.name in ("", ".", "..")
                or any(char in self.name for char in ("/", "\\", "\0"))):
            raise ValueError(f"scenario name {self.name!r} is not a single directory name; "
                             "it may not be empty, '.' or '..', nor hold '/', '\\' or NUL")
        object.__setattr__(self, "category_targets", dict(self.category_targets))
        object.__setattr__(self, "adjustments", tuple(self.adjustments))
        unknown = set(self.category_targets) - set(SPENDING_CATEGORIES)
        if unknown:
            raise ValueError(f"unknown categories in spec {self.name!r}: {sorted(unknown)}")
        for category, target in self.category_targets.items():
            if target is not None and not (math.isfinite(target) and target >= 0.0):
                raise ValueError(f"target for {category!r} in spec {self.name!r} must be "
                                 f"finite and nonnegative, got {target}")
        if self.government_factor is not None and not 0.0 <= self.government_factor <= 1.0:
            raise ValueError(f"government factor must be in [0, 1], got {self.government_factor}")


def baseline_category_totals(y_base: np.ndarray, codes: np.ndarray,
                             index: RegionSectorIndex) -> dict[str, float]:
    """Per-category sums of a spending vector over the 12 sector categories.

    ``codes`` is ``CategoryConcordance.codes(index)``. Every sector carrying
    demand must be sorted; an unsorted sector with nonzero demand voids the
    premise that unsorted sectors are inactive.
    """
    y = np.asarray(y_base, dtype=float)
    unsorted = len(CONSUMPTION_SPENDING_CATEGORIES)
    offending = np.flatnonzero((codes == unsorted) & (y != 0.0))
    if offending.size:
        flat = int(offending[0])
        region, sector = index.labels()[flat]
        raise UnsortedNonzeroDemand(
            f"sector {sector!r} (region {region}) has demand {float(y[flat])} "
            "but no spending category"
        )
    # bincount adds in flat order, as a loop over the labels would.
    sums = np.bincount(codes, weights=y, minlength=unsorted + 1)
    return dict(zip(CONSUMPTION_SPENDING_CATEGORIES, sums[:unsorted].tolist()))


def category_scaling_factors(baseline: dict[str, float],
                             targets: dict[str, float]) -> dict[str, float]:
    """Per-category factors target/baseline; zero baselines demand zero targets."""
    factors: dict[str, float] = {}
    for category, target in targets.items():
        base = baseline.get(category, 0.0)
        if base > 0.0:
            factors[category] = target / base
        elif target > 0.0:
            raise ZeroBaselineNonzeroTarget(
                f"category {category!r} has target {target} but zero baseline spending"
            )
        else:
            factors[category] = 0.0
    return factors


def resolve_targets(spec: ScenarioSpec, baseline: dict[str, float]) -> dict[str, float]:
    """Turn a spec into 13 concrete targets against a baseline.

    None targets fall back to the baseline total; a government factor fills
    an absent public-administration target; budget moves are then applied in
    order (each conserves the moved amount exactly).
    """
    targets: dict[str, float] = {}
    for category in SPENDING_CATEGORIES:
        stated = spec.category_targets.get(category)
        if stated is None and category == PUBLIC_ADMIN and spec.government_factor is not None:
            stated = spec.government_factor * baseline.get(category, 0.0)
        targets[category] = baseline.get(category, 0.0) if stated is None else stated
    for move in spec.adjustments:
        reduced, moved = dining_out_adjustment(targets[move.source], move.fraction)
        targets[move.source] = reduced
        if move.destination is not None:
            targets[move.destination] += moved
    return targets


def apply_scenario(y_base: np.ndarray, gfcf_base: np.ndarray, codes: np.ndarray,
                   spec: ScenarioSpec, index: RegionSectorIndex) -> tuple[np.ndarray, np.ndarray]:
    """Rescale a baseline demand vector and capital-formation vector to a spec.

    Each sector's demand is multiplied by its category's factor, so
    per-category sums land on the targets while within-category composition
    is untouched. Unsorted sectors stay at zero. ``codes`` is as in
    ``baseline_category_totals``.
    """
    y = np.asarray(y_base, dtype=float)
    gfcf = np.asarray(gfcf_base, dtype=float)
    baseline = baseline_category_totals(y, codes, index)
    baseline[GFCF_CATEGORY] = float(gfcf.sum())
    targets = resolve_targets(spec, baseline)
    factors = category_scaling_factors(
        {c: baseline[c] for c in CONSUMPTION_SPENDING_CATEGORIES},
        {c: targets[c] for c in CONSUMPTION_SPENDING_CATEGORIES},
    )

    # One slot per category, and a last, zero slot for unsorted sectors.
    factor_by_code = np.array([factors[c] for c in CONSUMPTION_SPENDING_CATEGORIES] + [0.0])
    y_scenario = y * factor_by_code[codes]
    gfcf_scenario = scale_gfcf(gfcf, targets[GFCF_CATEGORY])
    return y_scenario, gfcf_scenario


def scale_gfcf(gfcf_base: np.ndarray, target_total: float) -> np.ndarray:
    """Scale every capital-formation entry proportionally to a new total."""
    gfcf = np.asarray(gfcf_base, dtype=float)
    if target_total < 0:
        raise ValueError(f"capital-formation target must be nonnegative, got {target_total}")
    if target_total == 0.0:
        return np.zeros_like(gfcf)
    base_total = float(gfcf.sum())
    if base_total <= 0.0:
        raise ZeroBaselineNonzeroTarget(
            f"capital-formation target {target_total} with zero baseline total"
        )
    return gfcf * (target_total / base_total)


def dining_out_adjustment(food_total: float, fraction: float) -> tuple[float, float]:
    """Split a food budget into (kept, moved) parts; the parts sum exactly.

    The moved share covers spending recorded under food but belonging to
    dining out; depending on the scenario it is dropped or re-attached to
    recreation.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    moved = food_total * fraction
    reduced = food_total - moved
    return reduced, moved


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

_SPEC = {
    "name": str,
    "home_region": str,
    "category_targets": {str: float},
    "government_factor": (float, None),
    "adjustments": ([{"source": str, "fraction": float, "destination": (str, None)}], ()),
}


def load_scenario_spec(path: str | Path) -> ScenarioSpec:
    """Read a scenario spec file (JSON with a nested category-target table)."""
    path = Path(path)
    raw = read_json(path, _SPEC, "scenario spec")
    try:
        adjustments = tuple(BudgetMove(**move) for move in raw["adjustments"])
        return ScenarioSpec(**raw | {"adjustments": adjustments})
    except ValueError as exc:
        raise ParseError(f"invalid scenario spec: {exc}", path=str(path)) from exc


def _data_rows(path: Path):
    """Numbered rows of a tab-separated table, without blank and "#" lines."""
    with path.open(newline="", encoding="utf-8") as handle:
        for lineno, row in enumerate(csv.reader(handle, delimiter="\t"), start=1):
            if not row or (row[0].startswith("#")):
                continue
            yield lineno, row


def load_concordance(path: str | Path, sectors) -> CategoryConcordance:
    """Read a two-column (sector, category) file; absent sectors are unsorted."""
    path = Path(path)
    mapping: dict[str, str] = {}
    for lineno, row in _data_rows(path):
        if len(row) != 2:
            raise ParseError("expected two columns (sector, category)",
                             path=str(path), row=lineno)
        sector, category = row[0].strip(), row[1].strip()
        if sector in mapping:
            raise ParseError(f"sector {sector!r} listed twice", path=str(path), row=lineno)
        try:
            _check_category(sector, category)
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path), row=lineno) from None
        mapping[sector] = category
    # Rows for sectors the account does not carry are tolerated so one
    # concordance file can serve differently trimmed tables.
    known = set(sectors)
    return CategoryConcordance({s: c for s, c in mapping.items() if s in known})
