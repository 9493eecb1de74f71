"""Reported indicators built on raw footprints.

Turns footprint vectors into presentable results: hours-per-week
equivalents, per-capita values, and disaggregations by origin (domestic vs
imported), sector group, skill level, and spending category, plus the
used/unused material variants and proportional direct-use scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra
from .algebra import LeontiefOperator
from .errors import (
    ParseError,
    UnmappedSector,
    ZeroEmbeddedBase,
    read_json,
    read_pairs,
)
from .model import (
    MATERIAL_USED,
    SKILL_LEVELS,
    ExtensionAccount,
    MrioAccount,
    RegionSectorIndex,
    sector_codes,
    skill_of,
)
from .scenario import CONSUMPTION_SPENDING_CATEGORIES, GFCF_CATEGORY, WEEKS_PER_YEAR

# Default working pattern: statutory leave leaves ~46.6 working weeks per
# year, and people are assumed to work 80% of their working-age years.
DEFAULT_WEEKS_WORKED_PER_YEAR = 46.6
DEFAULT_WORKING_LIFE_SHARE = 0.8


@dataclass(frozen=True)
class ConversionParams:
    """Population and working-pattern constants for labour conversions."""

    working_age_population: float
    total_population: float
    weeks_worked_per_year: float = DEFAULT_WEEKS_WORKED_PER_YEAR
    working_life_share: float = DEFAULT_WORKING_LIFE_SHARE

    def __post_init__(self):
        if not 0.0 < self.weeks_worked_per_year <= 52.2:
            raise ValueError(
                f"weeks_worked_per_year must be in (0, 52.2], got {self.weeks_worked_per_year}"
            )
        if not 0.0 < self.working_life_share <= 1.0:
            raise ValueError(
                f"working_life_share must be in (0, 1], got {self.working_life_share}"
            )
        for population in (self.working_age_population, self.total_population):
            if not (math.isfinite(population) and population > 0.0):
                raise ValueError(f"populations must be finite and positive, got {population}")


_PARAMS = {
    "working_age_population": float,
    "total_population": float,
    "weeks_worked_per_year": (float, DEFAULT_WEEKS_WORKED_PER_YEAR),
    "working_life_share": (float, DEFAULT_WORKING_LIFE_SHARE),
}


def load_conversion_params(path: str | Path) -> ConversionParams:
    path = Path(path)
    try:
        return ConversionParams(**read_json(path, _PARAMS, "conversion params"))
    except ValueError as exc:
        raise ParseError(f"invalid conversion params: {exc}", path=str(path)) from exc


def annual_hours_from_weekly(average_weekly_hours: float) -> float:
    """Annual hours per person implied by an average over calendar weeks."""
    return average_weekly_hours * WEEKS_PER_YEAR


def hours_per_week_equivalent(total_annual_hours: float, params: ConversionParams) -> float:
    """Spread total annual labour over the working-age population.

    H = total / (weeks worked per year x working-age population x share of
    working years actually worked). Linear in the total, so alternate
    conventions are a multiplication away.
    """
    denominator = (params.weeks_worked_per_year
                   * params.working_age_population
                   * params.working_life_share)
    return total_annual_hours / denominator


def per_capita(total: float, population: float) -> float:
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    return total / population


@dataclass(frozen=True)
class OriginSplit:
    domestic: float
    imported: float

    @property
    def total(self) -> float:
        return self.domestic + self.imported

    @property
    def import_share(self) -> float:
        return self.imported / self.total if self.total else 0.0


def split_origin(by_source: np.ndarray, home_region: str,
                 index: RegionSectorIndex) -> OriginSplit:
    """Split per-source contributions into home-region vs everywhere else."""
    values = np.asarray(by_source, dtype=float)
    home = index.region_slice(home_region)
    domestic = float(values[home].sum())
    return OriginSplit(domestic=domestic, imported=float(values.sum()) - domestic)


def sector_group_codes(mapping: dict[str, str],
                       index: RegionSectorIndex) -> tuple[tuple[str, ...], np.ndarray]:
    """The group labels of a (sector, group) mapping, in the order they first
    appear, and the position in them of every region-sector's group, in flat
    order. Every sector of ``index`` must be mapped."""
    labels = tuple(dict.fromkeys(mapping.values()))
    codes = sector_codes(mapping, labels, index)
    # The first region's block lists every sector, so a first unmapped
    # flat index is also a position in ``index.sectors``.
    unmapped = np.flatnonzero(codes == len(labels))
    if unmapped.size:
        raise UnmappedSector(f"sector {index.sectors[unmapped[0]]!r} has no sector group")
    return labels, codes


def load_sector_groups(path: str | Path,
                       index: RegionSectorIndex) -> tuple[tuple[str, ...], np.ndarray]:
    """Read a two-column (sector, group) file that lists every sector of the
    account once into the labels and codes of ``sector_group_codes``."""
    path = Path(path)
    mapping = {sector: group for _, sector, group in read_pairs(path, ("sector", "group"))}
    for sector in index.sectors:
        if sector not in mapping:
            raise ParseError(f"sector {sector!r} has no sector group", path=str(path))
    return sector_group_codes(mapping, index)


def aggregate_by_sector_group(by_source: np.ndarray, labels: tuple[str, ...],
                              codes: np.ndarray) -> dict[str, float]:
    """Sum per-source contributions into sector groups (totals are preserved).

    ``labels`` and ``codes`` are from ``sector_group_codes``, made once per
    account.
    """
    sums = np.bincount(codes, weights=np.asarray(by_source, dtype=float),
                       minlength=len(labels))
    return dict(zip(labels, sums.tolist()))


def aggregate_by_skill(labour_by_stressor: dict[str, float]) -> dict[str, float]:
    """Sum gender x skill stressor totals into low/medium/high hours."""
    totals = {skill: 0.0 for skill in SKILL_LEVELS}
    for label, value in labour_by_stressor.items():
        totals[skill_of(label)] += value
    return totals


def attribute_by_category(m: np.ndarray,
                          demand_by_category: dict[str, np.ndarray]) -> dict[str, float]:
    """Footprint carried by each spending category's share of demand.

    ``m`` is the multiplier row s (I - A)^-1, so each category costs one dot
    product; by linearity the attributions sum to the footprint of the
    whole demand vector.
    """
    return {
        category: algebra.footprint_total(m, y_c)
        for category, y_c in demand_by_category.items()
    }


def decompose_demand_by_category(y: np.ndarray, gfcf: np.ndarray,
                                 codes: np.ndarray) -> dict[str, np.ndarray]:
    """Partition demand into the 13 categories (capital formation last).

    ``codes`` is from ``scenario.category_codes``. The pieces sum to
    y + gfcf elementwise exactly, so category attributions reproduce
    whole-vector footprints up to solver tolerance.
    """
    yv = np.asarray(y, dtype=float)
    parts = {category: np.where(codes == k, yv, 0.0)
             for k, category in enumerate(CONSUMPTION_SPENDING_CATEGORIES)}
    parts[GFCF_CATEGORY] = np.asarray(gfcf, dtype=float).copy()
    return parts


def direct_use_scaled(direct_base: float, embedded_scenario: float,
                      embedded_base: float) -> float:
    """Scale direct use proportionally with the embedded footprint change."""
    if embedded_base <= 0:
        raise ZeroEmbeddedBase(
            f"cannot scale direct use against embedded baseline {embedded_base}"
        )
    return direct_base * (embedded_scenario / embedded_base)


@dataclass(frozen=True)
class FootprintReport:
    """One extension's footprint for one scenario, fully disaggregated.

    ``total`` is the embedded footprint (domestic + imported); direct use is
    carried separately and never mixed into the embedded disaggregations.
    ``hours_week_equivalent`` and ``by_skill`` are labour-only;
    ``direct_use`` applies to energy and emissions only.
    """

    scenario: str
    extension_name: str
    unit: str
    home_region: str
    total: float
    per_capita: float
    by_origin: OriginSplit
    by_sector_group: dict[str, float]
    by_category: dict[str, float]
    hours_week_equivalent: float | None = None
    by_skill: dict[str, float] | None = None
    by_stressor: dict[str, float] | None = None
    direct_use: float | None = None


@dataclass(frozen=True)
class ReportVariant:
    """The stressor rows one report covers, as intensities and multipliers.

    ``total_intensity`` is the summed row s and ``multipliers`` is
    m = s (I - A)^-1, the footprint per unit of final demand by
    region-sector. Both depend on the account only, so one variant serves
    every scenario.
    """

    name: str
    extension: ExtensionAccount
    labels: tuple[str, ...]
    intensities: tuple[np.ndarray, ...]
    total_intensity: np.ndarray
    multipliers: np.ndarray

    @property
    def has_direct_use(self) -> bool:
        """Energy and emissions reports carry households' direct use."""
        return (self.extension.direct is not None
                and self.extension.kind in ("energy", "emissions"))


def report_variants(account: MrioAccount, operator: LeontiefOperator,
                    extension_names: list[str]) -> list[ReportVariant]:
    """Every report of the named extensions, multipliers from one block solve.

    A material extension with used/unused flags yields a ``-tmc`` report
    over all its rows and, when any row is used, a ``-mf`` report over the
    used rows.
    """
    selected: list[tuple[str, ExtensionAccount, tuple[str, ...]]] = []
    for name in extension_names:
        ext = account.extensions[name]
        if ext.kind == "material" and ext.material_flags is not None:
            selected.append((f"{name}-tmc", ext, ext.stressors))
            used = tuple(s for s in ext.stressors
                         if ext.material_flags.get(s) == MATERIAL_USED)
            if used:
                selected.append((f"{name}-mf", ext, used))
        else:
            selected.append((name, ext, ext.stressors))
    if not selected:
        return []

    intensities = []
    totals = []
    for _, ext, labels in selected:
        rows = np.vstack([ext.stressor_row(label) for label in labels])
        intensities.append(tuple(algebra.intensity(row, account.x) for row in rows))
        totals.append(algebra.intensity(rows.sum(axis=0), account.x))
    multipliers = operator.multipliers(np.vstack(totals))
    return [
        ReportVariant(name=name, extension=ext, labels=labels, intensities=s_rows,
                      total_intensity=s_total, multipliers=m)
        for (name, ext, labels), s_rows, s_total, m
        in zip(selected, intensities, totals, multipliers)
    ]


def build_footprint_report(account: MrioAccount, variant: ReportVariant, q: np.ndarray,
                           demand_by_category: dict[str, np.ndarray],
                           home_region: str, group_labels: tuple[str, ...],
                           group_codes: np.ndarray, params: ConversionParams,
                           scenario_name: str,
                           baseline_embedded: float | None = None) -> FootprintReport:
    """Compute a full report for one variant and one scenario demand.

    ``q`` is the gross output of the whole demand, the sum of
    ``demand_by_category``; every report of a scenario shares it.
    ``group_labels`` and ``group_codes`` are from ``sector_group_codes``.
    ``baseline_embedded`` enables direct-use scaling: scenario direct use =
    base direct x embedded/baseline-embedded.
    """
    extension = variant.extension
    total = algebra.footprint_total(variant.total_intensity, q)
    by_source = algebra.footprint_by_source(variant.total_intensity, q)
    by_stressor = {
        label: algebra.footprint_total(s_k, q)
        for label, s_k in zip(variant.labels, variant.intensities)
    }

    by_skill = None
    hours_week = None
    if extension.kind == "labour":
        by_skill = aggregate_by_skill(by_stressor)
        hours_week = hours_per_week_equivalent(total, params)

    # Split first: it rejects a home region that is not an account region.
    by_origin = split_origin(by_source, home_region, account.index)
    direct = None
    if variant.has_direct_use:
        base_direct = float(extension.direct[home_region])
        if baseline_embedded is None:
            direct = base_direct
        else:
            direct = direct_use_scaled(base_direct, total, baseline_embedded)

    return FootprintReport(
        scenario=scenario_name,
        extension_name=variant.name,
        unit=extension.unit,
        home_region=home_region,
        total=total,
        per_capita=per_capita(total, params.total_population),
        by_origin=by_origin,
        by_sector_group=aggregate_by_sector_group(by_source, group_labels, group_codes),
        by_category=attribute_by_category(variant.multipliers, demand_by_category),
        hours_week_equivalent=hours_week,
        by_skill=by_skill,
        by_stressor=by_stressor,
        direct_use=direct,
    )
