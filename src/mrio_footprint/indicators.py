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
    MrioError,
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
from .scenario import CONSUMPTION_SPENDING_CATEGORIES, SPENDING_CATEGORIES, WEEKS_PER_YEAR

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


def aggregate_by_skill(labour_by_stressor: dict[str, float]) -> dict[str, float]:
    """Sum gender x skill stressor totals into low/medium/high hours."""
    totals = {skill: 0.0 for skill in SKILL_LEVELS}
    for label, value in labour_by_stressor.items():
        totals[skill_of(label)] += value
    return totals


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
    used rows. A name the account lacks raises MrioError.
    """
    selected: list[tuple[str, ExtensionAccount, tuple[str, ...]]] = []
    for name in extension_names:
        if name not in account.extensions:
            raise MrioError(f"extension {name!r} not present in the account")
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


def _one_hot(codes: np.ndarray, count: int) -> np.ndarray:
    """An n x ``count`` matrix with a one in each row at its code; a code of
    ``count`` or more leaves its row zero."""
    return (codes[:, np.newaxis] == np.arange(count)).astype(float)


def footprint_reports(account: MrioAccount, variants: list[ReportVariant],
                      scenarios: list[tuple[str, str]], y: np.ndarray, gfcf: np.ndarray,
                      q: np.ndarray, baseline: dict[str, int], category_codes: np.ndarray,
                      group_labels: tuple[str, ...], group_codes: np.ndarray,
                      params: ConversionParams) -> list[list[FootprintReport]]:
    """Every variant's report for every column of a demand block.

    Column j of ``y`` and ``gfcf`` is one scenario's consumption and capital
    formation demand, column j of ``q`` the gross output of their sum, and
    ``scenarios[j]`` the scenario's name and home region. ``baseline`` maps
    each home region to the column of its baseline demand, against whose
    embedded footprint direct use scales. ``category_codes`` is from
    ``scenario.category_codes``; ``group_labels`` and ``group_codes`` are
    from ``sector_group_codes``. Returns each column's reports in
    ``variants`` order.
    """
    # Which rows are each column's home region; this also rejects a home
    # region that is not an account region.
    home = np.zeros(q.shape, dtype=bool)
    for j, (_, region) in enumerate(scenarios):
        home[account.index.region_slice(region), j] = True
    categories = _one_hot(category_codes, len(CONSUMPTION_SPENDING_CATEGORIES))
    groups = _one_hot(group_codes, len(group_labels))

    reports: list[list[FootprintReport]] = [[] for _ in scenarios]
    for variant in variants:
        s, m, extension = variant.total_intensity, variant.multipliers, variant.extension
        labour = extension.kind == "labour"
        # Column sums, not s @ q: BLAS may round a matrix-vector product's
        # entries differently by their position, and identical columns must
        # give identical totals, as identity scenarios scale direct use by 1.
        by_source = s[:, np.newaxis] * q
        totals = by_source.sum(axis=0).tolist()
        domestic = np.where(home, by_source, 0.0).sum(axis=0).tolist()
        by_group = (groups.T @ by_source).T.tolist()
        # Each category's share of demand times the multipliers; by
        # linearity the shares sum to the footprint of the whole column.
        by_category = np.vstack([categories.T @ (m[:, np.newaxis] * y), m @ gfcf]).T.tolist()
        by_stressor = (np.vstack(variant.intensities) @ q).T.tolist()
        for j, (name, region) in enumerate(scenarios):
            total = totals[j]
            stressors = dict(zip(variant.labels, by_stressor[j]))
            direct = None
            if variant.has_direct_use:
                direct = direct_use_scaled(float(extension.direct[region]), total,
                                           totals[baseline[region]])
            reports[j].append(FootprintReport(
                scenario=name,
                extension_name=variant.name,
                unit=extension.unit,
                home_region=region,
                total=total,
                per_capita=per_capita(total, params.total_population),
                by_origin=OriginSplit(domestic=domestic[j], imported=total - domestic[j]),
                by_sector_group=dict(zip(group_labels, by_group[j])),
                by_category=dict(zip(SPENDING_CATEGORIES, by_category[j])),
                hours_week_equivalent=(hours_per_week_equivalent(total, params)
                                       if labour else None),
                by_skill=aggregate_by_skill(stressors) if labour else None,
                by_stressor=stressors,
                direct_use=direct,
            ))
    return reports
