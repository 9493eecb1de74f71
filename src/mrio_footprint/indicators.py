"""Reported indicators built on raw footprints.

Turns the gross output of each home region's category basis into every
scenario's presentable results: hours-per-week equivalents, per-capita
values, and disaggregations by origin (domestic vs imported), sector group,
skill level, and spending category, plus the used/unused material variants
and proportional direct-use scaling. Each split is made once per basis
column, then combined with each scenario's 13 factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algebra
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
from .scenario import SPENDING_CATEGORIES

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
    try:
        return sector_group_codes(mapping, index)
    except UnmappedSector as exc:
        raise ParseError(str(exc), path=str(path)) from None


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
    ``params`` are the conversion params the per-person values were made
    with. ``hours_week_equivalent`` and ``by_skill`` are labour-only;
    ``direct_use`` applies to energy and emissions only.
    """

    scenario: str
    extension_name: str
    unit: str
    home_region: str
    params: ConversionParams
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
    """The stressor rows one report covers, as intensities.

    ``total_intensity`` is the summed row s. It depends on the account only,
    so one variant serves every scenario.
    """

    name: str
    extension: ExtensionAccount
    labels: tuple[str, ...]
    intensities: tuple[np.ndarray, ...]
    total_intensity: np.ndarray


def report_variants(account: MrioAccount, extension_names: list[str]) -> list[ReportVariant]:
    """Every report of the named extensions, in the order named.

    A material extension with used/unused flags yields a ``-tmc`` report
    over all its rows and, when any row is used, a ``-mf`` report over the
    used rows. A name the account lacks raises MrioError.
    """
    selected: list[tuple[str, ExtensionAccount, tuple[str, ...]]] = []
    for name in extension_names:
        if name not in account.extensions:
            raise MrioError(f"extension {name!r} not present in the account")
        ext = account.extensions[name]
        if ext.material_flags is not None:
            selected.append((f"{name}-tmc", ext, ext.stressors))
            used = tuple(s for s in ext.stressors
                         if ext.material_flags.get(s) == MATERIAL_USED)
            if used:
                selected.append((f"{name}-mf", ext, used))
        else:
            selected.append((name, ext, ext.stressors))

    variants = []
    for name, ext, labels in selected:
        rows = ext.rows[[ext.stressors.index(label) for label in labels]]
        variants.append(ReportVariant(
            name=name, extension=ext, labels=labels,
            intensities=tuple(algebra.intensity(row, account.x) for row in rows),
            total_intensity=algebra.intensity(rows.sum(axis=0), account.x)))
    return variants


def footprint_reports(account: MrioAccount, variants: list[ReportVariant],
                      regions: list[str], q: np.ndarray,
                      scenarios: list[tuple[str, str, np.ndarray]],
                      group_labels: tuple[str, ...], group_codes: np.ndarray,
                      params: ConversionParams) -> list[list[FootprintReport]]:
    """Every variant's report for every scenario, from its home region's basis.

    The k-th 13 columns of ``q`` are the gross output of the n x 13
    ``scenario.category_basis`` of ``regions[k]``, each region listed once;
    columns after them are not read. ``scenarios`` holds each scenario's
    name, home region and 13 factors. ``group_labels`` and ``group_codes``
    are from ``sector_group_codes``. Each split is made once per basis
    column; a scenario's figure is its products with the factors, summed
    over the 13 columns. Basis column c holds the demand of category c
    alone, so its footprint times factor c is category c's figure. Direct
    use scales against the baseline, whose factors are all one. Returns
    each scenario's reports in ``variants`` order.
    """
    groups = (group_codes[:, np.newaxis] == np.arange(len(group_labels))).astype(float)
    reports: list[list[FootprintReport]] = [[] for _ in scenarios]
    for variant in variants:
        s, extension = variant.total_intensity, variant.extension
        labour = extension.kind == "labour"
        for k, region in enumerate(regions):
            q_basis = q[:, 13 * k:13 * (k + 1)]
            by_source = s[:, np.newaxis] * q_basis
            # One row per figure, one column per basis column: the total,
            # domestic, sector-group and stressor figures.
            splits = np.vstack([by_source.sum(axis=0),
                                by_source[account.index.region_slice(region)].sum(axis=0),
                                groups.T @ by_source, np.vstack(variant.intensities) @ q_basis])
            # Products summed along each contiguous row, never a BLAS product
            # whose rounding depends on how many scenarios share the block,
            # so a scenario's figures do not depend on the others, and an
            # identity scenario's total is its baseline's to the bit.
            members = [j for j, (_, home, _) in enumerate(scenarios) if home == region]
            factors = np.vstack([np.ones(13), *(scenarios[j][2] for j in members)])
            values = (splits * factors[:, np.newaxis, :]).sum(axis=-1).tolist()
            baseline_total = values[0][0]
            for j, (total, domestic, *rest) in zip(members, values[1:]):
                name, _, scenario_factors = scenarios[j]
                stressors = dict(zip(variant.labels, rest[len(group_labels):]))
                direct = None
                if extension.direct is not None:
                    direct = direct_use_scaled(float(extension.direct[region]), total,
                                               baseline_total)
                reports[j].append(FootprintReport(
                    scenario=name,
                    extension_name=variant.name,
                    unit=extension.unit,
                    home_region=region,
                    params=params,
                    total=total,
                    per_capita=per_capita(total, params.total_population),
                    by_origin=OriginSplit(domestic=domestic, imported=total - domestic),
                    by_sector_group=dict(zip(group_labels, rest)),
                    by_category=dict(zip(SPENDING_CATEGORIES,
                                         (splits[0] * scenario_factors).tolist())),
                    hours_week_equivalent=(hours_per_week_equivalent(total, params)
                                           if labour else None),
                    by_skill=aggregate_by_skill(stressors) if labour else None,
                    by_stressor=stressors,
                    direct_use=direct,
                ))
    return reports
