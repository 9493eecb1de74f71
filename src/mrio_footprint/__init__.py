"""Consumption-based footprint accounting on multi-regional input-output data.

Compute labour, energy, emissions, and material footprints embodied in final
demand, and evaluate low-consumption scenarios defined by per-category
spending budgets.
"""

from . import errors
from .algebra import LeontiefOperator, ProductivityEstimate, intensity
from .fileio import (
    IngestResult,
    data_path,
    ingest,
    load_layout,
    write_account,
)
from .fixtures import (
    fixture,
    fixture_category_concordance,
    fixture_sector_groups,
    write_fixture_set,
)
from .indicators import (
    ConversionParams,
    FootprintReport,
    OriginSplit,
    ReportVariant,
    aggregate_by_skill,
    direct_use_scaled,
    footprint_reports,
    hours_per_week_equivalent,
    load_conversion_params,
    load_sector_groups,
    per_capita,
    report_variants,
    sector_group_codes,
)
from .model import (
    BalanceReport,
    ExtensionAccount,
    MrioAccount,
    RegionSectorIndex,
    home_demand,
    validate_balance,
)
from .scenario import (
    ScenarioSpec,
    baseline_category_totals,
    category_basis,
    category_codes,
    dining_out_adjustment,
    load_concordance,
    load_scenario_spec,
    scenario_factors,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
