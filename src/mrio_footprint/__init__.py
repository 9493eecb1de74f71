"""Consumption-based footprint accounting on multi-regional input-output data.

Compute labour, energy, emissions, and material footprints embodied in final
demand, and evaluate low-consumption scenarios defined by per-category
spending budgets.
"""

from . import errors
from .algebra import (
    LeontiefOperator,
    ProductivityEstimate,
    factorize,
    footprint_by_source,
    footprint_total,
    intensity,
    leontief_solve,
    productivity_check,
    technical_coefficients,
)
from .fileio import (
    IngestResult,
    Layout,
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
    aggregate_by_sector_group,
    aggregate_by_skill,
    attribute_by_category,
    build_footprint_report,
    decompose_demand_by_category,
    direct_use_scaled,
    hours_per_week_equivalent,
    load_sector_groups,
    per_capita,
    report_variants,
    sector_group_codes,
    split_origin,
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
    apply_scenario,
    baseline_category_totals,
    category_codes,
    category_scaling_factors,
    dining_out_adjustment,
    load_concordance,
    load_scenario_spec,
    scale_gfcf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
