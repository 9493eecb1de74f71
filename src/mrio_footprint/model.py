"""The MRIO account model: indexing, balance validation, home demand.

An account holds one reference year of a multi-regional table: the
inter-industry transaction matrix Z, the final-demand block Y, total output
x, and named extension accounts (labour, energy, emissions, materials).
Everything is indexed by (region, sector) pairs flattened in row-major
region-block order. Accounts are immutable after construction.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingStressorLabel,
    NegativeEntry,
    NonFiniteEntry,
    UnknownCategory,
    UnknownRegion,
)

# The five final-demand classes of the fixtures. Extra columns in input files
# are preserved in storage but never read by ``home_demand``.
CATEGORY_HOUSEHOLDS = "households"
CATEGORY_NON_PROFIT = "non-profit"
CATEGORY_GOVERNMENT = "government"
CATEGORY_GFCF = "gfcf"
CATEGORY_INVENTORY = "inventory-change"

DEMAND_CATEGORIES = (
    CATEGORY_HOUSEHOLDS,
    CATEGORY_NON_PROFIT,
    CATEGORY_GOVERNMENT,
    CATEGORY_GFCF,
    CATEGORY_INVENTORY,
)

# The consolidated spending vector: household, non-profit, and government
# purchases summed into one vector; capital formation kept separate.
CONSUMPTION_CATEGORIES = (CATEGORY_HOUSEHOLDS, CATEGORY_NON_PROFIT, CATEGORY_GOVERNMENT)

# The kinds an extension may declare (see ``ExtensionAccount``).
EXTENSION_KINDS = ("labour", "energy", "emissions", "material")

# The skill levels a labour stressor label must name, matched as whole words
# in any case ("female low-skilled", "Employment hours: High-skilled male").
SKILL_LEVELS = ("low", "medium", "high")
_SKILL_PATTERN = re.compile(r"\b(low|medium|high)\b", re.IGNORECASE)

# The flags of a material extension's stressors: extraction that enters the
# economy (material footprint) or that does not (counted in total material
# consumption only).
MATERIAL_USED = "used"
MATERIAL_UNUSED = "unused"


@dataclass(frozen=True)
class RegionSectorIndex:
    """Bijection between (region, sector) labels and flat indices 0..n-1."""

    regions: tuple[str, ...]
    sectors: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "sectors", tuple(self.sectors))
        if len(set(self.regions)) != len(self.regions):
            raise ValueError("region codes are not unique")
        if len(set(self.sectors)) != len(self.sectors):
            raise ValueError("sector names are not unique")
        object.__setattr__(self, "_region_pos", {r: i for i, r in enumerate(self.regions)})

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    @property
    def n(self) -> int:
        return len(self.regions) * len(self.sectors)

    def region_slice(self, region: str) -> slice:
        """Contiguous flat-index block of one region's sectors."""
        if region not in self._region_pos:
            raise UnknownRegion(f"unknown region {region!r}")
        r = self._region_pos[region]
        return slice(r * self.n_sectors, (r + 1) * self.n_sectors)

    def labels(self) -> list[tuple[str, str]]:
        """(region, sector) pairs in flat-index order."""
        return [(r, s) for r in self.regions for s in self.sectors]


def _screen(values: np.ndarray, name: str,
            negative: Callable[[tuple[int, ...]], str] | None = None) -> None:
    """The one check of an account array's values: its first cell that is nan
    or inf, or negative when ``negative`` makes the message, raises
    NonFiniteEntry or NegativeEntry whose ``array`` is ``name`` and ``cell`` its index."""
    # A finite min and max prove every cell finite without a mask the size of
    # the array: both reductions pass nan on, and an infinity is one of them.
    low, high = values.min(initial=0.0), values.max(initial=0.0)
    if np.isfinite(low) and np.isfinite(high) and (negative is None or low >= 0):
        return
    bad = ~np.isfinite(values)
    if negative is not None:
        bad |= values < 0
    cell = tuple(int(i) for i in np.argwhere(bad)[0])
    error = (NegativeEntry(negative(cell)) if np.isfinite(values[cell]) else NonFiniteEntry(
        f"{name}[{', '.join(map(str, cell))}] = {values[cell]} is not finite"))
    error.array, error.cell = name, cell
    raise error


def sector_codes(mapping: dict[str, str], labels: tuple[str, ...],
                 index: RegionSectorIndex) -> np.ndarray:
    """Position in ``labels`` of every region-sector's label, in flat
    region-major order; sectors absent from ``mapping`` get ``len(labels)``."""
    position = {label: k for k, label in enumerate(labels)}
    per_sector = [position.get(mapping.get(sector), len(labels)) for sector in index.sectors]
    return np.tile(np.array(per_sector, dtype=np.intp), index.n_regions)


@dataclass(frozen=True)
class ExtensionAccount:
    """One satellite account: stressor rows over all region-sectors.

    ``direct`` carries optional direct-use values, one for each region of
    the account (household fuel burning, residential energy), that sit
    outside the inter-industry system.
    ``kind`` selects indicator behaviour downstream: "labour" reports get
    skill splits and hours-per-week conversion, "energy"/"emissions" get
    direct-use scaling, "material" gets used/unused totals via
    ``material_flags``.

    Its rules, in the order checked, built in code or by ingest: a unit;
    unique stressor labels, one per row; ``kind`` None or in EXTENSION_KINDS;
    ``direct`` only for kind "energy" or "emissions", then ``material_flags``
    only for kind "material", else a ValueError naming the field and kind; a
    skill level (``skill_of``) in each label of a "labour" extension, else a
    MissingStressorLabel whose ``array`` is "extension 'e' rows" and ``cell``
    the row; ``material_flags``, when given, flagging each stressor "used" or
    "unused" and nothing else, else one whose ``array`` is "extension 'e'
    material_flags"; finite, nonnegative rows and direct use (``_screen``).
    """

    name: str
    unit: str
    stressors: tuple[str, ...]
    rows: np.ndarray
    direct: dict[str, float] | None = None
    kind: str | None = None
    material_flags: dict[str, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "stressors", tuple(self.stressors))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        if not self.unit:
            raise ValueError(f"extension {self.name!r} has no unit label")
        if len(set(self.stressors)) != len(self.stressors):
            raise ValueError(f"extension {self.name!r} has duplicate stressor labels")
        if self.rows.ndim != 2 or self.rows.shape[0] != len(self.stressors):
            raise DimensionMismatch(
                f"extension {self.name!r}: {len(self.stressors)} stressor labels "
                f"but row block of shape {self.rows.shape}"
            )
        if self.kind not in (None, *EXTENSION_KINDS):
            raise ValueError(f"extension {self.name!r} has kind {self.kind!r}, "
                             f"not one of {EXTENSION_KINDS}")
        for field, kinds in (("direct", ("energy", "emissions")),
                             ("material_flags", ("material",))):
            if getattr(self, field) is not None and self.kind not in kinds:
                raise ValueError(f"extension {self.name!r} has {field}, which is read only for "
                                 f"kind {' or '.join(kinds)}, but its kind is {self.kind!r}")
        for k, label in enumerate(self.stressors if self.kind == "labour" else ()):
            try:
                skill_of(label)
            except MissingStressorLabel as error:
                error.array, error.cell = f"extension {self.name!r} rows", (k,)
                raise
        if self.material_flags is not None:
            flags = self.material_flags
            faults = [f"material_flags gives stressor {label!r} of extension {self.name!r} the "
                      f"flag {flags.get(label)!r}, not {MATERIAL_USED!r} or {MATERIAL_UNUSED!r}"
                      for label in self.stressors
                      if flags.get(label) not in (MATERIAL_USED, MATERIAL_UNUSED)]
            faults += [f"material_flags key {key!r} names no stressor of extension {self.name!r}"
                       for key in flags if key not in self.stressors]
            if faults:
                error = MissingStressorLabel(faults[0])
                error.array = f"extension {self.name!r} material_flags"
                raise error
        _screen(self.rows, f"extension {self.name!r} rows",
                lambda cell: f"extension {self.name!r} stressor "
                             f"{self.stressors[cell[0]]!r} has negative entries")
        if self.direct is not None:
            _screen(np.array(list(self.direct.values()), dtype=float),
                    f"extension {self.name!r} direct use",
                    lambda cell: f"extension {self.name!r} has negative direct use for "
                                 f"region {list(self.direct)[cell[0]]!r}")


def skill_of(stressor_label: str) -> str:
    """Extract the skill level encoded in a labour stressor label."""
    match = _SKILL_PATTERN.search(stressor_label)
    if match is None:
        raise MissingStressorLabel(
            f"labour stressor {stressor_label!r} does not name a skill level: low, medium or high"
        )
    return match.group(1).lower()


@dataclass(frozen=True)
class MrioAccount:
    """One reference year of MRIO data plus extension accounts.

    ``y_columns`` labels the columns of Y as (paying region, category) pairs,
    each at most once, else a ValueError naming the repeated pair.
    Every value is finite; Y alone may hold negative values, in any column
    (inventory drawdowns), and ``home_demand`` rejects a negative summed one.
    """

    index: RegionSectorIndex
    Z: np.ndarray
    Y: np.ndarray
    y_columns: tuple[tuple[str, str], ...]
    x: np.ndarray
    extensions: dict[str, ExtensionAccount]
    year: int

    def __post_init__(self):
        object.__setattr__(self, "Z", np.asarray(self.Z, dtype=float))
        object.__setattr__(self, "Y", np.asarray(self.Y, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y_columns", tuple((r, c) for r, c in self.y_columns))
        n = self.index.n
        if self.Z.shape != (n, n):
            raise DimensionMismatch(f"Z shape {self.Z.shape} != ({n}, {n})")
        if self.Y.ndim != 2 or self.Y.shape[0] != n:
            raise DimensionMismatch(f"Y shape {self.Y.shape} does not have {n} rows")
        if self.Y.shape[1] != len(self.y_columns):
            raise DimensionMismatch(
                f"Y has {self.Y.shape[1]} columns but {len(self.y_columns)} column labels"
            )
        if self.x.shape != (n,):
            raise DimensionMismatch(f"x shape {self.x.shape} != ({n},)")
        seen: set[tuple[str, str]] = set()
        for column in self.y_columns:
            if column in seen:
                raise ValueError(f"final-demand column {' / '.join(column)!r} is repeated")
            seen.add(column)
        _screen(self.Z, "Z", lambda cell: "transaction matrix contains negative entries")
        _screen(self.Y, "Y")  # inventory changes may be negative
        _screen(self.x, "x", lambda cell: "total output contains negative entries")
        for ext in self.extensions.values():
            if ext.rows.shape[1] != n:
                raise DimensionMismatch(
                    f"extension {ext.name!r} has {ext.rows.shape[1]} columns, expected {n}"
                )
            if ext.direct is not None and set(ext.direct) != set(self.index.regions):
                raise DimensionMismatch(
                    f"extension {ext.name!r} has direct use for regions {sorted(ext.direct)}, "
                    f"not one value for each account region {list(self.index.regions)}")


def home_demand(account: MrioAccount, region: str) -> tuple[np.ndarray, np.ndarray]:
    """One region's consumption (household, non-profit and government
    spending, summed) and its gross fixed capital formation, as two vectors.

    Each category's columns are summed and checked for negative entries
    first, then added into a fresh zero vector in the order above. Inventory
    changes are never read, as they are not consumption, nor are columns of
    categories this function does not name.
    """
    columns = [(k, category) for k, (r, category) in enumerate(account.y_columns) if r == region]
    if not columns:
        raise UnknownRegion(f"region {region!r} has no final-demand columns")

    def summed(categories: tuple[str, ...]) -> np.ndarray:
        total = np.zeros(account.index.n)
        for category in categories:
            found = [k for k, c in columns if c == category]
            if not found:
                raise UnknownCategory(f"region {region!r} has no final-demand column for "
                                      f"category {category!r}")
            vector = account.Y[:, found].sum(axis=1)
            if np.any(vector < 0):
                i = int(np.argmin(vector))
                r, sector = account.index.labels()[i]
                raise NegativeEntry(
                    f"selected demand is negative for ({r}, {sector}) "
                    f"in category {category!r}"
                )
            total += vector
        return total

    return summed(CONSUMPTION_CATEGORIES), summed((CATEGORY_GFCF,))


@dataclass(frozen=True)
class BalanceViolation:
    row: int
    region: str
    sector: str
    residual: float


@dataclass(frozen=True)
class BalanceReport:
    """Per-row supply-use residuals |x - sum(Z) - sum(Y)| / max(x, 1)."""

    residuals: np.ndarray
    tol: float
    violations: tuple[BalanceViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def validate_balance(account: MrioAccount, tol: float = 1e-6) -> BalanceReport:
    """Check x[i] = sum_j Z[i][j] + sum_c Y[i][c] row by row.

    Reporting only: rows whose relative residual exceeds ``tol`` are listed,
    nothing is raised. ``tol=math.inf`` always yields an empty list.
    """
    supplied = account.Z.sum(axis=1) + account.Y.sum(axis=1)
    residuals = np.abs(account.x - supplied) / np.maximum(account.x, 1.0)
    labels = account.index.labels()
    violations = tuple(
        BalanceViolation(row=int(i), region=labels[i][0], sector=labels[i][1],
                         residual=float(residuals[i]))
        for i in np.nonzero(residuals > tol)[0]
    )
    return BalanceReport(residuals=residuals, tol=tol, violations=violations)
