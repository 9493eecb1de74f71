"""Exception hierarchy shared across the package.

Every error raised by library code derives from MrioError so callers (and the
CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations


class MrioError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(MrioError):
    """Array shapes disagree with the model dimension."""


class NegativeEntry(MrioError):
    """A value that must be nonnegative is negative (corrupt input)."""


class UnproductiveEconomy(MrioError):
    """The coefficient matrix does not admit a Leontief solution
    (spectral radius >= 1, singular system, or failed residual check)."""


class ParseError(MrioError):
    """A delimited input file is malformed.

    Carries the file path plus 1-based row/column of the offending cell
    when they can be located.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 row: int | None = None, column: int | None = None):
        self.path = path
        self.row = row
        self.column = column
        where = []
        if path is not None:
            where.append(str(path))
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


class UnitMismatch(MrioError):
    """Unit labels are absent or inconsistent between compared values."""


class UnknownRegion(MrioError):
    """A region code is not present in the account index."""


class UnknownCategory(MrioError):
    """A demand category is unknown or excluded by policy."""


class UnsortedNonzeroDemand(MrioError):
    """A sector with nonzero final demand has no spending category."""


class ZeroBaselineNonzeroTarget(MrioError):
    """A proportional scaling target is nonzero where the baseline is zero."""


class UnmappedSector(MrioError):
    """A sector is missing from a total concordance (sector groups)."""


class MissingStressorLabel(MrioError):
    """A labour stressor label does not encode a recognisable skill level."""


class ZeroEmbeddedBase(MrioError):
    """Direct-use scaling requested against a zero embedded baseline."""


class UnknownScenario(MrioError):
    """A named scenario cannot be resolved to a spec file."""
