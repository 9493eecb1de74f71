"""Exception hierarchy shared across the package.

Every error raised by library code derives from MrioError so callers (and the
CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


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
    """An input file is malformed.

    Carries the message without its location, the file path, and the
    1-based row/column of the offending cell when they can be located.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 row: int | None = None, column: int | None = None):
        self.message = message
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


POSITIVE = "a finite, positive number"
_NOTES = ("_comment", "description")  # keys accepted in every object and never read
_SCALARS = {str: (str, "a string"), int: (int, "an integer"),
            float: ((int, float), "a number"), POSITIVE: ((int, float), POSITIVE)}


def read_json(path: Path, fields: dict, what: str) -> dict:
    """The JSON object in ``path`` read by ``fields``: its declared keys, with
    defaults filled in and numbers as floats. ``fields`` maps each allowed key
    to a kind, or to (kind, default) if the key is optional; the default stands
    for an absent or null value. A kind is str, int, float, POSITIVE, a set of
    allowed strings, a nested fields table, [kind] for a list or {str: kind}
    for a map. An unknown or repeated key, a missing required key or a value of
    the wrong kind is a ParseError naming the file and the key path, which
    starts with ``what``: ``layout.extensions[0].kind``.
    """
    def unique(pairs):
        read = {}
        for key, value in pairs:
            if key in read:
                raise ParseError(f"{what} repeats the key {key!r} in one object", path=str(path))
            read[key] = value
        return read

    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except ValueError as exc:
        raise ParseError(f"invalid {what}: {exc}", path=str(path)) from exc
    return _read(raw, fields, what, str(path))


def _read(value, kind, where: str, path: str):
    def fail(expected: str):
        raise ParseError(f"{where} is {value!r}; it must be {expected}", path=path)

    if isinstance(kind, list):
        if not isinstance(value, list):
            fail("a list")
        return [_read(item, kind[0], f"{where}[{k}]", path) for k, item in enumerate(value)]
    if isinstance(kind, set):
        if not (isinstance(value, str) and value in kind):
            fail("one of " + ", ".join(map(repr, sorted(kind))))
        return value
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            fail("an object")
        if str in kind:
            return {key: None if item is None else _read(item, kind[str], f"{where}.{key}", path)
                    for key, item in value.items() if key not in _NOTES}
        for key in value:
            if key not in kind and key not in _NOTES:
                raise ParseError(f"{where}.{key} is not a known key; the keys are "
                                 f"{', '.join(kind)}", path=path)
        read = {}
        for key, entry in kind.items():
            sub, default = entry if isinstance(entry, tuple) else (entry, None)
            if value.get(key) is None and not isinstance(entry, tuple):
                raise ParseError(f"{where}.{key} is required", path=path)
            read[key] = (default if value.get(key) is None
                         else _read(value[key], sub, f"{where}.{key}", path))
        return read
    types, expected = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        fail(expected)
    if kind is POSITIVE and not (math.isfinite(value) and value > 0):
        fail(expected)
    return value if kind in (str, int) else float(value)
