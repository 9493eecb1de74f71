"""Exception hierarchy shared across the package.

Every error raised by library code derives from MrioError so callers (and the
CLI) can distinguish domain failures from programming errors.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from pathlib import Path


class MrioError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(MrioError):
    """Array shapes disagree with the model dimension."""


class NegativeEntry(MrioError):
    """A value that must be nonnegative is negative (corrupt input)."""


class NonFiniteEntry(MrioError):
    """A value is nan or infinite (corrupt input). From the account's screen,
    this and NegativeEntry carry the array's name and the cell's index as
    ``array`` and ``cell``."""


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
    """A stressor label breaks its extension's rules (see ExtensionAccount)."""


class ZeroEmbeddedBase(MrioError):
    """Direct-use scaling requested against a zero embedded baseline."""


@contextmanager
def reading(path: Path):
    """Turn a failure to read ``path``, other than its absence, and text in it
    that is not UTF-8, into a ParseError."""
    try:
        yield
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc}", path=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError("text is not UTF-8", path=str(path)) from exc


def read_pairs(path: Path, columns: tuple[str, str]):
    """Yield (line number, first cell, second cell), both stripped, for each
    row of a tab-separated concordance, such as (sector, category).

    A leading byte-order mark, blank lines and lines whose first cell starts
    with "#" are skipped. A row of any other number of cells, or one that
    repeats an earlier row's first cell, is a ParseError naming the file and
    the row; ``columns`` names the two columns in its message.
    """
    seen: set[str] = set()
    with reading(path), path.open(newline="", encoding="utf-8-sig") as handle:
        for lineno, row in enumerate(csv.reader(handle, delimiter="\t"), start=1):
            if not row or row[0].startswith("#"):
                continue
            if len(row) != 2:
                raise ParseError(f"expected two columns ({', '.join(columns)}), "
                                 f"found {len(row)}", path=str(path), row=lineno)
            first, second = row[0].strip(), row[1].strip()
            if first in seen:
                raise ParseError(f"{columns[0]} {first!r} listed twice", path=str(path),
                                 row=lineno)
            seen.add(first)
            yield lineno, first, second


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
    starts with ``what``: ``layout.extensions[0].kind``. A leading byte-order
    mark is skipped.
    """
    def unique(pairs):
        read = {}
        for key, value in pairs:
            if key in read:
                raise ParseError(f"{what} repeats the key {key!r} in one object", path=str(path))
            read[key] = value
        return read

    try:
        with reading(path):
            raw = json.loads(path.read_text(encoding="utf-8-sig"), object_pairs_hook=unique)
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
