"""Delimited-file ingest and emission for MRIO accounts.

The on-disk layout is a directory of delimited text files described by a
JSON layout descriptor: the transaction grid and final-demand block carry
two header rows (region, then sector/category) and two index columns;
extension files carry stressor-labelled rows under the same column headers.
All numbers are written with 17 significant digits so emitted files
round-trip to bit-identical doubles, and the writer is deterministic: the
same account always produces byte-identical files.

Labour conversion happens at ingest only: when a labour entry declares
``workers_per_unit``, stressor rows are multiplied by workers-per-unit times
hours-per-worker-year and the in-memory unit becomes hours. The writer
always emits post-conversion values, so written accounts re-ingest without
any further conversion.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (POSITIVE, DimensionMismatch, MissingStressorLabel, ParseError,
                     UnitMismatch, read_json, read_pairs, reading)
from .model import (MATERIAL_UNUSED, MATERIAL_USED, ExtensionAccount, MrioAccount,
                    RegionSectorIndex, skill_of)

DEFAULT_HOURS_PER_WORKER_YEAR = 1840.0

_DELIMITERS = {"tab": "\t", "comma": ","}
_DELIMITER_NAMES = {char: name for name, char in _DELIMITERS.items()}

# Parsed grids are kept here, next to the layout descriptor.
CACHE_DIR = ".mrio-cache"

# Grids are read and written in blocks of about this many bytes (file bytes
# to parse, matrix bytes to write). A grid of fewer bytes is parsed or
# written in-process; the blocks of a larger one are spread over the usable
# CPUs.
PARALLEL_BYTES = 1 << 22


def data_path(relative: str) -> Path:
    """Path to a packaged data file, e.g. data_path("scenarios/good-life.json")."""
    from importlib import resources

    return Path(str(resources.files("mrio_footprint"))) / "data" / relative


def format_number(value: float) -> str:
    """``value`` with 17 significant digits, which round-trip to the same
    double."""
    return format(float(value), ".17g")


@dataclass(frozen=True)
class ExtensionEntry:
    """One extension file reference inside a layout descriptor."""

    name: str
    file: str
    unit: str
    kind: str | None = None
    direct_file: str | None = None
    workers_per_unit: float | None = None
    material_flags: dict[str, str] | None = None


@dataclass(frozen=True)
class IngestWarning:
    """A known data quirk, keyed by (region, sector), surfaced at ingest."""

    region: str
    sector: str
    note: str


@dataclass(frozen=True)
class Layout:
    """Parsed layout descriptor; file paths are relative to ``base_dir``."""

    base_dir: Path
    delimiter: str
    year: int
    transactions: str
    final_demand: str
    total_output: str
    extensions: tuple[ExtensionEntry, ...]
    hours_per_worker_year: float = DEFAULT_HOURS_PER_WORKER_YEAR
    ingest_warnings: tuple[IngestWarning, ...] = ()

    def path(self, name: str) -> Path:
        return self.base_dir / name


_EXTENSION = {
    "name": str,
    "file": str,
    "unit": (str, ""),
    "kind": ({"labour", "energy", "emissions", "material"}, None),
    "direct_file": (str, None),
    "workers_per_unit": (POSITIVE, None),
    "material_flags": ({str: str}, None),
}

_LAYOUT = {
    "delimiter": (set(_DELIMITERS), "tab"),
    "year": int,
    "currency_unit": (str, None),
    "hours_per_worker_year": (POSITIVE, DEFAULT_HOURS_PER_WORKER_YEAR),
    "files": {"transactions": str, "final_demand": str, "total_output": str},
    "extensions": ([_EXTENSION], ()),
    "ingest_warnings": ([{"region": str, "sector": str, "note": (str, "")}], ()),
}


def load_layout(path: str | Path) -> Layout:
    path = Path(path)
    raw = read_json(path, _LAYOUT, "layout")
    extensions = tuple(ExtensionEntry(**entry) for entry in raw["extensions"])
    readers = {"direct_file": ("energy", "emissions"), "material_flags": ("material",),
               "workers_per_unit": ("labour",)}
    for k, entry in enumerate(extensions):
        if entry.name in (earlier.name for earlier in extensions[:k]):
            raise ParseError(f"layout.extensions[{k}].name repeats the name {entry.name!r}",
                             path=str(path))
        for key, kinds in readers.items():
            if getattr(entry, key) is not None and entry.kind not in kinds:
                raise ParseError(f"layout.extensions[{k}].{key} is read only for kind "
                                 f"{' or '.join(kinds)}; extension {entry.name!r} has kind "
                                 f"{entry.kind!r}", path=str(path))
        # Labour is reported in hours; an empty unit fails at ingest.
        if (entry.kind == "labour" and entry.workers_per_unit is None
                and entry.unit not in ("", "hours")):
            raise ParseError(f"layout.extensions[{k}].unit is {entry.unit!r}; a labour "
                             "extension without workers_per_unit must be in 'hours'",
                             path=str(path))
    return Layout(
        base_dir=path.parent,
        delimiter=_DELIMITERS[raw["delimiter"]],
        year=raw["year"],
        **raw["files"],
        extensions=extensions,
        hours_per_worker_year=raw["hours_per_worker_year"],
        ingest_warnings=tuple(IngestWarning(**warning) for warning in raw["ingest_warnings"]),
    )


@dataclass(frozen=True)
class IngestResult:
    account: MrioAccount
    # The parse-cache entries of the transaction grid and total output,
    # which name the cached factorization of the account's I - A.
    system_entries: tuple[Path, Path]
    warnings: tuple[IngestWarning, ...] = ()


def _load_numbers(lines, delimiter: str) -> np.ndarray:
    """Delimited numeric lines as a 2-D float array; ValueError on a bad cell."""
    return np.loadtxt(lines, delimiter=delimiter, comments=None, ndmin=2)


def _number(cell: str, delimiter: str) -> float:
    """One cell read as ``_load_numbers`` reads it; ValueError when it is not
    one number."""
    # loadtxt reads an empty cell as no data, with a warning, and a cell
    # holding the delimiter as two cells.
    if not cell.strip() or delimiter in cell:
        raise ValueError(f"not one number: {cell!r}")
    return float(_load_numbers([cell], delimiter)[0, 0])


def _body_lines(lines: list[bytes], path: Path, delimiter: str, index_cols: int,
                width: int) -> tuple[list[tuple[str, ...]], list[int], list[str]]:
    """The non-blank lines of ``lines``, the body lines of a grid, as three
    lists: their index cells, their line numbers counted from 1 at the first
    of ``lines``, and their numeric parts.

    Every line must be UTF-8 and hold ``width`` cells. Lines holding a quote
    are read with csv rules, since a quoted label may contain the delimiter.
    """
    labels: list[tuple[str, ...]] = []
    linenos: list[int] = []
    rests: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("text is not UTF-8", path=str(path), row=lineno) from None
        if '"' in line:
            cells = next(csv.reader([line], delimiter=delimiter))
            head, rest, found = cells[:index_cols], delimiter.join(cells[index_cols:]), len(cells)
        else:
            head = line.split(delimiter, index_cols)
            rest = head.pop() if len(head) > index_cols else None
            found = len(head) + (0 if rest is None else rest.count(delimiter) + 1)
        if found != width:
            # The column is that of the first missing or surplus cell.
            raise ParseError(f"expected {width} cells, found {found}", path=str(path),
                             row=lineno, column=min(found, width) + 1)
        labels.append(tuple(cell.strip() for cell in head))
        linenos.append(lineno)
        rests.append(rest)
    return labels, linenos, rests


def _bad_cell(matrix: np.ndarray, nonnegative: bool) -> tuple[int, int] | None:
    """Position of the first cell that is nan or inf, or negative when
    ``nonnegative``; None when there is none."""
    # A finite sum proves every cell finite without an n x n mask; a sum that
    # overflows on finite cells falls through to the cell check and passes.
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(matrix.sum()) and not (nonnegative and matrix.min(initial=0.0) < 0):
            return None
    bad = ~np.isfinite(matrix)
    if nonnegative:
        bad |= matrix < 0
    bad = np.argwhere(bad)
    return (int(bad[0][0]), int(bad[0][1])) if bad.size else None


def _processes(nbytes: int) -> int:
    """How many processes share the work on a grid of ``nbytes``: every
    usable CPU, or only the caller's when the grid is smaller than
    PARALLEL_BYTES, one CPU is usable, "fork" is not available, or another
    Python thread is alive (a fork copies the locks it may hold)."""
    if nbytes < PARALLEL_BYTES or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing
    return cpus if "fork" in multiprocessing.get_all_start_methods() else 1


# Set once in each forked worker, by the pool's initializer; never in the
# process that made the pool.
_shared = None


def _share(value) -> None:
    """Worker initializer: keep what every chunk reads."""
    global _shared
    _shared = value


def _run_chunk(function, chunk):
    return function(_shared, chunk)


def _fork_map(function, shared, chunks: list, processes: int) -> Iterator:
    """Yield ``function(shared, chunk)`` for each chunk, in order.

    With ``processes`` > 1, the caller does the first chunk of every round
    of ``processes`` chunks itself and workers forked from it do the others.
    ``shared`` reaches the workers through the fork, so it is never pickled;
    chunks and results are. At most two rounds of chunks are in flight.
    """
    processes = min(processes, len(chunks))
    if processes < 2:
        for chunk in chunks:
            yield function(shared, chunk)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(processes - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_share, initargs=(shared,)) as pool:
        pending = {}
        for i, chunk in enumerate(chunks):
            for j in range(i, min(i + 2 * processes, len(chunks))):
                if j % processes and j not in pending:
                    pending[j] = pool.submit(_run_chunk, function, chunks[j])
            yield function(shared, chunk) if i % processes == 0 else pending.pop(i).result()


def _line_start(handle, offset: int) -> int:
    """The first line start at or after byte ``offset`` > 0 of a binary
    handle. A line ends at LF, CR LF or CR, as in text read with
    ``newline=""``."""
    position = offset - 1
    handle.seek(position)
    while block := handle.read(1 << 16):
        ends = [k for k in (block.find(b"\n"), block.find(b"\r")) if k >= 0]
        if ends:
            position += min(ends)
            handle.seek(position)
            return position + (2 if handle.read(2) == b"\r\n" else 1)
        position += len(block)
    return position


def _spans(path: Path, start: int, end: int, size: int) -> list[tuple[int, int]]:
    """Byte spans of about ``size`` bytes, cut at line starts, that together
    cover bytes [start, end) of a file. A line longer than ``size`` is one
    span."""
    cuts = [start]
    with path.open("rb") as handle:
        while cuts[-1] + size < end:
            cuts.append(_line_start(handle, cuts[-1] + size))
    return [(a, min(b, end)) for a, b in zip(cuts, cuts[1:] + [end]) if a < b]


def _parse_span(grid, span: tuple[int, int]):
    """Parse the body lines in the byte span [start, end) of a grid file.

    ``grid`` is (path, delimiter, index_cols, width). Returns the lines'
    labels, their line numbers counted from 1 at the span's first line, the
    span's physical line count, and their matrix. A bad line raises a
    ParseError whose row is counted likewise. The span is read from disk
    once, and a line ends at LF, CR LF or CR, as in text read with
    ``newline=""``.
    """
    path, delimiter, index_cols, width = grid
    start, end = span
    with path.open("rb") as handle:
        handle.seek(start)
        lines = handle.read(end - start).splitlines()
    labels, linenos, rests = _body_lines(lines, path, delimiter, index_cols, width)
    try:
        matrix = (_load_numbers(rests, delimiter) if rests
                  else np.empty((0, width - index_cols)))
    except ValueError as error:
        # Search the span's rows, then the failing row's cells, for the first
        # cell that is not a number.
        for lineno, rest in zip(linenos, rests):
            try:
                _load_numbers([rest], delimiter)
            except ValueError:
                for offset, cell in enumerate(rest.split(delimiter)):
                    try:
                        _number(cell, delimiter)
                    except ValueError:
                        raise ParseError(f"non-numeric value {cell!r}", path=str(path),
                                         row=lineno, column=index_cols + offset + 1) from None
                raise ParseError("malformed numeric row", path=str(path), row=lineno) from None
        raise ParseError(f"malformed numeric value: {error}", path=str(path)) from error
    return labels, linenos, len(lines), matrix


def _parse_grid(path: Path, delimiter: str, index_cols: int, header_rows: int,
                nonnegative: bool = False):
    """Parse a grid file: its header rows, row labels and matrix.

    The body is cut at line starts into spans of about PARALLEL_BYTES, the
    spans are parsed side by side (see ``_processes``), and their parts are
    joined in order. A span that fails names its row within the span; every
    span before it is joined by then, so the row in the file is known. Text
    that is not UTF-8, a cell that is not finite, or negative when
    ``nonnegative``, and a row that repeats an earlier row's labels, are
    ParseErrors naming their row.
    """
    with reading(path):
        # The decoder reads ahead into the body, whose bad bytes are left to
        # the span that holds them, to be named by their row.
        with path.open(newline="", encoding="utf-8", errors="surrogateescape") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            headers = list(islice(reader, header_rows))
            used = reader.line_num  # lines before the first span
            handle.seek(0)
            start = 0
            for row, line in enumerate(islice(handle, used), start=1):
                try:
                    start += len(line.encode("utf-8"))
                except UnicodeEncodeError:
                    raise ParseError("text is not UTF-8", path=str(path), row=row) from None
        if len(headers) < header_rows:
            raise ParseError("file has no data rows", path=str(path))
        if len(headers[-1]) <= index_cols:
            raise ParseError("file has no data columns", path=str(path), row=header_rows)
        size = path.stat().st_size
        width = len(headers[-1])
        labels: list[tuple[str, ...]] = []
        linenos: list[int] = []
        # Each part is copied in as it comes, into a matrix grown in place (no
        # view of it exists yet): parts joined at the end would leave their
        # pages to the C heap, which keeps them after they are freed.
        matrix = np.empty((0, width - index_cols))
        try:
            for part_labels, part_linenos, count, block in _fork_map(
                    _parse_span, (path, delimiter, index_cols, width),
                    _spans(path, start, size, PARALLEL_BYTES),
                    _processes(size - start)):
                labels += part_labels
                linenos += [used + lineno for lineno in part_linenos]
                matrix.resize((len(labels), matrix.shape[1]), refcheck=False)
                matrix[len(labels) - len(block):] = block
                used += count
        except ParseError as exc:
            raise ParseError(exc.message, path=exc.path, column=exc.column,
                             row=None if exc.row is None else used + exc.row) from None
    if not labels:
        raise ParseError("file has no data rows", path=str(path))
    cell = _bad_cell(matrix, nonnegative)
    if cell is not None:
        r, c = cell
        value = float(matrix[r, c])
        raise ParseError(f"{'negative' if np.isfinite(value) else 'non-finite'} value {value}",
                         path=str(path), row=linenos[r], column=index_cols + c + 1)
    seen: set[tuple[str, ...]] = set()
    for label, lineno in zip(labels, linenos):
        if label in seen:
            what = "stressor" if index_cols == 1 else "region-sector"
            raise ParseError(f"{what} label {' / '.join(label)!r} is repeated",
                             path=str(path), row=lineno)
        seen.add(label)
    # Read-only, as a grid served by the cache is.
    matrix.flags.writeable = False
    return headers, labels, matrix


def _cache_key(path: Path, base: Path, delimiter: str, index_cols: int,
               header_rows: int) -> str:
    """``<file>-<parse settings>/<sha256 of the file's bytes>``: one directory
    per grid, holding entries named by the file's content. ``<file>`` is the
    path from ``base`` with "%" for each separator, so grids of the same name
    in different directories keep their own entries."""
    digest = hashlib.sha256()
    with reading(path), path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    name = os.path.relpath(path, base).replace(os.sep, "%")
    settings = f"{_DELIMITER_NAMES[delimiter]}-{index_cols}-{header_rows}"
    return f"{name}-{settings}/{digest.hexdigest()}"


def _cache_load(entry: Path):
    """The matrix and the json part of a cache entry, or None when the entry
    is missing or unreadable. The matrix is the ``.npy`` mapped read-only,
    not copied; entries are only ever replaced whole (``_replace``), so the
    mapped file never changes under it."""
    try:
        meta = json.loads(entry.with_suffix(".json").read_text(encoding="utf-8"))
        matrix = np.load(entry.with_suffix(".npy"), mmap_mode="r", allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    # A plain ndarray, as a parsed grid is; its base keeps the mapping open.
    return np.asarray(matrix), meta


def _replace(target: Path, write) -> None:
    """Write a file under a temporary name, then move it into place, so a
    reader never sees it half written."""
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("wb") as handle:
            write(handle)
        os.replace(temporary, target)
    except OSError:
        temporary.unlink(missing_ok=True)
        raise


def _cache_store(entry: Path, matrix: np.ndarray, meta: dict) -> None:
    """Store an entry, a ``.npy`` matrix and a ``.json`` part, and delete
    the other entries of its directory."""
    text = json.dumps(meta).encode("utf-8")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        # The matrix goes first: a readable .json means its .npy is whole.
        _replace(entry.with_suffix(".npy"), lambda h: np.save(h, matrix, allow_pickle=False))
        _replace(entry.with_suffix(".json"), lambda h: h.write(text))
        # The other entries are stale: they hold earlier contents of the same
        # files, or a factorization made under another identity.
        for old in entry.parent.iterdir():
            if old.suffix in (".npy", ".json") and old.stem != entry.name:
                old.unlink(missing_ok=True)
    except OSError:
        pass  # an unwritable cache only means the next run does the work again


def _grid_load(entry: Path, index_cols: int, header_rows: int, nonnegative: bool):
    """A cached grid, or None when the entry is missing, unreadable, does
    not fit the grid it names or would fail a check of ``_parse_grid``, which
    then parses the file again to name the bad row."""
    cached = _cache_load(entry)
    if cached is None:
        return None
    matrix, meta = cached
    try:
        headers = meta["headers"]
        labels = [tuple(label) for label in meta["labels"]]
        fits = (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
                and len(headers) == header_rows
                and matrix.shape == (len(labels), len(headers[-1]) - index_cols)
                and all(len(label) == index_cols for label in labels)
                and len(set(labels)) == len(labels))
    except (LookupError, TypeError):
        return None
    if not fits or _bad_cell(matrix, nonnegative) is not None:
        return None
    return headers, labels, matrix


def _read_grid(path: Path, cache_dir: Path, delimiter: str, index_cols: int,
               header_rows: int = 2, nonnegative: bool = False):
    """Read a labelled grid: header rows, index columns, numeric body.

    Returns (headers, row_labels, matrix, cache entry). Ragged rows, repeated
    row labels, and non-numeric, non-finite or (when ``nonnegative``)
    negative values are ParseErrors; the caller checks the
    resulting shape against the model dimension. A parsed grid is kept in
    ``cache_dir`` under the file's path, the parse settings and the sha256
    of the file's bytes, and is read from there while the file is unchanged.
    """
    entry = cache_dir / _cache_key(path, cache_dir.parent, delimiter, index_cols, header_rows)
    grid = _grid_load(entry, index_cols, header_rows, nonnegative)
    if grid is None:
        grid = _parse_grid(path, delimiter, index_cols, header_rows, nonnegative)
        headers, labels, matrix = grid
        _cache_store(entry, matrix, {"headers": headers, "labels": labels})
    return (*grid, entry)


@dataclass(frozen=True)
class FactorizationEntry:
    """A cache entry holding an LU factorization: ``lu`` as the entry's
    matrix and the pivot indices in its json part."""

    path: Path

    def load(self) -> tuple[np.ndarray, np.ndarray] | None:
        cached = _cache_load(self.path)
        if cached is None:
            return None
        lu, meta = cached
        try:
            return lu, np.asarray(meta["piv"], dtype=np.int32)
        except (LookupError, TypeError, ValueError, OverflowError):
            return None

    def store(self, lu: np.ndarray, piv: np.ndarray) -> None:
        _cache_store(self.path, lu, {"piv": piv.tolist()})


def factorization_entry(result: IngestResult, identity: str) -> FactorizationEntry:
    """Where the LU of the account's I - A is cached, for a factorization made
    under ``identity`` (the libraries and settings that fix its bits).

    I - A is a function of the transaction grid and total output, so the
    entry is named by their parse-cache entries, whose names already hold
    the files' sha256, and by ``identity``. Its directory is named by the two
    grids, so storing an entry replaces that of earlier contents or of
    another identity.
    """
    z_entry, x_entry = result.system_entries
    cache_dir = z_entry.parent.parent
    key = "\n".join([z_entry.relative_to(cache_dir).as_posix(),
                     x_entry.relative_to(cache_dir).as_posix(), identity])
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return FactorizationEntry(cache_dir / f"lu-{z_entry.parent.name}-{x_entry.parent.name}" / name)


def _column_pairs(headers: list[list[str]], index_cols: int, path: Path):
    first, second = headers[0], headers[1]
    if len(first) != len(second):
        raise ParseError("header rows have different lengths", path=str(path), row=1)
    return [
        (first[i].strip(), second[i].strip())
        for i in range(index_cols, len(second))
    ]


def _index_from_labels(labels: list[tuple[str, ...]], path: Path) -> RegionSectorIndex:
    regions: list[str] = []
    for region, _ in labels:
        if region not in regions:
            regions.append(region)
    if not regions:
        raise ParseError("no region labels found", path=str(path))
    block = len(labels) // len(regions)
    sectors = [sector for _, sector in labels[:block]]
    expected = [(r, s) for r in regions for s in sectors]
    if expected != list(labels):
        raise ParseError(
            "row labels are not region-major blocks of a common sector list",
            path=str(path),
        )
    return RegionSectorIndex(regions=tuple(regions), sectors=tuple(sectors))


def ingest(layout_path: str | Path) -> IngestResult:
    """Read a full account from a layout descriptor.

    Known data quirks listed in the descriptor come back as warnings, never
    errors; structural problems raise ParseError / DimensionMismatch /
    UnitMismatch.
    """
    layout = load_layout(layout_path)
    delim = layout.delimiter
    cache_dir = layout.base_dir / CACHE_DIR

    z_path = layout.path(layout.transactions)
    z_headers, z_labels, Z, z_entry = _read_grid(z_path, cache_dir, delim, index_cols=2,
                                                 nonnegative=True)
    index = _index_from_labels(z_labels, z_path)
    if Z.shape != (index.n, index.n):
        raise DimensionMismatch(
            f"transaction grid is {Z.shape[0]}x{Z.shape[1]}, expected {index.n}x{index.n}"
        )
    if _column_pairs(z_headers, 2, z_path) != list(z_labels):
        raise ParseError("column labels do not match row labels", path=str(z_path))
    account_rows = set(z_labels)
    for k, warning in enumerate(layout.ingest_warnings):
        if (warning.region, warning.sector) not in account_rows:
            raise ParseError(f"layout.ingest_warnings[{k}] names ({warning.region}, "
                             f"{warning.sector}), which is not a row of the account",
                             path=str(layout_path))

    y_path = layout.path(layout.final_demand)
    y_headers, y_labels, Y, _ = _read_grid(y_path, cache_dir, delim, index_cols=2)
    if list(y_labels) != index.labels():
        raise ParseError("final-demand rows do not match the transaction index",
                         path=str(y_path))
    y_columns = tuple(_column_pairs(y_headers, 2, y_path))
    for k, column in enumerate(y_columns):
        if column in y_columns[:k]:
            raise ParseError(f"final-demand column {' / '.join(column)!r} is repeated",
                             path=str(y_path), row=2, column=k + 3)

    x_path = layout.path(layout.total_output)
    _, x_labels, x_grid, x_entry = _read_grid(x_path, cache_dir, delim, index_cols=2,
                                              header_rows=1, nonnegative=True)
    if list(x_labels) != index.labels():
        raise ParseError("total-output rows do not match the transaction index",
                         path=str(x_path))
    if x_grid.shape[1] != 1:
        raise ParseError("total-output file must have exactly one value column",
                         path=str(x_path))
    x = x_grid[:, 0]

    extensions: dict[str, ExtensionAccount] = {}
    for k, entry in enumerate(layout.extensions):
        if not entry.unit:
            raise UnitMismatch(f"extension {entry.name!r} has no unit label in the layout")
        ext_path = layout.path(entry.file)
        ext_headers, ext_labels, rows, _ = _read_grid(ext_path, cache_dir, delim, index_cols=1,
                                                      nonnegative=True)
        if rows.shape[1] != index.n:
            raise DimensionMismatch(
                f"extension {entry.name!r} has {rows.shape[1]} columns, expected {index.n}"
            )
        if _column_pairs(ext_headers, 1, ext_path) != index.labels():
            raise ParseError("extension columns do not match the transaction index",
                             path=str(ext_path))
        unit = entry.unit
        if entry.workers_per_unit is not None:
            rows = rows * (entry.workers_per_unit * layout.hours_per_worker_year)
            rows.flags.writeable = False
            unit = "hours"
        stressors = tuple(label[0] for label in ext_labels)
        if entry.kind == "labour":
            for label in stressors:
                try:
                    skill_of(label)
                except MissingStressorLabel as exc:
                    raise ParseError(f"{exc}: low, medium or high",
                                     path=str(ext_path)) from None
        if entry.material_flags is not None:
            for label in stressors:
                flag = entry.material_flags.get(label)
                if flag not in (MATERIAL_USED, MATERIAL_UNUSED):
                    raise ParseError(
                        f"material stressor {label!r} of extension {entry.name!r} is flagged "
                        f"{flag!r}, not {MATERIAL_USED!r} or {MATERIAL_UNUSED!r}",
                        path=str(layout_path))
            for key in entry.material_flags:
                if key not in stressors:
                    raise ParseError(
                        f"layout.extensions[{k}].material_flags key {key!r} names no "
                        f"stressor of extension {entry.name!r}", path=str(layout_path))
        direct = None
        if entry.direct_file is not None:
            direct = _read_direct(layout.path(entry.direct_file), delim, index.regions)
        extensions[entry.name] = ExtensionAccount(
            name=entry.name, unit=unit,
            stressors=stressors,
            rows=rows, direct=direct, kind=entry.kind,
            material_flags=entry.material_flags,
        )

    account = MrioAccount(index=index, Z=Z, Y=Y, y_columns=y_columns, x=x,
                          extensions=extensions, year=layout.year)
    return IngestResult(account=account, warnings=layout.ingest_warnings,
                        system_entries=(z_entry, x_entry))


def _read_direct(path: Path, delimiter: str, regions: tuple[str, ...]) -> dict[str, float]:
    """A direct-use file's value for each of the account's ``regions``; each
    must be listed exactly once, below a header line."""
    direct: dict[str, float] = {}
    for lineno, region, cell in read_pairs(path, ("region", "value"), delimiter, header=True):
        try:
            value = _number(cell, delimiter)
        except ValueError:
            raise ParseError(f"non-numeric value {cell!r}", path=str(path),
                             row=lineno, column=2) from None
        if not np.isfinite(value):
            raise ParseError(f"non-finite value {cell!r}", path=str(path),
                             row=lineno, column=2)
        if value < 0:
            raise ParseError(f"negative value {cell}", path=str(path), row=lineno, column=2)
        if region not in regions:
            raise ParseError(f"region {region!r} is not a region of the account",
                             path=str(path), row=lineno)
        direct[region] = value
    for region in regions:
        if region not in direct:
            raise ParseError(f"region {region!r} has no direct-use row", path=str(path))
    return direct


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _writer(handle, delimiter: str):
    return csv.writer(handle, delimiter=delimiter, lineterminator="\n")


def _format_rows(grid, rows: tuple[int, int]) -> str:
    """The text of rows [start, stop) of ``grid``, (delimiter, labels, matrix)."""
    delimiter, labels, matrix = grid
    start, stop = rows
    # One "%.17g" template per row formats as format_number does; the labels
    # go through csv (the trailing empty cell leaves their quoting as in a
    # full row).
    template = delimiter.join(["%.17g"] * matrix.shape[1]) + "\n"
    prefix = io.StringIO()
    label_writer = _writer(prefix, delimiter)
    text = []
    for label, row in zip(labels[start:stop], matrix[start:stop]):
        prefix.seek(0)
        prefix.truncate()
        label_writer.writerow([*label, ""])
        text.append(prefix.getvalue()[:-1] + template % tuple(row.tolist()))
    return "".join(text)


def _write_grid(path: Path, delimiter: str, headers: list[list[str]],
                labels: list[tuple[str, ...]], matrix: np.ndarray) -> None:
    """Write a grid in blocks of rows of about PARALLEL_BYTES of the matrix,
    formatted side by side (see ``_processes``) and written in order."""
    step = max(1, PARALLEL_BYTES // max(1, matrix.itemsize * matrix.shape[1]))
    blocks = [(start, min(start + step, len(matrix))) for start in range(0, len(matrix), step)]
    with path.open("w", newline="", encoding="utf-8") as handle:
        _writer(handle, delimiter).writerows(headers)
        for text in _fork_map(_format_rows, (delimiter, labels, matrix), blocks,
                              _processes(matrix.nbytes)):
            handle.write(text)


def write_account(account: MrioAccount, out_dir: str | Path,
                  delimiter_name: str = "tab") -> Path:
    """Emit an account as an ingestible file set; returns the layout path.

    Values are written post-conversion (labour already in hours), so
    re-ingesting reproduces the account matrices exactly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    delim = _DELIMITERS[delimiter_name]
    index = account.index
    pair_labels = index.labels()

    region_header = ["", ""] + [r for r, _ in pair_labels]
    sector_header = ["region", "sector"] + [s for _, s in pair_labels]
    _write_grid(out_dir / "z.tsv", delim, [region_header, sector_header],
                pair_labels, account.Z)

    y_region_header = ["", ""] + [r for r, _ in account.y_columns]
    y_category_header = ["region", "sector"] + [c for _, c in account.y_columns]
    _write_grid(out_dir / "y.tsv", delim, [y_region_header, y_category_header],
                pair_labels, account.Y)

    _write_grid(out_dir / "x.tsv", delim, [["region", "sector", "total_output"]],
                pair_labels, account.x[:, np.newaxis])

    entries = []
    for name in account.extensions:
        ext = account.extensions[name]
        filename = f"ext_{name}.tsv"
        ext_region_header = [""] + [r for r, _ in pair_labels]
        ext_sector_header = ["stressor"] + [s for _, s in pair_labels]
        _write_grid(out_dir / filename, delim, [ext_region_header, ext_sector_header],
                    [(label,) for label in ext.stressors], ext.rows)
        direct_file = None
        if ext.direct is not None:
            if set(ext.direct) != set(index.regions):
                raise DimensionMismatch(
                    f"extension {name!r} has direct use for regions {sorted(ext.direct)}, "
                    f"not one value for each account region {list(index.regions)}")
            direct_file = f"direct_{name}.tsv"
            with (out_dir / direct_file).open("w", newline="", encoding="utf-8") as handle:
                out = _writer(handle, delim)
                out.writerow(["region", "value"])
                for region in index.regions:
                    out.writerow([region, format_number(ext.direct[region])])
        entry: dict = {"name": name, "file": filename, "unit": ext.unit}
        if ext.kind is not None:
            entry["kind"] = ext.kind
        if direct_file is not None:
            entry["direct_file"] = direct_file
        if ext.material_flags is not None:
            entry["material_flags"] = dict(ext.material_flags)
        entries.append(entry)

    descriptor = {
        "delimiter": delimiter_name,
        "year": account.year,
        "currency_unit": "fixture units",
        "hours_per_worker_year": DEFAULT_HOURS_PER_WORKER_YEAR,
        "files": {
            "transactions": "z.tsv",
            "final_demand": "y.tsv",
            "total_output": "x.tsv",
        },
        "extensions": entries,
    }
    layout_path = out_dir / "layout.json"
    layout_path.write_text(json.dumps(descriptor, indent=2) + "\n", encoding="utf-8")
    return layout_path

