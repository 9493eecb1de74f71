"""Delimited-file ingest and emission for MRIO accounts.

The on-disk layout is a directory of delimited text files described by a
JSON layout descriptor: the transaction grid and final-demand block carry
two header rows (region, then sector/category) and two index columns;
extension files carry stressor-labelled rows under the same column headers;
total output and direct use are grids of one value column under one header
row. One grid reader reads every one of these numeric files. All numbers
are written with 17 significant digits so emitted files round-trip to
bit-identical doubles, and the writer is deterministic: the same account
always produces byte-identical files.

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
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (POSITIVE, MissingStressorLabel, MrioError, NegativeEntry, NonFiniteEntry,
                     ParseError, read_json, reading)
from .model import EXTENSION_KINDS, ExtensionAccount, MrioAccount, RegionSectorIndex

DEFAULT_HOURS_PER_WORKER_YEAR = 1840.0

_DELIMITERS = {"tab": "\t", "comma": ","}
_DELIMITER_NAMES = {char: name for name, char in _DELIMITERS.items()}

# Parsed grids are kept here, next to the layout descriptor.
CACHE_DIR = ".mrio-cache"

# Grids are read and written in blocks of about this many bytes (file bytes
# to parse, matrix bytes to write). A grid of fewer bytes is parsed or
# written in-process. A larger one is cut into one contiguous share per
# usable CPU: the caller does the first share, block by block, and a forked
# worker each of the others, likewise, into a temporary file that the caller
# reads once its own share is done. A process's memory thus holds a block of
# text at a time, never a share's.
PARALLEL_BYTES = 1 << 22

# Input files are hashed for the parse cache in leaves of this many bytes.
LEAF_BYTES = 1 << 20


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
    "kind": (set(EXTENSION_KINDS), None),
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
        if not entry.unit:
            raise ParseError(f"layout.extensions[{k}].unit is empty", path=str(path))
        # Labour is reported in hours.
        if (entry.kind == "labour" and entry.workers_per_unit is None
                and entry.unit != "hours"):
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
            for column, cell in enumerate(cells[index_cols:], start=index_cols + 1):
                if delimiter in cell:  # joined below, it would read as two cells
                    raise ParseError(f"non-numeric value {cell!r}", path=str(path),
                                     row=lineno, column=column)
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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _processes(nbytes: int) -> int:
    """How many processes share the work on a grid of ``nbytes``, one
    contiguous share each: every usable CPU, or only the caller's when the
    grid is smaller than PARALLEL_BYTES, one CPU is usable, ``os.fork`` is
    not available, or another Python thread is alive (a fork copies the
    locks it may hold)."""
    if nbytes < PARALLEL_BYTES or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _cpus()


def _work_and_exit(work, share, handle) -> None:
    """A forked worker's life: ``work(share, handle)``, then exit with
    status 0, or 1 after printing what it raised."""
    code = 1
    try:
        work(share, handle)
        handle.flush()
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


@contextmanager
def _forked(work, shares: list, path: Path):
    """Fork one worker for each of ``shares``, which runs ``work(share,
    handle)`` into an unnamed temporary file opened before the fork.

    What ``work`` reads reaches the workers through the fork and is never
    pickled. Yields ``result(k)``, which waits for the k-th worker and returns its
    file, rewound; a worker that does not end with status 0 is an error
    naming ``path``. On leaving, workers not yet waited for are killed, and
    every worker is reaped and every file closed, on success or failure.
    """
    handles, running = [], {}

    def result(k: int):
        pid = running[k]
        _, status = os.waitpid(pid, 0)
        del running[k]
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise MrioError(f"{path}: a worker process ended with exit code {code}")
        handles[k].seek(0)
        return handles[k]

    try:
        for k, share in enumerate(shares):
            handles.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _work_and_exit(work, share, handles[k])
            running[k] = pid
        yield result
    finally:
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
        for pid in running.values():
            os.waitpid(pid, 0)
        for handle in handles:
            handle.close()


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
                        # loadtxt reads an empty cell as no data, with a warning.
                        if not cell.strip():
                            raise ValueError
                        _load_numbers([cell], delimiter)
                    except ValueError:
                        raise ParseError(f"non-numeric value {cell!r}", path=str(path),
                                         row=lineno, column=index_cols + offset + 1) from None
                raise ParseError("malformed numeric row", path=str(path), row=lineno) from None
        raise ParseError(f"malformed numeric value: {error}", path=str(path)) from error
    return labels, linenos, len(lines), matrix


def _shares(path: Path, start: int, end: int, count: int) -> list[tuple[int, int]]:
    """At most ``count`` byte ranges of about equal size, cut at line starts,
    that together cover bytes [start, end) of a file."""
    return _spans(path, start, end, -(-(end - start) // count))


def _parse_share(grid, share: tuple[int, int]) -> Iterator:
    """``_parse_span`` of each span of about PARALLEL_BYTES of a share, in
    order, so that a share's text is never held whole."""
    for span in _spans(grid[0], *share, PARALLEL_BYTES):
        yield _parse_span(grid, span)


def _save_parse(grid, share: tuple[int, int], handle) -> None:
    """A worker's parse of a share, written to ``handle``: for each span, a
    pickled (labels, line numbers, line count, row count) followed by the
    bytes of its rows. A bad line ends the file with a pickled (message,
    row, column), its row counted from the failing span's first line."""
    try:
        for labels, linenos, count, block in _parse_share(grid, share):
            pickle.dump((labels, linenos, count, len(block)), handle)
            handle.write(block)
    except ParseError as exc:
        pickle.dump((exc.message, exc.row, exc.column), handle)


def _parse_grid(path: Path, delimiter: str, index_cols: int, header_rows: int):
    """Parse a grid file: its header rows, row labels, matrix and the file
    line of each row.

    The body is cut at line starts into one contiguous share per process
    (see ``_processes``). The caller parses the first share, in spans of
    about PARALLEL_BYTES, while forked workers each parse one later share
    into a temporary file; the caller then reads the workers' rows, in
    order, straight into the joined matrix. A span that fails names its row
    within the span; every span before it is joined by then, so the row in
    the file is known. Text that is not UTF-8 and a row that repeats an
    earlier row's labels are ParseErrors naming their row; the values of a
    cell that is a number are left to the account's screen.
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
        # Each span's rows are copied in as they come, into a matrix grown in
        # place (no view of it exists yet): parts joined at the end would
        # leave their pages to the C heap, which keeps them after they are
        # freed.
        matrix = np.empty((0, width - index_cols))

        def join(part_labels, part_linenos, count: int) -> np.ndarray:
            """Add a span's labels and lines; returns its rows of the matrix."""
            nonlocal used
            labels.extend(part_labels)
            linenos.extend(used + lineno for lineno in part_linenos)
            used += count
            matrix.resize((len(labels), matrix.shape[1]), refcheck=False)
            return matrix[len(labels) - len(part_labels):]

        grid = (path, delimiter, index_cols, width)
        shares = _shares(path, start, size, _processes(size - start)) or [(start, size)]
        try:
            with _forked(partial(_save_parse, grid), shares[1:], path) as result:
                for part_labels, part_linenos, count, block in _parse_share(grid, shares[0]):
                    join(part_labels, part_linenos, count)[:] = block
                for k in range(len(shares) - 1):
                    handle = result(k)
                    while handle.peek(1):
                        record = pickle.load(handle)
                        if len(record) == 3:  # a bad line's (message, row, column)
                            message, row, column = record
                            raise ParseError(message, path=str(path), row=row, column=column)
                        rows = join(*record[:3])
                        if handle.readinto(rows) != rows.nbytes:
                            raise MrioError(f"{path}: a worker process's rows are cut short")
        except ParseError as exc:
            raise ParseError(exc.message, path=exc.path, column=exc.column,
                             row=None if exc.row is None else used + exc.row) from None
    if not labels:
        raise ParseError("file has no data rows", path=str(path))
    seen: set[tuple[str, ...]] = set()
    for label, lineno in zip(labels, linenos):
        if label in seen:
            what = "row" if index_cols == 1 else "region-sector"
            raise ParseError(f"{what} label {' / '.join(label)!r} is repeated",
                             path=str(path), row=lineno)
        seen.add(label)
    # Read-only, as a grid served by the cache is.
    matrix.flags.writeable = False
    return headers, labels, matrix, linenos


def _cache_key(path: Path, base: Path, delimiter: str, index_cols: int,
               header_rows: int) -> str:
    """``<file>-<parse settings>/<content hash>``: one directory per grid,
    holding entries named by the file's content. ``<file>`` is the path from
    ``base`` with "%" for each separator, so grids of the same name in
    different directories keep their own entries.

    The content hash is the sha256 of the file's size, as 8 big-endian
    bytes, followed by the sha256 of each LEAF_BYTES leaf of the file. The
    leaves are cut into one contiguous share per usable CPU: the caller
    hashes the first share and a thread each of the others, all joined
    before it returns (``os.pread`` and ``hashlib`` release the GIL).
    """
    with reading(path), path.open("rb") as handle:
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        # A read cut short leaves a short leaf inside the size, which no
        # whole read of any file gives, so its key can never serve a grid.
        leaves = [b""] * -(-size // LEAF_BYTES)
        errors = []

        def hash_leaves(first: int, stop: int) -> None:
            try:
                for k in range(first, stop):
                    leaves[k] = hashlib.sha256(os.pread(fd, LEAF_BYTES, k * LEAF_BYTES)).digest()
            except Exception as exc:
                errors.append(exc)

        count = max(1, min(_cpus(), len(leaves)))
        cuts = [len(leaves) * k // count for k in range(count + 1)]
        threads = []
        try:
            for k in range(1, count):
                thread = threading.Thread(target=hash_leaves, args=cuts[k:k + 2])
                thread.start()
                threads.append(thread)
            hash_leaves(*cuts[:2])
        finally:
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
    digest = hashlib.sha256(size.to_bytes(8, "big") + b"".join(leaves))
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


def _grid_load(entry: Path, index_cols: int, header_rows: int):
    """A cached grid, or None when the entry is missing, unreadable, does
    not fit the grid it names or repeats a row label, which ``_parse_grid``
    would reject: the file is then parsed again to name the bad row."""
    cached = _cache_load(entry)
    if cached is None:
        return None
    matrix, meta = cached
    try:
        headers = meta["headers"]
        labels = [tuple(label) for label in meta["labels"]]
        linenos = meta["linenos"]
        fits = (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64
                and len(headers) == header_rows and len(linenos) == len(labels)
                and matrix.shape == (len(labels), len(headers[-1]) - index_cols)
                and all(len(label) == index_cols for label in labels)
                and len(set(labels)) == len(labels))
    except (LookupError, TypeError):
        return None
    return (headers, labels, matrix, linenos) if fits else None


def _read_grid(path: Path, cache_dir: Path, delimiter: str, index_cols: int,
               header_rows: int = 2):
    """Read a labelled grid: header rows, index columns, numeric body.

    Returns (headers, row_labels, matrix, row lines, cache entry). Ragged
    rows, repeated row labels and non-numeric values are ParseErrors; the
    caller checks the labels against the model index, and the account's
    screen checks the values. A parsed grid, with the file line of
    each row so that a warm run names a row as a cold run does, is kept in
    ``cache_dir`` under the file's path, the parse settings and the sha256
    of the file's bytes, and is read from there while the file is unchanged.
    """
    entry = cache_dir / _cache_key(path, cache_dir.parent, delimiter, index_cols, header_rows)
    grid = _grid_load(entry, index_cols, header_rows)
    if grid is None:
        grid = _parse_grid(path, delimiter, index_cols, header_rows)
        headers, labels, matrix, linenos = grid
        _cache_store(entry, matrix, {"headers": headers, "labels": labels,
                                     "linenos": linenos})
    return (*grid, entry)


def _read_column(path: Path, cache_dir: Path, delimiter: str, index_cols: int):
    """Read a grid of one value column under one header row, such as total
    output or direct use: (row labels, values, row lines, cache entry)."""
    _, labels, grid, linenos, entry = _read_grid(path, cache_dir, delimiter, index_cols,
                                                 header_rows=1)
    if grid.shape[1] != 1:
        raise ParseError("file must have exactly one value column", path=str(path))
    return labels, grid[:, 0], linenos, entry


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
    the files' content hashes, and by ``identity``. Its directory is named
    by the two grids, so storing an entry replaces that of earlier contents
    or of another identity.
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


def _region_major(labels: list[tuple[str, str]]) -> RegionSectorIndex:
    """The index of the regions of ``labels``, in order of first appearance,
    and of the first region's sectors."""
    regions = tuple(dict.fromkeys(region for region, _ in labels))
    return RegionSectorIndex(regions, tuple(s for r, s in labels if r in regions[:1]))


def _check_labels(message: str, found: list, expected: list, path: Path, *,
                  linenos: list[int] | None = None, index_cols: int = 0) -> None:
    """A ParseError at the first of the row labels (with their file
    ``linenos``) or of the column header pairs (after ``index_cols`` index
    columns) in ``found`` that differs from ``expected``, naming both. Row
    labels that run out name the line after the last of them."""
    if found == expected:
        return
    k = next((k for k, (a, b) in enumerate(zip(found, expected)) if a != b),
             min(len(found), len(expected)))
    if linenos is not None:
        where = {"row": linenos[k] if k < len(linenos) else linenos[-1] + 1}
    else:
        region_differs = k < min(len(found), len(expected)) and found[k][0] != expected[k][0]
        where = {"row": 1 if region_differs else 2, "column": index_cols + k + 1}
    named = [repr(" / ".join(labels[k])) if k < len(labels) else "nothing"
             for labels in (found, expected)]
    raise ParseError(f"{message}: found {named[0]} where {named[1]} is expected",
                     path=str(path), **where)


def ingest(layout_path: str | Path) -> IngestResult:
    """Read a full account from a layout descriptor.

    Known data quirks listed in the descriptor come back as warnings, never
    errors. Every fault is a ParseError naming its file, and its row and
    column or its layout key; a bad value, found by the account's screen, comes
    after every file's label, flag and structure faults.
    """
    layout = load_layout(layout_path)
    delim = layout.delimiter
    cache_dir = layout.base_dir / CACHE_DIR

    z_path = layout.path(layout.transactions)
    z_headers, z_labels, Z, z_lines, z_entry = _read_grid(z_path, cache_dir, delim,
                                                          index_cols=2)
    pairs = _column_pairs(z_headers, 2, z_path)
    index = _region_major(z_labels)
    labels = index.labels()
    # Region-major rows under a header that is not: the header is at fault.
    if z_labels != pairs and z_labels == labels and _region_major(pairs).labels() != pairs:
        _check_labels("column labels do not match row labels", pairs, z_labels, z_path,
                      index_cols=2)
    _check_labels("row labels do not match column labels", z_labels, pairs, z_path,
                  linenos=z_lines)
    _check_labels("row labels are not region-major blocks of a common sector list",
                  z_labels, labels, z_path, linenos=z_lines)
    account_rows = set(z_labels)
    for k, warning in enumerate(layout.ingest_warnings):
        if (warning.region, warning.sector) not in account_rows:
            raise ParseError(f"layout.ingest_warnings[{k}] names ({warning.region}, "
                             f"{warning.sector}), which is not a row of the account",
                             path=str(layout_path))

    y_path = layout.path(layout.final_demand)
    y_headers, y_labels, Y, y_lines, _ = _read_grid(y_path, cache_dir, delim, index_cols=2)
    _check_labels("final-demand rows do not match the transaction index", y_labels, labels,
                  y_path, linenos=y_lines)
    y_columns = tuple(_column_pairs(y_headers, 2, y_path))
    for k, column in enumerate(y_columns):
        if column in y_columns[:k]:
            raise ParseError(f"final-demand column {' / '.join(column)!r} is repeated",
                             path=str(y_path), row=2, column=k + 3)

    x_path = layout.path(layout.total_output)
    x_labels, x, x_lines, x_entry = _read_column(x_path, cache_dir, delim, index_cols=2)
    _check_labels("total-output rows do not match the transaction index", x_labels, labels,
                  x_path, linenos=x_lines)

    # By the ``array`` an account error carries, the file, row lines, index columns
    # and file values of a grid or direct use, or the layout entry of material flags.
    cells = {"Z": (z_path, z_lines, 2, Z), "Y": (y_path, y_lines, 2, Y),
             "x": (x_path, x_lines, 2, x)}
    layout_keys, extensions, bad_values = {}, {}, []
    try:
        for k, entry in enumerate(layout.extensions):
            ext_path = layout.path(entry.file)
            ext_headers, ext_labels, rows, ext_lines, _ = _read_grid(ext_path, cache_dir, delim,
                                                                     index_cols=1)
            _check_labels("extension columns do not match the transaction index",
                          _column_pairs(ext_headers, 1, ext_path), labels, ext_path,
                          index_cols=1)
            cells[f"extension {entry.name!r} rows"] = (ext_path, ext_lines, 1, rows)
            layout_keys[f"extension {entry.name!r} material_flags"] = f"layout.extensions[{k}]"
            if entry.workers_per_unit is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # the screen names it
                    rows = rows * (entry.workers_per_unit * layout.hours_per_worker_year)
                rows.flags.writeable = False
            direct = None
            if entry.direct_file is not None:
                direct_path = layout.path(entry.direct_file)
                regions, values, direct_lines, _ = _read_column(direct_path, cache_dir, delim,
                                                                index_cols=1)
                for (region,), lineno in zip(regions, direct_lines):
                    if region not in index.regions:
                        raise ParseError(f"region {region!r} is not a region of the account",
                                         path=str(direct_path), row=lineno)
                direct = {region: value for (region,), value in zip(regions, values.tolist())}
                for region in index.regions:
                    if region not in direct:
                        raise ParseError(f"region {region!r} has no direct-use row",
                                         path=str(direct_path))
                cells[f"extension {entry.name!r} direct use"] = (direct_path, direct_lines, 1,
                                                                 values)
            try:
                extensions[entry.name] = ExtensionAccount(
                    name=entry.name, unit="hours" if entry.workers_per_unit else entry.unit,
                    stressors=tuple(label[0] for label in ext_labels), rows=rows,
                    direct=direct, kind=entry.kind, material_flags=entry.material_flags)
            except (NonFiniteEntry, NegativeEntry) as exc:  # named after every file's labels
                bad_values.append(exc)
        if bad_values:
            raise bad_values[0]
        account = MrioAccount(index=index, Z=Z, Y=Y, y_columns=y_columns, x=x, year=layout.year,
                              extensions=extensions)
    except (NonFiniteEntry, NegativeEntry, MissingStressorLabel) as exc:
        if exc.array in layout_keys:
            raise ParseError(f"{layout_keys[exc.array]}.{exc}", path=str(layout_path)) from None
        path, linenos, index_cols, values = cells[exc.array]
        row, column = (*exc.cell, 0)[:2]  # x, direct use and row labels are one column
        if isinstance(exc, MissingStressorLabel):  # a stressor label, in column 1
            raise ParseError(str(exc), path=str(path), row=linenos[row], column=1) from None
        value = float(values[exc.cell])
        message = (f"negative value {value}" if isinstance(exc, NegativeEntry)
                   else f"value {value} overflows on conversion to hours" if np.isfinite(value)
                   else f"non-finite value {value}")
        raise ParseError(message, path=str(path), row=linenos[row],
                         column=index_cols + column + 1) from None
    return IngestResult(account=account, warnings=layout.ingest_warnings,
                        system_entries=(z_entry, x_entry))


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


def _write_rows(grid, rows: tuple[int, int], handle) -> None:
    """Write the text of rows [start, stop) of ``grid`` to a binary handle,
    formatted in blocks of rows of about PARALLEL_BYTES of the matrix."""
    matrix = grid[2]
    step = max(1, PARALLEL_BYTES // max(1, matrix.itemsize * matrix.shape[1]))
    for first in range(*rows, step):
        handle.write(_format_rows(grid, (first, min(first + step, rows[1]))).encode("utf-8"))


def _write_grid(path: Path, delimiter: str, headers: list[list[str]],
                labels: list[tuple[str, ...]], matrix: np.ndarray) -> None:
    """Write a grid whose rows are cut into one contiguous share per process
    (see ``_processes``). The caller writes the first share to the file,
    while forked workers each write one later share to a temporary file,
    which the caller then appends to the file, in order."""
    grid = (delimiter, labels, matrix)
    count = min(_processes(matrix.nbytes), len(matrix))
    shares = [(len(matrix) * k // count, len(matrix) * (k + 1) // count) for k in range(count)]
    header = io.StringIO()
    _writer(header, delimiter).writerows(headers)
    with (path.open("wb") as handle,
          _forked(partial(_write_rows, grid), shares[1:], path) as result):
        handle.write(header.getvalue().encode("utf-8"))
        for share in shares[:1]:
            _write_rows(grid, share, handle)
        for k in range(len(shares) - 1):
            shutil.copyfileobj(result(k), handle, PARALLEL_BYTES)


def _column_headers(corner: list[str], columns: list[tuple[str, str]]) -> list[list[str]]:
    """A grid's two header rows: the columns' regions, then ``corner`` and their second labels."""
    return [[""] * len(corner) + [first for first, _ in columns],
            corner + [second for _, second in columns]]


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

    _write_grid(out_dir / "z.tsv", delim, _column_headers(["region", "sector"], pair_labels),
                pair_labels, account.Z)
    _write_grid(out_dir / "y.tsv", delim,
                _column_headers(["region", "sector"], account.y_columns), pair_labels, account.Y)
    _write_grid(out_dir / "x.tsv", delim, [["region", "sector", "total_output"]],
                pair_labels, account.x[:, np.newaxis])

    entries = []
    for name, ext in account.extensions.items():
        filename = f"ext_{name}.tsv"
        _write_grid(out_dir / filename, delim, _column_headers(["stressor"], pair_labels),
                    [(label,) for label in ext.stressors], ext.rows)
        entry: dict = {"name": name, "file": filename, "unit": ext.unit}
        if ext.kind is not None:
            entry["kind"] = ext.kind
        if ext.direct is not None:
            entry["direct_file"] = f"direct_{name}.tsv"
            _write_grid(out_dir / entry["direct_file"], delim, [["region", "value"]],
                        [(region,) for region in index.regions],
                        np.array([[ext.direct[region]] for region in index.regions], dtype=float))
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

