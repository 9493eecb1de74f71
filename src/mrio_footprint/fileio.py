"""Delimited-file ingest and emission for MRIO accounts.

The on-disk layout is a directory of delimited text files described by a
JSON layout descriptor: the transaction grid and final-demand block carry
two header rows (region, then sector/category) and two index columns;
extension files carry stressor-labelled rows under the same column headers;
total output and direct use are grids of one value column under one header
row. One grid reader reads every one of these numeric files. Every line of
a grid, header rows included, ends at LF, CR LF or CR and is split into
cells on its own, so no label may hold a line break, and the writer refuses
one. All numbers are written with 17 significant digits so emitted files
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
import ctypes
import hashlib
import io
import json
import os
import pickle
import signal
import sys
import tempfile
import threading
import traceback
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .errors import (POSITIVE, MissingStressorLabel, MrioError, NegativeEntry, NonFiniteEntry,
                     ParseError, decode_line, read_json, reading, split_line)
from .model import EXTENSION_KINDS, ExtensionAccount, MrioAccount, RegionSectorIndex

DEFAULT_HOURS_PER_WORKER_YEAR = 1840.0

_DELIMITERS = {"tab": "\t", "comma": ","}
_DELIMITER_NAMES = {char: name for name, char in _DELIMITERS.items()}

# Parsed grids are kept here, next to the layout descriptor.
CACHE_DIR = ".mrio-cache"

# Grid files are read in spans of about this many bytes. A grid file to hash
# or parse, or a matrix to write, of fewer bytes is worked on in-process. A
# larger one is cut into one contiguous share per usable CPU (``_processes``):
# the caller does the first share, leaf by leaf, span by span or block by
# block, and a forked worker each of the others, likewise, pickling what it
# makes into a temporary file that the caller reads once its own share is
# done (``_forked``). A process's memory thus holds a span or block of text
# at a time, never a share's.
PARALLEL_BYTES = 1 << 22

# Input files are hashed for the parse cache in leaves of this many bytes.
LEAF_BYTES = 1 << 20

# Grid numbers are read and written in blocks of rows of about this many
# bytes of text. Where numpy's long double is the little-endian x87 format,
# whose significand has 64 bits, exact vectorized kernels read them
# (``_read_decimals``) and write them (``_number_text``); elsewhere float()
# reads them (``_parse_span``) and format_number writes them.
NUMBER_BLOCK_BYTES = 1 << 18
_EXACT_DECIMALS = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
# 10**q for |q| <= _POWER_RANGE, correctly rounded to that significand, and
# the least and greatest normal doubles. w * 10**q for a nonzero w < 10**19
# and |q| >= _POWER_RANGE lies outside that range.
_POWER_RANGE = 350
_POWERS_OF_TEN = np.array([f"1e{q}" for q in range(-_POWER_RANGE, _POWER_RANGE + 1)]
                          ).astype(np.longdouble)
_NORMAL_RANGE = np.array([np.finfo(np.float64).tiny, np.finfo(np.float64).max], np.longdouble)
# 24 bytes read as three uint64 lanes: where each lane starts, and, for
# s = 0..24 in column s, the masks that keep the low nibble of each byte but
# the s first.
_LANE_STARTS = np.array([[0], [8], [16]])
_LANE_MASKS = np.array([[(0x0F0F0F0F0F0F0F0F << 8 * min(max(s - 8 * k, 0), 8)) % (1 << 64)
                         for s in range(25)] for k in range(3)], dtype=np.uint64)
# A written number's text, before its NUL bytes are deleted, is six
# little-endian uint64 words, 48 bytes: "-0.000" (a sign, then the lead of a
# fixed-form number below 1), the first digit and ".", each of the 16 other
# digits followed by ".", then the exponent, as "e-308" or "e+05" with NUL
# for the missing hundreds, and the cell's end (delimiter or LF) in the last
# byte. A layout mask keeps the bytes of one form.
_TEXT_WORDS = 6
_LEAD = int.from_bytes(b"-0.0000.", "little")

# The C library, for ``_trim_heap``.
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None


def data_path(relative: str) -> Path:
    """Path to a packaged data file, e.g. data_path("scenarios/good-life.json")."""
    from importlib import resources

    return Path(str(resources.files("mrio_footprint"))) / "data" / relative


def format_number(value: float) -> str:
    """``value`` with 17 significant digits, which round-trip to the same
    double."""
    return format(float(value), ".17g")


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


def load_layout(path: str | Path) -> dict:
    """The layout descriptor at ``path`` as ``read_json`` reads it by
    ``_LAYOUT``, defaults filled in, once the rules between its keys hold."""
    path = Path(path)
    layout = read_json(path, _LAYOUT, "layout")
    extensions = layout["extensions"]
    readers = {"direct_file": ("energy", "emissions"), "material_flags": ("material",),
               "workers_per_unit": ("labour",)}
    for k, entry in enumerate(extensions):
        name, kind, unit = entry["name"], entry["kind"], entry["unit"]
        if name in (earlier["name"] for earlier in extensions[:k]):
            raise ParseError(f"layout.extensions[{k}].name repeats the name {name!r}",
                             path=str(path))
        for key, kinds in readers.items():
            if entry[key] is not None and kind not in kinds:
                raise ParseError(f"layout.extensions[{k}].{key} is read only for kind "
                                 f"{' or '.join(kinds)}; extension {name!r} has kind "
                                 f"{kind!r}", path=str(path))
        if not unit:
            raise ParseError(f"layout.extensions[{k}].unit is empty", path=str(path))
        # Labour is reported in hours.
        if kind == "labour" and entry["workers_per_unit"] is None and unit != "hours":
            raise ParseError(f"layout.extensions[{k}].unit is {unit!r}; a labour "
                             "extension without workers_per_unit must be in 'hours'",
                             path=str(path))
    return layout


@dataclass(frozen=True)
class IngestResult:
    account: MrioAccount
    # The parse-cache entries of the transaction grid and total output,
    # which name the cached factorization of the account's I - A.
    system_entries: tuple[Path, Path]
    # The layout's ingest_warnings, each a dict of region, sector and note.
    warnings: Sequence[dict] = ()


def _eight_digits(lanes: np.ndarray) -> np.ndarray:
    """Each uint64 of ``lanes`` read as eight decimal digits, one in the low
    nibble of each byte and the first in the lowest byte, as its value; the
    lanes are overwritten (Lemire 2021)."""
    for multiplier, shift, keep in ((2561, 8, 0x00FF00FF00FF00FF),
                                    (6553601, 16, 0x0000FFFF0000FFFF),
                                    (42949672960001, 32, 0xFFFFFFFF)):
        lanes *= multiplier
        lanes >>= shift
        lanes &= keep
    return lanes


def _loadtxt_value(cell: bytes) -> float:
    """A cell read as np.loadtxt reads it: decoded, stripped and read by
    float(); a ValueError for a non-ASCII character or an underscore."""
    text = cell.decode().strip()
    if not text.isascii() or "_" in text:
        raise ValueError(cell)
    return float(text)


def _read_cells(block: bytes, delimiter: str, starts: np.ndarray, ends: np.ndarray,
                texts: dict[int, bytes]) -> tuple[list[float], bytes | None]:
    """The cells block[start:end], in order, read as np.loadtxt reads them,
    up to the first one it rejects; and the text of that cell, or None. The
    k-th cell is read from texts[k] instead where that is given.

    No cell may start a line, so that the one byte between two cells that
    follow each other is their delimiter: such cells make a run, which is
    cut whole and split, not sliced cell by cell. The cells are read by
    ``_loadtxt_value``, or by float() where the block holds no byte that is
    not ASCII, no '_' (which float() accepts) and none of 0x1C-0x1F (which
    str.strip() removes and float() rejects): float() then reads every cell
    as ``_loadtxt_value`` does, at a little over half its cost.
    """
    if not len(starts):
        return [], None
    new_run = np.append(True, starts[1:] != ends[:-1] + 1)
    run_starts = starts.compress(new_run)
    run_ends = ends.compress(np.append(new_run[1:], True))
    cells = [cell for a, z in zip(run_starts.tolist(), run_ends.tolist())
             for cell in block[a:z].split(delimiter.encode())]
    for k, text in texts.items():
        cells[k] = text
    plain = block.isascii() and not any(byte in block for byte in b"_\x1c\x1d\x1e\x1f")
    values: list[float] = []
    try:  # extend keeps the values before a failure
        values.extend(map(float if plain else _loadtxt_value, cells))
    except ValueError:
        return values, cells[len(values)]
    return values, None


def _read_decimals(text: bytes, marks: np.ndarray, is_end: np.ndarray) -> np.ndarray:
    """The cells of ``text`` as doubles bit-identical to np.loadtxt's, or
    NaN where left unread. The cells end at the bytes flagged by ``is_end``
    among those at ``marks``, the bytes not digits, in order: each starts
    one byte after the one before, and the first at 0.

    A cell is read when it has the form -?D+(.D+)?([eE][+-]?D{1,3})?, D a
    digit. Its mantissa digits make an integer w, read eight at a time from
    the 24 bytes that end it in the text without its dots, and its exponent
    less its fraction digits is q. w < 10**19 < 2**64 is exact in the 64-bit
    significand of the x87 long double. There w * 10**q is two correctly
    rounded steps, each off by at most half a unit in the last place (ulp), or
    one step for |q| <= 27, where 10**q = 5**q * 2**q is exact since
    5**27 < 2**63: at most 2 ulps from the exact value in all. Narrowing to a
    double rounds as the exact value would unless a double midpoint, 0x400 in
    the 11 dropped bits, lies within those 2 ulps (Clinger 1990; Lemire 2021).
    Cells with more than 24 mantissa digits or 19 significant ones, within
    2 ulps of a midpoint, or outside the range of normal doubles are left
    unread, as is every cell outside the form.
    """
    b = np.frombuffer(text, np.uint8)
    ends = marks.compress(is_end)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # The form, checked at each other mark by its neighbours (b[-1], before
    # position 0, is an end), then by cell: a '.', 'e', 'E', '-' or '+' must
    # stand where the form allows it, and no other byte may. A mark's cell
    # is the number of ends before it among the marks.
    inner = np.flatnonzero(~is_end)
    cell = inner - np.arange(len(inner))
    at = marks.take(inner)
    kind, before, after = b.take(at), b.take(at - 1), b.take(at + 1)
    digit_before = np.subtract(before, 48, dtype=np.uint8) <= 9
    digit_after = np.subtract(after, 48, dtype=np.uint8) <= 9
    is_dot, is_e, is_minus = kind == ord("."), (kind | 0x20) == ord("e"), kind == ord("-")
    # A sign follows an 'e', or a '-' starts its cell (any other byte fails).
    fits = ((is_dot & digit_before & digit_after)
            | (is_e & digit_before & (digit_after | (after == ord("-")) | (after == ord("+"))))
            | ((is_minus | (kind == ord("+"))) & digit_after
               & (((before | 0x20) == ord("e")) | (is_minus & ~digit_before))))
    outside = starts == ends
    outside[cell.compress(~fits)] = True
    if outside.all():
        return np.full(len(ends), np.nan)
    dot_cells, e_cells, e_at = cell.compress(is_dot), cell.compress(is_e), at.compress(is_e)
    for repeated in (dot_cells, e_cells):  # a second dot or exponent
        outside[repeated[1:].compress(np.diff(repeated) == 0)] = True
    mantissa_end = ends.copy()  # at its exponent or its end
    mantissa_end[e_cells] = e_at
    dot = np.full(len(ends), -1)
    dot[dot_cells] = at.compress(is_dot)
    sign = b.take(e_at + 1)
    e_ends = ends.take(e_cells)
    count = e_ends - e_at - 1 - ((sign == ord("-")) | (sign == ord("+")))
    outside[e_cells.compress(count > 3)] = True
    outside |= dot >= mantissa_end
    exponent = np.zeros(len(e_at), np.int64)
    for k, weight in ((1, 1), (2, 10), (3, 100)):
        exponent += np.where(count >= k, b.take(e_ends - k).astype(np.int64) - 48, 0) * weight
    has_dot = dot >= 0
    q = np.where(has_dot, dot + 1 - mantissa_end, 0)
    q[e_cells] += np.where(sign == ord("-"), -exponent, exponent)
    negative = b.take(starts) == ord("-")
    digits = mantissa_end - starts - negative - has_dot
    # Where each mantissa ends in the text without its dots, any cell's.
    dotless_end = mantissa_end - np.cumsum(np.bincount(dot_cells, minlength=len(ends)))
    slow = outside | (digits > 24) | (dotless_end < 24)
    # Each cell's 24 bytes before its mantissa end in the text without dots,
    # as three lanes, with the bytes before its first digit cleared; a cell
    # whose 24 bytes would start before the text is left unread.
    dotless = text.replace(b".", b"").ljust(24)
    window = np.ndarray((len(dotless) - 7,), "<u8", dotless, strides=(1,))
    lanes = window[_LANE_STARTS + np.maximum(dotless_end - 24, 0)]
    lanes &= _LANE_MASKS.take(np.clip(24 - digits, 0, 24), axis=1)
    _eight_digits(lanes)
    slow |= lanes[0] >= 1000  # w >= 10**19
    w = lanes[0] * 10 ** 16
    w += lanes[1] * 10 ** 8
    w += lanes[2]
    value = w.astype(np.longdouble)
    value *= _POWERS_OF_TEN.take(np.clip(q, -_POWER_RANGE, _POWER_RANGE) + _POWER_RANGE)
    significand = np.ndarray((len(ends),), "<u8", value, strides=(value.itemsize,))
    slow |= ((significand - 0x3FE) & 0x7FF) <= 4
    slow |= (value != 0) & ((value < _NORMAL_RANGE[0]) | (value > _NORMAL_RANGE[1]))
    with np.errstate(over="ignore"):  # only where slow
        out = value.astype(np.float64)
    np.negative(out, out=out, where=negative)
    out[slow] = np.nan
    return out


def _trim_heap() -> None:
    """Give the pages the C heap holds free back to the system, where the C
    library is glibc. A parse frees blocks of a few hundred KB by the
    thousand; glibc keeps most of their pages resident otherwise, and every
    later peak of the run would carry them."""
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _processes(nbytes: int) -> int:
    """How many processes share the hash, parse or write of a grid of
    ``nbytes``, one contiguous share each: every CPU this process may run
    on, or only the caller's when the grid is smaller than PARALLEL_BYTES,
    ``os.fork`` is not available, or another Python thread is alive (a fork
    copies the locks it may hold)."""
    if nbytes < PARALLEL_BYTES or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _shares(count: int, nbytes: int) -> list[tuple[int, int]]:
    """``count`` items, leaves or rows of a grid of ``nbytes``, cut into
    one contiguous share per process (``_processes``), none empty: one empty
    share when ``count`` is 0."""
    processes = max(1, min(_processes(nbytes), count))
    return [(count * k // processes, count * (k + 1) // processes) for k in range(processes)]


def _work_and_exit(work, share, handle) -> None:
    """A forked worker's life: pickle each item ``work(share)`` yields into
    ``handle``, then the MrioError or OSError that ends them, if any, and exit
    with status 0; or exit with status 1 after printing any other exception."""
    code = 1
    try:
        try:
            for item in work(share):
                pickle.dump(item, handle, pickle.HIGHEST_PROTOCOL)
        except (MrioError, OSError) as exc:
            pickle.dump(exc, handle, pickle.HIGHEST_PROTOCOL)
        handle.flush()
        code = 0
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


@contextmanager
def _forked(work, shares: list, path: Path):
    """Run ``work(share)``, which yields items, on each of ``shares``;
    yields one iterator over their items, share by share.

    The iterator runs the first share in the caller. A worker forked for each
    later share pickles its items into an unnamed temporary file opened
    before the fork (``_work_and_exit``); what ``work`` reads reaches it
    through the fork and is never pickled. Once the first share is done, the
    iterator waits for each worker in turn and reads its items back, and
    raises the error that ended them where they end, as the caller's share
    would. A worker that does not end with status 0 is an error naming
    ``path``. On leaving, workers not yet waited for are killed, and every
    worker is reaped and every file closed, on success or failure.
    """
    handles, pids, running = [], [], set()

    def items() -> Iterator:
        yield from work(shares[0])
        for pid, handle in zip(pids, handles):
            _, status = os.waitpid(pid, 0)
            running.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise MrioError(f"{path}: a worker process ended with exit code {code}")
            handle.seek(0)
            while handle.peek(1):
                item = pickle.load(handle)
                if isinstance(item, Exception):
                    raise item
                yield item

    try:
        for share in shares[1:]:
            handles.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _work_and_exit(work, share, handles[-1])
            pids.append(pid)
            running.add(pid)
        yield items()
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for pid in running:
            os.waitpid(pid, 0)
        for handle in handles:
            handle.close()


def _line_start(fd: int, offset: int) -> int:
    """The first line start at or after byte ``offset`` > 0 of the file open
    as ``fd``. A line ends at LF, CR LF or CR, as in text read with
    ``newline=""``."""
    position = offset - 1
    while block := os.pread(fd, 1 << 16, position):
        ends = [k for k in (block.find(b"\n"), block.find(b"\r")) if k >= 0]
        if ends:
            position += min(ends)
            return position + (2 if os.pread(fd, 2, position) == b"\r\n" else 1)
        position += len(block)
    return position


def _spans(fd: int, start: int, end: int, size: int) -> list[tuple[int, int]]:
    """Byte spans of about ``size`` bytes, cut at line starts, that together
    cover bytes [start, end) of the file open as ``fd``. A line longer than
    ``size`` is one span."""
    cuts = [start]
    while cuts[-1] + size < end:
        cuts.append(_line_start(fd, cuts[-1] + size))
    return [(a, min(b, end)) for a, b in zip(cuts, cuts[1:] + [end]) if a < b]


def _parse_span(grid, span: tuple[int, int]):
    """Parse the body lines in the byte span [start, end) of a grid file.

    ``grid`` is (path, delimiter, index_cols, width, fd). Returns the lines'
    labels, their line numbers counted from 1 at the span's first line, the
    span's physical line count, and their matrix. The first bad line raises
    a ParseError whose row is counted likewise: within a line, text that is
    not UTF-8, then a line that csv rules cannot split or a number cell
    holding the delimiter, the wrong number of cells, and the first cell
    np.loadtxt would reject.

    The span is read from disk once; a line ends at LF, CR LF or CR, as in
    text read with ``newline=""``. In each block of whole lines of about
    NUMBER_BLOCK_BYTES, numpy finds every byte that is not a digit, and so
    every line end and delimiter, once. A row's width is its delimiter
    count; its labels are decoded one row at a time, and its numbers read
    from their byte offsets. A row holding a quote is split with csv rules,
    as a quoted label may hold the delimiter.
    """
    path, delimiter, index_cols, width, fd = grid
    ncols = width - index_cols
    text = os.pread(fd, span[1] - span[0], span[0])
    if b"\r" in text:  # every line end as LF, which keeps the cells and lines
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not text.endswith(b"\n"):
        text += b"\n"  # the file's last line
    labels: list[tuple[str, ...]] = []
    linenos: list[int] = []
    matrices = []
    count = 0  # the lines before the block
    cut = 0  # where the block starts in the text
    while cut < len(text):
        # The block ends with the first line end at or after its
        # NUMBER_BLOCK_BYTES-th byte, or with the text.
        end = text.find(b"\n", cut + NUMBER_BLOCK_BYTES - 1) + 1
        if end == 0:
            end = len(text)
        block = text[cut:end]
        cut = end
        b = np.frombuffer(block, np.uint8)
        marks = np.flatnonzero(np.subtract(b, 48, dtype=np.uint8) > 9)  # the bytes not digits
        kinds = b.take(marks)
        line_ends = marks.compress(kinds == ord("\n"))
        rows = np.flatnonzero(np.diff(line_ends, prepend=-1) > 1)  # the lines holding a byte
        row_starts = np.append(-1, line_ends).take(rows) + 1
        row_ends = line_ends.take(rows)
        lines = (count + 1 + rows).tolist()
        count += len(line_ends)
        is_end = kinds == ord(delimiter)
        delims = marks.compress(is_end)
        last = np.searchsorted(delims, row_ends)  # the delimiters before each row's end
        found = np.diff(last, prepend=0) + 1  # each row's cells
        is_end[np.searchsorted(marks, row_ends)] = True  # a cell ends at a delimiter or row end
        # Rows holding a byte that is not ASCII or a quote, or of the wrong
        # width, are decoded whole, in order up to the first bad one. A row
        # holding a quote is split with csv rules, into split[row].
        whole = found != width
        odd = marks.compress((kinds >= 0x80) | (kinds == ord('"')))
        whole[np.searchsorted(row_ends, odd)] = True
        split = {}
        fault = None
        read = len(rows)  # the rows before the first bad one
        for k in np.flatnonzero(whole).tolist():
            try:
                line = decode_line(block[row_starts[k]:row_ends[k]], path, lines[k])
                cells = split_line(line, delimiter, path, lines[k]) if '"' in line else []
                for column, cell in enumerate(cells[index_cols:], start=index_cols + 1):
                    if delimiter in cell:
                        raise ParseError(f"non-numeric value {cell!r}", path=str(path),
                                         row=lines[k], column=column)
                seen = len(cells) if cells else int(found[k])
                if seen != width:
                    # The column is that of the first missing or surplus cell.
                    raise ParseError(f"expected {width} cells, found {seen}", path=str(path),
                                     row=lines[k], column=min(seen, width) + 1)
            except ParseError as exc:
                fault = exc  # raised once the rows before it are read
                read = k
                break
            if cells:
                split[k] = cells
        seps = delims.take(last[:read] - ncols).tolist()  # before each row's number cells
        for k, (lo, sep) in enumerate(zip(row_starts[:read].tolist(), seps)):
            cells = split[k] if k in split else block[lo:sep].decode().split(delimiter)
            labels.append(tuple(cell.strip() for cell in cells[:index_cols]))
        linenos += lines[:read]
        # Each row's number cells, counted among its cells and those before.
        # With index_cols >= 1 none starts its row, so each starts one byte
        # after the cell before it ends.
        cells = np.cumsum(found[:read])[:, np.newaxis] - ncols + np.arange(ncols)
        values = np.full(cells.shape, np.nan)
        if _EXACT_DECIMALS and read:
            stop = np.searchsorted(marks, row_ends[read - 1]) + 1  # no mark after the rows read
            values = _read_decimals(block, marks[:stop], is_end[:stop]).take(cells)
        rest = np.flatnonzero(np.isnan(values))  # the cells the kernel left
        cell_ends = marks.compress(is_end)
        ids = cells.ravel().take(rest)
        in_split = np.zeros(read, bool)
        in_split[list(split)] = True
        texts = {}  # the csv text of those in rows split with csv rules
        for k in np.flatnonzero(in_split.take(rest // ncols)).tolist():
            row, column = divmod(int(rest[k]), ncols)
            texts[k] = split[row][index_cols + column].encode()
        done, bad = _read_cells(block, delimiter, cell_ends.take(ids - 1) + 1,
                                cell_ends.take(ids), texts)
        if bad is not None:
            row, column = divmod(int(rest[len(done)]), ncols)
            raise ParseError(f"non-numeric value {bad.decode()!r}", path=str(path),
                             row=lines[row], column=index_cols + column + 1)
        values.flat[rest] = done
        if fault is not None:
            raise fault
        matrices.append(values)
    return labels, linenos, count, np.concatenate(matrices)


def _parse_share(grid, share: tuple[int, int]) -> Iterator:
    """``_parse_span`` of each span of about PARALLEL_BYTES of a share, in
    order, so that a share's text is never held whole."""
    for span in _spans(grid[4], *share, PARALLEL_BYTES):
        yield _parse_span(grid, span)


def _parse_grid(fd: int, size: int, path: Path, delimiter: str, index_cols: int,
                header_rows: int):
    """Parse the grid file of ``size`` bytes open as ``fd``, whose errors
    name ``path``: its header rows, row labels, matrix and each row's line.

    The header rows are the file's first lines, cut and decoded as body
    lines are, and each is split into cells with csv rules on its own. The
    body is cut at line starts into one contiguous share per process (see
    ``_processes``), each parsed in spans of about PARALLEL_BYTES by
    ``_forked``: forked workers inherit ``fd``. Each span's rows are joined
    in file order. A span that fails names its row within the span; every
    span before it is joined by then, so the row in the file is known. Text
    that is not UTF-8 and a row that repeats an earlier row's labels are
    ParseErrors naming their row; the values of a cell that is a number are
    left to the account's screen.
    """
    headers: list[list[str]] = []
    start = 0  # the first byte after the header rows
    while len(headers) < header_rows and (end := _line_start(fd, start + 1)) > start:
        row = len(headers) + 1
        line = decode_line(os.pread(fd, end - start, start).rstrip(b"\r\n"), path, row)
        headers.append(split_line(line, delimiter, path, row))
        start = end
    used = len(headers)  # lines before the first span
    if len(headers) < header_rows:
        raise ParseError("file has no data rows", path=str(path))
    if len(headers[-1]) <= index_cols:
        raise ParseError("file has no data columns", path=str(path), row=header_rows)
    width = len(headers[-1])
    labels: list[tuple[str, ...]] = []
    linenos: list[int] = []
    # Each span's rows are copied in as they come, into a matrix grown in
    # place (no view of it exists yet): parts joined at the end would leave
    # their pages to the C heap, which keeps them after they are freed.
    matrix = np.empty((0, width - index_cols))
    grid = (path, delimiter, index_cols, width, fd)
    shares = (_spans(fd, start, size, -(-(size - start) // _processes(size - start)))
              or [(start, size)])
    try:
        with _forked(partial(_parse_share, grid), shares, path) as parts:
            for part_labels, part_linenos, count, block in parts:
                labels.extend(part_labels)
                linenos.extend(used + lineno for lineno in part_linenos)
                used += count
                matrix.resize((len(labels), matrix.shape[1]), refcheck=False)
                matrix[len(labels) - len(block):] = block
    except ParseError as exc:
        raise ParseError(exc.message, path=exc.path, row=used + exc.row,
                         column=exc.column) from None
    _trim_heap()
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


def _hash_leaves(fd: int, leaves: tuple[int, int]) -> Iterator[bytes]:
    """The sha256 of each LEAF_BYTES leaf [first, stop) of the file open as
    ``fd``. A read cut short leaves a short leaf inside the file's size,
    which no whole read of any file gives, so its key can never serve a
    grid."""
    for k in range(*leaves):
        yield hashlib.sha256(os.pread(fd, LEAF_BYTES, k * LEAF_BYTES)).digest()


def _cache_key(fd: int, size: int, path: Path, base: Path, delimiter: str, index_cols: int,
               header_rows: int) -> str:
    """``<file>-<parse settings>/<content hash>``: one directory per grid,
    holding entries named by the file's content. ``<file>`` is ``path`` from
    ``base`` with "%" for each separator, so grids of the same name in
    different directories keep their own entries.

    The content hash is the sha256 of the file's ``size``, as 8 big-endian
    bytes, followed by the sha256 of each LEAF_BYTES leaf of the file ``fd``
    reads. The leaves are cut into one contiguous share per process (see
    ``_processes``) and hashed by ``_forked``: forked workers inherit ``fd``.
    """
    shares = _shares(-(-size // LEAF_BYTES), size)
    with _forked(partial(_hash_leaves, fd), shares, path) as leaves:
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
    reader never sees it half written, and a write that fails leaves the
    file as it was and no temporary file."""
    temporary = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with temporary.open("wb") as handle:
            write(handle)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _cache_store(entry: Path, matrix: np.ndarray, meta: dict) -> None:
    """Store an entry, a ``.npy`` matrix and a ``.json`` part, and delete
    every other file of its directory."""
    text = json.dumps(meta).encode("utf-8")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        # The matrix goes first: a readable .json means its .npy is whole.
        _replace(entry.with_suffix(".npy"), lambda h: np.save(h, matrix, allow_pickle=False))
        _replace(entry.with_suffix(".json"), lambda h: h.write(text))
        # Every other file is stale: another entry holds earlier contents of
        # the same files, or a factorization made under another identity, and
        # a temporary file is a dead writer's, or a live one's, whose move
        # into place then fails as in an unwritable cache.
        for old in entry.parent.iterdir():
            if old.name not in (f"{entry.name}.npy", f"{entry.name}.json"):
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
    The file is opened once, and hashed and parsed through that descriptor;
    if its size, mtime or ctime moved meanwhile, even where the parse
    failed, that is a ParseError and nothing is stored.
    """
    with reading(path), path.open("rb") as handle:
        fd = handle.fileno()
        before = os.fstat(fd)
        entry = cache_dir / _cache_key(fd, before.st_size, path, cache_dir.parent, delimiter,
                                       index_cols, header_rows)
        grid = cached = _grid_load(entry, index_cols, header_rows)
        try:
            if grid is None:
                grid = _parse_grid(fd, before.st_size, path, delimiter, index_cols, header_rows)
        finally:
            after = os.fstat(fd)
            if any(getattr(before, field) != getattr(after, field)
                   for field in ("st_size", "st_mtime_ns", "st_ctime_ns")):
                raise ParseError("the file changed while being read", path=str(path)) from None
    if cached is None:
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
    matrix and LAPACK's 1-based pivots under ``ipiv`` in its json part. The
    operator checks both before it solves on them."""

    path: Path

    def load(self) -> tuple[np.ndarray, np.ndarray] | None:
        cached = _cache_load(self.path)
        if cached is None:
            return None
        lu, meta = cached
        try:
            return lu, np.asarray(meta["ipiv"])
        except (LookupError, TypeError, ValueError):
            return None

    def store(self, lu: np.ndarray, ipiv: np.ndarray) -> None:
        _cache_store(self.path, lu, {"ipiv": ipiv.tolist()})


def factorization_entry(result: IngestResult, identity: str | None) -> FactorizationEntry | None:
    """Where the LU of the account's I - A is cached, for a factorization made
    under ``identity`` (the libraries and settings that fix its bits); None,
    as no LU is cached, when the identity is unknown.

    I - A is a function of the transaction grid and total output, so the
    entry is named by their parse-cache entries, whose names already hold
    the files' content hashes, and by ``identity``. Its directory is named
    by the two grids, so storing an entry replaces that of earlier contents
    or of another identity.
    """
    if identity is None:
        return None
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
    delim = _DELIMITERS[layout["delimiter"]]
    base_dir = Path(layout_path).parent
    files = layout["files"]
    cache_dir = base_dir / CACHE_DIR

    z_path = base_dir / files["transactions"]
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
    for k, warning in enumerate(layout["ingest_warnings"]):
        if (warning["region"], warning["sector"]) not in account_rows:
            raise ParseError(f"layout.ingest_warnings[{k}] names ({warning['region']}, "
                             f"{warning['sector']}), which is not a row of the account",
                             path=str(layout_path))

    y_path = base_dir / files["final_demand"]
    y_headers, y_labels, Y, y_lines, _ = _read_grid(y_path, cache_dir, delim, index_cols=2)
    _check_labels("final-demand rows do not match the transaction index", y_labels, labels,
                  y_path, linenos=y_lines)
    y_columns = tuple(_column_pairs(y_headers, 2, y_path))
    for k, column in enumerate(y_columns):
        if column in y_columns[:k]:
            raise ParseError(f"final-demand column {' / '.join(column)!r} is repeated",
                             path=str(y_path), row=2, column=k + 3)

    x_path = base_dir / files["total_output"]
    x_labels, x, x_lines, x_entry = _read_column(x_path, cache_dir, delim, index_cols=2)
    _check_labels("total-output rows do not match the transaction index", x_labels, labels,
                  x_path, linenos=x_lines)

    # By the ``array`` an account error carries, the file, row lines, index columns
    # and file values of a grid or direct use, or the layout entry of material flags.
    cells = {"Z": (z_path, z_lines, 2, Z), "Y": (y_path, y_lines, 2, Y),
             "x": (x_path, x_lines, 2, x)}
    layout_keys, extensions, bad_values = {}, {}, []
    try:
        for k, entry in enumerate(layout["extensions"]):
            name, workers_per_unit = entry["name"], entry["workers_per_unit"]
            ext_path = base_dir / entry["file"]
            ext_headers, ext_labels, rows, ext_lines, _ = _read_grid(ext_path, cache_dir, delim,
                                                                     index_cols=1)
            _check_labels("extension columns do not match the transaction index",
                          _column_pairs(ext_headers, 1, ext_path), labels, ext_path,
                          index_cols=1)
            cells[f"extension {name!r} rows"] = (ext_path, ext_lines, 1, rows)
            layout_keys[f"extension {name!r} material_flags"] = f"layout.extensions[{k}]"
            if workers_per_unit is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # the screen names it
                    rows = rows * (workers_per_unit * layout["hours_per_worker_year"])
                rows.flags.writeable = False
            direct = None
            if entry["direct_file"] is not None:
                direct_path = base_dir / entry["direct_file"]
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
                cells[f"extension {name!r} direct use"] = (direct_path, direct_lines, 1, values)
            try:
                extensions[name] = ExtensionAccount(
                    name=name, unit="hours" if workers_per_unit else entry["unit"],
                    stressors=tuple(label[0] for label in ext_labels), rows=rows,
                    direct=direct, kind=entry["kind"], material_flags=entry["material_flags"])
            except (NonFiniteEntry, NegativeEntry) as exc:  # named after every file's labels
                bad_values.append(exc)
        if bad_values:
            raise bad_values[0]
        account = MrioAccount(index=index, Z=Z, Y=Y, y_columns=y_columns, x=x,
                              year=layout["year"], extensions=extensions)
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
    return IngestResult(account=account, warnings=layout["ingest_warnings"],
                        system_entries=(z_entry, x_entry))


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _writer(handle, delimiter: str):
    return csv.writer(handle, delimiter=delimiter, lineterminator="\n")


@cache
def _number_layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The writer's tables, built on first use: for each g < 10**4, the word
    of its four digits, each followed by ".", and its count of trailing zeros
    (4 for 0); for each exponent x, |x| <= _POWER_RANGE, its word; and
    each layout's mask, six words, by key (sign * 22 + case) * 17 + digit
    count - 1. The case of an exponent x is x + 4 in %g's fixed form,
    -4 <= x < 17, and 21 in its e form."""
    quads = [f"{g:04d}" for g in range(10 ** 4)]
    quad_text = np.array([int.from_bytes(".".join(quad).encode() + b".", "little")
                          for quad in quads], np.uint64)
    quad_zeros = np.array([4 - len(quad.rstrip("0")) for quad in quads], np.uint8)
    exponent_text = []
    for x in range(-_POWER_RANGE, _POWER_RANGE + 1):
        text = f"e{x:+04d}".encode()
        hundreds = text[2:3] if abs(x) >= 100 else b"\0"
        exponent_text.append(int.from_bytes(text[:2] + hundreds + text[3:], "little"))
    digit = [6, *range(8, 40, 2)]  # where each digit stands
    masks = np.zeros((2 * 22 * 17, 8 * _TEXT_WORDS), np.uint8)
    for key, keep in enumerate(masks):
        negative, case, count = key // (22 * 17), key // 17 % 22, key % 17 + 1
        keep[0] = negative
        if case == 21:  # d.ddde-05
            keep[digit[:count]] = 1
            keep[7] = count > 1
            keep[40:45] = 1
        elif case >= 4:  # ddd.ddd, x + 1 digits before the point
            keep[digit[:max(count, case - 3)]] = 1
            keep[digit[case - 4] + 1] = count > case - 3
        else:  # 0.000ddd, -x - 1 zeros after the point
            keep[1:6 - case] = 1
            keep[digit[:count]] = 1
    tables = (quad_text, quad_zeros, np.array(exponent_text, np.uint64),
              (masks * 0xFF).view(np.uint64))
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _number_text(block: np.ndarray, delimiter: str) -> np.ndarray:
    """The cells of the matrix ``block`` as "%.17g" formats them, each
    followed by the delimiter, or by LF at the end of a row: _TEXT_WORDS
    words a cell, row-major, from which NUL bytes are to be deleted.

    Where _EXACT_DECIMALS holds, a kernel writes each finite nonzero v. It
    takes an exponent x = floor(log10|v|) and forms P = |v| * 10**(16 - x) in
    the long double with the reader's _POWERS_OF_TEN, moving x by one where
    this unrounded P lies outside [10**16, 10**17). |v| is exact there, the
    rounded power of ten moves P by less than one unit in its last place
    (ulp), and the product rounds by at most half an ulp, so P is within 1.5
    ulps of the exact value, less than D * 2**-62 for D = rint(P). Where D lies
    strictly between 10**16 and 10**17 and no half-integer is that close to
    P, D is the exact value rounded to an integer: its 17 digits and x are
    those "%.17g" writes. A table turns D's digits into text four at a time,
    and a mask keyed by sign, case and digit count keeps the bytes of %g's
    fixed or e form, trailing zeros dropped. The other cells (about 2% of a
    fixture's: near a half-integer or a power of ten), ±0, non-finite values
    and every cell where long double is not x87 go to format_number, as
    Grisu3 leaves the cases it cannot certify to a slower exact method
    (Loitsch, PLDI 2010).
    """
    values = block.ravel()
    text = np.zeros((len(values), _TEXT_WORDS), np.uint64)
    magnitude = np.abs(values)
    kernel = (magnitude > 0) & (magnitude < np.inf) & _EXACT_DECIMALS
    if _EXACT_DECIMALS:
        quad_text, quad_zeros, exponent_text, masks = _number_layouts()
        magnitude[~kernel] = 1.0  # no log10 of 0 or cast of inf or nan
        x = np.floor(np.log10(magnitude)).astype(np.intp)
        wide = magnitude.astype(np.longdouble)
        p = wide * _POWERS_OF_TEN.take(_POWER_RANGE + 16 - x)
        off = (p >= 1e17).view(np.int8) - (p < 1e16).view(np.int8)
        moved = np.flatnonzero(off)
        x[moved] += off[moved]
        p[moved] = wide[moved] * _POWERS_OF_TEN.take(_POWER_RANGE + 16 - x[moved])
        rounded = np.rint(p)
        d = rounded.astype(np.uint64)
        distance = np.abs((p - rounded).astype(np.float64))
        kernel &= (distance < 0.5 - d * 2.0 ** -62) & (d > 10 ** 16) & (d < 10 ** 17)
        head, low = np.divmod(d, 10 ** 8)
        first, high = np.divmod(head, 10 ** 8)
        text[:, 0] = first << 48 | _LEAD
        quads = [*np.divmod(high.astype(np.intp), 10 ** 4),
                 *np.divmod(low.astype(np.intp), 10 ** 4)]
        for k, quad in enumerate(quads, 1):
            text[:, k] = quad_text.take(quad)
        # The last group's trailing zeros, and each earlier group's while
        # every group after it is zero.
        zeros = quad_zeros.take(quads[3])
        for count, quad in zip((4, 8, 12), quads[2::-1]):
            zeros += (zeros == count) * quad_zeros.take(quad)
        case = np.where((x >= -4) & (x <= 16), x + 4, 21)
        text[:, 5] = exponent_text.take(_POWER_RANGE + x)
        text &= masks.take((22 * (values < 0) + case) * 17 + 16 - zeros, axis=0)
    slow = np.flatnonzero(~kernel)
    if len(slow):
        cells = (format_number(value).encode().ljust(8 * _TEXT_WORDS, b"\0")
                 for value in values.take(slow).tolist())
        text[slow] = np.frombuffer(b"".join(cells), np.uint64).reshape(-1, _TEXT_WORDS)
    ends = text[:, -1].reshape(block.shape)
    ends |= ord(delimiter) << 56
    ends[:, -1:] ^= (ord(delimiter) ^ ord("\n")) << 56
    return text


def _format_rows(grid, rows: tuple[int, int]) -> bytes:
    """The text of rows [start, stop) of ``grid``, (delimiter, labels,
    matrix): each row's labels through csv, then its numbers as
    ``_number_text`` writes them."""
    delimiter, labels, matrix = grid
    start, stop = rows
    # The trailing empty cell leaves the labels' quoting as in a full row.
    prefixes = io.StringIO()
    _writer(prefixes, delimiter).writerows([*label, ""] for label in labels[start:stop])
    numbers = _number_text(matrix[start:stop], delimiter).tobytes()
    width = 8 * _TEXT_WORDS * matrix.shape[1]
    lines = []
    for k, prefix in enumerate(prefixes.getvalue().encode().split(b"\n")[:-1]):
        # A row of no numbers ends after its labels.
        lines += [prefix, numbers[k * width:(k + 1) * width].translate(None, b"\0") or b"\n"]
    return b"".join(lines)


def _write_rows(grid, rows: tuple[int, int]) -> Iterator[bytes]:
    """The text of rows [start, stop) of ``grid``, in blocks of rows of
    about NUMBER_BLOCK_BYTES of text, at most 24 bytes a number."""
    step = max(1, NUMBER_BLOCK_BYTES // (24 * max(1, grid[2].shape[1])))
    for first in range(*rows, step):
        yield _format_rows(grid, (first, min(first + step, rows[1])))


def _write_grid(path: Path, delimiter: str, headers: list[list[str]],
                labels: list[tuple[str, ...]], matrix: np.ndarray) -> None:
    """Write a grid whose rows are cut into one contiguous share per process
    (see ``_processes``), each written in blocks by ``_forked``, in order.
    The grid is written under a temporary name and moved into place
    (``_replace``), so a failed write leaves the file it would have replaced
    as it was."""
    grid = (delimiter, labels, matrix)
    shares = _shares(len(matrix), matrix.nbytes)
    header = io.StringIO()
    _writer(header, delimiter).writerows(headers)

    def write(handle) -> None:
        with _forked(partial(_write_rows, grid), shares, path) as blocks:
            handle.write(header.getvalue().encode("utf-8"))
            handle.writelines(blocks)
    _replace(path, write)


def _column_headers(corner: list[str], columns: list[tuple[str, str]]) -> list[list[str]]:
    """A grid's two header rows: the columns' regions, then ``corner`` and their second labels."""
    return [[""] * len(corner) + [first for first, _ in columns],
            corner + [second for _, second in columns]]


def write_account(account: MrioAccount, out_dir: str | Path,
                  delimiter_name: str = "tab") -> Path:
    """Emit an account as an ingestible file set; returns the layout path.

    Values are written post-conversion (labour already in hours), so
    re-ingesting reproduces the account matrices exactly. A label that holds
    a line break, which no grid line can carry, or that starts or ends with
    whitespace, which ingest strips, is a ValueError raised before any file
    is written.
    """
    index = account.index
    columns = [label for column in account.y_columns for label in column]
    stressors = [label for ext in account.extensions.values() for label in ext.stressors]
    for label in (*index.regions, *index.sectors, *columns, *stressors):
        if "\n" in label or "\r" in label:
            raise ValueError(f"label {label!r} holds a line break, which a grid file "
                             "cannot carry")
        if label != label.strip():
            raise ValueError(f"label {label!r} starts or ends with whitespace, which "
                             "ingest strips")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    delim = _DELIMITERS[delimiter_name]
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

