"""Independent oracles used to freeze expected values.

These deliberately avoid the library's solve path: the power series
sum_k A^k y converges to the Leontief solution for any productive A, so it
checks the LU-based solver against nothing but matrix multiplication. The
explicit coefficient matrix A and the summed stressor row, which the
pipeline never forms, are built here for the tests that compare against
them, with the operator and one-shot solve of an A given in code. The
account writer's grid rows are checked against the formatter it replaced,
which wrote every number through one Python "%.17g" template per row.
``exact_solve`` solves in rational arithmetic, so a float result can be
measured in ulps from the exact answer to the problem as posed in floats.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

from mrio_footprint.algebra import ZERO_OUTPUT_EPS, LeontiefOperator
from mrio_footprint.errors import DimensionMismatch, NegativeEntry

# Calendar weeks in an average year, which annualise average weekly hours.
WEEKS_PER_YEAR = 365.25 / 7  # ~52.18


def technical_coefficients(Z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unitless input shares A = Z @ diag(x)^-1, A[i, j] = Z[i, j] / x[j].

    Columns of inactive sectors (output <= ZERO_OUTPUT_EPS) are all-zero.
    """
    Z, x = np.asarray(Z, dtype=float), np.asarray(x, dtype=float)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or x.shape != (Z.shape[0],):
        raise DimensionMismatch(f"Z of shape {Z.shape} and x of shape {x.shape}")
    if np.any(Z < 0):
        i, j = np.argwhere(Z < 0)[0]
        raise NegativeEntry(f"Z[{i}][{j}] = {Z[i, j]} is negative")
    if np.any(x < 0):
        raise NegativeEntry("x has a negative entry")
    active = x > ZERO_OUTPUT_EPS
    scale = np.zeros_like(x)
    scale[active] = 1.0 / x[active]
    return Z * scale[np.newaxis, :]


def operator(A: np.ndarray) -> LeontiefOperator:
    """The Leontief operator of an A given in code: with unit output, Z is A."""
    return LeontiefOperator(A, np.ones(len(A)))


def leontief_solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-shot solve of (I - A) q = y."""
    return operator(A).apply(y)


def total_row(extension) -> np.ndarray:
    """An extension's stressor rows summed into one row."""
    return extension.rows.sum(axis=0)


def exact_solve(A, y) -> list[list[Fraction]]:
    """The exact solution Q of (I - A) Q = y, by Gauss-Jordan elimination
    over ``Fraction``. ``A`` is n x n and ``y`` n x k; their entries are
    anything ``Fraction`` takes, floats exactly. Returns Q's n rows."""
    n = len(A)
    rows = [[int(i == j) - Fraction(a) for j, a in enumerate(row)]
            + [Fraction(v) for v in demand] for i, (row, demand) in enumerate(zip(A, y))]
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[pivot] = rows[pivot], rows[j]
        head = rows[j][j]
        rows[j] = [v / head for v in rows[j]]
        for i in range(n):
            if i != j and rows[i][j] != 0:
                factor = rows[i][j]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[j])]
    return [row[n:] for row in rows]


def power_series_solve(A: np.ndarray, y: np.ndarray, col_bound: float = 0.7,
                       tol: float = 1e-9) -> np.ndarray:
    """Truncated Neumann series sum_{k<=K} A^k y with K chosen so
    col_bound**K < tol (column sums bound the spectral radius)."""
    K = math.ceil(math.log(tol) / math.log(col_bound))
    total = y.astype(float).copy()
    term = y.astype(float).copy()
    for _ in range(K):
        term = A @ term
        total += term
    return total


def random_productive_matrix(rng: np.random.Generator, n: int,
                             max_col_sum: float = 0.6) -> np.ndarray:
    """Nonnegative matrix with column sums scaled to at most max_col_sum."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    targets = rng.uniform(0.1, max_col_sum, size=n)
    return A * (targets / A.sum(axis=0))


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = float(np.max(np.abs(expected)))
    if scale == 0.0:
        return float(np.max(np.abs(actual)))
    return float(np.max(np.abs(actual - expected))) / scale


def format_rows(grid, rows: tuple[int, int]) -> str:
    """The text of rows [start, stop) of ``grid``, (delimiter, labels, matrix)."""
    delimiter, labels, matrix = grid
    start, stop = rows
    # One "%.17g" template per row formats as format_number does; the labels
    # go through csv (the trailing empty cell leaves their quoting as in a
    # full row).
    template = delimiter.join(["%.17g"] * matrix.shape[1]) + "\n"
    prefix = io.StringIO()
    label_writer = csv.writer(prefix, delimiter=delimiter, lineterminator="\n")
    text = []
    for label, row in zip(labels[start:stop], matrix[start:stop]):
        prefix.seek(0)
        prefix.truncate()
        label_writer.writerow([*label, ""])
        text.append(prefix.getvalue()[:-1] + template % tuple(row.tolist()))
    return "".join(text)
