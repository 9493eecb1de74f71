"""Independent oracles used to freeze expected values.

These deliberately avoid the library's solve path: the power series
sum_k A^k y converges to the Leontief solution for any productive A, so it
checks the LU-based solver against nothing but matrix multiplication. The
explicit coefficient matrix A and the summed stressor row, which the
pipeline never forms, are built here for the tests that compare against
them, with the operator and one-shot solve of an A given in code.
"""

from __future__ import annotations

import math

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
