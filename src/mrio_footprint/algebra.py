"""Numerical kernels for demand-driven input-output analysis.

The quantity model used throughout the package:

    A = Z @ diag(x)^-1        input shares per unit of output
    (I - A) @ q = y           gross output q required for final demand y
    s = e / x                 impact intensity per unit of output
    footprint = s @ q         total impact embodied in y

All kernels are pure functions of immutable inputs and may be called
concurrently. Solves go through one reusable LU factorization of (I - A);
the explicit inverse is never built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .errors import DimensionMismatch, NegativeEntry, UnproductiveEconomy

# Output below this level (in output units) marks a sector as inactive; its
# coefficient column and intensities are zeroed instead of dividing by ~0.
ZERO_OUTPUT_EPS = 1e-9

# Residual tolerance for accepting a Leontief solve: ||q - A q - y||_inf
# relative to max(1, ||y||_inf).
SOLVE_RESIDUAL_RTOL = 1e-10

# An economy is certified productive when (I - A) q = 1 solves with
# max(q) < 1 / PRODUCTIVITY_MARGIN, i.e. a spectral radius bound below
# 1 - PRODUCTIVITY_MARGIN.
PRODUCTIVITY_MARGIN = 1e-6


def _as_square(matrix: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def _as_vector(values: np.ndarray, dim: int, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.shape[0] != dim:
        raise DimensionMismatch(f"{name} must be a vector of length {dim}, got shape {v.shape}")
    return v


def technical_coefficients(Z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unitless input shares A = Z @ diag(x)^-1, A[i, j] = Z[i, j] / x[j].

    Columns of inactive sectors (output <= ZERO_OUTPUT_EPS) are all-zero.
    """
    Zm = _as_square(Z, "Z")
    n = Zm.shape[0]
    xv = _as_vector(x, n, "x")
    if np.any(Zm < 0):
        i, j = np.argwhere(Zm < 0)[0]
        raise NegativeEntry(f"Z[{i}][{j}] = {Zm[i, j]} is negative")
    if np.any(xv < 0):
        i = int(np.argmin(xv))
        raise NegativeEntry(f"x[{i}] = {xv[i]} is negative")

    active = xv > ZERO_OUTPUT_EPS
    scale = np.zeros(n)
    scale[active] = 1.0 / xv[active]
    return Zm * scale[np.newaxis, :]


@dataclass(frozen=True)
class ProductivityEstimate:
    """Certified upper bound on the spectral radius of a nonnegative A.

    ``spectral_radius`` is None when (I - A) q = 1 has no solution with
    q >= 1, which for nonnegative A means the spectral radius is >= 1.
    """

    spectral_radius: float | None

    @property
    def productive(self) -> bool:
        return (self.spectral_radius is not None
                and self.spectral_radius < 1.0 - PRODUCTIVITY_MARGIN)


def productivity_check(A: np.ndarray) -> ProductivityEstimate:
    """Certify rho(A) < 1 for a nonnegative A with one Leontief solve.

    rho(A) < 1 exactly when (I - A) q = 1 has a solution q >= 1, and then
    rho(A) <= 1 - 1/max(q) (Collatz-Wielandt). The solve is the pipeline's
    own ``factorize(A).apply``, so its residual and output-covers-demand
    checks decide the unproductive case.
    """
    operator = factorize(A)
    try:
        q = operator.apply(np.ones(operator.dim))
    except UnproductiveEconomy:
        return ProductivityEstimate(None)
    return ProductivityEstimate(1.0 - 1.0 / float(np.max(q, initial=1.0)))


class LeontiefOperator:
    """Reusable LU factorization of (I - A).

    ``apply`` solves for gross output, ``multipliers`` for footprints per
    unit of final demand; both verify their results against the defining
    system. Instances are immutable after construction and safe to share.
    """

    def __init__(self, A: np.ndarray):
        self._A = _as_square(A, "A")
        self.dim = self._A.shape[0]
        self._lu = _quiet_lu_factor(np.eye(self.dim) - self._A)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Solve (I - A) q = y and return q, with a residual check."""
        yv = _as_vector(y, self.dim, "y")
        with np.errstate(all="ignore"):
            q = lu_solve(self._lu, yv)
        _check_solution(self._A, q, yv)
        return q

    def multipliers(self, S: np.ndarray) -> np.ndarray:
        """Multipliers M = S (I - A)^-1 of one intensity row or a block of them.

        M[k, j] is the impact of row k embodied in one unit of final demand
        for region-sector j, so ``m @ y`` equals ``s @ apply(y)`` for any demand y.
        One transposed solve covers every row, with a residual check per row.
        """
        rows = np.asarray(S, dtype=float)
        if rows.ndim not in (1, 2) or rows.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"intensity rows must have {self.dim} columns, got shape {rows.shape}")
        with np.errstate(all="ignore"):
            transposed = lu_solve(self._lu, rows.T, trans=1)
        # M (I - A) = S is (I - A)^T M^T = S^T: the same check on the transpose.
        _check_solution(self._A.T, transposed, rows.T)
        return np.ascontiguousarray(transposed.T)


def _check_solution(A: np.ndarray, q: np.ndarray, y: np.ndarray) -> None:
    """Accept q as the solution of (I - A) q = y, per column if y is a block."""
    with np.errstate(all="ignore"):
        scale = np.maximum(1.0, np.max(np.abs(y), axis=0, initial=0.0))
        worst = np.max(np.abs(q - A @ q - y), axis=0, initial=0.0)
    if not np.all(worst <= SOLVE_RESIDUAL_RTOL * scale):
        raise UnproductiveEconomy(
            f"Leontief solve failed the residual check (|r| = {np.max(worst):.3e}); "
            "the coefficient matrix is singular or has spectral radius >= 1"
        )
    # Gross output must cover final demand; a shortfall on nonnegative demand
    # is the signature of an unproductive economy even when the system solves.
    if (y.size and np.min(y) >= 0.0
            and np.any(np.min(q - y, axis=0) < -SOLVE_RESIDUAL_RTOL * scale)):
        raise UnproductiveEconomy(
            "gross output falls below final demand; spectral radius >= 1"
        )


def _quiet_lu_factor(system: np.ndarray):
    # Singular systems surface as UnproductiveEconomy via the residual
    # checks; scipy's warning would just be noise before that.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", LinAlgWarning)
        return lu_factor(system, check_finite=False)


def factorize(A: np.ndarray) -> LeontiefOperator:
    """LU-factorize (I - A) for repeated solves."""
    return LeontiefOperator(A)


def leontief_solve(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-shot solve of (I - A) q = y.

    Callers with several demand vectors should hold on to ``factorize(A)``
    and call ``apply`` instead of re-factorizing per solve.
    """
    return factorize(A).apply(y)


def intensity(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-unit-of-output impact s = e / x, zero where output is zero."""
    ev = np.asarray(e, dtype=float)
    xv = np.asarray(x, dtype=float)
    if ev.shape != xv.shape or ev.ndim != 1:
        raise DimensionMismatch(
            f"extension row shape {ev.shape} does not match output shape {xv.shape}"
        )
    active = xv > ZERO_OUTPUT_EPS
    values = np.zeros_like(ev)
    values[active] = ev[active] / xv[active]
    return values


def footprint_total(s: np.ndarray, q: np.ndarray) -> float:
    """Total impact s . q embodied in the output vector q."""
    sv = np.asarray(s, dtype=float)
    qv = np.asarray(q, dtype=float)
    if sv.shape != qv.shape:
        raise DimensionMismatch(f"intensity shape {sv.shape} != output shape {qv.shape}")
    return float(sv @ qv)


def footprint_by_source(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per producing region-sector contributions s[j] * q[j]."""
    sv = np.asarray(s, dtype=float)
    qv = np.asarray(q, dtype=float)
    if sv.shape != qv.shape:
        raise DimensionMismatch(f"intensity shape {sv.shape} != output shape {qv.shape}")
    return sv * qv
