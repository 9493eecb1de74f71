"""Numerical kernels for demand-driven input-output analysis.

The quantity model used throughout the package:

    A = Z @ diag(x)^-1        input shares per unit of output
    (I - A) @ q = y           gross output q required for final demand y
    s = e / x                 impact intensity per unit of output
    footprint = s @ q         total impact embodied in y

The kernels do not modify their inputs. Solves go through one reusable LU
factorization of (I - A), built from Z and x without forming A; the explicit
inverse is never built. The LU and its solves are LAPACK's dgetrf and dgetrs,
called through the compiled wrappers that scipy.linalg.lu_factor and lu_solve
call, loaded without the scipy.linalg package. A LeontiefOperator without a
store keeps its LU unchanged after construction. One with a store solves on
the saved LU as the store gives it, a read-only mapped file included, and may
replace it by a fresh factorization and write the store inside a solve, so
concurrent callers must not share it unlocked.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np
import scipy

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


def _load_flapack():
    """scipy's compiled LAPACK module, without running scipy.linalg's package
    init, which costs more than numpy's own import. ``import scipy`` alone has
    put scipy's OpenBLAS where the loader finds it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        raise ImportError(f"{name} not found in the scipy at {scipy.__path__[0]}")
    module = importlib.util.module_from_spec(spec)
    # Registered, so a later scipy.linalg import shares this module.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


def lu_factor(a: np.ndarray, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(lu, piv) of a float64 matrix by LAPACK dgetrf, bit for bit what
    ``scipy.linalg.lu_factor`` returns: L and U in one Fortran-ordered array,
    and 0-based pivots. ``a`` is overwritten only when it is Fortran-ordered
    float64 and ``overwrite_a`` is set. An exactly singular matrix gives a zero
    on U's diagonal and no error; the solves' checks decide about it."""
    if np.size(a) == 0:  # LAPACK rejects an empty matrix, scipy does not
        return np.empty(np.shape(a), order="F"), np.empty(0, dtype=np.int32)
    lu, piv, info = _flapack.dgetrf(a, overwrite_a=overwrite_a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrf")
    return lu, piv


def lu_solve(lu_and_piv: tuple[np.ndarray, np.ndarray], b: np.ndarray,
             trans: int = 0) -> np.ndarray:
    """Solve a x = b (``trans`` 0) or a^T x = b (``trans`` 1) for a vector or
    a block b, given ``lu_factor(a)``, by LAPACK dgetrs, bit for bit as
    ``scipy.linalg.lu_solve``."""
    if np.size(b) == 0:
        return np.empty(np.shape(b))
    lu, piv = lu_and_piv
    x, info = _flapack.dgetrs(lu, piv, b, trans=trans)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK dgetrs")
    return x


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


def _column_scale(x: np.ndarray, n: int) -> np.ndarray:
    """1 / x[j] per column of Z, zero for inactive sectors (output <= ZERO_OUTPUT_EPS)."""
    xv = _as_vector(x, n, "x")
    if np.any(xv < 0):
        i = int(np.argmin(xv))
        raise NegativeEntry(f"x[{i}] = {xv[i]} is negative")
    active = xv > ZERO_OUTPUT_EPS
    scale = np.zeros(n)
    scale[active] = 1.0 / xv[active]
    return scale


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


def productivity_check(operator: LeontiefOperator) -> ProductivityEstimate:
    """Certify rho(A) < 1 for a nonnegative A with one Leontief solve.

    rho(A) < 1 exactly when (I - A) q = 1 has a solution q >= 1, and then
    rho(A) <= 1 - 1/max(q) (Collatz-Wielandt). The solve is the pipeline's
    own ``operator.apply``, so its residual and output-covers-demand checks
    decide the unproductive case.
    """
    try:
        q = operator.apply(np.ones(operator.dim))
    except UnproductiveEconomy:
        return ProductivityEstimate(None)
    return ProductivityEstimate(1.0 - 1.0 / float(np.max(q, initial=1.0)))


class LeontiefOperator:
    """Reusable LU factorization of I - A, for A = Z @ diag(x)^-1.

    The operator keeps Z and the column scale 1/x, never A itself: I - A is
    built in the buffer that becomes its LU. ``apply`` solves for gross
    output, ``multipliers`` for footprints per unit of final demand; both
    verify their results against the defining system.

    ``store``, when given, has ``load()``, returning a saved ``(lu, piv)``
    pair or None, and ``store(lu, piv)``. A saved factorization is used when
    it has the right shape, and it is trusted only through the checks: the
    first check it fails replaces it by a factorization of Z and x, and the
    solve is made again. So a damaged store costs one factorization and
    never changes a verdict. A factorization made here is saved once a
    solve with it has passed its check.
    """

    def __init__(self, Z: np.ndarray, x: np.ndarray, store=None):
        self._Z = _as_square(Z, "Z")
        self.dim = self._Z.shape[0]
        self._scale = _column_scale(x, self.dim)
        self._store = store
        saved = None if store is None else store.load()
        self._saved = saved is not None and _fits(*saved, self.dim)
        self._lu = saved if self._saved else self._factorize()
        self._unstored = store is not None and not self._saved

    def _factorize(self):
        # I - A in one Fortran-ordered buffer, which lu_factor then overwrites
        # in place. 0.0 - a keeps the +0.0 entries of np.eye(n) - A, so the LU
        # is bit-identical to that of the explicit difference.
        system = np.multiply(self._Z, self._scale, out=np.empty_like(self._Z, order="F"))
        np.subtract(0.0, system, out=system)
        diagonal = np.arange(self.dim)
        system[diagonal, diagonal] += 1.0
        # Singular systems surface as UnproductiveEconomy via the residual checks.
        return lu_factor(system, overwrite_a=True)

    def _solve(self, rhs: np.ndarray, trans: int, check) -> np.ndarray:
        """lu_solve, accepted by ``check``; a saved LU that fails is replaced once."""
        while True:
            try:
                with np.errstate(all="ignore"):
                    solution = lu_solve(self._lu, rhs, trans=trans)
                    check(solution)
                break
            except UnproductiveEconomy:
                if not self._saved:
                    raise
                self._saved, self._unstored = False, True
                self._lu = self._factorize()
        if self._unstored:
            self._store.store(*self._lu)
            self._unstored = False
        return solution

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Solve (I - A) q = y for one demand vector, or for an n x k block of
        them in one solve, with a residual check per column."""
        yv = np.asarray(y, dtype=float)
        if yv.ndim not in (1, 2) or yv.shape[0] != self.dim:
            raise DimensionMismatch(
                f"demand must have {self.dim} rows, got shape {yv.shape}")
        # A q = Z (q / x), column by column.
        return self._solve(
            yv, 0, lambda q: _check_solution(q, self._Z @ (self._scale * q.T).T, yv))

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
        # M (I - A) = S is (I - A)^T M^T = S^T: the same check on the
        # transpose, with A^T M^T = diag(1/x) Z^T M^T = (M Z diag(1/x))^T.
        transposed = self._solve(
            rows.T, 1,
            lambda mt: _check_solution(mt, ((mt.T @ self._Z) * self._scale).T, rows.T))
        return np.ascontiguousarray(transposed.T)


def _fits(lu, piv: np.ndarray, n: int) -> bool:
    """Whether a saved (lu, piv) pair has the shapes and types of an n x n LU."""
    return bool(isinstance(lu, np.ndarray) and lu.dtype == np.float64
                and lu.shape == (n, n) and piv.shape == (n,)
                and np.all((piv >= 0) & (piv < n)))


def _check_solution(q: np.ndarray, Aq: np.ndarray, y: np.ndarray) -> None:
    """Accept q as the solution of (I - A) q = y, given A q; per column if y
    is a block."""
    scale = np.maximum(1.0, np.max(np.abs(y), axis=0, initial=0.0))
    worst = np.max(np.abs(q - Aq - y), axis=0, initial=0.0)
    if not np.all(worst <= SOLVE_RESIDUAL_RTOL * scale):
        raise UnproductiveEconomy(
            f"Leontief solve failed the residual check (|r| = {np.max(worst):.3e}); "
            "the coefficient matrix is singular or has spectral radius >= 1"
        )
    # Gross output must cover final demand; a shortfall on a nonnegative
    # demand column is the signature of an unproductive economy even when
    # the system solves.
    nonnegative = np.min(y, axis=0, initial=np.inf) >= 0.0
    short = np.min(q - y, axis=0, initial=np.inf) < -SOLVE_RESIDUAL_RTOL * scale
    if np.any(nonnegative & short):
        raise UnproductiveEconomy(
            "gross output falls below final demand; spectral radius >= 1"
        )


def factorize(A: np.ndarray) -> LeontiefOperator:
    """LU-factorize (I - A) for repeated solves."""
    # With x = 1 the column scale is 1, and Z * 1.0 is A bit for bit.
    Am = _as_square(A, "A")
    return LeontiefOperator(Am, np.ones(Am.shape[0]))


def factorization_identity() -> str | None:
    """What fixes the bits of an LU besides the matrix: the numpy and scipy
    versions, and the build, CPU core and thread count of the OpenBLAS that
    scipy's LAPACK calls. None when that BLAS cannot be identified."""
    try:
        # Symbol lookup in scipy's LAPACK module also searches the OpenBLAS
        # it is linked against.
        openblas = ctypes.CDLL(_flapack.__file__)
        config, core, threads = (getattr(openblas, f"scipy_openblas_{name}")
                                 for name in ("get_config", "get_corename", "get_num_threads"))
    except (OSError, AttributeError):
        return None
    for function, restype in ((config, ctypes.c_char_p), (core, ctypes.c_char_p),
                              (threads, ctypes.c_int)):
        function.argtypes, function.restype = [], restype
    return (f"numpy {np.__version__}; scipy {scipy.__version__}; "
            f"{config().decode('ascii', 'replace')}; "
            f"core {core().decode('ascii', 'replace')}; threads {threads()}")


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
