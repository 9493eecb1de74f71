"""Numerical kernels for demand-driven input-output analysis.

The quantity model used throughout the package:

    A = Z @ diag(x)^-1        input shares per unit of output
    (I - A) @ q = y           gross output q required for final demand y
    s = e / x                 impact intensity per unit of output
    footprint = s @ q         total impact embodied in y

The kernels do not modify their inputs. Solves go through one reusable LU
factorization of (I - A), built from Z and x without forming A; the explicit
inverse is never built. The LU and its solves are LAPACK's dgetrf and dgetrs,
called through ``ctypes`` in the OpenBLAS that numpy's own matrix products
run in, so a process loads one BLAS. LeontiefOperator makes the only calls:
dgetrf in ``_factorize`` and dgetrs in ``_solve``. A LeontiefOperator without a
store keeps its LU unchanged after construction. One with a store solves on
the saved LU as the store gives it, a read-only mapped file included, and may
replace it by a fresh factorization and write the store inside a solve, so
concurrent callers must not share it unlocked.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
from numpy._core import _multiarray_umath

from .errors import DimensionMismatch, NegativeEntry, UnproductiveEconomy

# Output below this level (in output units) marks a sector as inactive; its
# coefficient column and intensities are zeroed instead of dividing by ~0.
ZERO_OUTPUT_EPS = 1e-9

# Residual tolerance for accepting a Leontief solve: ||q - A q - y||_inf
# relative to max(1, ||y||_inf).
SOLVE_RESIDUAL_RTOL = 1e-10

# An economy is certified productive when w = 1^T (I - A)^-1 solves with
# max(w) < 1 / PRODUCTIVITY_MARGIN, i.e. a spectral radius bound below
# 1 - PRODUCTIVITY_MARGIN.
PRODUCTIVITY_MARGIN = 1e-6


def _load_lapack():
    """numpy's core module as a library, and the ``dgetrf``/``dgetrs`` that
    symbol lookup in it finds, with their LAPACK integer type. Lookup in a
    loaded library also searches the libraries it is linked against, so this
    reaches the OpenBLAS that runs numpy's own products: scipy-openblas
    builds export ``scipy_dgetrf_64_``, other ILP64 builds ``dgetrf_64_`` and
    LP64 builds ``dgetrf_``."""
    path = _multiarray_umath.__file__
    library = ctypes.CDLL(path)
    for prefix, suffix, integer in (("scipy_", "_64_", ctypes.c_int64),
                                    ("", "_64_", ctypes.c_int64), ("", "_", ctypes.c_int32)):
        try:
            getrf, getrs = (getattr(library, f"{prefix}dgetr{kind}{suffix}") for kind in "fs")
        except AttributeError:
            continue
        pointer = ctypes.POINTER(integer)
        # dgetrf(m, n, a, lda, ipiv, info)
        getrf.argtypes = [pointer, pointer, ctypes.c_void_p, pointer, ctypes.c_void_p, pointer]
        # dgetrs(trans, n, nrhs, a, lda, ipiv, b, ldb, info, length of trans)
        getrs.argtypes = [ctypes.c_char_p, pointer, pointer, ctypes.c_void_p, pointer,
                          ctypes.c_void_p, ctypes.c_void_p, pointer, pointer, ctypes.c_size_t]
        getrf.restype = getrs.restype = None
        return library, getrf, getrs, integer
    raise ImportError(f"no LAPACK dgetrf/dgetrs found through numpy's core module {path}")


_openblas, _getrf, _getrs, _lapack_int = _load_lapack()
_LAPACK_INT = np.dtype(_lapack_int)


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
    """1 / x[j] per column of Z: the intensity of a row of ones, zero for inactive sectors."""
    xv = _as_vector(x, n, "x")
    if np.any(xv < 0):
        i = int(np.argmin(xv))
        raise NegativeEntry(f"x[{i}] = {xv[i]} is negative")
    return intensity(np.ones(n), xv)


@dataclass(frozen=True)
class ProductivityEstimate:
    """Certified upper bound on the spectral radius of a nonnegative A.

    w = 1^T (I - A)^-1, the multipliers of a row of ones, has w >= 1 exactly
    when rho(A) < 1, and then rho(A) <= 1 - 1/max(w) (Collatz-Wielandt on
    A^T; Berman & Plemmons, ch. 6). ``multipliers`` checks w >= 1, so for an
    unproductive A it raises UnproductiveEconomy; ``spectral_radius`` None
    records that.
    """

    spectral_radius: float | None

    @property
    def productive(self) -> bool:
        return (self.spectral_radius is not None
                and self.spectral_radius < 1.0 - PRODUCTIVITY_MARGIN)


class LeontiefOperator:
    """Reusable LU factorization of I - A, for A = Z @ diag(x)^-1.

    The operator keeps Z and the column scale 1/x, never A itself: I - A is
    built in the buffer that LAPACK dgetrf, in ``_factorize``, overwrites
    with its LU. ``apply`` solves for gross output, ``multipliers`` for
    footprints per unit of final demand, each by one dgetrs in ``_solve``;
    both verify their results against the defining system.

    ``store``, when given, has ``load()``, returning a saved ``(lu, ipiv)``
    pair or None, and ``store(lu, ipiv)``; ``ipiv`` holds dgetrf's 1-based
    pivots. A saved factorization is used when it passes ``_fits``, and it is
    trusted only through the checks: the first check it fails replaces it
    by a factorization of Z and x, and the solve is made again. So a
    damaged store costs one factorization and never changes a verdict. A
    factorization made here is saved once a solve with it has passed its check.
    """

    def __init__(self, Z: np.ndarray, x: np.ndarray, store=None):
        self._Z = _as_square(Z, "Z")
        self.dim = self._Z.shape[0]
        self._scale = _column_scale(x, self.dim)
        self._store = store
        saved = None if store is None else store.load()
        self._saved = saved is not None and _fits(*saved, self.dim)
        self._lu = ((saved[0], np.asarray(saved[1], dtype=_LAPACK_INT)) if self._saved
                    else self._factorize())
        self._unstored = store is not None and not self._saved

    def _factorize(self) -> tuple[np.ndarray, np.ndarray]:
        # I - A in one Fortran-ordered buffer, which dgetrf overwrites in
        # place. 0.0 - a keeps the +0.0 entries of np.eye(n) - A, so the LU
        # is bit-identical to that of the explicit difference.
        system = np.multiply(self._Z, self._scale, out=np.empty_like(self._Z, order="F"))
        np.subtract(0.0, system, out=system)
        diagonal = np.arange(self.dim)
        system[diagonal, diagonal] += 1.0
        ipiv = np.empty(self.dim, dtype=_LAPACK_INT)
        # LAPACK wants a leading dimension of at least 1, even for n = 0.
        order, lead, info = _lapack_int(self.dim), _lapack_int(max(1, self.dim)), _lapack_int()
        _getrf(order, order, system.ctypes.data, lead, ipiv.ctypes.data, info)
        # A positive info, an exactly singular system, surfaces as
        # UnproductiveEconomy via the residual checks.
        if info.value < 0:
            raise ValueError(f"illegal value in argument {-info.value} of LAPACK dgetrf")
        return system, ipiv

    def _solve(self, rhs: np.ndarray, trans: bytes, check) -> np.ndarray:
        """Solve the system (``trans`` b"N") or its transpose (b"T") for a
        vector or a block, accepted by ``check``; a saved LU that fails is
        replaced once. ``rhs`` is never written; a block solution is
        Fortran-ordered."""
        order, lead, info = _lapack_int(self.dim), _lapack_int(max(1, self.dim)), _lapack_int()
        columns = _lapack_int(rhs.shape[1] if rhs.ndim == 2 else 1)
        while True:
            lu, ipiv = self._lu
            # dgetrs overwrites its right-hand side with the solution.
            solution = np.array(rhs, dtype=np.float64, order="F")
            _getrs(trans, order, columns, lu.ctypes.data, lead, ipiv.ctypes.data,
                   solution.ctypes.data, lead, info, 1)
            if info.value != 0:
                raise ValueError(f"illegal value in argument {-info.value} of LAPACK dgetrs")
            try:
                with np.errstate(all="ignore"):
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
            yv, b"N", lambda q: _check_solution(q, self._Z @ (self._scale * q.T).T, yv))

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
        # transpose, with A^T M^T = diag(1/x) Z^T M^T. Z^T M^T reads Z by
        # columns, which is faster than M Z; scaling its transpose by 1/x
        # scales the rows of a block and the one row of a vector alike.
        transposed = self._solve(
            rows.T, b"T",
            lambda mt: _check_solution(mt, (self._scale * (self._Z.T @ mt).T).T, rows.T))
        return np.ascontiguousarray(transposed.T)


def _fits(lu, ipiv, n: int) -> bool:
    """Whether a saved (lu, ipiv) pair is an n x n LU as dgetrf leaves it,
    which dgetrs may read through raw pointers where it lies: float64 and
    Fortran-ordered, so a mapped entry is never copied, with n integer
    pivots in [1, n]."""
    return bool(isinstance(lu, np.ndarray) and lu.dtype == np.float64
                and lu.shape == (n, n) and lu.flags.f_contiguous
                and isinstance(ipiv, np.ndarray) and ipiv.shape == (n,)
                and np.issubdtype(ipiv.dtype, np.integer)
                and np.all((ipiv >= 1) & (ipiv <= n)))


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


def factorization_identity() -> str | None:
    """What fixes the bits of an LU besides the matrix: the numpy version,
    and the build, CPU core and thread count of the OpenBLAS that runs
    numpy's products and the LU. None when that BLAS cannot be identified."""
    try:
        config, core, threads = (getattr(_openblas, f"scipy_openblas_{name}64_")
                                 for name in ("get_config", "get_corename", "get_num_threads"))
    except AttributeError:
        return None
    for function, restype in ((config, ctypes.c_char_p), (core, ctypes.c_char_p),
                              (threads, ctypes.c_int)):
        function.argtypes, function.restype = [], restype
    return (f"numpy {np.__version__}; {config().decode('ascii', 'replace')}; "
            f"core {core().decode('ascii', 'replace')}; threads {threads()}")


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
