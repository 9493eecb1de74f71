"""Core solver tests against hand-derived and power-series oracles.

Hand-verified 2x2 case used throughout:

    A = [[0.2, 0.3],      I - A = [[0.8, -0.3],     det(I - A) = 0.6
         [0.4, 0.1]]               [-0.4, 0.9]]

    L = (I - A)^-1 = (1/0.6) [[0.9, 0.3],  = [[1.5,     0.5    ],
                              [0.4, 0.8]]     [0.66667, 1.33333]]

    y = [10, 5]  ->  q = L y = [17.5, 40/3]
    s = [0.5, 1.0]  ->  footprint = 0.5*17.5 + 40/3 = 66.25/3 = 22.08333...

    Eigenvalues of A solve l^2 - 0.3 l - 0.1 = 0 -> l = 0.5, -0.2.
"""

import numpy as np
import pytest

from _oracles import (leontief_solve, operator, power_series_solve, random_productive_matrix,
                      relative_error, technical_coefficients)
from mrio_footprint import algebra
from mrio_footprint.errors import DimensionMismatch, NegativeEntry, UnproductiveEconomy

A_HAND = np.array([[0.2, 0.3], [0.4, 0.1]])
Y_HAND = np.array([10.0, 5.0])
Q_HAND = np.array([17.5, 40.0 / 3.0])
S_HAND = np.array([0.5, 1.0])
FOOTPRINT_HAND = 66.25 / 3.0
PERIODIC = np.array([[0.0, 0.9], [0.1, 0.0]])


class TestTechnicalCoefficients:
    def test_zero_transactions(self):
        A = technical_coefficients(np.zeros((2, 2)), np.array([100.0, 100.0]))
        np.testing.assert_array_equal(A, np.zeros((2, 2)))

    def test_hand_division(self):
        A = technical_coefficients(
            np.array([[20.0, 30.0], [40.0, 10.0]]), np.array([100.0, 100.0]))
        np.testing.assert_allclose(A, A_HAND, rtol=0, atol=1e-15)

    def test_zero_output_column_zeroed(self):
        A = technical_coefficients(
            np.array([[0.0, 5.0], [0.0, 5.0]]), np.array([0.0, 10.0]))
        np.testing.assert_array_equal(A, np.array([[0.0, 0.5], [0.0, 0.5]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            technical_coefficients(np.zeros((2, 2)), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatch):
            technical_coefficients(np.zeros((2, 3)), np.array([1.0, 2.0]))

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry, match=r"^Z\[0\]\[1\] = -2.0 is negative$"):
            technical_coefficients(
                np.array([[1.0, -2.0], [0.0, 1.0]]), np.array([10.0, 10.0]))
        with pytest.raises(NegativeEntry):
            technical_coefficients(np.zeros((2, 2)), np.array([-1.0, 1.0]))


class TestLeontiefSolve:
    def test_identity_economy(self):
        q = leontief_solve(np.zeros((2, 2)), Y_HAND)
        np.testing.assert_allclose(q, Y_HAND, rtol=0, atol=0)

    def test_hand_2x2(self):
        q = leontief_solve(A_HAND, Y_HAND)
        np.testing.assert_allclose(q, Q_HAND, rtol=1e-12)

    def test_matches_power_series(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            A = random_productive_matrix(rng, n)
            y = rng.uniform(0.0, 10.0, size=n)
            q = leontief_solve(A, y)
            assert relative_error(q, power_series_solve(A, y)) <= 1e-6

    def test_output_covers_demand(self, rng):
        A = random_productive_matrix(rng, 8)
        y = rng.uniform(0.0, 5.0, size=8)
        q = leontief_solve(A, y)
        assert np.all(q >= y - 1e-12)

    def test_linearity(self, rng):
        A = random_productive_matrix(rng, 6)
        op = operator(A)
        y1 = rng.uniform(0.0, 5.0, size=6)
        y2 = rng.uniform(0.0, 5.0, size=6)
        alpha, beta = 0.7, 2.5
        combined = op.apply(alpha * y1 + beta * y2)
        separate = alpha * op.apply(y1) + beta * op.apply(y2)
        np.testing.assert_allclose(combined, separate, rtol=1e-9)

    def test_monotonicity(self, rng):
        A = random_productive_matrix(rng, 6)
        op = operator(A)
        y = rng.uniform(0.0, 5.0, size=6)
        q = op.apply(y)
        for i in range(6):
            bumped = y.copy()
            bumped[i] += 1.0
            assert np.all(op.apply(bumped) >= q - 1e-12)

    def test_unproductive_singular(self):
        with pytest.raises(UnproductiveEconomy):
            leontief_solve(np.eye(2), Y_HAND)

    def test_unproductive_negative_output(self):
        # (I - A) is invertible here but the economy consumes more than it
        # produces; the demand-coverage check must catch it.
        with pytest.raises(UnproductiveEconomy):
            leontief_solve(np.array([[2.0]]), np.array([1.0]))

    def test_negative_column_keeps_the_coverage_check_on_the_others(self):
        # (I - A) q = y solves here with q = -y: a shortfall in the first
        # column, which a negative second column must not hide.
        op = operator(np.array([[2.0]]))
        with pytest.raises(UnproductiveEconomy, match="falls below final demand"):
            op.apply(np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(op.apply(np.array([[-1.0, -2.0]])), [[1.0, 2.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            leontief_solve(np.zeros((2, 3)), Y_HAND)
        with pytest.raises(DimensionMismatch):
            operator(np.zeros(2))


def getrf(system: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dgetrf of a copy of ``system``, called directly: the LU and
    the 1-based pivots that the operator should hold."""
    n = len(system)
    lu, ipiv = np.array(system, order="F"), np.empty(n, dtype=algebra._LAPACK_INT)
    order, info = algebra._lapack_int(n), algebra._lapack_int()
    algebra._getrf(order, order, lu.ctypes.data, order, ipiv.ctypes.data, info)
    assert info.value == 0
    return lu, ipiv


class Saved:
    """A store that gives one saved (lu, ipiv) pair and keeps what is stored."""

    def __init__(self, lu, ipiv):
        self.saved = (lu, ipiv)
        self.stored = []

    def load(self):
        return self.saved

    def store(self, lu, ipiv):
        self.stored.append((lu.tobytes(), ipiv.tobytes()))


def assert_refused(lu, ipiv, A: np.ndarray) -> None:
    """An operator given the saved pair (lu, ipiv) never solves on it: it
    factorizes I - A again, solves as an operator without a store does, and
    stores the fresh LU."""
    store = Saved(lu, ipiv)
    given = algebra.LeontiefOperator(A, np.ones(len(A)), store)
    fresh = operator(A)
    y = np.ones(len(A))
    assert given.apply(y).tobytes() == fresh.apply(y).tobytes()
    assert store.stored == [(fresh._lu[0].tobytes(), fresh._lu[1].tobytes())]


class TestLapackWrappers:
    """How the operator calls LAPACK dgetrf and dgetrs through the ctypes
    functions ``algebra._getrf`` and ``algebra._getrs``."""

    @pytest.mark.parametrize("rhs", ["vector", "block", "block.T"])
    def test_solves_as_numpy(self, rng, rhs):
        n = 80
        A = random_productive_matrix(rng, n)
        b = {"vector": lambda: rng.uniform(size=n),
             "block": lambda: rng.uniform(size=(n, 3)),
             # A Fortran-ordered block: the transpose of a C-ordered one.
             "block.T": lambda: rng.uniform(size=(3, n)).T}[rhs]()
        given = b.copy()
        solution = operator(A).apply(b)
        # np.linalg.solve is dgesv, dgetrf then dgetrs, in the same OpenBLAS.
        assert solution.tobytes() == np.linalg.solve(np.eye(n) - A, b).tobytes()
        assert solution.shape == b.shape and b.tobytes() == given.tobytes()

    def test_factorizes_a_fortran_buffer_in_place(self, rng, monkeypatch):
        buffers = []
        call = algebra._getrf

        def recorded(m, n, a, *rest):
            buffers.append(a)
            return call(m, n, a, *rest)
        monkeypatch.setattr(algebra, "_getrf", recorded)
        A = random_productive_matrix(rng, 6)
        lu, ipiv = operator(A)._lu
        assert lu.flags.f_contiguous and buffers == [lu.ctypes.data]
        expected_lu, expected_ipiv = getrf(np.eye(6) - A)
        assert lu.tobytes() == expected_lu.tobytes()
        assert ipiv.tobytes() == expected_ipiv.tobytes()

    @pytest.mark.parametrize("layout", ["C-ordered", "read-only"])
    def test_never_overwrites_a_buffer_it_cannot_factorize_in_place(self, rng, layout):
        # The LU is made in a buffer of the operator's own, never in Z.
        Z = random_productive_matrix(rng, 6)
        if layout == "read-only":
            Z = np.asfortranarray(Z)
            Z.flags.writeable = False
        given = Z.copy()
        lu, _ = algebra.LeontiefOperator(Z, np.ones(6))._lu
        assert lu.flags.f_contiguous and not np.shares_memory(lu, Z)
        assert Z.tobytes() == given.tobytes()

    def test_empty_system(self):
        op = algebra.LeontiefOperator(np.zeros((0, 0)), np.zeros(0))
        lu, ipiv = op._lu
        assert lu.shape == (0, 0) and ipiv.shape == (0,)
        assert op.apply(np.zeros(0)).shape == (0,)
        assert op.apply(np.zeros((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("a", [np.zeros((3, 4)), np.zeros(3), np.eye(3, dtype=np.float32),
                                   np.eye(3, dtype=int), [[1.0]]])
    def test_factor_rejects_all_but_a_square_float64_matrix(self, rng, a):
        # A saved LU is solved on only when it is a square float64 matrix.
        n = len(a)
        assert_refused(a, np.arange(1, n + 1), random_productive_matrix(rng, n))

    @pytest.mark.parametrize("damage, message", [
        (lambda lu, ipiv, b: (lu[:, :-1], ipiv, b), None),
        (lambda lu, ipiv, b: (lu.astype(np.float32, order="F"), ipiv, b), None),
        (lambda lu, ipiv, b: (lu, ipiv[:-1], b), None),
        (lambda lu, ipiv, b: (lu, ipiv + 1, b), None),
        (lambda lu, ipiv, b: (lu, -ipiv, b), None),
        (lambda lu, ipiv, b: (lu, ipiv - 1, b), None),
        (lambda lu, ipiv, b: (lu, ipiv.astype(float), b), None),
        (lambda lu, ipiv, b: (lu, ipiv, b[:-1]), r"must have 4 rows, got shape \(3,\)"),
        (lambda lu, ipiv, b: (lu, ipiv, np.ones((5, 2))), r"must have 4 rows, got shape \(5, 2\)"),
        (lambda lu, ipiv, b: (lu, ipiv, np.ones((2, 2, 4))), "must have 4 rows"),
    ], ids=["lu not square", "lu float32", "piv short", "piv past n", "piv negative",
            "piv 0-based", "piv float", "b vector short", "b block tall",
            "b three-dimensional"])
    def test_solve_rejects_mismatched_arguments(self, rng, damage, message):
        # LAPACK reads raw pointers: each mismatch is refused before the
        # call, a saved LU by a fresh factorization, a demand by an error.
        A = random_productive_matrix(rng, 4)
        lu, ipiv = operator(A)._lu
        lu, ipiv, b = damage(lu, ipiv, np.ones(4))
        if message is None:
            assert_refused(lu, ipiv, A)
        else:
            with pytest.raises(DimensionMismatch, match=message):
                operator(A).apply(b)


class TestLeontiefOperator:
    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_lu_matches_explicit_difference(self, account_357, zero_cells):
        # I - A built in place from Z and 1/x has the LU of np.eye(n) - A,
        # bit for bit, also where Z or a whole column of A is zero.
        Z, x = account_357.Z.copy(), account_357.x.copy()
        if zero_cells:
            Z[::2, 1::3] = 0.0
            x[4] = 0.0
        lu, ipiv = algebra.LeontiefOperator(Z, x)._lu
        A = technical_coefficients(Z, x)
        expected_lu, expected_ipiv = getrf(np.eye(len(x)) - A)
        assert lu.tobytes() == expected_lu.tobytes()
        assert ipiv.tobytes() == expected_ipiv.tobytes()


    @pytest.mark.parametrize("x, error, message", [
        (np.ones(3), DimensionMismatch, r"^x must be a vector of length 2, got shape \(3,\)$"),
        (np.array([1.0, -2.0]), NegativeEntry, r"^x\[1\] = -2.0 is negative$"),
    ], ids=["wrong length", "negative"])
    def test_output_is_checked(self, x, error, message):
        with pytest.raises(error, match=message):
            algebra.LeontiefOperator(np.zeros((2, 2)), x)


def test_factorization_identity_of_an_unknown_blas(monkeypatch):
    # A BLAS without OpenBLAS's 64-bit getters cannot be named, so no LU
    # made under it is saved or trusted.
    monkeypatch.setattr(algebra, "_openblas", object())
    assert algebra.factorization_identity() is None


class TestIntensity:
    def test_elementwise_division(self):
        s = algebra.intensity(np.array([50.0, 100.0]), np.array([100.0, 100.0]))
        np.testing.assert_array_equal(s, S_HAND)

    def test_zero_extension(self):
        s = algebra.intensity(np.zeros(2), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(s, np.zeros(2))

    def test_zero_output_guard(self):
        s = algebra.intensity(np.array([5.0, 5.0]), np.array([0.0, 10.0]))
        np.testing.assert_array_equal(s, np.array([0.0, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            algebra.intensity(np.zeros(3), np.zeros(2))


class TestFootprint:
    """Footprints s @ q of demand blocks, one solve per block."""

    def test_hand_total(self):
        q = operator(A_HAND).apply(np.column_stack([Y_HAND, 2.0 * Y_HAND]))
        np.testing.assert_allclose(S_HAND @ q, [FOOTPRINT_HAND, 2.0 * FOOTPRINT_HAND],
                                   rtol=0, atol=1e-12)

    def test_block_columns_match_single_solves(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 30))
            op = operator(random_productive_matrix(rng, n))
            Y = rng.uniform(0.0, 100.0, size=(n, 4))
            # Identical columns solve to identical bits wherever they sit.
            Y[:, 3] = Y[:, 1]
            Q = op.apply(Y)
            assert Q.shape == (n, 4) and Q[:, 3].tobytes() == Q[:, 1].tobytes()
            for j in range(4):
                np.testing.assert_allclose(Q[:, j], op.apply(Y[:, j]), rtol=1e-12)

    def test_dimension_mismatch(self):
        op = operator(A_HAND)
        for shape in ((3,), (3, 2), (2, 2, 1)):
            with pytest.raises(DimensionMismatch):
                op.apply(np.zeros(shape))


def certificate(A: np.ndarray) -> algebra.ProductivityEstimate:
    """The certificate of the operator of A: the bound of its column of ones."""
    return algebra.ProductivityEstimate.of(operator(A).apply(np.ones(len(A))))


class TestProductivityCheck:
    def test_zero_matrix(self):
        estimate = certificate(np.zeros((4, 4)))
        assert estimate.spectral_radius == 0.0
        assert estimate.productive

    def test_hand_2x2(self):
        # L 1 = [2, 2], so the bound is 1 - 1/2, exactly rho = 0.5.
        estimate = certificate(A_HAND)
        assert estimate.spectral_radius == 0.5
        assert estimate.productive

    def test_periodic_two_sector(self):
        # Two sectors that trade only with each other: eigenvalues +-0.3, the
        # case where a power iteration never settles.
        estimate = certificate(PERIODIC)
        assert 0.3 <= estimate.spectral_radius < 1.0
        assert estimate.productive

    def test_bound_dominates_spectral_radius(self, rng):
        for _ in range(20):
            A = random_productive_matrix(rng, int(rng.integers(2, 12)))
            estimate = certificate(A)
            assert estimate.productive
            assert estimate.spectral_radius >= max(abs(np.linalg.eigvals(A))) - 1e-12

    def test_identity_flagged_unproductive(self):
        with pytest.raises(UnproductiveEconomy):
            certificate(np.eye(3))

    def test_output_below_demand_flagged_unproductive(self):
        with pytest.raises(UnproductiveEconomy, match="falls below final demand"):
            certificate(np.array([[2.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            algebra.ProductivityEstimate.of(operator(np.zeros((3, 3))).apply(np.ones(2)))
