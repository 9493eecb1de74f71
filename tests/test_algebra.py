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
import scipy.linalg
from scipy.linalg import lu_factor

from _oracles import (power_series_solve, random_productive_matrix, relative_error,
                      technical_coefficients)
from mrio_footprint import algebra
from mrio_footprint.errors import DimensionMismatch, NegativeEntry, UnproductiveEconomy

A_HAND = np.array([[0.2, 0.3], [0.4, 0.1]])
L_HAND = np.array([[1.5, 0.5], [2.0 / 3.0, 4.0 / 3.0]])
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
        q = algebra.leontief_solve(np.zeros((2, 2)), Y_HAND)
        np.testing.assert_allclose(q, Y_HAND, rtol=0, atol=0)

    def test_hand_2x2(self):
        q = algebra.leontief_solve(A_HAND, Y_HAND)
        np.testing.assert_allclose(q, Q_HAND, rtol=1e-12)

    def test_matches_power_series(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            A = random_productive_matrix(rng, n)
            y = rng.uniform(0.0, 10.0, size=n)
            q = algebra.leontief_solve(A, y)
            assert relative_error(q, power_series_solve(A, y)) <= 1e-6

    def test_output_covers_demand(self, rng):
        A = random_productive_matrix(rng, 8)
        y = rng.uniform(0.0, 5.0, size=8)
        q = algebra.leontief_solve(A, y)
        assert np.all(q >= y - 1e-12)

    def test_linearity(self, rng):
        A = random_productive_matrix(rng, 6)
        op = algebra.factorize(A)
        y1 = rng.uniform(0.0, 5.0, size=6)
        y2 = rng.uniform(0.0, 5.0, size=6)
        alpha, beta = 0.7, 2.5
        combined = op.apply(alpha * y1 + beta * y2)
        separate = alpha * op.apply(y1) + beta * op.apply(y2)
        np.testing.assert_allclose(combined, separate, rtol=1e-9)

    def test_monotonicity(self, rng):
        A = random_productive_matrix(rng, 6)
        op = algebra.factorize(A)
        y = rng.uniform(0.0, 5.0, size=6)
        q = op.apply(y)
        for i in range(6):
            bumped = y.copy()
            bumped[i] += 1.0
            assert np.all(op.apply(bumped) >= q - 1e-12)

    def test_unproductive_singular(self):
        with pytest.raises(UnproductiveEconomy):
            algebra.leontief_solve(np.eye(2), Y_HAND)

    def test_unproductive_negative_output(self):
        # (I - A) is invertible here but the economy consumes more than it
        # produces; the demand-coverage check must catch it.
        with pytest.raises(UnproductiveEconomy):
            algebra.leontief_solve(np.array([[2.0]]), np.array([1.0]))

    def test_negative_column_keeps_the_coverage_check_on_the_others(self):
        # (I - A) q = y solves here with q = -y: a shortfall in the first
        # column, which a negative second column must not hide.
        op = algebra.factorize(np.array([[2.0]]))
        with pytest.raises(UnproductiveEconomy, match="falls below final demand"):
            op.apply(np.array([[1.0, -1.0]]))
        with pytest.raises(UnproductiveEconomy, match="falls below final demand"):
            op.multipliers(np.array([[1.0], [-1.0]]))
        np.testing.assert_array_equal(op.apply(np.array([[-1.0, -2.0]])), [[1.0, 2.0]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            algebra.leontief_solve(np.zeros((2, 3)), Y_HAND)
        with pytest.raises(DimensionMismatch):
            algebra.factorize(np.zeros(2))


class TestLapackWrappers:
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("rhs", ["vector", "block", "transposed block"])
    def test_bit_identical_to_scipy_linalg(self, rng, trans, rhs):
        n = 80
        system = np.eye(n) - random_productive_matrix(rng, n)
        b = {"vector": lambda: rng.uniform(size=n),
             "block": lambda: rng.uniform(size=(n, 3)),
             # What multipliers passes: the transpose of a C-ordered block.
             "transposed block": lambda: rng.uniform(size=(3, n)).T}[rhs]()
        lu, piv = algebra.lu_factor(system)
        expected_lu, expected_piv = scipy.linalg.lu_factor(system)
        assert lu.tobytes() == expected_lu.tobytes()
        assert piv.tobytes() == expected_piv.tobytes() and piv.dtype == expected_piv.dtype
        solution = algebra.lu_solve((lu, piv), b, trans=trans)
        expected = scipy.linalg.lu_solve((expected_lu, expected_piv), b, trans=trans)
        assert solution.shape == expected.shape
        assert solution.tobytes() == expected.tobytes()

    def test_factorizes_a_fortran_buffer_in_place(self, rng):
        system = np.asfortranarray(np.eye(6) - random_productive_matrix(rng, 6))
        expected_lu, _ = scipy.linalg.lu_factor(system)
        lu, _ = algebra.lu_factor(system, overwrite_a=True)
        assert np.shares_memory(lu, system)
        assert lu.tobytes() == expected_lu.tobytes()

    def test_empty_system(self):
        lu, piv = algebra.lu_factor(np.zeros((0, 0)))
        assert lu.shape == (0, 0) and piv.shape == (0,)
        assert algebra.lu_solve((lu, piv), np.zeros(0)).shape == (0,)


class TestLeontiefOperator:
    @pytest.mark.parametrize("zero_cells", [False, True])
    def test_lu_matches_explicit_difference(self, account_357, zero_cells):
        # I - A built in place from Z and 1/x has the LU of np.eye(n) - A,
        # bit for bit, also where Z or a whole column of A is zero.
        Z, x = account_357.Z.copy(), account_357.x.copy()
        if zero_cells:
            Z[::2, 1::3] = 0.0
            x[4] = 0.0
        lu, piv = algebra.LeontiefOperator(Z, x)._lu
        A = technical_coefficients(Z, x)
        expected_lu, expected_piv = lu_factor(np.eye(len(x)) - A)
        assert lu.tobytes() == expected_lu.tobytes()
        assert piv.tobytes() == expected_piv.tobytes()


class TestMultipliers:
    def test_hand_2x2(self):
        m = algebra.factorize(A_HAND).multipliers(S_HAND)
        np.testing.assert_allclose(m, S_HAND @ L_HAND, rtol=1e-12)

    def test_defining_identity(self, rng):
        A = random_productive_matrix(rng, 7)
        S = rng.uniform(0.0, 3.0, size=(4, 7))
        M = algebra.factorize(A).multipliers(S)
        np.testing.assert_allclose(M @ (np.eye(7) - A), S, rtol=0, atol=1e-9)

    def test_dominates_intensities(self, rng):
        S = rng.uniform(0.0, 3.0, size=(3, 7))
        M = algebra.factorize(random_productive_matrix(rng, 7)).multipliers(S)
        assert np.all(M - S >= -1e-12)

    def test_unproductive(self):
        with pytest.raises(UnproductiveEconomy):
            algebra.factorize(np.eye(2)).multipliers(S_HAND)

    def test_agrees_with_solve(self, rng):
        op = algebra.factorize(random_productive_matrix(rng, 9))
        s = rng.uniform(0.0, 3.0, size=9)
        m = op.multipliers(s)
        for _ in range(5):
            y = rng.uniform(0.0, 10.0, size=9)
            expected = s @ op.apply(y)
            assert abs(m @ y - expected) <= 1e-12 * abs(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            algebra.factorize(A_HAND).multipliers(np.ones(3))


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
        q = algebra.factorize(A_HAND).apply(np.column_stack([Y_HAND, 2.0 * Y_HAND]))
        np.testing.assert_allclose(S_HAND @ q, [FOOTPRINT_HAND, 2.0 * FOOTPRINT_HAND],
                                   rtol=0, atol=1e-12)

    def test_block_columns_match_single_solves(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 30))
            op = algebra.factorize(random_productive_matrix(rng, n))
            Y = rng.uniform(0.0, 100.0, size=(n, 4))
            # Identical columns solve to identical bits wherever they sit.
            Y[:, 3] = Y[:, 1]
            Q = op.apply(Y)
            assert Q.shape == (n, 4) and Q[:, 3].tobytes() == Q[:, 1].tobytes()
            for j in range(4):
                np.testing.assert_allclose(Q[:, j], op.apply(Y[:, j]), rtol=1e-12)

    def test_dimension_mismatch(self):
        op = algebra.factorize(A_HAND)
        for shape in ((3,), (3, 2), (2, 2, 1)):
            with pytest.raises(DimensionMismatch):
                op.apply(np.zeros(shape))


class TestProductivityCheck:
    def test_zero_matrix(self):
        estimate = algebra.productivity_check(algebra.factorize(np.zeros((4, 4))))
        assert estimate.spectral_radius == 0.0
        assert estimate.productive

    def test_hand_2x2(self):
        # q = L 1 = [2, 2], so the bound 1 - 1/max(q) meets rho = 0.5.
        estimate = algebra.productivity_check(algebra.factorize(A_HAND))
        assert estimate.spectral_radius == 0.5
        assert estimate.spectral_radius == pytest.approx(0.5, abs=1e-4)
        assert estimate.productive

    def test_periodic_two_sector(self):
        # Two sectors that trade only with each other: eigenvalues +-0.3, the
        # case where a power iteration never settles.
        estimate = algebra.productivity_check(algebra.factorize(PERIODIC))
        assert 0.3 <= estimate.spectral_radius < 1.0
        assert estimate.productive

    def test_bound_dominates_spectral_radius(self, rng):
        for _ in range(20):
            A = random_productive_matrix(rng, int(rng.integers(2, 12)))
            estimate = algebra.productivity_check(algebra.factorize(A))
            assert estimate.productive
            assert estimate.spectral_radius >= max(abs(np.linalg.eigvals(A))) - 1e-12

    def test_identity_flagged_unproductive(self):
        estimate = algebra.productivity_check(algebra.factorize(np.eye(3)))
        assert estimate.spectral_radius is None
        assert estimate.productive is False

    def test_output_below_demand_flagged_unproductive(self):
        estimate = algebra.productivity_check(algebra.factorize(np.array([[2.0]])))
        assert estimate.spectral_radius is None
        assert estimate.productive is False

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            algebra.productivity_check(algebra.factorize(np.zeros((2, 3))))
