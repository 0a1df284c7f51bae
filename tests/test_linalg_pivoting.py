"""Tests for the pivoted-LU substrate and triangular solves."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    SingularPanelError,
    apply_row_pivots,
    getrf,
    getrf_nopiv,
    pivots_to_permutation,
    recursive_getrf,
    tiled_back_substitution,
    trsm_lower_left_unit,
    trsm_upper_left,
    trsm_upper_right,
)


def reconstruct_from_lu(lu, piv):
    """Rebuild the original matrix from packed LU factors and pivots."""
    m, k = lu.shape
    lo = np.tril(lu[:, :k], -1)
    lo[np.arange(k), np.arange(k)] = 1.0
    if m > k:
        lfull = np.zeros((m, k))
        lfull[:, :] = np.tril(lu, -1)[:, :k]
        lfull[np.arange(k), np.arange(k)] = 1.0
    else:
        lfull = lo
    u = np.triu(lu[:k, :k])
    pa = lfull @ u
    # Undo the pivoting: apply the swaps in reverse.
    return apply_row_pivots(pa.copy(), piv, inverse=True)


class TestGetrf:
    def test_square_reconstruction(self, rng):
        a = rng.standard_normal((8, 8))
        lu, piv = getrf(a)
        np.testing.assert_allclose(reconstruct_from_lu(lu, piv), a, atol=1e-12)

    def test_tall_reconstruction(self, rng):
        a = rng.standard_normal((20, 6))
        lu, piv = getrf(a)
        np.testing.assert_allclose(reconstruct_from_lu(lu, piv), a, atol=1e-12)

    def test_multipliers_bounded_by_one(self, rng):
        a = rng.standard_normal((16, 8))
        lu, _ = getrf(a)
        l_part = np.tril(lu, -1)
        assert np.max(np.abs(l_part)) <= 1.0 + 1e-12

    def test_matches_scipy(self, rng):
        a = rng.standard_normal((10, 10))
        lu, piv = getrf(a)
        lu_sp, piv_sp = sla.lu_factor(a)
        np.testing.assert_allclose(np.abs(np.diag(lu)), np.abs(np.diag(lu_sp)), rtol=1e-10)

    def test_wide_rejected(self, rng):
        with pytest.raises(ValueError):
            getrf(rng.standard_normal((3, 5)))

    def test_singular_raises(self):
        with pytest.raises(SingularPanelError):
            getrf(np.zeros((4, 4)))

    def test_input_not_modified(self, rng):
        a = rng.standard_normal((6, 6))
        a0 = a.copy()
        getrf(a)
        np.testing.assert_array_equal(a, a0)


class TestGetrfNoPiv:
    def test_reconstruction(self, rng):
        a = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        lu = getrf_nopiv(a)
        lo = np.tril(lu, -1) + np.eye(8)
        u = np.triu(lu)
        np.testing.assert_allclose(lo @ u, a, atol=1e-10)

    def test_zero_diagonal_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularPanelError):
            getrf_nopiv(a)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            getrf_nopiv(rng.standard_normal((4, 3)))


class TestRecursiveGetrf:
    def test_matches_right_looking(self, rng):
        a = rng.standard_normal((24, 12))
        lu_r, piv_r = recursive_getrf(a, threshold=4)
        lu_p, piv_p = getrf(a)
        np.testing.assert_allclose(lu_r, lu_p, atol=1e-10)
        np.testing.assert_array_equal(piv_r, piv_p)

    def test_reconstruction(self, rng):
        a = rng.standard_normal((30, 10))
        lu, piv = recursive_getrf(a, threshold=3)
        np.testing.assert_allclose(reconstruct_from_lu(lu, piv), a, atol=1e-11)

    @given(m_extra=st.integers(0, 12), k=st.integers(1, 10), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_property_recursive_equals_plain(self, m_extra, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((k + m_extra, k))
        lu_r, piv_r = recursive_getrf(a, threshold=2)
        lu_p, piv_p = getrf(a)
        np.testing.assert_allclose(lu_r, lu_p, atol=1e-9)
        np.testing.assert_array_equal(piv_r, piv_p)


class TestPivotHelpers:
    def test_apply_row_pivots_roundtrip(self, rng):
        c = rng.standard_normal((6, 3))
        piv = np.array([3, 2, 5, 3, 4, 5])
        c2 = apply_row_pivots(c.copy(), piv)
        c3 = apply_row_pivots(c2, piv, inverse=True)
        np.testing.assert_allclose(c3, c)

    def test_pivots_to_permutation_consistent(self, rng):
        c = rng.standard_normal((7, 2))
        piv = np.array([2, 4, 6, 3])
        swapped = apply_row_pivots(c.copy(), piv)
        perm = pivots_to_permutation(piv, 7)
        np.testing.assert_allclose(c[perm], swapped)


class TestTriangularSolves:
    def test_trsm_upper_right(self, rng):
        u = np.triu(rng.standard_normal((6, 6))) + 6.0 * np.eye(6)
        b = rng.standard_normal((4, 6))
        x = trsm_upper_right(u, b)
        np.testing.assert_allclose(x @ u, b, atol=1e-10)

    def test_trsm_lower_left_unit(self, rng):
        lo = np.tril(rng.standard_normal((5, 5)), -1) + np.eye(5)
        b = rng.standard_normal((5, 3))
        x = trsm_lower_left_unit(lo, b)
        np.testing.assert_allclose(lo @ x, b, atol=1e-10)

    def test_trsm_upper_left(self, rng):
        u = np.triu(rng.standard_normal((5, 5))) + 5.0 * np.eye(5)
        b = rng.standard_normal((5, 2))
        x = trsm_upper_left(u, b)
        np.testing.assert_allclose(u @ x, b, atol=1e-10)

    def test_tiled_back_substitution_matches_numpy(self, rng):
        n, nb = 24, 6
        u = np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        # Fill the lower part with garbage that must be ignored.
        a = u + np.tril(rng.standard_normal((n, n)), -1) * 100.0
        x_true = rng.standard_normal(n)
        c = u @ x_true
        x = tiled_back_substitution(a, c, nb)
        np.testing.assert_allclose(x, x_true, atol=1e-8)

    def test_tiled_back_substitution_multiple_rhs(self, rng):
        n, nb = 16, 4
        u = np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        x_true = rng.standard_normal((n, 3))
        x = tiled_back_substitution(u, u @ x_true, nb)
        np.testing.assert_allclose(x, x_true, atol=1e-9)

    @pytest.mark.parametrize("nrhs", [1, 5])
    def test_tiled_back_substitution_reads_factors_in_place(self, rng, nrhs):
        """No masking copy of the diagonal tiles and no private copy of ``c``:
        garbage below the diagonal changes no bit, and ``c`` is left alone."""
        n, nb = 24, 6
        u = np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        a = u + np.tril(rng.standard_normal((n, n)), -1) * 100.0
        c = rng.standard_normal((n, nrhs))
        c_before = c.copy()
        assert np.array_equal(tiled_back_substitution(a, c, nb), tiled_back_substitution(u, c, nb))
        assert np.array_equal(c, c_before)

    def test_tiled_back_substitution_bad_tile_size(self, rng):
        with pytest.raises(ValueError):
            tiled_back_substitution(np.eye(10), np.ones(10), 4)
