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
    tiled_back_substitution,
    trsm_lower_left_unit,
    trsm_upper_left,
    trsm_upper_right,
)
from repro.linalg import pivoting
from repro.linalg.pivoting import getrf_reference, pivot_moves


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
        for factor in (getrf, getrf_reference):
            with pytest.raises(ValueError):
                factor(rng.standard_normal((3, 5)))

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


@pytest.fixture
def tiny_leaves(monkeypatch):
    """Shrink the dgetrf leaf bound so small panels exercise the recursion."""
    monkeypatch.setattr(pivoting, "_LEAF_ELEMENTS", 8)


def assert_matches_reference(a):
    """``getrf`` against the per-column loop: pivots, factors, ``P A = L U``."""
    m, k = a.shape
    lu, piv = getrf(a)
    lu_ref, piv_ref = getrf_reference(a)
    np.testing.assert_array_equal(piv, piv_ref)
    assert piv.dtype == np.int64
    np.testing.assert_allclose(lu, lu_ref, rtol=0.0, atol=1e-12)
    lower = np.tril(lu, -1)
    lower[np.arange(k), np.arange(k)] = 1.0
    pa = apply_row_pivots(a.copy(), piv)
    np.testing.assert_allclose(lower @ np.triu(lu[:k]), pa, rtol=0.0, atol=1e-13)


class TestRecursiveGetrf:
    """The LAPACK-leaf recursion against the kept per-column reference."""

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 17, 64, 128])
    @pytest.mark.parametrize("rows", ["k", "2k", "1024"])
    def test_matches_right_looking(self, k, rows):
        m = {"k": k, "2k": 2 * k, "1024": 1024}[rows]
        rng = np.random.default_rng(1000 * k + m)
        assert_matches_reference(rng.standard_normal((m, k)))

    def test_reconstruction(self, rng, tiny_leaves):
        a = rng.standard_normal((30, 10))
        lu, piv = getrf(a)
        np.testing.assert_allclose(reconstruct_from_lu(lu, piv), a, atol=1e-11)

    @given(m_extra=st.integers(0, 12), k=st.integers(1, 10), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_property_recursive_equals_plain(self, m_extra, k, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((k + m_extra, k))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pivoting, "_LEAF_ELEMENTS", 8)
            assert_matches_reference(a)

    def test_tied_pivots_pick_first_row(self, tiny_leaves):
        # Every candidate of every column ties in magnitude at the first
        # step; LAPACK (idamax) and the reference (argmax) take the first.
        a = np.ones((12, 4))
        a[:, 1] = [1, -1] * 6
        a[:, 2] = [1, 1, -1, -1] * 3
        a[:, 3] = [1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1]
        lu, piv = getrf(a)
        assert piv[0] == 0
        np.testing.assert_array_equal(piv, getrf_reference(a)[1])
        np.testing.assert_allclose(reconstruct_from_lu(lu, piv), a, atol=1e-14)

    @pytest.mark.parametrize("shape, column", [((40, 20), 7), ((40, 20), 0), ((1024, 128), 77)])
    def test_zero_column_names_the_same_column(self, shape, column):
        a = np.random.default_rng(3).standard_normal(shape)
        a[:, column] = 0.0
        message = f"zero pivot encountered at column {column}"
        for factor in (getrf, getrf_reference):
            with pytest.raises(SingularPanelError, match=message + "$"):
                factor(a)

    def test_zero_column_inside_the_recursion(self, rng, tiny_leaves):
        a = rng.standard_normal((16, 9))
        a[:, 6] = 0.0
        with pytest.raises(SingularPanelError, match="column 6$"):
            getrf(a)

    def test_overwrite_factors_in_place(self, rng):
        a = rng.standard_normal((1024, 128))
        work = a.copy()
        lu, piv = getrf(work, overwrite_a=True)
        assert lu is work
        lu_copy, piv_copy = getrf(a)
        np.testing.assert_array_equal(lu, lu_copy)
        np.testing.assert_array_equal(piv, piv_copy)


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

    @given(m_extra=st.integers(0, 9), k=st.integers(0, 9), seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_pivot_moves_is_the_swap_sequence_as_one_gather(self, m_extra, k, seed):
        rng = np.random.default_rng(seed)
        m = k + m_extra + 1
        piv = np.array([rng.integers(j, m) for j in range(k)], dtype=np.int64)
        c = rng.standard_normal((m, 3))
        dst, src = pivot_moves(piv)
        assert len(dst) <= 2 * k and not np.any(dst == src)
        gathered = c.copy()
        gathered[dst] = c[src]
        np.testing.assert_array_equal(gathered, apply_row_pivots(c.copy(), piv))
        # ``base`` shifts the rows the sequence starts at.
        dst_b, src_b = pivot_moves(piv + 5, base=5)
        np.testing.assert_array_equal(dst_b, dst + 5)
        np.testing.assert_array_equal(src_b, src + 5)


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
