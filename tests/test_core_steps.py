"""Tests for panel analysis and the LU / QR elimination steps."""

import numpy as np
import pytest

from repro.core import analyze_panel, perform_lu_step, perform_qr_step
from repro.core.factorization import StepRecord
from repro.linalg import inverse_norm1_exact
from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix
from repro.trees import FlatTree, GreedyTree, HierarchicalTree


def make_tiles(rng, n_tiles=4, nb=4, rhs=True, diag_boost=0.0):
    n = n_tiles * nb
    a = rng.standard_normal((n, n)) + diag_boost * np.eye(n)
    b = rng.standard_normal(n) if rhs else None
    return TileMatrix.from_dense(a, nb, rhs=b), a, (None if b is None else b.copy())


class TestPanelAnalysis:
    def test_domain_rows_match_distribution(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 6, 4)
        dist = BlockCyclicDistribution(grid22, 6)
        for k in range(6):
            analysis = analyze_panel(tiles, dist, k)
            assert analysis.domain_rows == dist.diagonal_domain_rows(k)

    def test_tile_only_variant(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 4, 4)
        dist = BlockCyclicDistribution(grid22, 4)
        analysis = analyze_panel(tiles, dist, 0, domain_pivoting=False)
        assert analysis.domain_rows == [0]

    def test_offdiag_norms_are_panel_tile_norms(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 4, 4)
        dist = BlockCyclicDistribution(grid22, 4)
        analysis = analyze_panel(tiles, dist, 1)
        expected = [tiles.tile_norm(i, 1, 1) for i in range(2, 4)]
        assert analysis.info.offdiag_tile_norms == pytest.approx(expected)

    def test_local_away_max_partition(self, rng):
        tiles, a, _ = make_tiles(rng, 6, 3)
        dist = BlockCyclicDistribution(ProcessGrid(3, 1), 6)
        analysis = analyze_panel(tiles, dist, 0)
        info = analysis.info
        domain = dist.diagonal_domain_rows(0)
        off = dist.off_diagonal_domain_rows(0)
        panel_local = np.vstack([a[i * 3 : (i + 1) * 3, 0:3] for i in domain])
        panel_away = np.vstack([a[i * 3 : (i + 1) * 3, 0:3] for i in off])
        np.testing.assert_allclose(info.local_max, np.max(np.abs(panel_local), axis=0))
        np.testing.assert_allclose(info.away_max, np.max(np.abs(panel_away), axis=0))

    def test_diag_inv_norm_close_to_exact(self, rng):
        tiles, a, _ = make_tiles(rng, 3, 5, diag_boost=5.0)
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), 3)
        analysis = analyze_panel(tiles, dist, 2)  # last panel: domain = single tile
        exact = 1.0 / inverse_norm1_exact(a[10:15, 10:15])
        assert analysis.info.diag_inv_norm_inv == pytest.approx(exact, rel=0.8)

    def test_does_not_modify_tiles(self, rng, grid22):
        tiles, a, b = make_tiles(rng, 4, 4)
        dist = BlockCyclicDistribution(grid22, 4)
        analyze_panel(tiles, dist, 0)
        np.testing.assert_array_equal(tiles.array, a)
        np.testing.assert_array_equal(tiles.rhs[:, 0], b)

    def test_pivots_are_positive_magnitudes(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 4, 4)
        dist = BlockCyclicDistribution(grid22, 4)
        info = analyze_panel(tiles, dist, 0).info
        assert np.all(info.pivots >= 0.0)
        assert info.pivots.shape == (4,)


def schur_reference(a, b, nb):
    """Reference: after one block elimination step, trailing Schur complement."""
    a11 = a[:nb, :nb]
    a1r = a[:nb, nb:]
    ar1 = a[nb:, :nb]
    arr = a[nb:, nb:]
    inv = np.linalg.inv(a11)
    schur = arr - ar1 @ inv @ a1r
    b1 = b[:nb]
    br = b[nb:] - ar1 @ inv @ b1
    return schur, br


class TestLUStep:
    @pytest.mark.parametrize("grid", [ProcessGrid(1, 1), ProcessGrid(2, 2), ProcessGrid(4, 1)])
    def test_trailing_matrix_is_schur_complement(self, rng, grid):
        tiles, a, b = make_tiles(rng, 4, 4, diag_boost=4.0)
        dist = BlockCyclicDistribution(grid, 4)
        record = StepRecord(k=0, kind="LU")
        analysis = analyze_panel(tiles, dist, 0)
        perform_lu_step(tiles, 0, analysis, record)

        schur, br = schur_reference(a, b, 4)
        np.testing.assert_allclose(tiles.array[4:, 4:], schur, atol=1e-9)
        np.testing.assert_allclose(tiles.rhs[4:, 0], br, atol=1e-9)

    def test_row_k_solves_original_system_block(self, rng, grid22):
        """Row k after the step holds U_0j such that U_00 x_0 + sum_j U_0j x_j = c_0."""
        tiles, a, b = make_tiles(rng, 3, 4, diag_boost=4.0)
        dist = BlockCyclicDistribution(grid22, 3)
        record = StepRecord(k=0, kind="LU")
        analysis = analyze_panel(tiles, dist, 0)
        perform_lu_step(tiles, 0, analysis, record)
        x_true = np.linalg.solve(a, b)
        lhs = np.triu(tiles.tile(0, 0)) @ x_true[:4]
        for j in (1, 2):
            lhs = lhs + tiles.tile(0, j) @ x_true[4 * j : 4 * (j + 1)]
        np.testing.assert_allclose(lhs, tiles.rhs_tile(0)[:, 0], atol=1e-9)

    def test_kernel_counts_match_table1(self, rng, grid22):
        n_tiles = 5
        tiles, _, _ = make_tiles(rng, n_tiles, 4, diag_boost=4.0)
        dist = BlockCyclicDistribution(grid22, n_tiles)
        record = StepRecord(k=0, kind="LU")
        perform_lu_step(tiles, 0, analyze_panel(tiles, dist, 0), record)
        r = n_tiles - 1
        assert record.kernel_counts["getrf"] == 1
        assert record.kernel_counts["trsm"] == r
        assert record.kernel_counts["swptrsm"] == r + 1  # +1 for the RHS column
        assert record.kernel_counts["gemm"] == r * r

    def test_full_elimination_by_repeated_steps(self, rng):
        """Applying LU steps for every panel yields a correct solve."""
        nb, n_tiles = 4, 4
        tiles, a, b = make_tiles(rng, n_tiles, nb, diag_boost=6.0)
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), n_tiles)
        for k in range(n_tiles):
            record = StepRecord(k=k, kind="LU")
            perform_lu_step(tiles, k, analyze_panel(tiles, dist, k), record)
        from repro.linalg import tiled_back_substitution

        x = tiled_back_substitution(tiles.array, tiles.rhs, nb)[:, 0]
        np.testing.assert_allclose(a @ x, b, atol=1e-8)


class TestQRStep:
    def test_panel_is_zeroed_below_diagonal(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 4, 4)
        dist = BlockCyclicDistribution(grid22, 4)
        tree = HierarchicalTree(distribution=dist, step=0)
        record = StepRecord(k=0, kind="QR")
        elims = tree.eliminations_for_step(0, list(range(4)))
        perform_qr_step(tiles, 0, elims, record)
        for i in range(1, 4):
            np.testing.assert_allclose(tiles.tile(i, 0), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.tril(tiles.tile(0, 0), -1), 0.0, atol=1e-12)

    def test_orthogonal_invariance_of_column_norms(self, rng, grid22):
        """A QR step preserves the 2-norm of each full column of [A | b]."""
        tiles, a, b = make_tiles(rng, 3, 4)
        dist = BlockCyclicDistribution(grid22, 3)
        record = StepRecord(k=0, kind="QR")
        elims = FlatTree().eliminations(list(range(3)))
        before = np.linalg.norm(np.hstack([a, b.reshape(-1, 1)]), axis=0)
        perform_qr_step(tiles, 0, elims, record)
        after = np.linalg.norm(
            np.hstack([tiles.array, tiles.rhs]), axis=0
        )
        np.testing.assert_allclose(after, before, rtol=1e-10)

    @pytest.mark.parametrize("tree_cls", [FlatTree, GreedyTree])
    def test_solution_preserved_regardless_of_tree(self, rng, tree_cls):
        """Full QR elimination with any tree solves the original system."""
        nb, n_tiles = 4, 4
        tiles, a, b = make_tiles(rng, n_tiles, nb)
        dist = BlockCyclicDistribution(ProcessGrid(2, 2), n_tiles)
        for k in range(n_tiles):
            record = StepRecord(k=k, kind="QR")
            elims = tree_cls().eliminations(list(range(k, n_tiles)))
            perform_qr_step(tiles, k, elims, record)
        from repro.linalg import tiled_back_substitution

        x = tiled_back_substitution(tiles.array, tiles.rhs, nb)[:, 0]
        np.testing.assert_allclose(a @ x, b, atol=1e-8)

    def test_invalid_elimination_list_rejected(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 3, 4)
        record = StepRecord(k=0, kind="QR")
        with pytest.raises(ValueError):
            perform_qr_step(tiles, 0, [], record)  # 3 rows but nothing eliminated

    def test_single_tile_panel(self, rng, grid22):
        tiles, _, _ = make_tiles(rng, 2, 4)
        record = StepRecord(k=1, kind="QR")
        perform_qr_step(tiles, 1, [], record)
        np.testing.assert_allclose(np.tril(tiles.tile(1, 1), -1), 0.0, atol=1e-12)
