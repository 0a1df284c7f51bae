"""Tests for the TileMatrix container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tiles import TileMatrix


class TestConstruction:
    def test_basic(self, rng):
        a = rng.standard_normal((24, 24))
        tm = TileMatrix(a, 8)
        assert tm.n == 3
        assert tm.nb == 8
        assert tm.order == 24
        assert not tm.has_rhs

    def test_from_dense_copies(self, rng):
        a = rng.standard_normal((16, 16))
        tm = TileMatrix.from_dense(a, 4)
        tm.array[0, 0] = 123.0
        assert a[0, 0] != 123.0

    def test_aliasing_by_default(self, rng):
        a = rng.standard_normal((16, 16))
        tm = TileMatrix(a, 4)
        tm.array[0, 0] = 77.0
        assert a[0, 0] == 77.0

    def test_wraps_non_float64_input(self):
        tm = TileMatrix(np.arange(16).reshape(4, 4), 2)
        assert tm.dtype == np.float64
        np.testing.assert_array_equal(tm.array, np.arange(16.0).reshape(4, 4))
        tm = TileMatrix(np.eye(4), 2, rhs=np.arange(4))
        assert tm.rhs.dtype == np.float64
        np.testing.assert_array_equal(tm.rhs[:, 0], np.arange(4.0))

    def test_fortran_input_is_copied_and_c_float64_aliased(self, rng):
        a = np.asfortranarray(rng.standard_normal((16, 16)))
        tm = TileMatrix(a, 4)
        assert not np.shares_memory(tm.array, a) and tm.array.flags.c_contiguous
        np.testing.assert_array_equal(tm.array, a)
        c = rng.standard_normal((16, 16))
        b = rng.standard_normal(16)
        tm = TileMatrix(c, 4, rhs=b)
        assert np.shares_memory(tm.array, c) and np.shares_memory(tm.rhs, b)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            TileMatrix(rng.standard_normal((8, 12)), 4)

    def test_rejects_bad_tile_size(self, rng):
        a = rng.standard_normal((10, 10))
        with pytest.raises(ValueError):
            TileMatrix(a, 4)
        with pytest.raises(ValueError):
            TileMatrix(a, 0)

    def test_rhs_vector_and_matrix(self, rng):
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        tm = TileMatrix(a, 4, rhs=b)
        assert tm.has_rhs
        assert tm.rhs.shape == (12, 1)
        b2 = rng.standard_normal((12, 3))
        tm2 = TileMatrix(a, 4, rhs=b2)
        assert tm2.rhs.shape == (12, 3)

    def test_rhs_wrong_rows(self, rng):
        with pytest.raises(ValueError):
            TileMatrix(rng.standard_normal((12, 12)), 4, rhs=np.ones(8))

    def test_copy_is_deep(self, rng):
        a = rng.standard_normal((8, 8))
        tm = TileMatrix(a, 4, rhs=np.ones(8))
        cp = tm.copy()
        cp.array[0, 0] = 5.0
        cp.rhs[0, 0] = 5.0
        assert tm.array[0, 0] != 5.0 or a[0, 0] == 5.0
        assert tm.rhs[0, 0] == 1.0


class TestTileAccess:
    def test_tile_view_roundtrip(self, rng):
        a = rng.standard_normal((24, 24))
        tm = TileMatrix.from_dense(a, 8)
        for i in range(3):
            for j in range(3):
                np.testing.assert_array_equal(
                    tm.tile(i, j), a[i * 8 : (i + 1) * 8, j * 8 : (j + 1) * 8]
                )

    def test_tile_is_view(self, rng):
        tm = TileMatrix(rng.standard_normal((16, 16)), 8)
        tm.tile(1, 1)[...] = 0.0
        assert np.all(tm.array[8:, 8:] == 0.0)

    def test_set_tile(self, rng):
        tm = TileMatrix(rng.standard_normal((16, 16)), 8)
        block = np.full((8, 8), 3.0)
        tm.set_tile(0, 1, block)
        np.testing.assert_array_equal(tm.tile(0, 1), block)

    def test_tile_out_of_range(self, rng):
        tm = TileMatrix(rng.standard_normal((16, 16)), 8)
        with pytest.raises(IndexError):
            tm.tile(2, 0)
        with pytest.raises(IndexError):
            tm.tile(0, -1)

    def test_rhs_tile(self, rng):
        b = np.arange(16.0)
        tm = TileMatrix(rng.standard_normal((16, 16)), 8, rhs=b)
        np.testing.assert_array_equal(tm.rhs_tile(1)[:, 0], b[8:])
        tm.rhs_tile(0)[...] = 0.0
        assert np.all(tm.rhs[:8] == 0.0)

    def test_rhs_tile_without_rhs(self, rng):
        tm = TileMatrix(rng.standard_normal((16, 16)), 8)
        with pytest.raises(ValueError):
            tm.rhs_tile(0)

    def test_row_block(self, rng):
        a = rng.standard_normal((24, 24))
        tm = TileMatrix.from_dense(a, 8)
        np.testing.assert_array_equal(tm.row_block(1, 1), a[8:16, 8:])
        np.testing.assert_array_equal(tm.row_block(0, 1, 2), a[0:8, 8:16])
        # Bounds as block(): an empty range at the right edge is a view ...
        assert tm.row_block(2, 3).shape == (8, 0)
        assert tm.row_block(2, 3).shape == tm.block(2, 3, 3, 3).shape
        # ... a stop past the edge or before the start is an error.
        with pytest.raises(IndexError):
            tm.row_block(0, 1, 3 + 5)
        with pytest.raises(IndexError):
            tm.row_block(0, 3, 1)
        with pytest.raises(IndexError):
            tm.row_block(3, 0)

    def test_column_rows_and_rhs_rows_are_full_height_views(self, rng):
        a = rng.standard_normal((24, 24))
        tm = TileMatrix.from_dense(a, 8, rhs=rng.standard_normal((24, 2)))
        column = tm.column_rows(1, 2, [0, 2])
        assert column.shape == (24, 8) and np.shares_memory(column, tm.array)
        np.testing.assert_array_equal(column, a[:, 8:16])
        columns = tm.column_rows(1, 3, [0, 2])
        assert columns.shape == (24, 16) and np.shares_memory(columns, tm.array)
        np.testing.assert_array_equal(columns, a[:, 8:])
        assert tm.rhs_rows([0, 2]) is tm.rhs
        with pytest.raises(IndexError):
            tm.column_rows(1, 2, [0, 3])
        with pytest.raises(IndexError):
            tm.column_rows(2, 4, [0])
        with pytest.raises(IndexError):
            tm.rhs_rows([3])
        with pytest.raises(ValueError):
            TileMatrix.from_dense(a, 8).rhs_rows([0])

    def test_panel_and_scatter_roundtrip(self, rng):
        a = rng.standard_normal((32, 32))
        tm = TileMatrix.from_dense(a, 8)
        rows = [1, 3]
        panel = tm.panel(2, rows)
        assert panel.shape == (16, 8)
        panel2 = panel * 2.0
        tm.scatter_panel(2, rows, panel2)
        np.testing.assert_array_equal(tm.tile(1, 2), panel2[:8])
        np.testing.assert_array_equal(tm.tile(3, 2), panel2[8:])

    @pytest.mark.parametrize("rows", [[1, 2, 3], [0, 2], [3]])
    def test_block_panel_copies_match_per_tile_forms(self, rng, rows):
        """Contiguous rows, the strided domain rows of a 2x2 grid, one row."""
        tm = TileMatrix(rng.standard_normal((32, 32)), 8)
        panel = tm.panel(0, rows)
        np.testing.assert_array_equal(panel, np.vstack([tm.tile(i, 0) for i in rows]))
        assert not np.shares_memory(panel, tm.array)
        ref = tm.copy()
        new = rng.standard_normal(panel.shape)
        tm.scatter_panel(1, rows, new)
        for idx, i in enumerate(rows):
            ref.set_tile(i, 1, new[idx * 8 : (idx + 1) * 8])
        np.testing.assert_array_equal(tm.array, ref.array)

    @pytest.mark.parametrize("rows", [[4], [-1], [0, 4]])
    def test_panel_rows_are_bounds_checked(self, rng, rows):
        tm = TileMatrix(rng.standard_normal((32, 32)), 8)
        with pytest.raises(IndexError):
            tm.panel(1, rows)
        with pytest.raises(IndexError):
            tm.scatter_panel(1, rows, np.zeros((8 * len(rows), 8)))
        with pytest.raises(IndexError):
            tm.panel(4, [0])

    def test_panel_default_rows(self, rng):
        tm = TileMatrix(rng.standard_normal((32, 32)), 8)
        panel = tm.panel(1)
        assert panel.shape == (24, 8)

    def test_scatter_panel_shape_check(self, rng):
        tm = TileMatrix(rng.standard_normal((16, 16)), 8)
        with pytest.raises(ValueError):
            tm.scatter_panel(0, [0, 1], np.zeros((8, 8)))

    def test_tiles_iterator(self, rng):
        tm = TileMatrix(rng.standard_normal((16, 16)), 8)
        coords = [(i, j) for i, j, _ in tm.tiles()]
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestNorms:
    def test_tile_norm_matches_numpy(self, rng):
        a = rng.standard_normal((16, 16))
        tm = TileMatrix.from_dense(a, 8)
        assert tm.tile_norm(0, 1) == pytest.approx(np.linalg.norm(a[:8, 8:], 1))

    def test_tile_norms_shape_and_max(self, rng):
        tm = TileMatrix(rng.standard_normal((24, 24)), 8)
        norms = tm.tile_norms()
        assert norms.shape == (3, 3)
        assert tm.max_tile_norm() == pytest.approx(norms.max())

    def test_full_norm(self, rng):
        a = rng.standard_normal((16, 16))
        tm = TileMatrix.from_dense(a, 8)
        assert tm.norm() == pytest.approx(np.linalg.norm(a, np.inf))

    def test_to_dense_copy(self, rng):
        a = rng.standard_normal((16, 16))
        tm = TileMatrix.from_dense(a, 8)
        d = tm.to_dense()
        d[0, 0] = 1e9
        assert tm.array[0, 0] != 1e9

    @given(n_tiles=st.integers(1, 5), nb=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_property_tile_reassembly(self, n_tiles, nb):
        rng = np.random.default_rng(n_tiles * 10 + nb)
        a = rng.standard_normal((n_tiles * nb, n_tiles * nb))
        tm = TileMatrix.from_dense(a, nb)
        rebuilt = np.block(
            [[tm.tile(i, j) for j in range(n_tiles)] for i in range(n_tiles)]
        )
        np.testing.assert_allclose(rebuilt, a)
