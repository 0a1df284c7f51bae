"""Tests for the LU and QR tile kernels and the Table I flop model."""

import pickle

import numpy as np
import pytest
from householder import apply_q_transpose, build_q, geqrt
from linalg_oracle import apply_row_pivots
from scipy.linalg.lapack import dgeqrt

from repro.kernels import (
    KernelFlops,
    LUPanelFactor,
    apply_swptrsm,
    eliminate_trsm,
    factor_panel_lu,
    factor_tile_lu,
    factorization_flops_lu,
    factorization_flops_qr,
    fake_flops,
    geqrt_tile,
    kernel_flops,
    lu_step_flops,
    qr_step_flops,
    stacked_row_index,
    step_flops_table,
    swptrsm_inplace,
    true_flops,
    tsmqr,
    tsmqr_inplace,
    tsqrt,
    ttmqr,
    ttmqr_inplace,
    ttqrt,
    unmqr,
    unmqr_inplace,
    update_gemm,
)
from repro.core.factorization import StepRecord
from repro.core.lu_step import lu_step_tasks
from repro.core.panel_analysis import analyze_panel
from repro.kernels.dispatch import KERNELS, sweep_ranges
from repro.linalg import getrf, trsm_lower_left_unit, trsm_upper_right
from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix


def _u(f):
    """The upper-triangular factor ``U`` of a packed factorization."""
    return np.triu(f.top)


def _l_top(f):
    """The unit-lower top block of ``L`` of a packed factorization."""
    return np.tril(f.top, -1) + np.eye(f.nb)


# --------------------------------------------------------------------------- #
# LU kernels
# --------------------------------------------------------------------------- #
class TestLUKernels:
    def test_factor_tile_properties(self, rng):
        a = rng.standard_normal((8, 8))
        f = factor_tile_lu(a)
        assert isinstance(f, LUPanelFactor)
        assert f.nb == 8
        assert f.top.shape == (8, 8)
        np.testing.assert_allclose(np.diag(_l_top(f)), 1.0)
        assert f.smallest_pivot > 0.0

    def test_factor_panel_stacks(self, rng):
        stacked = rng.standard_normal((24, 8))
        f = factor_panel_lu(stacked.copy(), 8)
        # The factored panel reproduces the permuted input: P W = L U.
        lfull = np.tril(f.lu, -1)
        lfull[np.arange(8), np.arange(8)] = 1.0
        pw = apply_row_pivots(stacked.copy(), f.piv)
        np.testing.assert_allclose(lfull @ _u(f), pw, atol=1e-11)

    def test_factor_panel_wrong_width(self, rng):
        with pytest.raises(ValueError):
            factor_panel_lu(rng.standard_normal((16, 4)), 8)

    def test_eliminate_trsm(self, rng):
        a_kk = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        f = factor_tile_lu(a_kk)
        a_ik = rng.standard_normal((6, 6))
        out = eliminate_trsm(f, a_ik)
        np.testing.assert_allclose(out @ _u(f), a_ik, atol=1e-10)

    def test_apply_swptrsm_single_tile(self, rng):
        a_kk = rng.standard_normal((6, 6))
        f = factor_tile_lu(a_kk)
        c = rng.standard_normal((6, 4))
        out = apply_swptrsm(f, c)
        # out = L^{-1} P c  =>  L out = P c
        pc = apply_row_pivots(c.copy(), f.piv)
        np.testing.assert_allclose(_l_top(f) @ out[:6], pc[:6], atol=1e-10)

    def test_apply_swptrsm_row_count_check(self, rng):
        f = factor_tile_lu(rng.standard_normal((6, 6)))
        with pytest.raises(ValueError):
            apply_swptrsm(f, rng.standard_normal((8, 3)))

    def test_update_gemm(self, rng):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        c = rng.standard_normal((5, 5))
        np.testing.assert_allclose(update_gemm(c, a, b), c - a @ b)

    def test_lu_step_schur_complement(self, rng):
        """Factor + eliminate + apply + update reproduces the Schur complement."""
        nb = 6
        a_kk = rng.standard_normal((nb, nb)) + 5 * np.eye(nb)
        a_ik = rng.standard_normal((nb, nb))
        a_kj = rng.standard_normal((nb, nb))
        a_ij = rng.standard_normal((nb, nb))

        f = factor_tile_lu(a_kk)
        elim = eliminate_trsm(f, a_ik)
        applied = apply_swptrsm(f, a_kj)
        updated = update_gemm(a_ij, elim, applied[:nb])

        expected = a_ij - a_ik @ np.linalg.inv(a_kk) @ a_kj
        np.testing.assert_allclose(updated, expected, atol=1e-9)


# --------------------------------------------------------------------------- #
# In-place SWPTRSM/TRSM against the explicit swap-loop / explicit-triangle form
# --------------------------------------------------------------------------- #
def _reference_swptrsm(factor, stacked):
    """The readable form: one swap per pivot, then a solve against ``tril + I``."""
    c = np.array(stacked, dtype=np.float64, copy=True)
    apply_row_pivots(c, factor.piv)
    c[: factor.nb] = trsm_lower_left_unit(_l_top(factor), c[: factor.nb])
    return c


def _reference_lu_step(tiles, k, domain_rows, factor):
    """One LU step through stacked copies, swap loops and explicit triangles."""
    nb, n = tiles.nb, tiles.n
    tiles.scatter_panel(k, domain_rows, factor.lu)
    for j in range(k + 1, n):
        tiles.scatter_panel(j, domain_rows, _reference_swptrsm(factor, tiles.panel(j, domain_rows)))
    if tiles.has_rhs:
        stacked = _reference_swptrsm(factor, np.vstack([tiles.rhs_tile(i) for i in domain_rows]))
        for idx, i in enumerate(domain_rows):
            tiles.rhs_tile(i)[...] = stacked[idx * nb : (idx + 1) * nb]
    for i in range(k + 1, n):
        if i not in domain_rows:
            tiles.set_tile(i, k, trsm_upper_right(_u(factor), tiles.tile(i, k)))
    for i in range(k + 1, n):
        for j in range(k + 1, n):
            tiles.tile(i, j)[...] -= tiles.tile(i, k) @ tiles.tile(k, j)
        if tiles.has_rhs:
            tiles.rhs_tile(i)[...] -= tiles.tile(i, k) @ tiles.rhs_tile(k)


class TestInPlaceLUKernels:
    @pytest.mark.parametrize("nb", [1, 3, 8, 64])
    @pytest.mark.parametrize("tiles_stacked", [1, 3])
    def test_functional_forms_match_the_readable_ones(self, nb, tiles_stacked, rng):
        f = factor_panel_lu(rng.standard_normal((tiles_stacked * nb, nb)), nb)
        c = rng.standard_normal((tiles_stacked * nb, 5))
        kept = c.copy()
        np.testing.assert_array_equal(apply_swptrsm(f, c), _reference_swptrsm(f, c))
        np.testing.assert_array_equal(c, kept)
        a_ik = rng.standard_normal((nb, nb))
        np.testing.assert_array_equal(eliminate_trsm(f, a_ik), trsm_upper_right(_u(f), a_ik))

    def test_swptrsm_inplace_touches_only_the_listed_rows(self, rng):
        nb = 4
        f = factor_panel_lu(rng.standard_normal((2 * nb, nb)), nb)
        c = rng.standard_normal((5 * nb, 3))
        rows = stacked_row_index([1, 3], nb)  # a strided domain
        expected = c.copy()
        expected[rows] = _reference_swptrsm(f, c[rows])
        swptrsm_inplace(f, c, rows)
        np.testing.assert_array_equal(c, expected)

    @pytest.mark.parametrize("with_rhs", [False, True], ids=["no-rhs", "rhs"])
    @pytest.mark.parametrize("grid", [(1, 1), (2, 2)], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("form", ["closure", "kernel_call"])
    def test_lu_step_bit_identical_to_reference(self, form, grid, with_rhs, rng):
        nb, n, k = 8, 5, 1
        a = rng.standard_normal((n * nb, n * nb))
        rhs = rng.standard_normal((n * nb, 3)) if with_rhs else None
        tiles = TileMatrix.from_dense(a, nb, rhs=rhs)
        dist = BlockCyclicDistribution(ProcessGrid(*grid), n)
        analysis = analyze_panel(tiles, dist, k)
        assert analysis.domain_rows == ([1, 2, 3, 4] if grid == (1, 1) else [1, 3])
        np.testing.assert_array_equal(tiles.array, a)  # analysis reads, never writes

        expected = tiles.copy()
        _reference_lu_step(expected, k, analysis.domain_rows, analysis.factor)

        tasks = lu_step_tasks(tiles, k, analysis, StepRecord(k=k, kind="LU"))
        assert [t.kernel for t in tasks].count("swptrsm") == len(sweep_ranges(k, n)) + with_rhs
        for task in tasks:
            if form == "closure":
                task.fn()
            else:  # what a worker process runs, after the pickle round trip
                call = pickle.loads(pickle.dumps(task.call))
                KERNELS[call.kernel](tiles, (), *call.args)
        np.testing.assert_array_equal(tiles.array, expected.array)
        if with_rhs:
            np.testing.assert_array_equal(tiles.rhs, expected.rhs)

    def test_factor_ships_exactly_lu_and_piv(self, rng):
        nb = 16
        f = factor_panel_lu(rng.standard_normal((3 * nb, nb)), nb)
        assert "moves" in vars(f)  # built at construction, not on first use
        assert set(f.__getstate__()) == {"lu", "piv", "nb"}
        payload = pickle.dumps(f)
        assert len(payload) <= f.lu.nbytes + f.piv.nbytes + 512
        g = pickle.loads(payload)
        np.testing.assert_array_equal(g.lu, f.lu)
        np.testing.assert_array_equal(g.piv, f.piv)
        for rebuilt, built in zip(g.moves, f.moves):
            np.testing.assert_array_equal(rebuilt, built)
        c = rng.standard_normal((3 * nb, 2))
        np.testing.assert_array_equal(apply_swptrsm(g, c), apply_swptrsm(f, c))

    def test_factor_panel_factors_the_stack_in_place(self, rng):
        stacked = rng.standard_normal((24, 8))
        lu, piv = getrf(stacked)
        f = factor_panel_lu(stacked, 8)
        assert f.lu is stacked
        np.testing.assert_array_equal(f.lu, lu)
        np.testing.assert_array_equal(f.piv, piv)


# --------------------------------------------------------------------------- #
# QR kernels
# --------------------------------------------------------------------------- #
class TestQRKernels:
    def test_geqrt_tile(self, rng):
        a = rng.standard_normal((8, 8))
        f = geqrt_tile(a)
        q = build_q(f.v, f.t)
        np.testing.assert_allclose(q @ f.r, a, atol=1e-10)

    def test_unmqr_applies_qt(self, rng):
        a = rng.standard_normal((6, 6))
        c = rng.standard_normal((6, 4))
        f = geqrt_tile(a)
        q = build_q(f.v, f.t)
        np.testing.assert_allclose(unmqr(f, c), q.T @ c, atol=1e-10)

    def test_tsqrt_kills_bottom_tile(self, rng):
        nb = 6
        r_top = np.triu(rng.standard_normal((nb, nb)))
        a_bot = rng.standard_normal((nb, nb))
        f = tsqrt(r_top, a_bot)
        # R is upper triangular and the transformation reconstructs the stack.
        np.testing.assert_allclose(np.tril(f.r, -1), 0.0, atol=1e-12)
        q = build_q(f.v, f.t)
        stacked = np.vstack([r_top, a_bot])
        np.testing.assert_allclose(q @ np.vstack([f.r, np.zeros((nb, nb))]), stacked, atol=1e-10)

    def test_tsmqr_consistent_with_q(self, rng):
        nb = 5
        r_top = np.triu(rng.standard_normal((nb, nb)))
        a_bot = rng.standard_normal((nb, nb))
        f = tsqrt(r_top, a_bot)
        c_top = rng.standard_normal((nb, 3))
        c_bot = rng.standard_normal((nb, 3))
        top, bot = tsmqr(f, c_top, c_bot)
        q = build_q(f.v, f.t)
        expected = q.T @ np.vstack([c_top, c_bot])
        np.testing.assert_allclose(np.vstack([top, bot]), expected, atol=1e-10)

    def test_ttqrt_and_ttmqr(self, rng):
        nb = 4
        r1 = np.triu(rng.standard_normal((nb, nb)))
        r2 = np.triu(rng.standard_normal((nb, nb)))
        f = ttqrt(r1, r2)
        q = build_q(f.v, f.t)
        stacked = np.vstack([r1, r2])
        np.testing.assert_allclose(q @ np.vstack([f.r, np.zeros((nb, nb))]), stacked, atol=1e-10)
        c1, c2 = rng.standard_normal((nb, 2)), rng.standard_normal((nb, 2))
        top, bot = ttmqr(f, c1, c2)
        np.testing.assert_allclose(np.vstack([top, bot]), q.T @ np.vstack([c1, c2]), atol=1e-10)

    def test_norm_preservation(self, rng):
        """QR kernels never grow the Frobenius norm of the coupled tiles."""
        nb = 6
        r_top = np.triu(rng.standard_normal((nb, nb)))
        a_bot = rng.standard_normal((nb, nb))
        f = tsqrt(r_top, a_bot)
        before = np.linalg.norm(np.vstack([r_top, a_bot]))
        after = np.linalg.norm(f.r)
        assert after == pytest.approx(before, rel=1e-10)


# --------------------------------------------------------------------------- #
# QR kernels (LAPACK dgeqrt) against the pure-NumPy Householder reference
# --------------------------------------------------------------------------- #
QR_TILE_SIZES = (1, 2, 3, 8, 17, 64)


def _assert_close(actual, expected, rel):
    scale = max(float(np.abs(expected).max()), 1.0)
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=rel * scale)


def _square_tile(case, nb, rng):
    a = rng.standard_normal((nb, nb))
    if case == "zero_column":
        a[:, nb // 2] = 0.0
    elif case == "triangular":
        a = np.triu(a)
    return a


@pytest.mark.parametrize("nb", QR_TILE_SIZES)
class TestQRKernelsAgainstReference:
    @pytest.mark.parametrize("case", ["random", "zero_column", "triangular"])
    def test_geqrt_tile(self, nb, case, rng):
        a = _square_tile(case, nb, rng)
        kept = a.copy()
        c = rng.standard_normal((nb, 3))
        v_ref, t_ref, r_ref = geqrt(a)
        f = geqrt_tile(a)
        np.testing.assert_array_equal(a, kept)  # functional: input untouched
        # Same sign convention as the reference, so R compares directly.
        _assert_close(f.r, r_ref, 1e-12)
        _assert_close(unmqr(f, c), apply_q_transpose(v_ref, t_ref, c), 1e-12)
        assert np.all(np.tril(f.r, -1) == 0.0) and np.all(np.tril(f.t, -1) == 0.0)
        assert not f.coupled and f.v is f.vb and f.vb.shape == (nb, nb)

    @pytest.mark.parametrize("kernel", [tsqrt, ttqrt])
    @pytest.mark.parametrize("case", ["random", "zero"])
    def test_coupled_factorization(self, nb, kernel, case, rng):
        r_top = np.triu(rng.standard_normal((nb, nb)))
        bottom = np.zeros((nb, nb)) if case == "zero" else rng.standard_normal((nb, nb))
        if kernel is ttqrt:
            bottom = np.triu(bottom)
        c_top, c_bot = rng.standard_normal((nb, 3)), rng.standard_normal((nb, 3))
        v_ref, t_ref, r_ref = geqrt(np.vstack([r_top, bottom]))
        expected = apply_q_transpose(v_ref, t_ref, np.vstack([c_top, c_bot]))

        f = kernel(r_top, bottom)
        _assert_close(f.r, r_ref, 1e-12)
        apply = ttmqr if kernel is ttqrt else tsmqr
        top, bot = apply(f, c_top, c_bot)
        _assert_close(np.vstack([top, bot]), expected, 1e-12)

        # V = [I; V_b]: only the bottom block is stored, the top is exact.
        assert f.coupled and f.vb.shape == (nb, nb) and f.v.shape == (2 * nb, nb)
        np.testing.assert_array_equal(f.v[:nb], np.eye(nb))
        np.testing.assert_array_equal(f.v[nb:], f.vb)
        # The structured update equals the dense compact-WY apply with full V.
        dense = apply_q_transpose(f.v, f.t, np.vstack([c_top, c_bot]))
        _assert_close(np.vstack([top, bot]), dense, 1e-13)
        if case == "zero":  # nothing to annihilate: tau = 0, Q = I
            assert not f.vb.any() and not f.t.any()
            np.testing.assert_array_equal(f.r, r_top)

    def test_dgeqrt_keeps_triangular_top_exact(self, nb, rng):
        """The LAPACK property the stored ``[I; V_b]`` layout relies on."""
        stacked = np.vstack(
            [np.triu(rng.standard_normal((nb, nb))), rng.standard_normal((nb, nb))]
        )
        qr, _t, info = dgeqrt(nb, stacked)
        assert info == 0
        assert np.all(np.tril(qr[:nb], -1) == 0.0)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_factor_pickles(self, nb, coupled, rng):
        a = rng.standard_normal((nb, nb))
        f = tsqrt(np.triu(a), a) if coupled else geqrt_tile(a)
        payload = pickle.dumps(f)
        g = pickle.loads(payload)
        assert (g.nb, g.coupled) == (f.nb, f.coupled)
        for name in ("vb", "t", "r"):
            np.testing.assert_array_equal(getattr(g, name), getattr(f, name))
        # What crosses a process or rank boundary is what qr.geqrt/qr.couple
        # declare as product_bytes: three nb x nb blocks of doubles.
        assert len(payload) <= 3 * nb * nb * 8 + 1024


# --------------------------------------------------------------------------- #
# Structure-aware applies (TRMM on V, V_b and T; GEMM on TSQRT's full V_b)
# --------------------------------------------------------------------------- #
def _factor_for(kernel, nb, rng):
    """A GEQRT factor for ``unmqr``, else a TSQRT/TTQRT factor for the pair apply."""
    if kernel == "unmqr":
        return geqrt_tile(rng.standard_normal((nb, nb)))
    couple = ttqrt if kernel == "ttmqr" else tsqrt
    return couple(np.triu(rng.standard_normal((nb, nb))), rng.standard_normal((nb, nb)))


_INPLACE = {"unmqr": unmqr_inplace, "tsmqr": tsmqr_inplace, "ttmqr": ttmqr_inplace}
_FUNCTIONAL = {"unmqr": unmqr, "tsmqr": tsmqr, "ttmqr": ttmqr}


@pytest.mark.parametrize("kernel", ["unmqr", "tsmqr", "ttmqr"])
class TestStructuredApplies:
    @pytest.mark.parametrize("nb", QR_TILE_SIZES)
    def test_matches_dense_compact_wy(self, kernel, nb, rng):
        f = _factor_for(kernel, nb, rng)
        rows = nb if kernel == "unmqr" else 2 * nb
        c = rng.standard_normal((rows, 3 * nb + 1))
        expected = apply_q_transpose(f.v, f.t, c)
        if kernel == "unmqr":
            actual = unmqr(f, c)
        else:
            actual = np.vstack(_FUNCTIONAL[kernel](f, c[:nb], c[nb:]))
        _assert_close(actual, expected, 1e-13)

    @pytest.mark.parametrize("nb", QR_TILE_SIZES)
    def test_inplace_writes_only_its_operands(self, kernel, nb, rng):
        f = _factor_for(kernel, nb, rng)
        factor_before = [f.vb.copy(), f.t.copy(), f.r.copy()]
        # Tile-row views of a C-ordered matrix, as TileMatrix.row_block gives.
        store = rng.standard_normal((3 * nb, 5 * nb))
        before = store.copy()
        top, bottom = store[:nb, nb : 4 * nb], store[2 * nb :, nb : 4 * nb]
        if kernel == "unmqr":
            expected = (unmqr(f, top),)
            unmqr_inplace(f, top)
            written = (top,)
        else:
            expected = _FUNCTIONAL[kernel](f, top, bottom)
            _INPLACE[kernel](f, top, bottom)
            written = (top, bottom)
        for view, value in zip(written, expected):
            np.testing.assert_array_equal(view, value)
            view[...] = np.nan
        untouched = ~np.isnan(store)
        np.testing.assert_array_equal(store[untouched], before[untouched])
        for array, kept in zip((f.vb, f.t, f.r), factor_before):
            np.testing.assert_array_equal(array, kept)

    @pytest.mark.parametrize("nb", [3, 8, 12, 16, 17, 64, 128])
    def test_wide_apply_equals_per_tile_bits(self, kernel, nb, rng):
        """A sweep's row-wide apply gives each column block the per-tile bits.

        TSMQR's two GEMMs reproduce per-tile bits only for tile orders
        <= 16 or divisible by 8 on OpenBLAS; the TRMM applies do at every
        order.
        """
        if kernel == "tsmqr" and nb > 16 and nb % 8:
            pytest.skip("wide GEMM blocks differently from the per-tile GEMM")
        f = _factor_for(kernel, nb, rng)
        cols = 4
        top = rng.standard_normal((nb, cols * nb))
        bottom = rng.standard_normal((nb, cols * nb))
        wide_top, wide_bottom = top.copy(), bottom.copy()
        if kernel == "unmqr":
            unmqr_inplace(f, wide_top)
        else:
            _INPLACE[kernel](f, wide_top, wide_bottom)
        for j in range(cols):
            block = slice(j * nb, (j + 1) * nb)
            if kernel == "unmqr":
                np.testing.assert_array_equal(wide_top[:, block], unmqr(f, top[:, block]))
            else:
                t, b = _FUNCTIONAL[kernel](f, top[:, block], bottom[:, block])
                np.testing.assert_array_equal(wide_top[:, block], t)
                np.testing.assert_array_equal(wide_bottom[:, block], b)


@pytest.mark.parametrize("nb", QR_TILE_SIZES)
def test_ttqrt_vb_is_exactly_upper_triangular(nb, rng):
    """TTMQR's TRMM on ``V_b`` reads only its upper triangle."""
    f = ttqrt(np.triu(rng.standard_normal((nb, nb))), rng.standard_normal((nb, nb)))
    assert np.all(np.tril(f.vb, -1) == 0.0)


# --------------------------------------------------------------------------- #
# Flop model (Table I)
# --------------------------------------------------------------------------- #
class TestFlops:
    def test_kernel_values_in_nb3_units(self):
        kf = KernelFlops(10)
        assert kf.getrf == pytest.approx((2 / 3) * 1000)
        assert kf.trsm == pytest.approx(1000)
        assert kf.gemm == pytest.approx(2000)
        assert kf.geqrt == pytest.approx((4 / 3) * 1000)
        assert kf.tsqrt == pytest.approx(2000)
        assert kf.tsmqr == pytest.approx(4000)

    def test_kernel_flops_by_name(self):
        assert kernel_flops("GEMM", 4) == pytest.approx(2 * 64)
        with pytest.raises(KeyError):
            kernel_flops("nope", 4)

    def test_table1_first_step_units(self):
        # For the first step of an n-tile matrix, Table I gives (n-1) factors.
        table = step_flops_table(nb=240, remaining=5)
        assert table["lu"]["factor"] == pytest.approx(2 / 3)
        assert table["lu"]["eliminate"] == pytest.approx(4.0)
        assert table["lu"]["apply"] == pytest.approx(4.0)
        assert table["lu"]["update"] == pytest.approx(2 * 16.0)
        assert table["qr"]["factor"] == pytest.approx(4 / 3)
        assert table["qr"]["eliminate"] == pytest.approx(8.0)
        assert table["qr"]["update"] == pytest.approx(4 * 16.0)

    def test_qr_step_roughly_twice_lu(self):
        for remaining in (2, 8, 40):
            lu = lu_step_flops(16, remaining)["total"]
            qr = qr_step_flops(16, remaining)["total"]
            assert 1.8 <= qr / lu <= 2.1

    def test_factorization_totals(self):
        n = 960
        assert factorization_flops_lu(n) == pytest.approx(2 / 3 * n**3)
        assert factorization_flops_qr(n) == pytest.approx(4 / 3 * n**3)
        assert fake_flops(n) == factorization_flops_lu(n)

    def test_sum_of_lu_steps_approaches_total(self):
        nb, n_tiles = 32, 24
        total = sum(lu_step_flops(nb, n_tiles - k)["total"] for k in range(n_tiles))
        expected = factorization_flops_lu(nb * n_tiles)
        assert total == pytest.approx(expected, rel=0.15)

    def test_true_flops_interpolates(self):
        n = 1000
        assert true_flops(n, 1.0) == pytest.approx(factorization_flops_lu(n))
        assert true_flops(n, 0.0) == pytest.approx(factorization_flops_qr(n))
        mid = true_flops(n, 0.5)
        assert factorization_flops_lu(n) < mid < factorization_flops_qr(n)

    def test_true_flops_validates_fraction(self):
        with pytest.raises(ValueError):
            true_flops(100, 1.5)
