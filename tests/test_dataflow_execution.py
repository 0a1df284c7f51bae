"""The numerical factorization executed through the dataflow runtime.

The parallel path must be *numerically identical* to the sequential
reference: both paths run the exact same kernel closures, only their
interleaving differs, and no two tasks accumulate into the same tile, so
the factors, pivots, transformed right-hand sides and solutions match
bit for bit.
"""

import numpy as np
import pytest

from repro import (
    HQRSolver,
    HybridLUQRSolver,
    LUIncPivSolver,
    LUNoPivSolver,
    LUPPSolver,
    MaxCriterion,
    SequentialExecutor,
    ThreadedExecutor,
)
from repro.api.facade import make_executor, make_solver
from repro.core.lu_step import lu_step_tasks
from repro.core.panel_analysis import analyze_panel
from repro.core.factorization import StepRecord
from repro.core.qr_step import qr_step_tasks
from repro.matrices.random_gen import random_matrix
from repro.runtime import (
    KernelTask,
    build_step_graph,
    merge_traces,
    run_step_tasks,
)
from repro.runtime.task import RHS_COLUMN
from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix
from repro.trees.flat import FlatTree
from repro.trees.hierarchical import HierarchicalTree


def _solver_factories():
    return [
        lambda ex: HybridLUQRSolver(
            8, MaxCriterion(alpha=1.0), grid=ProcessGrid(2, 2), executor=ex
        ),
        lambda ex: LUPPSolver(8, executor=ex),
        lambda ex: LUNoPivSolver(8, executor=ex),
        lambda ex: LUIncPivSolver(8, executor=ex),
        lambda ex: HQRSolver(8, grid=ProcessGrid(2, 2), executor=ex),
    ]


@pytest.mark.parametrize("factory", _solver_factories())
def test_threaded_factorization_identical_to_sequential(rng, factory):
    n = 96
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    seq = factory(None)
    par = factory(ThreadedExecutor(workers=4))

    f_seq = seq.factor(a, b)
    f_par = par.factor(a, b)

    assert f_par.step_kinds == f_seq.step_kinds
    np.testing.assert_array_equal(f_par.tiles.array, f_seq.tiles.array)
    np.testing.assert_array_equal(f_par.tiles.rhs, f_seq.tiles.rhs)
    x_seq, x_par = f_seq.solve(), f_par.solve()
    assert np.linalg.norm(x_par - x_seq) == 0.0
    # Growth tracking sees the same trailing-matrix states on both paths.
    assert f_par.growth_factor == f_seq.growth_factor


def test_threaded_hybrid_same_decisions_and_pivots(rng):
    """The sequential control layer (criterion, pivots) is untouched."""
    n = 80
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    seq = HybridLUQRSolver(8, MaxCriterion(alpha=1.0))
    par = HybridLUQRSolver(8, MaxCriterion(alpha=1.0), executor=ThreadedExecutor(workers=4))
    f_seq, f_par = seq.factor(a, b), par.factor(a, b)
    for s, p in zip(f_seq.steps, f_par.steps):
        assert s.kind == p.kind
        assert s.domain_rows == p.domain_rows
        assert s.kernel_counts == p.kernel_counts
        if s.decision is not None:
            assert s.decision.use_lu == p.decision.use_lu


def test_threaded_execution_overlaps_tasks(rng):
    """On >= 4 workers the per-step traces show real task concurrency."""
    # Tiles of order 64: two tasks overlap when a kernel outlasts the hand-off
    # of the next task to another thread (tens of microseconds).  The LAPACK
    # LU kernels finish an order-16 tile sooner than that: at n = 128 / nb = 16
    # about one factorization in twenty runs serially.
    n = 512
    a = rng.standard_normal((n, n))
    solver = LUPPSolver(64, track_growth=False, executor=ThreadedExecutor(workers=4))
    solver.factor(a)
    assert solver.step_traces, "executor path must record per-step traces"
    assert max(t.max_concurrency for t in solver.step_traces) > 1
    merged = merge_traces(solver.step_traces)
    assert merged.n_tasks == sum(t.n_tasks for t in solver.step_traces)
    assert merged.max_concurrency > 1


def test_merge_traces_partial_non_contiguous_uids():
    """Regression: partial traces with uid gaps must not collide when merged."""
    from repro.runtime import ExecutionTrace

    partial = ExecutionTrace()
    partial.start_times = {0: 0.0, 7: 0.1}  # uids 1-6 never started
    partial.finish_times = {0: 0.2}
    full = ExecutionTrace()
    full.start_times = {5: 0.3}
    full.finish_times = {5: 0.4}
    merged = merge_traces([partial, full])
    assert len(merged.start_times) == 3  # nothing overwritten
    assert merged.n_tasks == 2


def test_sequential_executor_path_matches_inline(rng):
    """SequentialExecutor through the graph equals the inline path."""
    n = 64
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    inline = LUNoPivSolver(8).factor(a, b)
    graphed = LUNoPivSolver(8, executor=SequentialExecutor()).factor(a, b)
    np.testing.assert_array_equal(inline.tiles.array, graphed.tiles.array)
    np.testing.assert_array_equal(inline.tiles.rhs, graphed.tiles.rhs)


def test_breakdown_propagates_through_executor():
    """A singular panel still surfaces as a breakdown on the parallel path."""
    a = np.zeros((16, 16))  # every diagonal tile singular
    seq = LUNoPivSolver(4)
    par = LUNoPivSolver(4, executor=ThreadedExecutor(workers=2))
    assert not seq.factor(a).succeeded
    assert not par.factor(a).succeeded


def test_step_traces_reset_between_factorizations(rng):
    a = rng.standard_normal((32, 32))
    solver = LUPPSolver(8, executor=ThreadedExecutor(workers=2))
    solver.factor(a)
    first = len(solver.step_traces)
    solver.factor(a)
    assert len(solver.step_traces) == first


# --------------------------------------------------------------------------- #
# Step task plans
# --------------------------------------------------------------------------- #
class TestStepTaskPlans:
    def _tiles(self, rng, n_tiles=4, nb=8, rhs=True):
        n = n_tiles * nb
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n) if rhs else None
        return TileMatrix.from_dense(a, nb, rhs=b)

    def test_lu_plan_matches_inline_execution(self, rng):
        tiles_a = self._tiles(rng)
        tiles_b = tiles_a.copy()
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles_a.n)

        from repro.core.lu_step import perform_lu_step

        rec_a = StepRecord(k=0, kind="LU")
        perform_lu_step(tiles_a, 0, analyze_panel(tiles_a, dist, 0), rec_a)

        rec_b = StepRecord(k=0, kind="LU")
        tasks = lu_step_tasks(tiles_b, 0, analyze_panel(tiles_b, dist, 0), rec_b)
        run_step_tasks(tasks, executor=ThreadedExecutor(workers=4))

        np.testing.assert_array_equal(tiles_a.array, tiles_b.array)
        np.testing.assert_array_equal(tiles_a.rhs, tiles_b.rhs)
        assert rec_a.kernel_counts == rec_b.kernel_counts

    def test_qr_plan_matches_inline_execution(self, rng):
        tiles_a = self._tiles(rng)
        tiles_b = tiles_a.copy()
        dist = BlockCyclicDistribution(ProcessGrid(2, 1), tiles_a.n)
        tree = HierarchicalTree(
            distribution=dist, intra_tree=FlatTree(), inter_tree=FlatTree(), step=0
        )
        elims = tree.eliminations_for_step(0, list(range(tiles_a.n)))

        from repro.core.qr_step import perform_qr_step

        rec_a = StepRecord(k=0, kind="QR")
        perform_qr_step(tiles_a, 0, elims, rec_a)

        rec_b = StepRecord(k=0, kind="QR")
        tasks = qr_step_tasks(tiles_b, 0, elims, rec_b)
        run_step_tasks(tasks, executor=ThreadedExecutor(workers=4))

        np.testing.assert_array_equal(tiles_a.array, tiles_b.array)
        np.testing.assert_array_equal(tiles_a.rhs, tiles_b.rhs)
        assert rec_a.kernel_counts == rec_b.kernel_counts
        assert rec_a.eliminations == rec_b.eliminations

    def test_plan_kernel_counts_match_record(self, rng):
        """Every planned task is counted in the step record (matrix kernels)."""
        tiles = self._tiles(rng, rhs=False)
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
        rec = StepRecord(k=0, kind="LU")
        tasks = lu_step_tasks(tiles, 0, analyze_panel(tiles, dist, 0), rec)
        # One getrf covering the domain; the swptrsm and gemm sweeps carry
        # one logical kernel per trailing column / tile in ``fused``.  The
        # record additionally charges the Table-I trsm count for the
        # sub-diagonal panel tiles.
        from collections import Counter

        planned = Counter()
        for t in tasks:
            planned[t.kernel] += t.fused
        assert planned["getrf"] == rec.kernel_counts["getrf"]
        assert planned["swptrsm"] == rec.kernel_counts["swptrsm"]
        assert planned["gemm"] == rec.kernel_counts["gemm"]

    def test_written_tiles_covers_trailing_region(self, rng):
        tiles = self._tiles(rng)
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
        rec = StepRecord(k=0, kind="LU")
        tasks = lu_step_tasks(tiles, 0, analyze_panel(tiles, dist, 0), rec)
        written = set().union(*(t.writes for t in tasks))
        n = tiles.n
        for i in range(n):
            for j in range(n):
                assert (i, j) in written
        assert (0, RHS_COLUMN) in written

    def test_build_step_graph_appends_for_lookahead(self):
        """Two steps can share one graph (the cross-step lookahead seam)."""
        log = []
        step0 = [KernelTask("a", lambda: log.append(0), writes=frozenset({(0, 0)}))]
        step1 = [
            KernelTask(
                "b",
                lambda: log.append(1),
                reads=frozenset({(0, 0)}),
                writes=frozenset({(1, 1)}),
            )
        ]
        graph = build_step_graph(step0, step=0)
        graph = build_step_graph(step1, step=1, graph=graph)
        assert len(graph) == 2
        assert graph.task(0).uid in graph.task(1).deps
        ThreadedExecutor(workers=2).run(graph)
        assert log == [0, 1]

    def test_run_step_tasks_inline_returns_no_trace(self):
        log = []
        tasks = [KernelTask("x", lambda: log.append(1))]
        assert run_step_tasks(tasks, executor=None) is None
        assert log == [1]


# --------------------------------------------------------------------------- #
# solve_many
# --------------------------------------------------------------------------- #
class TestSolveMany:
    def test_matches_individual_solves(self, rng):
        n = 48
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        bs = rng.standard_normal((n, 3))
        solver = HybridLUQRSolver(8, MaxCriterion(alpha=2.0))
        results = solver.solve_many(a, bs)
        assert len(results) == 3
        for j, res in enumerate(results):
            single = HybridLUQRSolver(8, MaxCriterion(alpha=2.0)).solve(a, bs[:, j])
            np.testing.assert_allclose(res.x, single.x, atol=1e-12)
            assert res.hpl3 < 100
        # All results share one factorization.
        assert all(r.factorization is results[0].factorization for r in results)

    def test_accepts_sequence_of_vectors_and_padding(self, rng):
        n = 21  # not a multiple of nb=8: exercises the padded path
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        vecs = [rng.standard_normal(n) for _ in range(2)]
        results = LUPPSolver(8).solve_many(a, vecs)
        for b, res in zip(vecs, results):
            assert res.x.shape == (n,)
            np.testing.assert_allclose(a @ res.x, b, atol=1e-8)

    def test_threaded_solve_many_identical(self, rng):
        n = 64
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        bs = rng.standard_normal((n, 4))
        seq = LUPPSolver(8).solve_many(a, bs)
        par = LUPPSolver(8, executor=ThreadedExecutor(workers=4)).solve_many(a, bs)
        for s, p in zip(seq, par):
            assert np.linalg.norm(p.x - s.x) == 0.0

    def test_x_true_forwarded(self, rng):
        n = 32
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        x_true = rng.standard_normal((n, 2))
        bs = a @ x_true
        results = LUPPSolver(8).solve_many(a, bs, x_true=x_true)
        for res in results:
            assert res.stability.forward_error is not None
            assert res.stability.forward_error < 1e-8

    def test_x_true_as_sequence_of_vectors(self, rng):
        """Regression: x_true in the same sequence form as bs is column-stacked."""
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        xs = [rng.standard_normal(n) for _ in range(2)]
        bs = [a @ x for x in xs]
        results = LUPPSolver(8).solve_many(a, bs, x_true=xs)
        for res in results:
            assert res.stability.forward_error < 1e-10  # not buffer-scrambled

    def test_shape_mismatch_raises(self, rng):
        a = rng.standard_normal((16, 16))
        with pytest.raises(ValueError):
            LUPPSolver(8).solve_many(a, np.ones((8, 2)))
        with pytest.raises(ValueError):
            LUPPSolver(8).solve_many(a, np.ones((16, 2)), x_true=np.ones((16, 3)))

    def test_solve_column_vector_b_keeps_shape(self, rng):
        """Regression: b of shape (n, 1) yields x of shape (n, 1) and sane metrics."""
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal((n, 1))
        res = LUPPSolver(8).solve(a, b)
        assert res.x.shape == (n, 1)
        assert res.hpl3 < 100  # no (n,) - (n,1) broadcast blow-up
        flat = LUPPSolver(8).solve(a, b[:, 0])
        np.testing.assert_array_equal(res.x[:, 0], flat.x)

    def test_single_1d_rhs_array(self, rng):
        """A plain 1-D b (the natural single-RHS call) is one column."""
        n = 16
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        b = rng.standard_normal(n)
        (res,) = LUPPSolver(8).solve_many(a, b)
        single = LUPPSolver(8).solve(a, b)
        np.testing.assert_allclose(res.x, single.x, atol=1e-13)


# --------------------------------------------------------------------------- #
# Incremental growth tracking
# --------------------------------------------------------------------------- #
def _per_tile_rescan(solver_cls):
    """``solver_cls`` with growth read by one ``tile_norm`` call per tile of
    the trailing submatrix after every step (the brute-force reference)."""

    class PerTileRescan(solver_cls):
        def _active_region_max_norm(self, tiles, k):
            best = 0.0
            for i in range(k, tiles.n):
                for j in range(k, tiles.n):
                    best = max(best, tiles.tile_norm(i, j, ord=1))
            return best

    return PerTileRescan


class TestIncrementalGrowth:
    def test_matches_full_rescan(self, rng):
        """The hybrid's one-pass ``[k:, k:]`` maxima equal a per-tile
        rescan exactly, over both LU and QR steps."""
        n = 72
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        fact = HybridLUQRSolver(8, MaxCriterion(alpha=1.0)).factor(a, b)
        assert fact.lu_steps and fact.qr_steps
        per_step = fact.growth.per_step
        assert len(per_step) == fact.n_steps

        rescan = _per_tile_rescan(HybridLUQRSolver)(8, MaxCriterion(alpha=1.0))
        assert rescan.factor(a, b).growth.per_step == per_step

    def test_matches_per_tile_rescan(self):
        """The per-step maxima equal a rescan of the trailing submatrix
        with one ``tile_norm`` call per tile after every step."""
        a = random_matrix(96, seed=3)
        rescan = _per_tile_rescan(LUPPSolver)(8, track_growth=True).factor(a)
        incremental = LUPPSolver(8, track_growth=True).factor(a)
        assert incremental.growth.per_step == rescan.growth.per_step

    def test_sampled_tile_norms_match_per_tile_regions(self, rng):
        """One bounding-box pass gives each tile the bits of its own 1x1 pass."""
        for nb in (1, 8, 17):
            tiles = TileMatrix.from_dense(rng.standard_normal((6 * nb, 6 * nb)), nb)
            refs = [(1, 4), (5, 2), (3, 3), (1, 2)]
            single = [float(tiles.region_tile_norms(i, i + 1, j, j + 1)[0, 0]) for i, j in refs]
            assert tiles.sampled_tile_norms(refs) == tuple(single)
            assert single == [tiles.tile_norm(i, j) for i, j in refs]

    def test_region_tile_norms_vectorized_matches_loop(self, rng):
        tiles = TileMatrix.from_dense(rng.standard_normal((40, 40)), 8)
        fast = tiles.region_tile_norms(1, 5, 2, 4)
        for di, i in enumerate(range(1, 5)):
            for dj, j in enumerate(range(2, 4)):
                assert fast[di, dj] == pytest.approx(tiles.tile_norm(i, j, ord=1))

    def test_region_tile_norms_bounds(self, rng):
        tiles = TileMatrix.from_dense(rng.standard_normal((16, 16)), 8)
        assert tiles.region_tile_norms(0, 0, 0, 2).shape == (0, 2)
        with pytest.raises(IndexError):
            tiles.region_tile_norms(0, 3, 0, 1)

    def test_growth_factor_unchanged_by_executor(self, rng):
        a = rng.standard_normal((48, 48))
        f_seq = LUPPSolver(8).factor(a)
        f_par = LUPPSolver(8, executor=ThreadedExecutor(workers=4)).factor(a)
        assert f_seq.growth.per_step == f_par.growth.per_step

        # The hybrid on a 2x2 grid, LU and QR steps mixed: every executor
        # samples norms its own way (inline pass, wrapped closure, worker
        # side) and must replay the inline record exactly.
        a = random_matrix(64, seed=7)

        def factor(executor):
            return make_solver(
                "hybrid", tile_size=8, grid="2x2", criterion="max(alpha=30)",
                executor=executor,
            ).factor(a)

        ref = factor("inline")
        assert ref.lu_steps and ref.qr_steps
        for spec in ["sequential", "threaded(workers=2)", "processes(workers=2)",
                     "cluster(workers=2)"]:
            executor = make_executor(spec)
            try:
                assert factor(executor).growth.per_step == ref.growth.per_step, spec
            finally:
                getattr(executor, "close", lambda: None)()
