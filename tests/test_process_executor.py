"""Tests for the multi-process executor and the shared-memory tile buffer.

The contract is the same as for the threaded executor, but stronger in
what it exercises: kernels run in *worker processes* against tiles in a
``multiprocessing.shared_memory`` segment, shipped as picklable
``KernelCall`` descriptors — and the factors, pivots, transformed
right-hand sides and solutions must still match the sequential reference
bit for bit.
"""

import pickle

import numpy as np
import pytest

import repro
from repro import (
    HQRSolver,
    HybridLUQRSolver,
    LUIncPivSolver,
    LUNoPivSolver,
    LUPPSolver,
    MaxCriterion,
    ProcessExecutor,
    ThreadedExecutor,
)
from repro.kernels.dispatch import KERNELS, KernelCall
from repro.runtime import KernelTask, build_step_graph
from repro.tiles import SharedBufferMeta, SharedTileBuffer

#: Small worker pools: the suite must stay cheap on small CI machines.
WORKERS = 2


def _solver_factories():
    return [
        pytest.param(
            lambda ex: HybridLUQRSolver(8, MaxCriterion(alpha=1.0), executor=ex),
            id="hybrid",
        ),
        pytest.param(lambda ex: LUPPSolver(8, executor=ex), id="lupp"),
        pytest.param(lambda ex: HQRSolver(8, executor=ex), id="hqr"),
        pytest.param(lambda ex: LUIncPivSolver(8, executor=ex), id="incpiv"),
    ]


# --------------------------------------------------------------------------- #
# Bit-identity: processes == threaded == sequential
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", _solver_factories())
def test_process_factorization_identical_to_sequential_and_threaded(rng, factory):
    n = 48
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    f_seq = factory(None).factor(a, b)
    f_thr = factory(ThreadedExecutor(workers=2)).factor(a, b)
    f_proc = factory(ProcessExecutor(workers=WORKERS)).factor(a, b)

    assert f_proc.step_kinds == f_seq.step_kinds
    np.testing.assert_array_equal(f_proc.tiles.array, f_seq.tiles.array)
    np.testing.assert_array_equal(f_proc.tiles.array, f_thr.tiles.array)
    np.testing.assert_array_equal(f_proc.tiles.rhs, f_seq.tiles.rhs)
    np.testing.assert_array_equal(f_proc.tiles.rhs, f_thr.tiles.rhs)
    assert np.linalg.norm(f_proc.solve() - f_seq.solve()) == 0.0
    assert f_proc.growth_factor == f_seq.growth_factor


def test_process_padded_order_identical(rng):
    n = 21  # not a multiple of nb = 8: exercises the padded shared buffer
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    b = rng.standard_normal(n)
    seq = LUPPSolver(8).solve(a, b)
    proc = LUPPSolver(8, executor=ProcessExecutor(workers=WORKERS)).solve(a, b)
    np.testing.assert_array_equal(proc.x, seq.x)


def test_process_traces_recorded(rng):
    a = rng.standard_normal((48, 48))
    solver = LUPPSolver(8, track_growth=False, executor=ProcessExecutor(workers=WORKERS))
    solver.factor(a)
    assert solver.step_traces, "process path must record per-step traces"
    trace = solver.step_traces[0]
    assert trace.n_tasks == trace.n_started > 0
    assert all(w for w in trace.worker_of_task.values())
    assert trace.concurrency_profile()


def test_breakdown_propagates_through_process_executor():
    a = np.zeros((16, 16))  # every diagonal tile singular
    fact = LUNoPivSolver(4, executor=ProcessExecutor(workers=WORKERS)).factor(a)
    assert not fact.succeeded


def test_repeated_factorizations_reuse_pool(rng):
    """Consecutive factorizations (fresh shared segments) stay identical."""
    solver = LUPPSolver(8, executor=ProcessExecutor(workers=WORKERS))
    for seed in (0, 1):
        a = np.random.default_rng(seed).standard_normal((32, 32))
        np.testing.assert_array_equal(
            solver.factor(a).tiles.array, LUPPSolver(8).factor(a).tiles.array
        )


# --------------------------------------------------------------------------- #
# String specs, facade, session
# --------------------------------------------------------------------------- #
def test_processes_spec_through_repro_solve(rng):
    n = 32
    a = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    base = repro.solve(a, b, algorithm="hybrid", tile_size=8, criterion="max(alpha=50)")
    proc = repro.solve(
        a,
        b,
        algorithm="hybrid",
        tile_size=8,
        criterion="max(alpha=50)",
        executor=f"processes(workers={WORKERS})",
    )
    np.testing.assert_array_equal(proc.x, base.x)


def test_processes_spec_resolves_workers():
    ex = repro.make_executor("processes(workers=3)")
    assert isinstance(ex, ProcessExecutor)
    assert ex.workers == 3
    assert repro.make_executor("procs").workers == 8  # alias + default


def test_processes_through_solver_session(rng):
    n = 32
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    b = rng.standard_normal(n)
    proc = repro.SolverSession(
        algorithm="lupp", tile_size=8, executor=f"processes(workers={WORKERS})"
    )
    base = repro.SolverSession(algorithm="lupp", tile_size=8)
    np.testing.assert_array_equal(proc.solve(a, b).x, base.solve(a, b).x)
    np.testing.assert_array_equal(proc.solve(a, b).x, base.solve(a, b).x)
    assert (proc.stats.misses, proc.stats.hits) == (1, 1)


def test_concurrent_different_matrix_misses_on_process_session(rng):
    """Regression: concurrent misses must not race the executor binding.

    The shared-buffer binding is thread-local and the solver serializes
    its factorizations, so two threads missing on *different* matrices
    through one process-backed session both get correct (and correctly
    cached) results.
    """
    import threading

    session = repro.SolverSession(
        algorithm="lupp", tile_size=8, executor=f"processes(workers={WORKERS})"
    )
    mats = [
        rng.standard_normal((16, 16)) + 4.0 * np.eye(16),
        rng.standard_normal((32, 32)) + 4.0 * np.eye(32),
    ]
    vecs = [rng.standard_normal(16), rng.standard_normal(32)]
    errors = []

    def solve(i):
        try:
            r = session.solve(mats[i], vecs[i])
            assert np.linalg.norm(mats[i] @ r.x - vecs[i]) < 1e-8
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=solve, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    # The cached entries are clean too (not cross-contaminated).
    for i in (0, 1):
        r = session.solve(mats[i], vecs[i])
        assert np.linalg.norm(mats[i] @ r.x - vecs[i]) < 1e-8
    assert session.stats.misses == 2


def test_repro_executor_env_var(rng, monkeypatch):
    """REPRO_EXECUTOR supplies the default executor of facade-built solvers."""
    monkeypatch.setenv("REPRO_EXECUTOR", f"processes(workers={WORKERS})")
    solver = repro.make_solver("lupp", tile_size=8)
    assert isinstance(solver.executor, ProcessExecutor)
    # An explicit inline spec still wins over the environment.
    assert repro.make_solver("lupp", tile_size=8, executor="none").executor is None
    # make_executor itself is not affected (only solver assembly is).
    assert repro.make_executor(None) is None
    a = rng.standard_normal((16, 16))
    np.testing.assert_array_equal(
        solver.factor(a).tiles.array, LUPPSolver(8).factor(a).tiles.array
    )


# --------------------------------------------------------------------------- #
# Error handling and preconditions
# --------------------------------------------------------------------------- #
def test_unbound_executor_rejects_run():
    graph = build_step_graph(
        [KernelTask("x", lambda: None, call=KernelCall("lu.gemm_sweep", args=(0, 2, 1, 2)))]
    )
    with pytest.raises(RuntimeError, match="not bound"):
        ProcessExecutor(workers=1).run(graph)


def test_closure_only_tasks_rejected():
    graph = build_step_graph([KernelTask("closure_only", lambda: None)])
    executor = ProcessExecutor(workers=1)
    buf = SharedTileBuffer.allocate(np.eye(8), 4)
    try:
        executor.bind(buf.meta)
        with pytest.raises(RuntimeError, match="descriptor"):
            executor.run(graph)
    finally:
        buf.close()
        buf.unlink()


def test_unknown_kernel_name_raises():
    buf = SharedTileBuffer.allocate(np.eye(8), 4)
    executor = ProcessExecutor(workers=1)
    executor.bind(buf.meta)
    graph = build_step_graph(
        [KernelTask("bogus", lambda: None, call=KernelCall("no.such_kernel"))]
    )
    try:
        with pytest.raises(ValueError, match="unknown kernel operation"):
            executor.run(graph)
    finally:
        buf.close()
        buf.unlink()


def test_invalid_worker_count():
    with pytest.raises(ValueError):
        ProcessExecutor(workers=0)


def test_broken_pool_is_evicted_and_next_run_recovers(rng):
    """A pool whose worker died between runs must not poison later runs."""
    import os
    import signal

    from repro.runtime import process_executor as pe

    executor = ProcessExecutor(workers=1)
    solver = LUPPSolver(8, executor=executor)
    a = rng.standard_normal((16, 16))
    ref = LUPPSolver(8).factor(a)
    np.testing.assert_array_equal(solver.factor(a).tiles.array, ref.tiles.array)

    pool = pe._POOLS[(executor.workers, executor.start_method)]
    for pid in list(pool._processes):
        os.kill(pid, signal.SIGKILL)
    # The first run on the broken pool fails (synchronously or via a dead
    # future) and evicts it; the run after that gets a fresh pool.
    with pytest.raises(Exception):
        solver.factor(a)
    np.testing.assert_array_equal(solver.factor(a).tiles.array, ref.tiles.array)


@pytest.mark.parametrize(
    "make_executor",
    [
        pytest.param(lambda: ThreadedExecutor(workers=1), id="threaded"),
        pytest.param(lambda: ProcessExecutor(workers=1), id="processes"),
    ],
)
def test_cycle_below_sources_detected(make_executor):
    """A dependency cycle among non-source tasks must not return a
    half-executed graph as if it had finished, nor block forever."""
    from repro.runtime.graph import TaskGraph

    graph = TaskGraph()
    call = KernelCall("lu.gemm_sweep", args=(0, 2, 1, 2))
    graph.add_task(kernel="source", step=0, fn=lambda: None, call=call)
    # Tasks 1 and 2 depend on each other through explicit extra_deps.
    graph.add_task(kernel="a", step=0, fn=lambda: None, call=call, extra_deps=[2])
    graph.add_task(kernel="b", step=0, fn=lambda: None, call=call, extra_deps=[1])

    executor = make_executor()
    buf = SharedTileBuffer.allocate(np.eye(8), 4)
    try:
        if isinstance(executor, ProcessExecutor):
            executor.bind(buf.meta)
        # A finite timeout turns a hang into a TimeoutError, not a stuck suite.
        with pytest.raises(ValueError, match="never became ready"):
            executor.run(graph, timeout=20)
    finally:
        buf.close()
        buf.unlink()


# --------------------------------------------------------------------------- #
# SharedTileBuffer
# --------------------------------------------------------------------------- #
class TestSharedTileBuffer:
    def test_roundtrip_and_aliasing(self, rng):
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 2))
        with SharedTileBuffer.allocate(a, 8, rhs=b) as buf:
            np.testing.assert_array_equal(buf.array, a)
            np.testing.assert_array_equal(buf.rhs, b)
            tiles = buf.tile_matrix()
            tiles.tile(0, 0)[...] = 7.0
            # The TileMatrix aliases the segment (no copy).
            assert buf.array[0, 0] == 7.0

    def test_attach_sees_owner_writes(self, rng):
        a = rng.standard_normal((8, 8))
        owner = SharedTileBuffer.allocate(a, 4)
        try:
            other = SharedTileBuffer.attach(owner.meta)
            np.testing.assert_array_equal(other.array, a)
            owner.array[2, 3] = 42.0
            assert other.array[2, 3] == 42.0
            other.close()
        finally:
            owner.close()
            owner.unlink()

    def test_meta_pickles(self, rng):
        with SharedTileBuffer.allocate(np.eye(8), 4, rhs=np.ones(8)) as buf:
            meta = pickle.loads(pickle.dumps(buf.meta))
            assert meta == buf.meta
            assert isinstance(meta, SharedBufferMeta)
            assert meta.nrhs == 1
            assert meta.nbytes == (64 + 8) * 8

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="square"):
            SharedTileBuffer.allocate(np.ones((4, 6)), 2)
        with pytest.raises(ValueError, match="multiple"):
            SharedTileBuffer.allocate(np.eye(6), 4)
        with pytest.raises(ValueError, match="rows"):
            SharedTileBuffer.allocate(np.eye(8), 4, rhs=np.ones(6))

    def test_closed_buffer_rejects_views(self):
        buf = SharedTileBuffer.allocate(np.eye(8), 4)
        buf.close()
        buf.unlink()
        with pytest.raises(ValueError, match="closed"):
            _ = buf.array


# --------------------------------------------------------------------------- #
# Kernel descriptors
# --------------------------------------------------------------------------- #
class TestKernelDescriptors:
    def test_all_planned_tasks_carry_descriptors(self, rng):
        """Every task of every built-in planner has a picklable descriptor."""
        from repro.core.factorization import StepRecord
        from repro.core.lu_step import lu_step_tasks
        from repro.core.panel_analysis import analyze_panel
        from repro.core.qr_step import qr_step_tasks
        from repro.tiles import BlockCyclicDistribution, ProcessGrid, TileMatrix
        from repro.trees.greedy import GreedyTree

        n, nb = 32, 8
        a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
        tiles = TileMatrix.from_dense(a, nb, rhs=rng.standard_normal(n))
        dist = BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)

        lu = lu_step_tasks(
            tiles, 0, analyze_panel(tiles, dist, 0), StepRecord(k=0, kind="LU")
        )
        elims = GreedyTree().eliminations(list(range(tiles.n)))
        qr = qr_step_tasks(tiles.copy(), 0, elims, StepRecord(k=0, kind="QR"))
        incpiv_solver = LUIncPivSolver(nb)
        _, incpiv = incpiv_solver._plan_step(tiles.copy(), dist, 0)

        for task in [*lu, *qr, *incpiv]:
            assert task.call is not None, task.kernel
            assert task.call.kernel in KERNELS
            pickle.dumps(task.call)  # descriptors must cross process boundaries

    def test_consumed_keys_are_produced_upstream(self, rng):
        """Every consumes key of a plan is produced by an earlier task."""
        from repro.core.factorization import StepRecord
        from repro.core.qr_step import qr_step_tasks
        from repro.tiles import TileMatrix
        from repro.trees.fibonacci import FibonacciTree

        n, nb = 40, 8
        a = rng.standard_normal((n, n))
        tiles = TileMatrix.from_dense(a, nb, rhs=rng.standard_normal(n))
        elims = FibonacciTree().eliminations(list(range(tiles.n)))
        tasks = qr_step_tasks(tiles, 0, elims, StepRecord(k=0, kind="QR"))
        produced = set()
        for t in tasks:
            for key in t.call.consumes:
                assert key in produced, f"{t.kernel} consumes unproduced {key}"
            if t.call.produces is not None:
                produced.add(t.call.produces)
