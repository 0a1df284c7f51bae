"""The one trailing-update plan, checked against the per-tile plan it replaced.

The LU solvers plan their trailing update as at most four sweep tasks per
kernel family — the next two panel columns, the bulk block, the
right-hand side — and a QR step as one chain over the trailing columns
and the right-hand side.  The
per-tile plan (one task per tile kernel) survives only as the oracle in
``per_tile_oracle.py``: factors, transformed right-hand side and Table-I
kernel counts of the sweep plan must equal it bit for bit, for all five
solvers, on three grids, five tile orders, with and without a right-hand
side, inline and on every executor.  Also covered: the sweep
tasks' bookkeeping (logical kernel counts in ``fused``, traces,
calibration samples) and the kernel-backend registry, where ``fused``,
``jit`` and their aliases now name the ``numpy`` backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from per_tile_oracle import per_tile_plan

import repro
from repro.api.facade import SolverSpec, make_criterion, make_kernel_backend, make_solver
from repro.api.registry import KERNEL_BACKENDS, SOLVERS
from repro.core.factorization import StepRecord
from repro.core.lu_step import lu_step_tasks
from repro.core.panel_analysis import analyze_panel
from repro.core.qr_step import qr_step_tasks
from repro.kernels.backends import NumpyBackend, resolve_backend
from repro.kernels.dispatch import KERNELS
from repro.kernels.qr_kernels import geqrt_tile, unmqr
from repro.perf.calibrate import collect_samples
from repro.runtime.executor import ExecutionTrace, SequentialExecutor, ThreadedExecutor
from repro.runtime.process_executor import ProcessExecutor
from repro.runtime.task import RHS_COLUMN, kernel_mix
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.tiles.tile_matrix import TileMatrix
from repro.trees.base import Elimination
from repro.trees.greedy import GreedyTree

ALGORITHMS = ["hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr"]
GRIDS = {"1x1": (1, 1), "2x2": (2, 2), "2x1": (2, 1)}
TILE_ORDERS = [1, 3, 8, 16, 64]
#: Five tile rows: step 0 sweeps columns 1, 2 and a two-column bulk block.
N_TILES = 5
#: Draws QR, LU, LU, LU, QR over the five steps: both step kinds, and QR
#: on the widest trailing update.
HYBRID_CRITERION = "random(lu_probability=0.5, seed=0)"


def _solver(algorithm, nb, grid, executor=None):
    options = {"criterion": make_criterion(HYBRID_CRITERION)} if algorithm == "hybrid" else {}
    return SOLVERS.get(algorithm)(
        tile_size=nb, grid=ProcessGrid(*GRIDS[grid]), executor=executor, **options
    )


def _system(nb, with_rhs):
    n = N_TILES * nb
    rng = np.random.default_rng(1000 * nb + n)
    a = rng.standard_normal((n, n))
    return a, (rng.standard_normal((n, 2)) if with_rhs else None)


def _fingerprint(fact):
    rhs = None if fact.tiles.rhs is None else fact.tiles.rhs.copy()
    counts = [dict(step.kernel_counts) for step in fact.steps]
    return fact.tiles.array.copy(), rhs, counts, fact.step_kinds


_ORACLE = {}


def _oracle(algorithm, grid, nb, with_rhs):
    key = (algorithm, grid, nb, with_rhs)
    if key not in _ORACLE:
        with per_tile_plan():
            fact = _solver(algorithm, nb, grid).factor(*_system(nb, with_rhs))
        _ORACLE[key] = _fingerprint(fact)
    return _ORACLE[key]


def _assert_matches_oracle(algorithm, grid, nb, with_rhs, executor=None):
    fact = _solver(algorithm, nb, grid, executor).factor(*_system(nb, with_rhs))
    assert fact.succeeded, fact.breakdown
    array, rhs, counts, kinds = _fingerprint(fact)
    ref_array, ref_rhs, ref_counts, ref_kinds = _oracle(algorithm, grid, nb, with_rhs)
    assert kinds == ref_kinds
    np.testing.assert_array_equal(array, ref_array)
    if with_rhs:
        np.testing.assert_array_equal(rhs, ref_rhs)
    assert counts == ref_counts
    if algorithm == "hybrid":
        assert set(kinds) == {"LU", "QR"}


# --------------------------------------------------------------------------- #
# Bit-identity with the per-tile oracle
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("with_rhs", [False, True], ids=["no-rhs", "rhs"])
@pytest.mark.parametrize("nb", TILE_ORDERS)
@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_inline_sweep_plan_matches_per_tile_oracle(algorithm, grid, nb, with_rhs):
    _assert_matches_oracle(algorithm, grid, nb, with_rhs)


_EXECUTORS = {
    "sequential": SequentialExecutor,
    "threaded": lambda: ThreadedExecutor(workers=2),
    "processes": lambda: ProcessExecutor(workers=2),
}


@pytest.mark.parametrize("executor", list(_EXECUTORS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_executed_sweep_plan_matches_per_tile_oracle(algorithm, executor):
    for grid in GRIDS:
        for nb in TILE_ORDERS:
            for with_rhs in (False, True):
                _assert_matches_oracle(
                    algorithm, grid, nb, with_rhs, _EXECUTORS[executor]()
                )


# --------------------------------------------------------------------------- #
# Sweep-task bookkeeping
# --------------------------------------------------------------------------- #
def _tiles(n_tiles=N_TILES, nb=4, seed=7):
    rng = np.random.default_rng(seed)
    n = n_tiles * nb
    return TileMatrix.from_dense(
        rng.standard_normal((n, n)) + n * np.eye(n), nb, rhs=rng.standard_normal(n)
    )


def _fused(tasks, *kernels):
    return sum(t.fused for t in tasks if t.kernel in kernels)


@pytest.mark.parametrize("k", [0, N_TILES - 2, N_TILES - 1])
def test_lu_sweeps_carry_their_table_one_counts(k):
    tiles = _tiles()
    dist = BlockCyclicDistribution(ProcessGrid(2, 1), tiles.n)
    record = StepRecord(k=k, kind="LU")
    tasks = lu_step_tasks(tiles, k, analyze_panel(tiles, dist, k), record)
    counts = record.kernel_counts
    assert _fused(tasks, "swptrsm") == counts["swptrsm"]
    assert _fused(tasks, "gemm") == counts.get("gemm", 0)
    assert _fused(tasks, "gemm_rhs") == counts.get("gemm_rhs", 0)
    # Two next columns, bulk block, right-hand side: at most four per family.
    assert sum(t.kernel == "swptrsm" for t in tasks) <= 4
    assert sum(t.kernel in ("gemm", "gemm_rhs") for t in tasks) <= 4
    assert {t.call.kernel for t in tasks if t.kernel == "gemm"} <= {"lu.gemm_sweep"}


def test_qr_chains_carry_their_table_one_counts():
    tiles = _tiles()
    rows = list(range(tiles.n))
    record = StepRecord(k=0, kind="QR")
    tasks = qr_step_tasks(tiles, 0, GreedyTree().eliminations(rows), record)
    counts = record.kernel_counts
    chains = [t for t in tasks if t.call.kernel == "qr.sweep"]
    assert len(chains) == 1
    updates = ("unmqr", "tsmqr", "ttmqr")
    updates += tuple(name + "_rhs" for name in updates)
    assert chains[0].fused == sum(counts.get(name, 0) for name in updates)
    # The mix keeps each family's own count, whatever the chain's label.
    for name in updates:
        mixed = sum(m for t in chains for kernel, m in kernel_mix(t) if kernel == name)
        assert mixed == counts.get(name, 0)


@pytest.mark.parametrize("k", [0, 1, N_TILES - 2])
def test_qr_step_plans_one_chain_over_the_matrix_and_rhs(k):
    """Columns ``k+1..n-1`` and the RHS ride in one ``qr.sweep``."""
    tiles = _tiles()
    n = tiles.n
    # TS kills down to the last row, which a TT merge kills.
    elims = [Elimination(killed=i, eliminator=k, kind="TS") for i in range(k + 1, n - 1)]
    elims.append(Elimination(killed=n - 1, eliminator=k, kind="TT"))
    record = StepRecord(k=k, kind="QR")
    tasks = qr_step_tasks(tiles, k, elims, record)
    (chain,) = [t for t in tasks if t.call.kernel == "qr.sweep"]
    assert tasks[-1] is chain
    families = {"unmqr", "ttmqr"} | ({"tsmqr"} if k < n - 2 else set())
    mix = dict(chain.mix)
    assert set(mix) == families | {name + "_rhs" for name in families}
    for name in families:
        assert mix[name] == (n - k - 1) * mix[name + "_rhs"]
    assert mix == {name: record.kernel_counts[name] for name in mix}
    assert chain.writes == {(i, j) for i in range(k, n) for j in [*range(k + 1, n), RHS_COLUMN]}
    assert "qr.sweep_rhs" not in KERNELS


def test_last_qr_step_still_transforms_the_rhs():
    tiles = _tiles()
    k = tiles.n - 1
    expected = unmqr(geqrt_tile(tiles.tile(k, k)), tiles.rhs_tile(k))
    record = StepRecord(k=k, kind="QR")
    tasks = qr_step_tasks(tiles, k, GreedyTree().eliminations([k]), record)
    assert [t.call.kernel for t in tasks] == ["qr.geqrt", "qr.sweep"]
    assert tasks[-1].kernel == "unmqr_rhs" and tasks[-1].mix == (("unmqr_rhs", 1),)
    assert tasks[-1].writes == {(k, RHS_COLUMN)}
    for task in tasks:
        task.fn()
    np.testing.assert_array_equal(tiles.rhs_tile(k), expected)
    assert record.kernel_counts == {"geqrt": 1, "unmqr_rhs": 1}


def test_incpiv_chains_carry_their_table_one_counts():
    tiles = _tiles()
    solver = SOLVERS.get("lu_incpiv")(tile_size=tiles.nb)
    record, tasks = solver._plan_step(tiles, BlockCyclicDistribution(ProcessGrid(1, 1), 5), 0)
    counts = record.kernel_counts
    assert _fused(tasks, "ssssm") == counts["ssssm"] == (N_TILES - 1) ** 2
    assert _fused(tasks, "ssssm_rhs") == counts["ssssm_rhs"]
    assert _fused(tasks, "swptrsm") == counts["swptrsm"]
    assert sum(t.kernel in ("ssssm", "ssssm_rhs") for t in tasks) == 4


def test_execution_trace_records_fused_counts():
    a = np.random.default_rng(9).standard_normal((64, 64))
    solver = SOLVERS.get("lupp")(tile_size=16, executor=ThreadedExecutor(workers=2))
    solver.collect_step_graphs = True
    solver.factor(a, np.ones(64))
    # Every sweep's batch count is its recorded mix's total.
    fused = 0
    for graph, trace in zip(solver.step_graphs, solver.step_traces):
        for task in graph.tasks:
            if task.fused > 1:
                fused += 1
                assert sum(count for _, count in trace.mix_of_task[task.uid]) == task.fused
    assert fused


def test_collect_samples_normalizes_fused_durations():
    trace = ExecutionTrace()
    trace.kernel_of_task = {0: "gemm"}
    trace.start_times = {0: 0.0}
    trace.finish_times = {0: 3.0}
    trace.mix_of_task = {0: (("gemm", 3),)}
    samples = collect_samples([trace], tile_size=16)
    assert samples[("gemm", 16)] == [1.0, 1.0, 1.0]


def test_collect_samples_splits_a_chain_by_family():
    trace = ExecutionTrace()
    trace.kernel_of_task = {0: "tsmqr"}
    trace.start_times = {0: 0.0}
    trace.finish_times = {0: 8.0}
    trace.mix_of_task = {0: (("unmqr", 2), ("tsmqr", 1))}
    samples = collect_samples([trace], tile_size=16)
    # Table I: UNMQR 2 nb^3, TSMQR 4 nb^3 — half of the chain's time each.
    assert samples == {("unmqr", 16): [2.0, 2.0], ("tsmqr", 16): [4.0]}


def test_qr_calibration_tables_are_per_family():
    a = np.random.default_rng(5).standard_normal((96, 96))
    solver = SOLVERS.get("hqr")(tile_size=16, executor=SequentialExecutor())
    counts = solver.factor(a, np.ones(96)).kernel_totals()
    samples = collect_samples(solver.step_traces, tile_size=16)
    updates = ("unmqr", "tsmqr", "ttmqr", "unmqr_rhs", "tsmqr_rhs", "ttmqr_rhs")
    for name in updates:
        assert len(samples.get((name, 16), [])) == counts.get(name, 0)
    assert any(trace.mix_of_task for trace in solver.step_traces)
    chains = sum(
        trace.finish_times[uid] - trace.start_times[uid]
        for trace in solver.step_traces
        for uid, kernel in trace.kernel_of_task.items()
        if kernel in updates
    )
    booked = sum(sum(samples.get((name, 16), [])) for name in updates)
    assert booked == pytest.approx(chains, rel=1e-9)


# --------------------------------------------------------------------------- #
# Registry and facade
# --------------------------------------------------------------------------- #
def test_unknown_backend_lists_available_options():
    with pytest.raises(ValueError, match="available:.*numpy"):
        KERNEL_BACKENDS.get("nope")
    with pytest.raises(ValueError, match="available:"):
        resolve_backend("nope")


@pytest.mark.parametrize("alias", ["reference", "ref", "fused", "batched", "jit", "numba"])
def test_former_backend_names_are_numpy_aliases(alias):
    assert KERNEL_BACKENDS.get(alias) is NumpyBackend
    assert type(resolve_backend(alias)) is NumpyBackend
    assert make_kernel_backend(alias).name == "numpy"


def test_resolve_backend_follows_the_registry():
    """Names resolve afresh: an unregistered name raises, a re-registered
    one runs the new class's hooks."""

    class First(NumpyBackend):
        name = "resolve_test_backend"

    class Second(NumpyBackend):
        name = "resolve_test_backend"
        wrapped = 0

        def wrap_task(self, task, step):
            type(self).wrapped += 1
            return task

    KERNEL_BACKENDS.register("resolve_test_backend")(First)
    assert type(resolve_backend("resolve_test_backend")) is First
    KERNEL_BACKENDS.unregister("resolve_test_backend")
    with pytest.raises(ValueError, match="available:"):
        resolve_backend("resolve_test_backend")
    KERNEL_BACKENDS.register("resolve_test_backend")(Second)
    try:
        solver = make_solver("lupp", tile_size=8, kernel_backend="resolve_test_backend")
        assert type(solver.kernel_backend) is Second
        solver.factor(np.eye(16) * 4.0)
        assert Second.wrapped > 0
    finally:
        KERNEL_BACKENDS.unregister("resolve_test_backend")


@pytest.mark.parametrize("name", ["numpy", "tracing", "trace"])
def test_each_resolve_builds_a_fresh_instance(name):
    first, second = resolve_backend(name), resolve_backend(name)
    assert type(first) is type(second) is KERNEL_BACKENDS.get(name)
    assert first is not second


def test_solvers_get_their_own_tracing_backend():
    first = make_solver("lupp", tile_size=8, kernel_backend="tracing")
    second = make_solver("lupp", tile_size=8, kernel_backend="tracing")
    assert first.kernel_backend is not second.kernel_backend
    first.factor(np.eye(16) * 4.0)
    assert first.kernel_backend.recorder is not second.kernel_backend.recorder


def test_resolve_backend_passes_instances_through():
    instance = NumpyBackend()
    assert resolve_backend(instance) is instance
    assert resolve_backend(None).name == "numpy"


def test_make_solver_threads_kernel_backend():
    for algorithm in ALGORITHMS:
        solver = make_solver(algorithm, tile_size=16, kernel_backend="tracing")
        assert solver.kernel_backend.name == "tracing"
    assert make_solver("hybrid", tile_size=16).kernel_backend.name == "numpy"
    spec = SolverSpec(algorithm="lupp", tile_size=16, kernel_backend="jit")
    assert make_solver(spec).kernel_backend.name == "numpy"
    with pytest.raises(ValueError, match="available:"):
        make_solver("hybrid", tile_size=16, kernel_backend="bogus")


def test_fused_spec_is_the_numpy_plan():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal(64)
    ref = repro.solve(a, b, algorithm="hybrid", tile_size=16)
    res = repro.solve(a, b, algorithm="hybrid", tile_size=16, kernel_backend="fused")
    np.testing.assert_array_equal(res.x, ref.x)
