"""The one trailing-update plan, checked against the per-tile plan it replaced.

Every solver plans its trailing update as at most four sweep tasks per
kernel family — the next two panel columns, the bulk block, the
right-hand side.  The
per-tile plan (one task per tile kernel) survives only as the oracle in
``per_tile_oracle.py``: factors, transformed right-hand side and Table-I
kernel counts of the sweep plan must equal it bit for bit, for all five
solvers, on three grids, five tile orders, with and without a right-hand
side, on every executor and lookahead depth.  Also covered: the sweep
tasks' bookkeeping (logical kernel counts in ``fused``, traces,
calibration samples) and the kernel-backend registry, where ``fused``,
``jit`` and their aliases now name the ``numpy`` backend.
"""

from __future__ import annotations

import json

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
from repro.perf.calibrate import Calibration, collect_samples
from repro.runtime.executor import ExecutionTrace, SequentialExecutor, ThreadedExecutor
from repro.runtime.process_executor import ProcessExecutor
from repro.runtime.task import kernel_mix
from repro.tiles.distribution import BlockCyclicDistribution, ProcessGrid
from repro.tiles.tile_matrix import TileMatrix
from repro.trees.greedy import GreedyTree

ALGORITHMS = ["hybrid", "lupp", "lu_nopiv", "lu_incpiv", "hqr"]
GRIDS = {"1x1": (1, 1), "2x2": (2, 2), "2x1": (2, 1)}
TILE_ORDERS = [1, 3, 8, 16, 64]
#: Five tile rows: step 0 sweeps columns 1, 2 and a two-column bulk block.
N_TILES = 5
#: Draws QR, LU, LU, LU, QR over the five steps: both step kinds, and QR
#: on the widest trailing update.
HYBRID_CRITERION = "random(lu_probability=0.5, seed=0)"


def _solver(algorithm, nb, grid, executor=None, lookahead=1):
    options = {"criterion": make_criterion(HYBRID_CRITERION)} if algorithm == "hybrid" else {}
    return SOLVERS.get(algorithm)(
        tile_size=nb,
        grid=ProcessGrid(*GRIDS[grid]),
        executor=executor,
        lookahead=lookahead,
        **options,
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


def _assert_matches_oracle(algorithm, grid, nb, with_rhs, executor=None, lookahead=1):
    fact = _solver(algorithm, nb, grid, executor, lookahead).factor(*_system(nb, with_rhs))
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


@pytest.mark.parametrize("lookahead", [0, 2])
@pytest.mark.parametrize("executor", list(_EXECUTORS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_executed_sweep_plan_matches_per_tile_oracle(algorithm, executor, lookahead):
    for grid in GRIDS:
        for nb in TILE_ORDERS:
            for with_rhs in (False, True):
                _assert_matches_oracle(
                    algorithm, grid, nb, with_rhs, _EXECUTORS[executor](), lookahead
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
    chains = [t for t in tasks if t.call.kernel in ("qr.sweep", "qr.sweep_rhs")]
    assert len(chains) == 4
    updates = ("unmqr", "tsmqr", "ttmqr")
    assert sum(t.fused for t in chains if t.call.kernel == "qr.sweep") == sum(
        counts.get(name, 0) for name in updates
    )
    assert sum(t.fused for t in chains if t.call.kernel == "qr.sweep_rhs") == sum(
        counts.get(name + "_rhs", 0) for name in updates
    )
    # The mix keeps each family's own count, whatever the chain's label.
    for name in updates + tuple(name + "_rhs" for name in updates):
        mixed = sum(m for t in chains for kernel, m in kernel_mix(t) if kernel == name)
        assert mixed == counts.get(name, 0)


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
    solver.factor(a, np.ones(64))
    fused_counts = [m for trace in solver.step_traces for m in trace.fused_of_task.values()]
    assert fused_counts and all(m > 1 for m in fused_counts)


def test_collect_samples_normalizes_fused_durations():
    trace = ExecutionTrace()
    trace.kernel_of_task = {0: "gemm"}
    trace.start_times = {0: 0.0}
    trace.finish_times = {0: 3.0}
    trace.fused_of_task = {0: 3}
    samples = collect_samples([trace], tile_size=16)
    assert samples[("gemm", 16)] == [1.0, 1.0, 1.0]


def test_collect_samples_splits_a_chain_by_family():
    trace = ExecutionTrace()
    trace.kernel_of_task = {0: "tsmqr"}
    trace.start_times = {0: 0.0}
    trace.finish_times = {0: 8.0}
    trace.fused_of_task = {0: 3}
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


def test_calibration_file_with_backend_tables_loads(tmp_path):
    cal = Calibration()
    cal.add_samples({("gemm", 16): [1.0]})
    data = cal.to_dict()
    assert "backends" not in data
    data["backends"] = {"fused": {"gemm": {"16": {"mean": 9.0, "count": 1}}}}
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(data))
    assert Calibration.load(path).kernel_duration("gemm", 16) == 1.0


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
    assert resolve_backend(alias) is resolve_backend("numpy")
    assert make_kernel_backend(alias).name == "numpy"


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
