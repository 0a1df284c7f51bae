"""Critical-path priority scheduling and cross-step lookahead.

The scheduler refactor must be invisible to the numerics: priorities only
reorder *ready* tasks, and the lookahead pipeline only defers tasks whose
results nothing in the current panel needs.  These tests pin both halves —
the b-level computation itself, the executors honouring it, and the
bit-identity of every solver under every executor with lookahead enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.facade import make_solver
from repro.kernels.dispatch import KernelCall
from repro.matrices.random_gen import random_matrix, random_rhs
from repro.runtime.executor import SequentialExecutor, ThreadedExecutor
from repro.runtime.graph import TaskGraph
from repro.runtime.process_executor import ProcessExecutor
from repro.runtime.schedule import kernel_cost_fn
from repro.runtime.task import Task
from repro.tiles import SharedTileBuffer

ALGORITHMS = ["hybrid", "lupp", "hqr", "lu_incpiv", "lu_nopiv"]


# --------------------------------------------------------------------------- #
# b-level computation
# --------------------------------------------------------------------------- #
def _chain_graph():
    r"""Diamond with a long tail::

        0 -> 1 -> 3 -> 4
          \-> 2 ------/
    """
    g = TaskGraph()
    t0 = g.add_task("a", 0)
    t1 = g.add_task("b", 0, extra_deps=(t0.uid,))
    t2 = g.add_task("c", 0, extra_deps=(t0.uid,))
    t3 = g.add_task("d", 0, extra_deps=(t1.uid,))
    g.add_task("e", 0, extra_deps=(t3.uid, t2.uid))
    return g


def test_blevels_unit_cost():
    g = _chain_graph()
    levels = g.blevels()
    # Bottom-up: sink = 1, long branch 0->1->3->4 dominates.
    assert levels[4] == 1.0
    assert levels[3] == 2.0
    assert levels[2] == 2.0
    assert levels[1] == 3.0
    assert levels[0] == 4.0


def test_blevels_weighted_cost_flips_branch():
    g = _chain_graph()
    # Make the short branch (task 2) enormously expensive: it must now
    # carry a higher b-level than the two-hop branch.
    levels = g.blevels(cost=lambda t: 100.0 if t.kernel == "c" else 1.0)
    assert levels[2] > levels[1]


def test_assign_priorities_writes_task_field():
    g = _chain_graph()
    levels = g.assign_priorities()
    for task in g.tasks:
        assert task.priority == levels[task.uid]


def test_kernel_cost_fn_static_fallback_orders_kernels():
    cost = kernel_cost_fn(tile_size=16)
    gemm = cost(Task(uid=0, kernel="gemm", step=0))
    getrf = cost(Task(uid=1, kernel="getrf", step=0))
    unknown = cost(Task(uid=2, kernel="mystery_kernel", step=0))
    assert gemm > 0 and getrf > 0
    assert unknown == pytest.approx(16.0**3)


# --------------------------------------------------------------------------- #
# Executors honour priorities
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "make_executor",
    [
        pytest.param(lambda: ThreadedExecutor(workers=1), id="threaded"),
        pytest.param(lambda: ProcessExecutor(workers=1), id="processes"),
    ],
)
def test_executor_dispatches_by_priority(make_executor):
    """On one worker, independent ready tasks must run in priority order."""
    g = TaskGraph()
    call = KernelCall("lu.gemm_sweep", args=(0, 2, 1, 2))
    for label, prio in [("low", 1.0), ("high", 3.0), ("mid", 2.0)]:
        g.add_task(label, 0, fn=lambda: None, call=call).priority = prio
    executor = make_executor()
    buf = SharedTileBuffer.allocate(np.eye(8), 4)
    try:
        if isinstance(executor, ProcessExecutor):
            executor.bind(buf.meta)
        trace = executor.run(g, timeout=20)
    finally:
        buf.close()
        buf.unlink()
    order = sorted(trace.start_times, key=trace.start_times.get)
    assert [g.task(uid).kernel for uid in order] == ["high", "mid", "low"]


def test_sequential_executor_records_kernels():
    g = TaskGraph()
    g.add_task("noop", 0, fn=lambda: None)
    trace = SequentialExecutor().run(g)
    assert trace.kernel_of_task == {0: "noop"}


# --------------------------------------------------------------------------- #
# Bit-identity under priorities + lookahead, all solvers, all executors
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("lookahead", [0, 1, 2])
def test_threaded_lookahead_bit_identical(algorithm, lookahead):
    n, nb = 48, 8
    a = random_matrix(n, seed=11)
    b = random_rhs(n, seed=12)
    ref = make_solver(algorithm, tile_size=nb, executor=None).factor(
        a.copy(), b.copy()
    )
    par_solver = make_solver(
        algorithm, tile_size=nb, executor=ThreadedExecutor(workers=3)
    )
    par_solver.lookahead = lookahead
    par = par_solver.factor(a.copy(), b.copy())
    assert np.array_equal(ref.tiles.array, par.tiles.array)
    assert ref.growth_factor == par.growth_factor


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_process_lookahead_bit_identical(algorithm):
    n, nb = 48, 8
    a = random_matrix(n, seed=11)
    ref = make_solver(algorithm, tile_size=nb, executor=None).factor(a.copy())
    par_solver = make_solver(
        algorithm, tile_size=nb, executor=ProcessExecutor(workers=2)
    )
    par_solver.lookahead = 1
    par = par_solver.factor(a.copy())
    assert np.array_equal(ref.tiles.array, par.tiles.array)
    assert ref.growth_factor == par.growth_factor


def test_lookahead_exact_per_step_growth():
    """Growth sampling through the pipeline must equal the inline path."""
    n, nb = 48, 8
    a = random_matrix(n, seed=21)
    seq = make_solver("hybrid", tile_size=nb, executor=None)
    par = make_solver(
        "hybrid", tile_size=nb, executor=ThreadedExecutor(workers=3)
    )
    par.lookahead = 2
    f_seq = seq.factor(a.copy())
    f_par = par.factor(a.copy())
    assert f_seq.growth.per_step == f_par.growth.per_step


def test_lookahead_batches_steps_into_one_graph():
    """With lookahead > 0 some flushed graphs must span multiple steps —
    the whole point of deferring trailing updates."""
    n, nb = 48, 8
    a = random_matrix(n, seed=31)
    solver = make_solver(
        "lupp", tile_size=nb, executor=ThreadedExecutor(workers=2),
        track_growth=False,
    )
    solver.lookahead = 2
    solver.collect_step_graphs = True
    solver.factor(a.copy())
    spans = [
        {t.step for t in g.tasks} for g in solver.step_graphs if len(g)
    ]
    assert any(len(span) > 1 for span in spans), spans


def test_lookahead_zero_matches_stepwise_trace_count():
    """lookahead=0 still defers only within the dependency-closed window;
    the number of traces stays bounded by the number of steps + final flush."""
    n, nb = 32, 8
    a = random_matrix(n, seed=41)
    solver = make_solver(
        "lupp", tile_size=nb, executor=ThreadedExecutor(workers=2),
        track_growth=False,
    )
    solver.lookahead = 0
    solver.factor(a.copy())
    assert 0 < len(solver.step_traces) <= n // nb + 1


# --------------------------------------------------------------------------- #
# Priorities against FIFO dispatch
# --------------------------------------------------------------------------- #
#: FIFO must not beat priorities by more than this factor (noise guard).
_FIFO_TOLERANCE = 1.25


def _hqr_wall_time(a):
    """Summed step wall time of HQR on 2 worker processes.

    HQR because priorities only act when more tasks are ready than workers
    are free, which its reduction trees provide at every step.  Worker
    processes rather than threads: on 2 vCPUs, four threads contending for
    the GIL over ~20 us tile kernels made the 40 ms wall heavy-tailed; in
    processes the host keeps only the dispatch loop the priorities steer,
    and n = 128 makes that loop ~0.2 s long against the same noise.
    """
    solver = make_solver(
        "hqr", tile_size=8, track_growth=False, executor=ProcessExecutor(workers=2)
    )
    assert solver.factor(a.copy()).succeeded
    return sum(t.wall_time for t in solver.step_traces)


def test_prioritized_vs_fifo_makespan(monkeypatch):
    """b-level priorities never make the schedule meaningfully worse than
    submission-order dispatch."""
    a = random_matrix(128, seed=7)
    # Untimed: spawns the shared worker pool and imports repro in it, which
    # would otherwise land on whichever side runs first.
    _hqr_wall_time(a)
    prioritized, fifo = [], []
    for _ in range(2):  # best of two, alternated so drift hits both sides
        prioritized.append(_hqr_wall_time(a))
        with monkeypatch.context() as patch:
            # FIFO: every task keeps priority 0.0, so the ready heap
            # degenerates to submission order.
            patch.setattr(TaskGraph, "assign_priorities", lambda self, cost=None: {})
            fifo.append(_hqr_wall_time(a))
    assert min(prioritized) <= min(fifo) * _FIFO_TOLERANCE, (
        f"priority scheduling regressed: {min(prioritized):.4f}s vs FIFO "
        f"{min(fifo):.4f}s (tolerance {_FIFO_TOLERANCE}x)"
    )


def test_negative_lookahead_rejected():
    with pytest.raises(ValueError):
        solver = make_solver("lupp", tile_size=8, executor=None)
        type(solver)(8, lookahead=-1)
