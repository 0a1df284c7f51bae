"""Benchmark: critical-path priority scheduling vs FIFO dispatch.

The threaded and process executors pop ready tasks by descending b-level
priority (computed under the calibrated cost model by the step pipeline).
This benchmark factors the same matrix with priorities enabled and with
them forced to zero (the heap then degenerates to submission order, i.e.
the pre-priority FIFO behaviour), and records both makespans — plus the
measured speedup — into ``BENCH_scheduler.json`` at the repo root.

Wall-clock scheduling comparisons are noisy at benchmark scale, so each
variant takes the minimum over several samples and the smoke assertion
allows a small tolerance: priorities must never make the schedule
meaningfully *worse*.

The makespans are taken on HQR: priorities only act when more tasks are
ready than workers are free, which its reduction trees provide at every
step.  An LU step's trailing update is a few sweep tasks, never more ready
than the four workers, so an LU run would compare a schedule with itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import HQRSolver, LUPPSolver, ThreadedExecutor
from repro.matrices.random_gen import random_matrix
from repro.runtime import merge_traces
from repro.runtime.graph import TaskGraph

#: FIFO must not beat priorities by more than this factor (noise guard).
_TOLERANCE = 1.25


def _factor_wall_time(a, nb, workers, samples):
    best = None
    trace_stats = None
    for _ in range(samples):
        solver = HQRSolver(
            nb, track_growth=False, executor=ThreadedExecutor(workers=workers)
        )
        fact = solver.factor(a.copy())
        assert fact.succeeded
        merged = merge_traces(solver.step_traces)
        wall = sum(t.wall_time for t in solver.step_traces)
        if best is None or wall < best:
            best = wall
            trace_stats = merged
    return best, trace_stats


@pytest.mark.benchmark(group="scheduler-priorities")
def test_prioritized_vs_fifo_makespan(bench_config, bench_record, monkeypatch):
    n = bench_config.n_order
    nb = bench_config.tile_size
    workers = 4
    samples = max(2, bench_config.samples)
    a = random_matrix(n, seed=7)

    prioritized, merged = _factor_wall_time(a, nb, workers, samples)

    # FIFO baseline: neutralise priority assignment so every task keeps
    # priority 0.0 and the ready heap degenerates to submission order.
    monkeypatch.setattr(
        TaskGraph, "assign_priorities", lambda self, cost=None: {}
    )
    fifo, _ = _factor_wall_time(a, nb, workers, samples)

    speedup = fifo / prioritized if prioritized > 0 else 1.0
    path = bench_record(
        "scheduler",
        {
            "n": n,
            "tile_size": nb,
            "workers": workers,
            "samples": samples,
            "prioritized_s": prioritized,
            "fifo_s": fifo,
            "speedup": speedup,
            "n_tasks": merged.n_tasks,
            "max_concurrency": merged.max_concurrency,
        },
    )
    print(
        f"\npriorities: {prioritized * 1e3:.2f} ms, FIFO: {fifo * 1e3:.2f} ms "
        f"(speedup {speedup:.2f}x) -> {path.name}"
    )
    assert prioritized <= fifo * _TOLERANCE, (
        f"priority scheduling regressed: {prioritized:.4f}s vs FIFO "
        f"{fifo:.4f}s (tolerance {_TOLERANCE}x)"
    )


@pytest.mark.benchmark(group="scheduler-priorities")
def test_priorities_identical_results(bench_config):
    """Scheduling policy must never change the computed bits."""
    n = bench_config.n_order
    nb = bench_config.tile_size
    a = random_matrix(n, seed=7)
    f_seq = LUPPSolver(nb, track_growth=False).factor(a.copy())
    f_par = LUPPSolver(
        nb, track_growth=False, executor=ThreadedExecutor(workers=4)
    ).factor(a.copy())
    assert np.array_equal(f_seq.tiles.array, f_par.tiles.array)
