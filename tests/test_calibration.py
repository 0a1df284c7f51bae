"""Calibration: trace harvesting, fitting, prediction, and its scope.

A calibration turns measured kernel durations into a cost model for the
predictive simulator.  These tests pin the fit math, the trace-edge-case
robustness of :func:`merge_traces` / :func:`collect_samples`, that a
calibration is an in-memory object (fitting one writes no file, and no
file steers a solver's schedule), that a calibration handed to the
priority cost model prices b-levels in seconds, and — the tier-1
closing-the-loop check — that a calibrated simulation predicts a measured
makespan to within a small factor for every solver.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.facade import make_solver
from repro.matrices.random_gen import random_matrix
from repro.perf.calibrate import (
    Calibration,
    KernelCost,
    calibrate_from_traces,
    calibrated_platform,
    collect_samples,
    run_calibration,
)
from repro.perf.model import FactorizationSpec, PerformanceModel, plan_graph
from repro.runtime.executor import ExecutionTrace, SequentialExecutor, ThreadedExecutor
from repro.runtime.graph import TaskGraph
from repro.runtime.schedule import (
    assign_task_priorities,
    kernel_cost_fn,
    merge_traces,
    static_kernel_flops,
)
from repro.runtime.simulator import simulate

ALGORITHMS = ["hybrid", "lupp", "hqr", "lu_incpiv", "lu_nopiv"]


# --------------------------------------------------------------------------- #
# merge_traces edge cases (regressions)
# --------------------------------------------------------------------------- #
def test_merge_traces_empty_sequence():
    merged = merge_traces([])
    assert merged.n_tasks == 0
    assert merged.wall_time == 0.0


def test_merge_traces_missing_start_timestamp():
    """A task that errored mid-run may have a finish/kernel entry only."""
    tr = ExecutionTrace()
    tr.finish_times[3] = 1.0
    tr.kernel_of_task[3] = "gemm"
    tr2 = ExecutionTrace()
    tr2.start_times[0] = 2.0
    tr2.finish_times[0] = 3.0
    merged = merge_traces([tr, tr2])
    # Offset advances past uid 3 of the first trace: no collision.
    assert set(merged.finish_times) == {3, 4}
    assert merged.kernel_of_task == {3: "gemm"}


def test_merge_traces_kernel_only_entries_advance_offset():
    """Entries present only in kernel_of_task must still push the offset."""
    tr = ExecutionTrace()
    tr.kernel_of_task[7] = "getrf"
    tr2 = ExecutionTrace()
    tr2.kernel_of_task[0] = "gemm"
    merged = merge_traces([tr, tr2])
    assert merged.kernel_of_task == {7: "getrf", 8: "gemm"}


# --------------------------------------------------------------------------- #
# Sample harvesting
# --------------------------------------------------------------------------- #
def test_collect_samples_skips_partial_and_zero_duration():
    tr = ExecutionTrace()
    tr.kernel_of_task.update({0: "gemm", 1: "gemm", 2: "gemm"})
    tr.start_times.update({0: 1.0, 1: 5.0})
    tr.finish_times.update({0: 1.5, 1: 5.0})  # task 1: zero duration
    # task 2: no timestamps at all
    samples = collect_samples([tr], tile_size=8)
    assert samples == {("gemm", 8): [0.5]}


def test_collect_samples_empty_traces():
    assert collect_samples([], tile_size=8) == {}
    assert collect_samples([ExecutionTrace()], tile_size=8) == {}


# --------------------------------------------------------------------------- #
# Fit math
# --------------------------------------------------------------------------- #
def test_kernel_cost_exact_mean_and_cubic_extrapolation():
    cost = KernelCost()
    cost.add(8, [1.0, 3.0])  # mean 2.0
    assert cost.duration(8) == pytest.approx(2.0)
    # Extrapolation is the least-squares cubic through the one observation:
    # coeff = 2.0 / 8^3, so duration(16) = coeff * 16^3 = 16.0.
    assert cost.duration(16) == pytest.approx(16.0)


def test_kernel_cost_ignores_nonpositive_samples():
    cost = KernelCost()
    cost.add(8, [-1.0, 0.0])
    assert cost.count == 0
    assert cost.duration(8) is None


def test_calibration_flops_per_second_prefers_gemm():
    cal = Calibration()
    cal.add_samples({("gemm", 8): [1e-4], ("getrf", 8): [1e-2]})
    rate = cal.flops_per_second(8)
    # 2*8^3 flops of a GEMM in 1e-4 s.
    assert rate == pytest.approx(2 * 8**3 / 1e-4)


def test_calibration_add_samples_groups_by_kernel_and_tile():
    cal = Calibration()
    assert cal.add_samples({("gemm", 8): [0.5], ("getrf", 16): [0.25, 0.75]}) is cal
    assert cal.n_samples == 3
    assert cal.kernel_duration("gemm", 8) == pytest.approx(0.5)
    assert cal.kernel_duration("getrf", 16) == pytest.approx(0.5)
    assert cal.kernel_duration("trsm", 8) is None
    assert {name: sorted(cost.by_nb) for name, cost in cal.kernels.items()} == {
        "gemm": [8],
        "getrf": [16],
    }


def test_calibration_add_samples_pools_repeated_fits():
    """Folding samples in twice gives the count-weighted mean of all of
    them, the same table as folding them in at once."""
    cal = Calibration()
    cal.add_samples({("gemm", 8): [1.0]})
    cal.add_samples({("gemm", 8): [2.0, 3.0, 6.0], ("gemm", 16): [4.0]})
    once = Calibration().add_samples({("gemm", 8): [1.0, 2.0, 3.0, 6.0], ("gemm", 16): [4.0]})
    assert cal.kernels["gemm"].by_nb == {8: (pytest.approx(3.0), 4), 16: (4.0, 1)}
    assert cal.kernels["gemm"].by_nb == once.kernels["gemm"].by_nb
    assert cal.n_samples == 5


# --------------------------------------------------------------------------- #
# A calibration lives in memory
# --------------------------------------------------------------------------- #
def test_run_calibration_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cal = run_calibration(n=32, tile_sizes=(8,), algorithms=("lupp",))
    assert cal.n_samples > 0
    assert "getrf" in cal.kernels
    # Fitted and returned; nothing is written anywhere.
    assert list(tmp_path.rglob("*")) == []


# --------------------------------------------------------------------------- #
# Tier-1: the calibrated simulator predicts reality
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_simulated_makespan_predicts_measured(algorithm):
    """Closing the loop: calibrate on this host, then check the simulated
    makespan of a factorization is within ~3x of the measured one.

    The simulator models list scheduling without Python/dispatch overhead,
    so a wide band is expected — but a wildly analytic model (the old
    platform rates) is off by orders of magnitude on a laptop-class host,
    which is exactly the regression this guards against.
    """
    n, nb = 64, 8
    a = random_matrix(n, seed=5)

    # Calibrate from a sequential run of this very algorithm.  The
    # measured makespan is the executor time (sum of per-step trace wall
    # times) — planning and growth bookkeeping happen outside the
    # schedule being predicted.
    solver = make_solver(
        algorithm, tile_size=nb, executor=SequentialExecutor(), track_growth=False
    )
    fact = solver.factor(a.copy())
    measured = sum(t.wall_time for t in solver.step_traces)
    assert fact.succeeded and measured > 0
    cal = calibrate_from_traces(solver.step_traces, nb)
    assert cal.n_samples > 0

    platform = calibrated_platform(cal, cores=1, nb=nb)
    graph = plan_graph(FactorizationSpec.of(fact), platform=platform)
    sim = simulate(graph, platform, nb, record_schedule=False, calibration=cal)

    assert sim.makespan > 0
    # Kernel time is only part of the measured wall time (planning, growth
    # bookkeeping, and Python dispatch are unmodelled), so the prediction
    # must land within a factor of ~3 either side.
    ratio = sim.makespan / measured
    assert 1 / 3.0 <= ratio <= 3.0, (
        f"{algorithm}: simulated {sim.makespan:.4f}s vs measured "
        f"{measured:.4f}s (ratio {ratio:.2f})"
    )


def test_performance_model_takes_an_in_process_calibration():
    """``PerformanceModel(calibration=)`` prices the plan with a fit made
    in the same process, exactly as ``simulate(..., calibration=)`` does."""
    nb = 8
    solver = make_solver(
        "lupp", tile_size=nb, executor=SequentialExecutor(), track_growth=False
    )
    fact = solver.factor(random_matrix(32, seed=3))
    cal = calibrate_from_traces(solver.step_traces, nb)
    platform = calibrated_platform(cal, cores=1, nb=nb)
    spec = FactorizationSpec.of(fact)
    report = PerformanceModel(platform, calibration=cal).simulate_spec(spec)
    sim = simulate(plan_graph(spec, platform=platform), platform, nb, calibration=cal)
    assert report.execution_time == sim.makespan > 0
    analytic = PerformanceModel(platform).simulate_spec(spec)
    assert analytic.execution_time != report.execution_time


def test_calibration_prices_blevels_in_seconds():
    """A calibration handed to the priority cost model prices b-levels in
    calibrated seconds; an unobserved kernel costs its Table-I flops at
    the calibrated rate."""
    nb = 8
    cal = Calibration()
    cal.add_samples({("gemm", nb): [1e-3], ("getrf", nb): [5e-3]})

    solver = make_solver(
        "lupp", tile_size=nb, executor=SequentialExecutor(), track_growth=False
    )
    solver.collect_step_graphs = True
    solver.factor(random_matrix(32, seed=9))
    priorities = []
    for graph in solver.step_graphs:
        assign_task_priorities(graph, nb, cal)
        priorities += [t.priority for t in graph.tasks]
    # Calibrated seconds, not raw flop counts: b-levels stay far below the
    # ~1e4..1e6 flop magnitudes of the static model at nb=8.
    assert priorities and all(0 < p < 10.0 for p in priorities)

    chain = TaskGraph()
    chain.add_task("getrf", 0, writes=[(0, 0)])
    chain.add_task("trsm", 0, reads=[(0, 0)], writes=[(1, 0)])
    chain.add_task("gemm", 0, reads=[(1, 0)], writes=[(1, 1)])
    assign_task_priorities(chain, nb, cal)
    rate = 2 * nb**3 / 1e-3  # the calibrated GEMM rate
    trsm = static_kernel_flops("trsm", nb) / rate
    assert cal.kernel_duration("trsm", nb) is None
    assert [t.priority for t in chain.tasks] == pytest.approx(
        [5e-3 + trsm + 1e-3, trsm + 1e-3, 1e-3]
    )


def _legacy_calibration_file(path: Path, kernels) -> None:
    """A calibration file in the version-2 format that releases with a
    per-host default read through ``REPRO_CALIBRATION``, stamped with the
    hash they trusted: SHA-256 over ``kernels/*.py`` and the two linalg
    modules under them, name and bytes each."""
    package = Path(repro.__file__).resolve().parent
    sources = sorted((package / "kernels").glob("*.py")) + [
        package / "linalg" / name for name in ("pivoting.py", "triangular.py")
    ]
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    table = {
        name: {str(nb): {"mean": mean, "count": 1}}
        for (name, nb), mean in kernels.items()
    }
    path.write_text(json.dumps(
        {"version": 2, "host": "test", "kernel_hash": digest.hexdigest(), "kernels": table}
    ))


def test_a_calibration_file_does_not_steer_the_schedule(tmp_path, monkeypatch):
    """The step graphs carry the static Table-I b-levels whatever
    calibration file the environment points at."""
    nb = 8
    path = tmp_path / "calibration.json"
    _legacy_calibration_file(path, {("gemm", nb): 1e-3, ("getrf", nb): 5e-3})
    monkeypatch.setenv("REPRO_CALIBRATION", str(path))

    solver = make_solver(
        "lupp", tile_size=nb, executor=ThreadedExecutor(workers=2),
        track_growth=False,
    )
    solver.collect_step_graphs = True
    ref = make_solver("lupp", tile_size=nb, executor="none", track_growth=False)
    a = random_matrix(32, seed=9)
    assert np.array_equal(solver.factor(a.copy()).tiles.array, ref.factor(a.copy()).tiles.array)
    assert solver.step_graphs
    cost = kernel_cost_fn(nb)
    for graph in solver.step_graphs:
        levels = graph.blevels(cost)
        assert [t.priority for t in graph.tasks] == [levels[t.uid] for t in graph.tasks]
