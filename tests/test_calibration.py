"""Online calibration: trace harvesting, fitting, persistence, prediction.

The calibration layer turns measured kernel durations into the cost model
behind the priority scheduler and the predictive simulator.  These tests
pin the fit math, the trace-edge-case robustness of :func:`merge_traces` /
:func:`collect_samples`, the JSON round trip through
``REPRO_CALIBRATION``, and — the tier-1 closing-the-loop check —
that a calibrated simulation predicts a measured makespan to within a
small factor for every solver.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api.facade import make_solver
from repro.core.dag_builder import build_task_graph, spec_from_factorization
from repro.matrices.random_gen import random_matrix
from repro.perf.calibrate import (
    Calibration,
    KernelCost,
    calibrate_from_traces,
    calibrated_platform,
    calibration_path,
    clear_calibration_cache,
    collect_samples,
    default_calibration,
    kernel_source_hash,
    run_calibration,
)
from repro.runtime.executor import ExecutionTrace, SequentialExecutor, ThreadedExecutor
from repro.runtime.schedule import merge_traces
from repro.runtime.simulator import simulate

ALGORITHMS = ["hybrid", "lupp", "hqr", "lu_incpiv", "lu_nopiv"]


@pytest.fixture()
def isolated_calibration(tmp_path, monkeypatch):
    """Point REPRO_CALIBRATION at a temp file and reset the lazy cache."""
    path = tmp_path / "calibration.json"
    monkeypatch.setenv("REPRO_CALIBRATION", str(path))
    clear_calibration_cache()
    yield path
    clear_calibration_cache()


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


def test_merge_traces_copies_tile_norms():
    tr = ExecutionTrace()
    tr.tile_norms[0] = {(1, 1): 2.0}
    merged = merge_traces([tr])
    merged.tile_norms[0][(1, 1)] = 99.0
    assert tr.tile_norms[0][(1, 1)] == 2.0


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


# --------------------------------------------------------------------------- #
# Persistence round trip
# --------------------------------------------------------------------------- #
def test_calibration_roundtrip_via_env(isolated_calibration):
    assert calibration_path() == isolated_calibration
    assert default_calibration() is None

    cal = Calibration(host="testhost")
    cal.add_samples({("gemm", 8): [0.5], ("getrf", 16): [0.25, 0.75]})
    cal.save()
    clear_calibration_cache()

    loaded = default_calibration()
    assert loaded is not None
    assert loaded.host == "testhost"
    assert loaded.kernel_duration("gemm", 8) == pytest.approx(0.5)
    assert loaded.kernel_duration("getrf", 16) == pytest.approx(0.5)
    assert {name: sorted(cost.by_nb) for name, cost in loaded.kernels.items()} == {
        "gemm": [8],
        "getrf": [16],
    }


def test_corrupt_calibration_degrades_to_none(isolated_calibration):
    isolated_calibration.write_text("not json {")
    clear_calibration_cache()
    assert default_calibration() is None


def test_stale_calibration_is_ignored_as_host_default(isolated_calibration):
    """A table measured with other kernel sources (or before the hash was
    recorded) still loads explicitly but is not trusted as the default."""
    cal = Calibration(host="testhost")
    cal.add_samples({("getrf", 16): [0.25]})
    assert cal.kernel_hash == kernel_source_hash()
    cal.save()
    fresh = json.loads(isolated_calibration.read_text())
    assert fresh["kernel_hash"] == kernel_source_hash() and fresh["version"] == 2
    assert default_calibration() is not None

    version2 = {k: v for k, v in fresh.items() if k != "kernel_hash"}
    version1 = dict(version=1, host=fresh["host"], kernels=fresh["kernels"])
    for stale in (dict(fresh, kernel_hash="0" * 64), version2, version1):
        isolated_calibration.write_text(json.dumps(stale))
        clear_calibration_cache()
        assert default_calibration() is None
        loaded = Calibration.load(isolated_calibration)
        assert loaded.kernel_duration("getrf", 16) == pytest.approx(0.25)
        assert loaded.kernel_hash == stale.get("kernel_hash", "")

    # Re-running the calibration makes the file current again.
    run_calibration(n=32, tile_sizes=(8,), algorithms=("lupp",))
    assert default_calibration() is not None


def test_calibration_rejects_future_format():
    with pytest.raises(ValueError):
        Calibration.from_dict({"version": 99, "kernels": {}})


def test_run_calibration_end_to_end(isolated_calibration):
    cal = run_calibration(n=32, tile_sizes=(8,), algorithms=("lupp",))
    assert cal.n_samples > 0
    assert "getrf" in cal.kernels
    # Persisted and picked up lazily.
    on_disk = json.loads(isolated_calibration.read_text())
    assert on_disk["version"] == 2
    reloaded = default_calibration()
    assert reloaded is not None and reloaded.n_samples == cal.n_samples


# --------------------------------------------------------------------------- #
# Tier-1: the calibrated simulator predicts reality
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_simulated_makespan_predicts_measured(algorithm, isolated_calibration):
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
    graph = build_task_graph(
        spec_from_factorization(fact), platform=platform
    )
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


def test_calibrated_costs_drive_priorities(isolated_calibration):
    """With a calibration present, the pipeline prices b-levels in seconds."""
    cal = Calibration()
    cal.add_samples({("gemm", 8): [1e-3], ("getrf", 8): [5e-3]})
    cal.save()
    clear_calibration_cache()

    n, nb = 32, 8
    a = random_matrix(n, seed=9)
    solver = make_solver(
        "lupp", tile_size=nb, executor=ThreadedExecutor(workers=2),
        track_growth=False,
    )
    solver.collect_step_graphs = True
    ref = make_solver("lupp", tile_size=nb, executor=None, track_growth=False)
    f_par = solver.factor(a.copy())
    f_seq = ref.factor(a.copy())
    assert np.array_equal(f_par.tiles.array, f_seq.tiles.array)
    priorities = [
        t.priority for g in solver.step_graphs for t in g.tasks
    ]
    assert priorities and all(p > 0 for p in priorities)
    # Calibrated seconds, not raw flop counts: b-levels stay far below the
    # ~1e4..1e6 flop magnitudes of the static model at nb=8.
    assert max(priorities) < 10.0
