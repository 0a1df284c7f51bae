"""Tests for the dataflow runtime: task graph, simulator, executors."""

import numpy as np
import pytest

from repro.runtime import (
    Platform,
    SequentialExecutor,
    TaskGraph,
    ThreadedExecutor,
    dancer_platform,
    laptop_platform,
    simulate,
)
from repro.tiles import ProcessGrid


# --------------------------------------------------------------------------- #
# Task graph
# --------------------------------------------------------------------------- #
class TestTaskGraph:
    def test_read_after_write_dependency(self):
        g = TaskGraph()
        w = g.add_task(kernel="a", step=0, writes={(0, 0)})
        r = g.add_task(kernel="b", step=0, reads={(0, 0)})
        assert w.uid in r.deps

    def test_write_after_write_dependency(self):
        g = TaskGraph()
        w1 = g.add_task(kernel="a", step=0, writes={(1, 1)})
        w2 = g.add_task(kernel="b", step=0, writes={(1, 1)})
        assert w1.uid in w2.deps

    def test_write_after_read_dependency(self):
        g = TaskGraph()
        g.add_task(kernel="w0", step=0, writes={(0, 0)})
        r = g.add_task(kernel="r", step=0, reads={(0, 0)})
        w = g.add_task(kernel="w1", step=0, writes={(0, 0)})
        assert r.uid in w.deps

    def test_independent_tasks_have_no_deps(self):
        g = TaskGraph()
        t1 = g.add_task(kernel="a", step=0, writes={(0, 0)})
        t2 = g.add_task(kernel="b", step=0, writes={(1, 1)})
        assert t2.deps == set()
        assert t1.deps == set()

    def test_extra_deps_merged(self):
        g = TaskGraph()
        t1 = g.add_task(kernel="a", step=0)
        t2 = g.add_task(kernel="b", step=0, extra_deps=[t1.uid])
        assert t1.uid in t2.deps

    def test_successors_and_counts(self):
        g = TaskGraph()
        a = g.add_task(kernel="x", step=0, writes={(0, 0)}, flops=5.0)
        b = g.add_task(kernel="x", step=0, reads={(0, 0)}, flops=7.0)
        succ = g.successors()
        assert succ[a.uid] == [b.uid]
        assert g.total_flops() == 12.0
        assert g.kernel_counts() == {"x": 2}
        assert len(g) == 2

    def test_critical_path_unit_durations(self):
        g = TaskGraph()
        a = g.add_task(kernel="a", step=0, writes={(0, 0)})
        g.add_task(kernel="b", step=0, reads={(0, 0)}, writes={(0, 1)})
        g.add_task(kernel="c", step=0, writes={(5, 5)})
        assert g.critical_path_length() == 2.0

    def test_critical_path_with_durations(self):
        g = TaskGraph()
        a = g.add_task(kernel="a", step=0, writes={(0, 0)})
        b = g.add_task(kernel="b", step=0, reads={(0, 0)})
        assert g.critical_path_length({a.uid: 3.0, b.uid: 4.0}) == 7.0


# --------------------------------------------------------------------------- #
# Platform
# --------------------------------------------------------------------------- #
class TestPlatform:
    def test_dancer_peak_matches_paper(self):
        p = dancer_platform()
        assert p.nodes == 16
        assert p.total_cores == 128
        assert p.peak_gflops == pytest.approx(1091.0, rel=0.01)

    def test_kernel_rates_ordering(self):
        p = dancer_platform()
        assert p.kernel_rate("gemm") > p.kernel_rate("geqrt")
        assert p.kernel_duration("gemm", 1e9) < p.kernel_duration("tsqrt", 1e9)
        assert p.kernel_duration("gemm", 0.0) == 0.0

    def test_transfer_time(self):
        p = dancer_platform()
        assert p.transfer_time(0.0) == p.latency
        assert p.transfer_time(1.25e9) == pytest.approx(p.latency + 1.0)

    def test_allreduce_and_pivot_exchange(self):
        p = dancer_platform()
        assert p.allreduce_time(1, 100) == 0.0
        assert p.allreduce_time(4, 100) > 0.0
        assert p.pivot_exchange_time(1, 240) == 0.0
        assert p.pivot_exchange_time(4, 240) > p.allreduce_time(4, 8 * 240)

    def test_laptop_platform_single_node(self):
        p = laptop_platform(cores=2)
        assert p.nodes == 1
        assert p.total_cores == 2


# --------------------------------------------------------------------------- #
# Simulator
# --------------------------------------------------------------------------- #
class TestSimulator:
    def _platform(self, cores=2):
        return Platform(grid=ProcessGrid(1, 1), cores=cores, gemm_gflops=1.0,
                        latency=0.0, bandwidth=1e12, name="test")

    def test_serial_chain_time_adds_up(self):
        g = TaskGraph()
        for _ in range(4):
            g.add_task(kernel="gemm", step=0, reads={(0, 0)}, writes={(0, 0)}, flops=0.87e9)
        sim = simulate(g, self._platform(), tile_size=4)
        assert sim.makespan == pytest.approx(4.0, rel=1e-6)
        assert sim.critical_path_time == pytest.approx(sim.makespan, rel=1e-6)

    def test_parallel_tasks_limited_by_cores(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(kernel="gemm", step=0, writes={(i, i)}, flops=0.87e9)
        sim = simulate(g, self._platform(cores=2), tile_size=4)
        assert sim.makespan == pytest.approx(2.0, rel=1e-6)
        sim4 = simulate(g, self._platform(cores=4), tile_size=4)
        assert sim4.makespan == pytest.approx(1.0, rel=1e-6)

    def test_duration_hint_overrides_flops(self):
        g = TaskGraph()
        g.add_task(kernel="whatever", step=0, flops=1e15, duration_hint=0.5)
        sim = simulate(g, self._platform(), tile_size=4)
        assert sim.makespan == pytest.approx(0.5)

    def test_cross_node_dependency_pays_communication(self):
        platform = Platform(grid=ProcessGrid(2, 1), cores=1, gemm_gflops=1.0,
                            latency=1.0, bandwidth=1e12, name="test")
        g = TaskGraph()
        g.add_task(kernel="gemm", step=0, writes={(0, 0)}, owner=0, flops=0.87e9)
        g.add_task(kernel="gemm", step=0, reads={(0, 0)}, owner=1, flops=0.87e9)
        sim = simulate(g, platform, tile_size=4)
        assert sim.makespan == pytest.approx(3.0, rel=1e-6)  # 1 + latency + 1
        assert sim.communication_events == 1
        assert sim.communication_bytes == pytest.approx(8 * 16)

    def test_same_node_dependency_is_free(self):
        platform = Platform(grid=ProcessGrid(2, 1), cores=1, gemm_gflops=1.0,
                            latency=1.0, bandwidth=1e12, name="test")
        g = TaskGraph()
        g.add_task(kernel="gemm", step=0, writes={(0, 0)}, owner=0, flops=0.87e9)
        g.add_task(kernel="gemm", step=0, reads={(0, 0)}, owner=0, flops=0.87e9)
        sim = simulate(g, platform, tile_size=4)
        assert sim.makespan == pytest.approx(2.0, rel=1e-6)
        assert sim.communication_events == 0

    def test_empty_graph(self):
        sim = simulate(TaskGraph(), self._platform(), tile_size=4)
        assert sim.makespan == 0.0

    def test_utilization_and_busy_time(self):
        g = TaskGraph()
        for i in range(4):
            g.add_task(kernel="gemm", step=0, writes={(i, i)}, flops=0.87e9)
        platform = self._platform(cores=2)
        sim = simulate(g, platform, tile_size=4)
        assert sim.total_busy_time == pytest.approx(4.0, rel=1e-6)
        assert sim.utilization(platform) == pytest.approx(1.0, rel=1e-6)

    def test_schedule_recording_toggle(self):
        g = TaskGraph()
        g.add_task(kernel="gemm", step=0, flops=1.0)
        assert simulate(g, self._platform(), 4, record_schedule=True).schedule
        assert not simulate(g, self._platform(), 4, record_schedule=False).schedule


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
def _build_sum_graph(counter, n=20):
    """Graph of n tasks appending to a list, each depending on the previous."""
    g = TaskGraph()
    for i in range(n):
        def fn(i=i):
            counter.append(i)
        g.add_task(kernel="op", step=0, reads={(0, 0)}, writes={(0, 0)}, fn=fn)
    return g


class TestExecutors:
    def test_sequential_order_respected(self):
        out = []
        trace = SequentialExecutor().run(_build_sum_graph(out))
        assert out == list(range(20))
        assert trace.n_tasks == 20

    def test_threaded_dependencies_respected(self):
        out = []
        trace = ThreadedExecutor(workers=4).run(_build_sum_graph(out))
        assert out == list(range(20))
        assert trace.n_tasks == 20

    def test_threaded_parallel_speedup_structure(self):
        """Independent tasks run concurrently (check via concurrency profile)."""
        import time

        g = TaskGraph()
        for i in range(8):
            g.add_task(kernel="sleep", step=0, writes={(i, i)}, fn=lambda: time.sleep(0.05))
        trace = ThreadedExecutor(workers=4).run(g)
        assert trace.wall_time < 8 * 0.05  # strictly faster than serial
        assert trace.max_concurrency >= 2

    def test_threaded_numeric_correctness(self, rng):
        n, nb = 64, 16
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = np.zeros((n, n))
        g = TaskGraph()
        for i in range(n // nb):
            for j in range(n // nb):
                for k in range(n // nb):
                    def gemm(i=i, j=j, k=k):
                        c[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] += (
                            a[i * nb:(i + 1) * nb, k * nb:(k + 1) * nb]
                            @ b[k * nb:(k + 1) * nb, j * nb:(j + 1) * nb]
                        )
                    g.add_task(kernel="gemm", step=k, reads={(i, k), (k, j)},
                               writes={(i, j)}, fn=gemm)
        ThreadedExecutor(workers=3).run(g)
        np.testing.assert_allclose(c, a @ b, atol=1e-10)

    def test_threaded_propagates_errors(self):
        g = TaskGraph()

        def boom():
            raise RuntimeError("kernel failed")

        g.add_task(kernel="boom", step=0, fn=boom)
        with pytest.raises(RuntimeError, match="kernel failed"):
            ThreadedExecutor(workers=2).run(g)

    def test_threaded_release_stress(self):
        """More workers than cores and a tiny switch interval: every task
        runs once, after all its dependencies.  A lost update of a shared
        dependency counter would strand a task or release it twice."""
        import sys
        import time

        rng = np.random.default_rng(0)
        deps = [rng.choice(np.arange(max(0, uid - 16), uid), size=min(uid, 6), replace=False)
                for uid in range(1000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ran = []
                g = TaskGraph()
                for uid, before in enumerate(deps):
                    # sleep(0) drops the GIL, so workers interleave inside a task.
                    g.add_task(kernel="x", step=0, extra_deps=[int(d) for d in before],
                               fn=lambda uid=uid: (time.sleep(0), ran.append(uid)))
                trace = ThreadedExecutor(workers=8).run(g, timeout=60)
                assert sorted(ran) == list(range(1000)) and trace.n_tasks == 1000
                position = {uid: i for i, uid in enumerate(ran)}
                assert all(position[d] < position[t.uid] for t in g.tasks for d in t.deps)
        finally:
            sys.setswitchinterval(interval)

    def test_threaded_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(workers=0)

    def test_empty_graph(self):
        assert ThreadedExecutor(workers=2).run(TaskGraph()).n_tasks == 0


class TestExecutorErrorHandling:
    def _failing_graph(self):
        g = TaskGraph()
        g.add_task(kernel="ok", step=0, writes={(0, 0)}, fn=lambda: None)

        def boom():
            raise RuntimeError("kernel failed")

        g.add_task(kernel="boom", step=0, reads={(0, 0)}, fn=boom)
        g.add_task(kernel="never", step=0, extra_deps=[1], fn=lambda: None)
        return g

    def test_concurrency_profile_with_unfinished_task(self):
        """Regression: a started-but-unfinished task must not raise KeyError."""
        from repro.runtime import ExecutionTrace

        trace = ExecutionTrace()
        trace.start_times = {0: 0.0, 1: 0.5}
        trace.finish_times = {0: 1.0}  # task 1 started but never finished
        profile = trace.concurrency_profile(resolution=10)
        assert profile  # no KeyError
        assert max(profile) == 2  # both overlap in [0.5, 1.0)
        assert profile[-1] >= 1  # the unfinished task is in flight until t1

    def test_concurrency_profile_all_unfinished(self):
        from repro.runtime import ExecutionTrace

        trace = ExecutionTrace()
        trace.start_times = {0: 0.0, 1: 0.25}
        profile = trace.concurrency_profile(resolution=5)
        assert profile[-1] == 2

    def test_concurrency_profile_single_point(self):
        """Regression: resolution=1 must not divide by zero."""
        from repro.runtime import ExecutionTrace

        trace = ExecutionTrace()
        trace.start_times = {0: 0.0, 1: 0.5}
        trace.finish_times = {0: 1.0, 1: 1.5}
        profile = trace.concurrency_profile(resolution=1)
        assert profile == [1]  # sampled at the window start: only task 0

    def test_concurrency_profile_validates_resolution(self):
        from repro.runtime import ExecutionTrace

        trace = ExecutionTrace()
        trace.start_times = {0: 0.0}
        trace.finish_times = {0: 1.0}
        for bad in (0, -3):
            with pytest.raises(ValueError, match="resolution"):
                trace.concurrency_profile(resolution=bad)

    def test_threaded_error_trace_inspectable(self):
        executor = ThreadedExecutor(workers=2)
        with pytest.raises(RuntimeError, match="kernel failed"):
            executor.run(self._failing_graph())
        trace = executor.last_trace
        assert trace is not None
        assert trace.wall_time > 0.0  # set before raising
        # The errored task has both a start and a finish time recorded.
        assert 1 in trace.start_times and 1 in trace.finish_times
        # The successor of the failed task never started.
        assert 2 not in trace.start_times
        # The partial trace supports analysis without raising.
        assert trace.concurrency_profile()
        assert trace.max_concurrency >= 1

    def test_sequential_error_trace_inspectable(self):
        executor = SequentialExecutor()
        with pytest.raises(RuntimeError, match="kernel failed"):
            executor.run(self._failing_graph())
        trace = executor.last_trace
        assert trace.wall_time > 0.0
        assert 1 in trace.finish_times
        assert trace.concurrency_profile()

    def test_threaded_timeout_partial_trace(self):
        import time

        g = TaskGraph()
        g.add_task(kernel="slow", step=0, fn=lambda: time.sleep(0.4))
        executor = ThreadedExecutor(workers=1)
        with pytest.raises(TimeoutError):
            executor.run(g, timeout=0.05)
        trace = executor.last_trace
        assert trace.wall_time > 0.0
        assert trace.n_started == 1
        assert trace.concurrency_profile()  # robust to the unfinished task

    def test_threaded_completes_within_timeout(self):
        g = TaskGraph()
        g.add_task(kernel="fast", step=0, fn=lambda: None)
        trace = ThreadedExecutor(workers=1).run(g, timeout=10.0)
        assert trace.n_tasks == 1
