"""The traced phase: where an op's time goes, layer by layer.

Layers are the ``src/repro`` packages.  Nothing under ``src/`` is touched;
the numbers come through five public seams:

(a) *staged replay* — the stages ``repro.solve`` runs, called and timed one
    by one: ``make_solver`` -> ``solver.factor`` -> ``fact.solve`` ->
    ``stability_report``;
(b) the :mod:`e2e_spans` instruments handed to ``make_solver``;
(c) records the program publishes itself: ``solver.step_traces``,
    ``CacheStats``, ``ServiceStats``, ``ClusterExecutor.last_comm``;
(d) direct timed calls of public functions on the run's own inputs;
(e) one alternate-configuration run per ratio metric.

Counts and in-factorization times are means **per factorization** over a
fixed number of traced factorizations, and every loop here runs a fixed
number of times (``--seconds`` governs the untraced phase only), so every
count repeats exactly for a given seed.  Stage times are medians.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

import repro
from repro.api.session import matrix_fingerprint
from repro.linalg.triangular import tiled_back_substitution
from repro.runtime.graph import TaskGraph
from repro.runtime.schedule import assign_task_priorities, kernel_cost_fn
from repro.stability.metrics import stability_report
from repro.tiles.shared_buffer import SharedTileBuffer
from repro.tiles.tile_matrix import TileMatrix

from e2e_spans import (
    LU_KERNELS,
    SpanBackend,
    SpanCriterion,
    SpanRecorder,
    kernel_totals,
    trace_kernel_totals,
)
from e2e_stats import Metrics
from e2e_workloads import BURST

#: Kernels reported one by one (the top of the profile); the rest only count
#: in the family and overall totals.
TOP_KERNELS = ("geqrt", "ttqrt", "ttmqr", "unmqr", "swptrsm", "gemm", "getrf")


def timed(fn: Callable, *args: Any, **kwargs: Any) -> Tuple[float, Any]:
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def median_of(fn: Callable, reps: int) -> float:
    return statistics.median(timed(fn)[0] for _ in range(reps))


class FactorTally:
    """Per-factorization sums of what the instruments and traces recorded."""

    def __init__(self, tile_size: int) -> None:
        self.tile_size = tile_size
        self.factorizations = 0
        self.step_records = 0
        self.kernels: Dict[str, List[float]] = {}
        self.sums: Dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def add_kernels(self, totals: Dict[str, List[float]]) -> None:
        for kernel, (calls, busy) in totals.items():
            entry = self.kernels.setdefault(kernel, [0, 0.0])
            entry[0] += calls
            entry[1] += busy

    def add_instruments(
        self, recorder: SpanRecorder, parent: int, backend: SpanBackend, factorizations: int = 1
    ) -> None:
        """Fold in what the traced factorizations left under span ``parent``."""
        self.factorizations += factorizations
        for key, layer in (("criteria", "criteria"), ("region_norms", "tiles")):
            rows = recorder.children(parent, layer)
            self.add(f"{key}.calls", len(rows))
            self.add(f"{key}.s", sum(r[3] - r[2] for r in rows))
        self.add("tasks_planned", backend.tasks_planned)
        backend.tasks_planned = 0
        self.add("accessor_calls", sum(t.accessor_calls for t in backend.tiles))
        backend.tiles.clear()

    def add_steps(self, fact) -> None:
        self.step_records += 1
        self.add("steps", fact.n_steps)
        self.add("lu_steps", fact.lu_steps)
        self.add("qr_steps", fact.qr_steps)

    def mean(self, key: str) -> float:
        return self.sums.get(key, 0.0) / max(self.factorizations, 1)

    def busy(self, kernels=None) -> float:
        return sum(
            busy for name, (_calls, busy) in self.kernels.items()
            if kernels is None or (name in kernels)
        ) / max(self.factorizations, 1)

    def report(self, metrics: Metrics, factor_s: float, children_s: float, tile_call_s: float) -> None:
        """Emit the core/criteria/kernels/tiles rows; ``children_s`` is the part of
        ``factor_s`` spent below the core layer (kernel bodies or executor runs)."""
        f = max(self.factorizations, 1)
        metrics.put("core.tasks_planned", self.mean("tasks_planned"), "count")
        for key in ("steps", "lu_steps", "qr_steps"):
            metrics.put(f"core.{key}", self.sums[key] / self.step_records, "count")
        self_s = factor_s - children_s - self.mean("criteria.s") - self.mean("region_norms.s")
        metrics.put("core.factor_s", factor_s, "s")
        metrics.put("core.self_s", self_s, "s")
        metrics.put("core.self_share", self_s / factor_s, "share")
        metrics.put("criteria.evaluate_s", self.mean("criteria.s"), "s")
        metrics.put("criteria.calls", self.mean("criteria.calls"), "count")

        busy = self.busy()
        calls = sum(c for c, _b in self.kernels.values()) / f
        cost = kernel_cost_fn(self.tile_size)  # Table-I flop counts, computed not measured
        flops = sum(
            cost(SimpleNamespace(kernel=name, fused=1)) * c for name, (c, _b) in self.kernels.items()
        ) / f
        metrics.put("kernels.busy_s", busy, "s")
        metrics.put("kernels.busy_share", busy / factor_s, "share")
        metrics.put("kernels.calls", calls, "count")
        metrics.put("kernels.flops", flops, "flop")
        metrics.put("kernels.gflops_rate", flops / busy / 1e9 if busy else 0.0, "Gflop/s")
        metrics.put("kernels.lu.busy_s", self.busy(LU_KERNELS), "s")
        metrics.put("kernels.qr.busy_s", busy - self.busy(LU_KERNELS), "s")
        for name in TOP_KERNELS:
            c, b = self.kernels.get(name, (0, 0.0))
            metrics.put(f"kernels.{name}.busy_s", b / f, "s")
            metrics.put(f"kernels.{name}.calls", c / f, "count")

        metrics.put("tiles.accessor_calls", self.mean("accessor_calls"), "count")
        metrics.put("tiles.accessor_s", self.mean("accessor_calls") * tile_call_s, "s")
        metrics.put("tiles.region_norms_calls", self.mean("region_norms.calls"), "count")
        metrics.put("tiles.region_norms_s", self.mean("region_norms.s"), "s")


def instrumented(spec: Dict[str, Any], recorder: SpanRecorder):
    """The workload's solver with the span instruments plugged in."""
    backend = SpanBackend(recorder)
    criterion = SpanCriterion(repro.make_criterion(spec["criterion"]), recorder)
    solver = repro.make_solver(**{**spec, "kernel_backend": backend, "criterion": criterion})
    return solver, backend


def probe_inputs(a: np.ndarray, b: np.ndarray, spec: Dict[str, Any], metrics: Metrics) -> float:
    """Seam (d): public functions timed directly on one of the run's matrices.
    Returns the per-call cost of ``TileMatrix.tile`` (prices the accessor counts)."""
    nb = spec["tile_size"]
    metrics.put("api.facade.make_solver_s", median_of(lambda: repro.make_solver(**{**spec, "executor": "none"}), 5), "s")
    metrics.put("api.session.fingerprint_s", median_of(lambda: matrix_fingerprint(a), 3), "s")
    metrics.put("tiles.from_dense_s", median_of(lambda: TileMatrix.from_dense(a, nb, rhs=b), 5), "s")

    def shared_alloc() -> float:
        elapsed, buf = timed(SharedTileBuffer.allocate, a, nb, rhs=b)
        buf.close()
        buf.unlink()
        return elapsed

    metrics.put("tiles.shared_alloc_s", statistics.median(shared_alloc() for _ in range(3)), "s")
    tiles = TileMatrix.from_dense(a, nb, rhs=b)
    calls = 20000

    def accessor_loop() -> None:
        tile = tiles.tile
        for _ in range(calls):
            tile(1, 1)

    return median_of(accessor_loop, 5) / calls


def rebuild_graph(graph: TaskGraph, tile_size: int) -> Tuple[float, float]:
    """Seam (d): seconds to re-add a flushed graph's tasks to a fresh
    ``TaskGraph`` (dependency inference) and to assign b-level priorities."""
    fresh = TaskGraph()
    start = time.perf_counter()
    for t in graph.tasks:
        fresh.add_task(kernel=t.kernel, step=t.step, reads=t.reads, writes=t.writes,
                       flops=t.flops, fn=t.fn, call=t.call, fused=t.fused)
    built = time.perf_counter()
    assign_task_priorities(fresh, tile_size, None)
    return built - start, time.perf_counter() - built


def put_reference(metrics: Metrics, a: np.ndarray, b: np.ndarray, op_s: float) -> None:
    """LAPACK on the same matrix; informational (it varies ~30 % across processes)."""
    lapack = median_of(lambda: np.linalg.solve(a, b), 3)
    metrics.put("reference.lapack_solve_s", lapack, "s")
    metrics.put("reference.lapack_ratio", op_s / lapack, "ratio")


# --------------------------------------------------------------------------- #
# Solve workloads
# --------------------------------------------------------------------------- #
def trace_solve(driver, metrics: Metrics, recorder: SpanRecorder):
    """Staged and instrumented replay of ``traced_ops`` fresh solves on the
    set-up solver's own executor, then the alternate-configuration ratios.
    Returns what is left to measure once the workload's workers are stopped."""
    executor = getattr(driver.solver, "executor", None)
    spec = {**driver.spec, "executor": executor if executor is not None else "none"}
    inline_spec = {**driver.spec, "executor": "none"}
    nb = spec["tile_size"]
    ops = 1 if driver.smoke else driver.w.traced_ops
    tally, inline_tally = FactorTally(nb), FactorTally(nb)
    stages: Dict[str, List[float]] = {
        k: [] for k in ("whole", "make", "factor", "back", "report", "self", "traced", "inline", "fused")
    }
    runtime: Dict[str, float] = {}
    comm = None
    systems = []

    def bump(key: str, value: float) -> None:
        runtime[key] = runtime.get(key, 0.0) + value

    for op in range(ops):
        a, b = driver.matrix(), driver.rhs()
        systems.append((a, b))
        recorder.op = op

        out: Dict[str, Any] = {}

        def whole() -> None:
            """Untraced: the op as the caller runs it."""
            elapsed, result = timed(driver.solve, a, b)
            driver.check(a, b, result)
            stages["whole"].append(elapsed)

        def staged() -> None:
            """Untraced: the same op, one public stage at a time (seam a)."""
            elapsed, solver = timed(repro.make_solver, **spec)
            stages["make"].append(elapsed)
            elapsed, fact = timed(solver.factor, a, b)
            stages["factor"].append(elapsed)
            elapsed, x = timed(fact.solve)
            stages["back"].append(elapsed)
            stages["report"].append(timed(stability_report, a, x, b)[0])
            out.update(solver=solver, fact=fact)

        def traced() -> None:
            """The same factorization with the instruments in place (seam b)."""
            tsolver, backend = instrumented(spec, recorder)
            # Keeping the flushed graphs alive costs a few percent: only here.
            tsolver.collect_step_graphs = executor is not None
            with recorder.span("core.factor", "core") as parent:
                tfact = tsolver.factor(a, b)
            stages["traced"].append(recorder.rows[parent][3] - recorder.rows[parent][2])
            out.update(tfact=tfact, backend=backend, parent=parent, graphs=tsolver.step_graphs)

        # Whichever goes first meets the matrix cold (~5-10 % slower): rotate
        # the order from op to op, so that neither the residual between the op
        # and the sum of its stages nor the tracing overhead is biased.
        order = [whole, staged, traced]
        for stage in order[op % 3:] + order[: op % 3]:
            stage()
        solver, fact, tfact = out["solver"], out["fact"], out["tfact"]
        backend, parent = out["backend"], out["parent"]
        driver.attempted += 1
        if not np.array_equal(tfact.tiles.array, fact.tiles.array):
            driver.fail("traced factors are not bit-identical to untraced factors")
        tally.add_instruments(recorder, parent, backend)
        tally.add_steps(tfact)
        if executor is None:
            totals = kernel_totals(recorder, parent)
            tally.add_kernels(totals)
            stages["self"].append(stages["factor"][-1] - sum(busy for _calls, busy in totals.values()))
            continue

        # Executor workloads: the traces of the untraced staged run (seam c), so
        # that factor time and executor time are one execution; the graphs of
        # the traced one (seam d).
        traces = solver.step_traces
        run_s = sum(t.wall_time for t in traces)
        stages["self"].append(stages["factor"][-1] - run_s)
        tally.add_kernels(trace_kernel_totals(traces))
        bump("flushes", len(traces))
        bump("run_s", run_s)
        bump("worker_busy_s", sum(t.finish_times[u] - t.start_times[u] for t in traces for u in t.finish_times))
        runtime["max_concurrency"] = max(runtime.get("max_concurrency", 0), max(t.max_concurrency for t in traces))
        for graph in out["graphs"]:
            bump("tasks", len(graph))
            bump("edges", sum(len(t.deps) for t in graph.tasks))
            build_s, priorities_s = rebuild_graph(graph, nb)
            bump("graph_build_s", build_s)
            bump("priorities_s", priorities_s)
        comm = getattr(executor, "last_comm", None)
        # ... and the same system inline (seam e): whole solve, and kernel busy time.
        stages["inline"].append(timed(repro.make_solver(**inline_spec).solve, a, b)[0])
        isolver, ibackend = instrumented(inline_spec, recorder)
        with recorder.span("core.factor.inline", "core") as iparent:
            ifact = isolver.factor(a, b)
        driver.attempted += 1
        if not np.array_equal(fact.tiles.array, ifact.tiles.array):
            driver.fail("executor factors are not bit-identical to the inline factors")
        inline_tally.add_instruments(recorder, iparent, ibackend)
        inline_tally.add_kernels(kernel_totals(recorder, iparent))

    med = {k: statistics.median(v) for k, v in stages.items() if v}
    a, b = systems[0]
    tile_call_s = probe_inputs(a, b, driver.spec, metrics)
    tally.report(metrics, med["factor"], med["factor"] - med["self"], tile_call_s)
    metrics.put("linalg.back_substitution_s", med["back"], "s")
    metrics.put("stability.report_s", med["report"], "s")
    # Paired per op: the op and its replays share one matrix, so its steps cancel.
    residual = statistics.median(
        whole - (make + factor + back + report)
        for whole, make, factor, back, report in zip(*(stages[k] for k in ("whole", "make", "factor", "back", "report")))
    )
    metrics.put("trace.staged_residual_share", abs(residual) / med["whole"], "share")
    overhead = statistics.median(t / f for t, f in zip(stages["traced"], stages["factor"])) - 1.0
    metrics.put("trace.overhead_share", overhead, "share")
    put_reference(metrics, a, b, med["whole"])

    if executor is not None:
        workers = getattr(executor, "workers", 1)  # the sequential executor is its one worker
        for key in ("flushes", "tasks", "edges"):
            metrics.put(f"runtime.{key}", runtime[key] / ops, "count")
        metrics.put("runtime.max_concurrency", runtime["max_concurrency"], "count")
        for key in ("run_s", "worker_busy_s", "graph_build_s", "priorities_s"):
            metrics.put(f"runtime.{key}", runtime[key] / ops, "s")
        idle = 1.0 - runtime["worker_busy_s"] / (workers * runtime["run_s"])
        metrics.put("runtime.worker_idle_share", idle, "share")
        metrics.put("runtime.inline_solve_s", med["inline"], "s")
        metrics.put("runtime.speedup_vs_inline", med["inline"] / med["whole"], "ratio")
        metrics.put("runtime.kernel_inflation", tally.busy() / inline_tally.busy(), "ratio")
        if isinstance(executor, repro.ThreadedExecutor):
            # Seam (e): what a second GIL-bound worker thread costs on the same solves.
            two = repro.make_solver(**{**driver.spec, "executor": "threaded(workers=2)"})
            doubled = statistics.median(timed(two.solve, a, b)[0] for a, b in systems)
            metrics.put("runtime.threads2_vs_1_ratio", doubled / med["whole"], "ratio")
        if comm is not None:
            for key in ("cross_messages", "cross_bytes", "forward_messages", "forward_bytes",
                        "product_messages", "retried_tasks"):
                metrics.put(f"cluster.{key}", getattr(comm, key), "count")
            metrics.put("cluster.worker_busy_s", runtime["worker_busy_s"] / ops, "s")
            metrics.put("cluster.comm_wait_share", idle, "share")
            return lambda: trace_cluster_alternates(driver, med["whole"], metrics)
    elif driver.w.facade:
        # Earn-or-remove verdict for the fused backend: same solves, other backend.
        for a, b in systems:
            elapsed, result = timed(repro.solve, a, b, **{**driver.spec, "kernel_backend": "fused"})
            driver.check(a, b, result)
            stages["fused"].append(elapsed)
        metrics.put("kernels.fused_vs_numpy_ratio", statistics.median(stages["fused"]) / med["whole"], "ratio")
    return None


def trace_cluster_alternates(driver, whole_s: float, metrics: Metrics) -> None:
    """Seam (e) for ``offbox_cluster``, run after its workers are gone so the
    box never hosts more than ``nproc`` workers: cluster start-up on its own,
    and the same problem on the shared-memory ``processes`` executor."""
    executor = repro.make_executor(driver.spec["executor"])
    metrics.put("cluster.start_s", timed(executor.min_budget)[0], "s")
    driver.stop_workers(executor)
    solver = repro.make_solver(**{**driver.spec, "executor": "processes(workers=2)"})
    samples = []
    for op in range(2 if driver.smoke else 4):
        a, b = driver.matrix(), driver.rhs()
        elapsed, result = timed(solver.solve, a, b)
        driver.check(a, b, result)
        if op > 0:  # the first op starts the pool
            samples.append(elapsed)
    driver.stop_workers()
    metrics.put("cluster.vs_processes_ratio", whole_s / statistics.median(samples), "ratio")


# --------------------------------------------------------------------------- #
# Serving workloads
# --------------------------------------------------------------------------- #
def hit_breakdown(session, handle, rhs: Callable[[], np.ndarray], reps: int, metrics: Metrics) -> float:
    """Seam (d): a cache hit outside the service, and its two named children."""
    a = handle.matrix
    fact = session.cached_factorization(key=handle.key)
    transform = np.asarray(fact.tiles.rhs)
    # Hits back to back first, as the service issues them; their children after.
    hit = [timed(session.solve_many, a, rhs(), key=handle.key)[0] for _ in range(reps)]
    matmul, back, report = [], [], []
    for _ in range(reps):
        b = rhs()
        elapsed, transformed = timed(lambda: transform @ b.reshape(-1, 1))
        matmul.append(elapsed)
        elapsed, x = timed(tiled_back_substitution, fact.tiles.array, transformed, fact.tiles.nb)
        back.append(elapsed)
        report.append(timed(stability_report, a, x[: a.shape[0], 0], b)[0])
    hit_s, back_s, report_s = (statistics.median(v) for v in (hit, back, report))
    metrics.put("api.session.hit_solve_s", hit_s, "s")
    metrics.put("api.session.hit_self_s", hit_s - back_s - report_s, "s")
    metrics.put("linalg.back_substitution_s", back_s, "s")
    metrics.put("stability.report_s", report_s, "s")
    named = statistics.median(matmul) + back_s + report_s
    metrics.put("trace.staged_residual_share", abs(hit_s - named) / hit_s, "share")
    return hit_s


def put_service_stats(metrics: Metrics, service) -> None:
    stats = service.stats_snapshot()
    metrics.put("api.service.batches", stats.batches, "count")
    metrics.put("api.service.coalesced_batches", stats.coalesced_batches, "count")
    metrics.put("api.service.max_batch_columns", stats.max_batch_columns, "count")
    # Every request of these workloads carries one column.
    metrics.put("api.service.mean_batch_columns", stats.completed / max(stats.batches, 1), "count")


def put_cache_stats(metrics: Metrics, stats) -> None:
    metrics.put("api.session.hits", stats.hits, "count")
    metrics.put("api.session.misses", stats.misses, "count")
    metrics.put("api.session.evictions", stats.evictions, "count")
    metrics.put("api.session.hit_rate", stats.hit_rate, "share")
    metrics.put("api.session.factor_s", stats.factor_seconds, "s")


def miss_factor_ratio(spec, matrices: Sequence[np.ndarray], rhs, miss_factor_s: float, metrics: Metrics) -> None:
    """What riding ``[A | I]`` along costs over a plain ``factor(a, b)``."""
    solver = repro.make_solver(**spec)
    plain = statistics.median(timed(solver.factor, a, rhs())[0] for a in matrices)
    metrics.put("api.session.miss_factor_ratio", miss_factor_s / plain, "ratio")


def trace_serve_warm(driver, metrics: Metrics, recorder: SpanRecorder) -> None:
    few = driver.smoke
    warm_s = statistics.median(
        driver.closed_loop(driver.service, driver.handle, 4 if few else 200)
    )
    # A second service whose solver carries the instruments, on a fresh matrix.
    solver, backend = instrumented(driver.spec, recorder)
    service = repro.SolverService(solver)
    try:
        a, b = driver.matrix(), driver.rhs()
        elapsed, handle = timed(service.register, a)
        metrics.put("api.service.register_s", elapsed, "s")
        with recorder.span("api.service.cold_request", "api") as cold:
            result = service.submit(handle, b).result()
        driver.check(a, b, result)
        tally = FactorTally(driver.spec["tile_size"])
        tally.add_instruments(recorder, cold, backend)
        tally.add_kernels(kernel_totals(recorder, cold))
        tally.add_steps(result.factorization)
        miss_factor_s = service.session.stats.factor_seconds
        tile_call_s = probe_inputs(a, b, driver.spec, metrics)
        tally.report(metrics, miss_factor_s, tally.busy(), tile_call_s)

        with recorder.span("api.service.warm_requests", "api") as warm:
            traced = driver.closed_loop(service, handle, 4 if few else 100)
        driver.attempted += 1
        if recorder.children(warm, "kernels") or backend.tasks_planned:
            driver.fail("kernels or planners ran during the warm phase")
        metrics.put("trace.overhead_share", statistics.median(traced) / warm_s - 1.0, "share")
        driver.bursts(service, handle, 2 if few else 5, 4 if few else BURST)
        put_service_stats(metrics, service)
        put_cache_stats(metrics, service.session.stats)
        hit_s = hit_breakdown(service.session, handle, driver.rhs, 4 if few else 50, metrics)
        metrics.put("api.service.queue_overhead_s", warm_s - hit_s, "s")
        miss_factor_ratio(driver.spec, [a], driver.rhs, miss_factor_s, metrics)
        put_reference(metrics, a, b, warm_s)
    finally:
        service.shutdown()


def trace_serve_churn(driver, metrics: Metrics, recorder: SpanRecorder) -> None:
    requests = 12 if driver.smoke else driver.w.traced_ops
    capacity, spec = driver.w.capacity, driver.spec

    def replay(service) -> List[float]:
        driver.position = 0
        try:
            return driver.replay(service, requests)
        finally:
            service.shutdown()

    # The same first requests of the schedule through three fresh services.
    single = repro.SolverService(capacity=capacity, **spec)
    plain = replay(single)
    put_service_stats(metrics, single)
    stats = single.session.stats
    put_cache_stats(metrics, stats)
    miss_factor_s = stats.factor_seconds / max(stats.misses, 1)
    # Two shards share the single service's cache budget, so the ratio prices
    # the routing layer and not a doubled cache.
    sharded = replay(repro.ShardedSolverService(shards=2, capacity=capacity // 2, **spec))
    metrics.put("cluster.sharded_vs_single_ratio", sum(sharded) / sum(plain), "ratio")

    solver, backend = instrumented(spec, recorder)
    service = repro.SolverService(solver, capacity=capacity)
    session = service.session
    with recorder.span("api.service.requests", "api") as parent:
        traced = replay(service)
    metrics.put("trace.overhead_share", sum(traced) / sum(plain) - 1.0, "share")
    tally = FactorTally(spec["tile_size"])
    tally.add_instruments(recorder, parent, backend, session.stats.misses)
    tally.add_kernels(kernel_totals(recorder, parent))
    for handle in driver.handles:  # step kinds of the factorizations still cached
        fact = session.cached_factorization(key=handle.key)
        if fact is not None:
            tally.add_steps(fact)
    hot = driver.handles[int(np.bincount(driver.schedule[:requests]).argmax())]
    a, b = hot.matrix, driver.rhs()
    tile_call_s = probe_inputs(a, b, spec, metrics)
    traced_factor_s = session.stats.factor_seconds / max(session.stats.misses, 1)
    tally.report(metrics, traced_factor_s, tally.busy(), tile_call_s)

    hit_s = hit_breakdown(session, hot, driver.rhs, 4 if driver.smoke else 50, metrics)
    request_s = statistics.median(plain)  # a hit: most requests are
    metrics.put("api.service.queue_overhead_s", request_s - hit_s, "s")
    miss_factor_ratio(spec, driver.matrices[:3], driver.rhs, miss_factor_s, metrics)
    put_reference(metrics, a, b, request_s)


TRACERS = {"solve": trace_solve, "serve_warm": trace_serve_warm, "serve_churn": trace_serve_churn}
