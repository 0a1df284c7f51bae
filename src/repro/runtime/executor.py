"""Executors that actually run a task graph on the local machine.

Beyond the discrete-event *simulator* (which only models time), the runtime
can execute task graphs whose tasks carry a Python callable:

* :class:`SequentialExecutor` runs tasks one by one in a valid topological
  order — useful for debugging and as a correctness reference;
* :class:`ThreadedExecutor` dispatches ready tasks to a thread pool,
  releasing successors as their dependencies complete — the same dataflow
  execution model as PaRSEC inside one node.  Numpy kernels release the GIL
  inside BLAS, so tile algorithms actually overlap.

The threaded, ``processes`` and ``cluster`` executors share one
:class:`DataflowCore` (dependency counters, priority-ordered ready lanes,
source and stuck checks, first-error latch, trace records) and add only
their transport.

All executors return an :class:`ExecutionTrace` with per-task timings so
examples and tests can inspect the achieved parallelism.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..api.registry import register_executor
from .graph import TaskGraph

__all__ = ["ExecutionTrace", "SequentialExecutor", "ThreadedExecutor"]


@dataclass
class ExecutionTrace:
    """Wall-clock trace of a real (non-simulated) task-graph execution.

    Besides per-task timings, the trace records each task's kernel name
    (``kernel_of_task``) so per-kernel cost calibration
    (:mod:`repro.perf.calibrate`) can be fed from traces alone, the kernel
    mix of sweep tasks (``mix_of_task``, see
    :func:`~repro.runtime.task.kernel_mix`; its counts sum to the task's
    batch count, so calibration can divide a sweep's duration back into
    per-kernel samples).
    """

    start_times: Dict[int, float] = field(default_factory=dict)
    finish_times: Dict[int, float] = field(default_factory=dict)
    worker_of_task: Dict[int, str] = field(default_factory=dict)
    kernel_of_task: Dict[int, str] = field(default_factory=dict)
    mix_of_task: Dict[int, Tuple[Tuple[str, int], ...]] = field(default_factory=dict)
    #: Logical (block-cyclic) rank each task executed under — recorded only
    #: by distribution-aware executors, so owner-computes placement can be
    #: asserted directly from the trace.
    rank_of_task: Dict[int, int] = field(default_factory=dict)
    wall_time: float = 0.0

    def record_kernel(self, uid: int, task) -> None:
        """Record what task ``uid`` computes: kernel and mix."""
        self.kernel_of_task[uid] = task.kernel
        if task.mix:
            self.mix_of_task[uid] = task.mix

    @property
    def n_tasks(self) -> int:
        return len(self.finish_times)

    @property
    def n_started(self) -> int:
        """Tasks that started, whether or not they finished (errored runs)."""
        return len(self.start_times)

    def concurrency_profile(self, resolution: int = 200) -> List[int]:
        """Number of tasks in flight sampled at ``resolution`` points.

        Robust to partial traces: a task that started but never finished
        (it errored, or the run timed out) is counted as in flight until
        the end of the sampled window.
        """
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        # Snapshot the dicts: after a timeout, a leaked worker thread may
        # still be writing into this trace while the caller inspects it.
        start_times = dict(self.start_times)
        finish_times = dict(self.finish_times)
        if not start_times:
            return []
        t0 = min(start_times.values())
        t1 = max(start_times.values())
        if finish_times:
            t1 = max(t1, max(finish_times.values()))
        if t1 <= t0:
            return [len(start_times)]
        if resolution == 1:
            points = [t0]  # a single sample, taken at the window start
        else:
            points = [t0 + (t1 - t0) * i / (resolution - 1) for i in range(resolution)]
        out = []
        for p in points:
            running = sum(
                1
                for uid, start in start_times.items()
                if start <= p < finish_times.get(uid, float("inf"))
            )
            out.append(running)
        return out

    @property
    def max_concurrency(self) -> int:
        profile = self.concurrency_profile()
        return max(profile) if profile else 0


class DataflowCore:
    """The dataflow state of one executor :meth:`run`; executors add only
    the transport that runs a popped task and reports its completion.

    A task joins a ready lane (``lane(uid)`` at push time, one lane by
    default) when its last dependency finishes, and :meth:`pop` hands out a
    lane's most critical task (largest ``Task.priority``, submission order
    breaking ties).  The first failure latches: nothing more is released or
    popped.  Not thread-safe: a threaded transport holds its own lock.
    ``needs_calls`` names an executor that ships
    :class:`~repro.kernels.dispatch.KernelCall` descriptors, not closures.
    """

    def __init__(
        self, graph: TaskGraph, trace: ExecutionTrace, needs_calls: Optional[str] = None
    ) -> None:
        tasks = graph.tasks
        missing = sorted({t.kernel for t in tasks if t.call is None}) if needs_calls else ()
        if missing:
            raise RuntimeError(
                f"{needs_calls} needs picklable kernel descriptors (KernelTask.call), "
                f"but tasks {', '.join(missing)} only carry closures"
            )
        self.tasks, self.trace = tasks, trace
        self.errors: List[BaseException] = []
        self.in_flight = 0  # popped and not yet finished, failed or retried
        self._successors = graph.successors()
        self._remaining = [len(t.deps) for t in tasks]
        self._lanes: Dict[Hashable, List[Tuple[float, int]]] = {}
        self._lane: Callable[[int], Hashable] = lambda uid: None

    def start(self, lane: Optional[Callable[[int], Hashable]] = None) -> int:
        """Push the source tasks (into ``lane(uid)`` if given); return how many."""
        if lane is not None:
            self._lane = lane
        sources = [uid for uid, n in enumerate(self._remaining) if n == 0]
        if not sources:
            raise ValueError("task graph has no source task (dependency cycle?)")
        for uid in sources:
            self._push(uid)
        return len(sources)

    def _push(self, uid: int) -> None:
        lane = self._lanes.setdefault(self._lane(uid), [])
        heapq.heappush(lane, (-self.tasks[uid].priority, uid))

    def pop(self, lane: Hashable = None) -> Optional[int]:
        """Put ``lane``'s most critical ready task in flight (``None`` if the
        lane is empty or a task failed)."""
        heap = self._lanes.get(lane)
        if self.errors or not heap:
            return None
        self.in_flight += 1
        return heapq.heappop(heap)[1]

    def started(self, uid: int, at: float, worker: str) -> None:
        """Trace where and when ``uid`` started, and what it computes."""
        self.trace.start_times[uid] = at
        self.trace.worker_of_task[uid] = worker
        self.trace.record_kernel(uid, self.tasks[uid])

    def finished(self, uid: int, at: float) -> int:
        """Trace ``uid``'s finish, push the successors it was the last
        dependency of (none after a failure) and return how many."""
        self.trace.finish_times[uid] = at
        self.in_flight -= 1
        released = 0
        for succ in () if self.errors else self._successors[uid]:
            self._remaining[succ] -= 1
            if self._remaining[succ] == 0:
                self._push(succ)
                released += 1
        return released

    def failed(self, uid: int, exc: BaseException, at: Optional[float] = None) -> None:
        """Latch ``exc`` (the first one is raised); ``at`` traces the finish."""
        self.in_flight -= 1
        self.errors.append(exc)
        if at is not None:
            self.trace.finish_times[uid] = at

    def retry(self, uid: int) -> None:
        """Return an in-flight task that never ran to its lane."""
        self.in_flight -= 1
        self._push(uid)

    def reroute(self, lane: Hashable) -> None:
        """Re-push ``lane``'s ready tasks after the lane function changed."""
        for _, uid in self._lanes.pop(lane, []):
            self._push(uid)

    @property
    def settled(self) -> bool:
        """Nothing in flight and nothing left to pop."""
        return not self.in_flight and (bool(self.errors) or not any(self._lanes.values()))

    def check_complete(self) -> None:
        """Raise the first task error, or name the tasks that never became
        ready (a cycle below the sources, possible through ``extra_deps``)."""
        if self.errors:
            raise self.errors[0]
        done = len(self.trace.finish_times)
        if done != len(self.tasks):
            stuck = [uid for uid, n in enumerate(self._remaining) if n > 0]
            raise ValueError(
                f"tasks {stuck} never became ready (dependency cycle?); "
                f"{done}/{len(self.tasks)} tasks finished"
            )


@register_executor("sequential", aliases=("seq",))
class SequentialExecutor:
    """Run every task of the graph in topological (submission) order.

    The trace of the most recent :meth:`run` call is kept in
    ``last_trace`` so it stays inspectable even when a task raised.
    """

    def __init__(self) -> None:
        self.last_trace: Optional[ExecutionTrace] = None

    def run(self, graph: TaskGraph) -> ExecutionTrace:
        trace = ExecutionTrace()
        self.last_trace = trace
        t_begin = time.perf_counter()
        try:
            for uid in graph.topological_order():
                task = graph.task(uid)
                trace.start_times[uid] = time.perf_counter()
                trace.worker_of_task[uid] = "main"
                trace.record_kernel(uid, task)
                try:
                    if task.fn is not None:
                        task.fn()
                finally:
                    # Record a finish time even for a task that raised, so
                    # the partial trace stays inspectable.
                    trace.finish_times[uid] = time.perf_counter()
        finally:
            trace.wall_time = time.perf_counter() - t_begin
        return trace


@register_executor("threaded", aliases=("threads", "threadpool"))
class ThreadedExecutor:
    """Dataflow execution on a thread pool (one node of a PaRSEC-like runtime).

    Parameters
    ----------
    workers:
        Number of worker threads (cores of the simulated node).

    Ready tasks are pulled from a priority-ordered set (largest
    ``Task.priority`` first, submission order breaking ties), so a graph
    whose priorities encode critical-path depth is executed along its
    critical path whenever more tasks are ready than workers are free.
    Priorities never relax dependencies: results stay bit-identical to the
    sequential reference for any priority assignment.

    The trace of the most recent :meth:`run` call is kept in ``last_trace``
    so partial traces stay inspectable after a task error or a timeout.
    After a :exc:`TimeoutError`, tasks that were mid-execution keep running
    detached (threads cannot be cancelled), so the data the graph's
    closures write must be treated as indeterminate by the caller.
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.last_trace: Optional[ExecutionTrace] = None

    def run(self, graph: TaskGraph, timeout: Optional[float] = None) -> ExecutionTrace:
        trace = ExecutionTrace()
        self.last_trace = trace
        tasks = graph.tasks
        if not tasks:
            return trace
        flow = DataflowCore(graph, trace)
        lock = threading.Lock()
        done = threading.Event()
        t_begin = time.perf_counter()

        def dispatch() -> None:
            # One pool job per released task; each pops the most critical
            # ready task when a worker frees up (none after a failure).
            with lock:
                uid = flow.pop()
            if uid is None:
                return
            task = tasks[uid]
            flow.started(uid, time.perf_counter(), threading.current_thread().name)
            try:
                if task.fn is not None:
                    task.fn()
            except BaseException as exc:  # propagate to the caller
                # The finish time keeps the partial trace inspectable
                # (concurrency_profile, per-task timings) after the failure.
                at = time.perf_counter()
                with lock:
                    flow.failed(uid, exc, at)
                    done.set()
                return
            at = time.perf_counter()
            with lock:
                n_ready = flow.finished(uid, at)
                if flow.settled:
                    done.set()
            # Released on this worker thread: no round trip to the caller's.
            for _ in range(n_ready):
                try:
                    pool.submit(dispatch)
                except RuntimeError:
                    # The pool was shut down after an error/timeout in
                    # another task; drop the successor.
                    return

        n_sources = flow.start()
        pool = ThreadPoolExecutor(max_workers=self.workers, thread_name_prefix="worker")
        completed = False
        try:
            for _ in range(n_sources):
                pool.submit(dispatch)
            completed = done.wait(timeout=timeout)
        finally:
            # On timeout, do not block on tasks that may never return.
            # Python threads cannot be killed: an in-flight task keeps
            # running detached and may still write the trace *and* whatever
            # data its closure touches, so after a TimeoutError the graph's
            # data must be treated as indeterminate.  Queued-but-unstarted
            # tasks are cancelled.
            pool.shutdown(wait=completed, cancel_futures=not completed)

        trace.wall_time = time.perf_counter() - t_begin
        if not completed:
            raise TimeoutError(
                f"task graph execution timed out after {timeout} s "
                f"({len(trace.finish_times)}/{len(tasks)} tasks finished)"
            )
        flow.check_complete()
        return trace
