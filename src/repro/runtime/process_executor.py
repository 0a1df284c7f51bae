"""Multi-process dataflow executor: tile kernels beyond the GIL.

:class:`~repro.runtime.executor.ThreadedExecutor` only overlaps work while
numpy is inside BLAS (which releases the GIL); the pivot searches,
triangular solves on small tiles, and all pure-Python bookkeeping of the
kernels still serialize on one interpreter.  :class:`ProcessExecutor`
removes that ceiling: tiles live in a
:class:`~repro.tiles.shared_buffer.SharedTileBuffer` (one
``multiprocessing.shared_memory`` segment), kernel tasks are shipped to a
persistent worker-process pool as picklable
:class:`~repro.kernels.dispatch.KernelCall` descriptors resolved against
the :data:`~repro.kernels.dispatch.KERNELS` table — every worker is a full
interpreter with its own GIL.

The pickling constraint this imposes: tasks must carry a descriptor
(``KernelTask.call``), not just a closure, and everything inside the
descriptor must pickle.  The step planners
(:mod:`repro.core.lu_step`, :mod:`repro.core.qr_step`,
:mod:`repro.baselines.lu_incpiv`) emit both forms, so the same plan runs
on any executor.  Execution-time data (compact-WY factors, pairwise pivot
factors) flows along graph edges through the descriptors'
``produces``/``consumes`` keys; the tile access sets already order each
producer before its consumers, so a consumed value is always available
when a task is dispatched.

Scheduling is the shared :class:`~repro.runtime.executor.DataflowCore`;
this module is the transport: pool futures, at most ``workers`` in flight.

Worker pools are shared per ``(workers, start_method)`` configuration and
kept alive across factorizations (the descriptors re-attach to the current
shared segment by name), so only the first factorization pays the process
start-up cost.
"""

from __future__ import annotations

import atexit
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

import multiprocessing

from ..api.registry import register_executor
from ..kernels.dispatch import execute_kernel_call
from ..tiles.shared_buffer import SharedBufferMeta
from .executor import DataflowCore, ExecutionTrace
from .graph import TaskGraph

__all__ = ["ProcessExecutor", "shutdown_worker_pools"]


#: Shared worker pools keyed by (workers, start_method); kept alive until
#: interpreter exit so repeated factorizations (and the many solvers a test
#: suite builds under ``REPRO_EXECUTOR=processes``) reuse warm workers.
_POOLS: Dict[Tuple[int, str], ProcessPoolExecutor] = {}
#: Pools pulled out of rotation after a timeout: a straggler worker may
#: still be running, and other runs sharing the pool must keep their
#: futures, so these are only shut down at interpreter exit.
_ABANDONED_POOLS: List[ProcessPoolExecutor] = []
_POOLS_LOCK = threading.Lock()


def default_start_method() -> str:
    """``forkserver``, else ``fork``, else the platform's first method.

    Shared by the ``processes`` and ``cluster`` executors."""
    # forkserver workers are forked from a clean, exec'd, single-threaded
    # server process, so creating a pool lazily from a serving thread is
    # safe; plain fork from an already-threaded parent can deadlock the
    # child (and is deprecated on Python >= 3.12).  Workers never rely on
    # inherited state — segments are attached by name and the kernel table
    # is populated at import — so fork's inheritance is not needed (pass
    # ``start_method="fork"`` explicitly for runtime-registered custom
    # kernels, which only forked workers inherit).
    methods = multiprocessing.get_all_start_methods()
    for preferred in ("forkserver", "fork"):
        if preferred in methods:
            return preferred
    return methods[0]


def _pool_for(workers: int, start_method: str) -> ProcessPoolExecutor:
    key = (workers, start_method)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(start_method),
            )
            _POOLS[key] = pool
        return pool


def _discard_pool(workers: int, start_method: str) -> None:
    """Destructively shut a broken pool down (its futures are dead anyway)."""
    with _POOLS_LOCK:
        pool = _POOLS.pop((workers, start_method), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def _abandon_pool(workers: int, start_method: str) -> None:
    """Pull a pool out of rotation without shutting it down.

    Used after a timeout: the pool may be shared by concurrent runs whose
    queued futures must not be cancelled, so the pool merely stops being
    handed out (new runs get a fresh one) and is reaped at interpreter
    exit.
    """
    with _POOLS_LOCK:
        pool = _POOLS.pop((workers, start_method), None)
        if pool is not None:
            _ABANDONED_POOLS.append(pool)


def shutdown_worker_pools() -> None:
    """Shut down every shared worker pool (mostly for tests/teardown)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values()) + _ABANDONED_POOLS
        _POOLS.clear()
        _ABANDONED_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_worker_pools)


@register_executor("processes", aliases=("process", "procs", "multiprocess"))
class ProcessExecutor:
    """Dataflow execution on a pool of worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes (default 8).
    start_method:
        ``multiprocessing`` start method; defaults to ``forkserver`` where
        available (workers fork from a clean, exec'd server process, which
        is safe even when pools are created lazily from serving threads),
        then ``fork``, then the platform default.  Pass ``"fork"``
        explicitly if workers must inherit runtime state such as kernels
        registered with :func:`repro.kernels.dispatch.kernel_op` after
        import.

    The executor must be *bound* to the
    :class:`~repro.tiles.shared_buffer.SharedBufferMeta` of the shared
    segment holding the tiles before :meth:`run` is called;
    :class:`~repro.core.solver_base.TiledSolverBase` does this
    automatically (it materializes the factorization in a
    :class:`~repro.tiles.shared_buffer.SharedTileBuffer` whenever the
    configured executor advertises ``uses_shared_tiles``).  Results are
    bit-identical to the sequential reference: workers run the exact same
    kernel operations on the exact same float64 bytes.

    Ready tasks are dispatched by descending ``Task.priority`` (submission
    order breaking ties), with at most one in-flight task per worker so
    the priority order is honoured at every dispatch decision.

    Like the threaded executor, the trace of the most recent :meth:`run`
    is kept in ``last_trace``; after a :exc:`TimeoutError` the in-flight
    worker processes keep running detached and the shared tiles must be
    treated as indeterminate.
    """

    #: Tells the tiled drivers to place tiles in shared memory.
    uses_shared_tiles = True

    def __init__(self, workers: int = 8, start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.start_method = start_method or default_start_method()
        self.last_trace: Optional[ExecutionTrace] = None
        # The binding is thread-local: a solver binds, steps, and unbinds
        # all on its factoring thread, so concurrent factorizations of
        # *different* matrices sharing one executor (e.g. SolverSession
        # misses on different keys, which factor concurrently by design)
        # each run against their own shared segment instead of racing one
        # per-executor slot.
        self._binding = threading.local()

    # ------------------------------------------------------------------ #
    # Shared-buffer binding
    # ------------------------------------------------------------------ #
    def bind(self, meta: SharedBufferMeta) -> None:
        """Target this thread's subsequent :meth:`run` calls at a segment."""
        self._binding.meta = meta
        # Execution-time products (compact-WY factors, pivot pairs) live
        # for the whole binding, not one run(): the lookahead pipeline may
        # flush a producer in an earlier graph than its consumers.
        self._binding.results = {}

    def unbind(self) -> None:
        self._binding.meta = None
        self._binding.results = None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, graph: TaskGraph, timeout: Optional[float] = None) -> ExecutionTrace:
        trace = ExecutionTrace()
        self.last_trace = trace
        tasks = graph.tasks
        if not tasks:
            return trace
        meta = getattr(self._binding, "meta", None)
        if meta is None:
            raise RuntimeError(
                "ProcessExecutor is not bound to a shared tile buffer; run the "
                "factorization through a tiled solver (which materializes the "
                "tiles in a SharedTileBuffer and calls bind()), or bind() a "
                "SharedBufferMeta yourself"
            )
        flow = DataflowCore(graph, trace, needs_calls="ProcessExecutor")

        pool = _pool_for(self.workers, self.start_method)
        results = getattr(self._binding, "results", None)
        if results is None:  # standalone run() without bind-scoped products
            results = {}
        outstanding: Dict[object, int] = {}

        def pump() -> None:
            # The surplus waits in the core's ready lane, not the pool's
            # FIFO queue, so a freed worker gets the most critical task.
            while len(outstanding) < self.workers:
                uid = flow.pop()
                if uid is None:
                    return
                call = tasks[uid].call
                inputs = tuple(results[key] for key in call.consumes)
                outstanding[pool.submit(execute_kernel_call, meta, call, inputs)] = uid

        flow.start()
        t_begin = time.perf_counter()
        deadline = None if timeout is None else t_begin + timeout
        try:
            pump()
            while outstanding:
                wait_for = None
                if deadline is not None:
                    wait_for = max(deadline - time.perf_counter(), 0.0)
                done, _ = wait(
                    list(outstanding), timeout=wait_for, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Worker processes cannot be interrupted mid-task;
                    # abandon the shared pool so stragglers cannot corrupt a
                    # later run, and leave the shared tiles indeterminate.
                    # (Abandon, not shut down: concurrent runs sharing the
                    # pool keep their queued futures and drain normally.)
                    _abandon_pool(self.workers, self.start_method)
                    raise TimeoutError(
                        f"task graph execution timed out after {timeout} s "
                        f"({len(trace.finish_times)}/{len(tasks)} tasks finished)"
                    )
                for fut in done:
                    uid = outstanding.pop(fut)
                    try:
                        value, norms, start, finish, worker = fut.result()
                    except BaseException as exc:
                        # Latch the error; already-submitted tasks drain
                        # through the wait loop.
                        flow.failed(uid, exc)
                        continue
                    flow.started(uid, start, worker)
                    call = tasks[uid].call
                    if norms is not None:
                        trace.tile_norms[uid] = dict(zip(call.norm_tiles, norms))
                    if call.produces is not None:
                        results[call.produces] = value
                    flow.finished(uid, finish)
                pump()
        except BrokenProcessPool:
            # submit() raises synchronously on a pool whose worker died
            # between runs (OOM kill, external signal); evict it so the
            # next run gets a fresh pool instead of failing forever.
            _discard_pool(self.workers, self.start_method)
            raise
        finally:
            trace.wall_time = time.perf_counter() - t_begin
        if any(isinstance(exc, BrokenProcessPool) for exc in flow.errors):
            _discard_pool(self.workers, self.start_method)
        flow.check_complete()
        return trace
