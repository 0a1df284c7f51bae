"""Schedule the *numerical* kernels of one elimination step on an executor.

The numerical drivers (:mod:`repro.core.lu_step`, :mod:`repro.core.qr_step`,
the baselines) describe each elimination step as an ordered list of
:class:`KernelTask` objects, each built by :func:`call_task` from one
:class:`~repro.kernels.dispatch.KernelCall`: the call's op is the body, and
the tiles it reads and writes come from the op's access rule.  This module turns
such a list into a :class:`~repro.runtime.graph.TaskGraph` — dependencies
are inferred with the same superscalar (last-writer) analysis PaRSEC uses,
exactly as :mod:`repro.core.dag_builder` does for the performance
simulation — and runs it on a real executor.

The per-step criterion decision of the hybrid algorithm stays sequential
(it is inherently dynamic, mirroring the BACKUP / LU ON PANEL / PROPAGATE
control layer of :mod:`repro.runtime.dataflow`), but every panel
elimination and trailing-matrix update within a step fans out; since numpy
kernels release the GIL inside BLAS, the updates genuinely overlap on a
:class:`~repro.runtime.executor.ThreadedExecutor`.

:class:`StepPipeline` holds the planned-but-not-yet-executed tasks of
several steps in one pending window and flushes *dependency-closed* slices
of it, so step ``k+1``'s panel tasks run in the same graph as — and
concurrently with — step ``k``'s still-draining trailing update, the
panel/update overlap the paper obtains from PaRSEC's asynchrony.  Each
flush is prioritised by critical-path depth (b-level) under the calibrated
cost model, so the executors' priority-ordered ready sets favour the panel
chain.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..kernels.dispatch import KERNELS, access_sets
from ..kernels.flops import KernelFlops
from .executor import ExecutionTrace
from .graph import TaskGraph
from .task import Task, TileRef, kernel_mix

__all__ = [
    "KernelTask",
    "call_task",
    "StepPipeline",
    "build_step_graph",
    "run_step_tasks",
    "kernel_cost_fn",
    "static_kernel_flops",
    "assign_task_priorities",
    "merge_traces",
]


class _AccessSets:
    """A task's ``(reads, writes)``: given, or built on first use from its
    call's access rule and cached; every :func:`dataclasses.replace` copy
    of the task shares it."""

    __slots__ = ("call", "step", "sets")

    def __init__(self, call=None, step: int = 0, sets=None) -> None:
        self.call, self.step, self.sets = call, step, sets

    def __call__(self) -> Tuple[FrozenSet[TileRef], FrozenSet[TileRef]]:
        if self.sets is None:
            self.sets = access_sets(self.call, self.step)
        return self.sets


@dataclass(init=False)
class KernelTask:
    """One numerical kernel invocation of an elimination step.

    The planners build every task with :func:`call_task` from its
    :class:`~repro.kernels.dispatch.KernelCall`; everything else about the
    task derives from that call and the op registry.

    Attributes
    ----------
    kernel:
        Lower-case kernel name (``"getrf"``, ``"gemm"``, ``"tsqrt"``, ...).
    fn:
        The body: runs the call's op on the live tile matrix (tile state is
        read at execution time, so the same task list can run sequentially
        or on an executor).  Instrumenting backends wrap it.
    reads / writes:
        Tile coordinates accessed; right-hand-side tiles use the
        ``(i, RHS_COLUMN)`` convention of :mod:`repro.runtime.task`.
        Dependencies between tasks are inferred from these sets.  For a
        :func:`call_task` task they are the call's access rule
        (:data:`~repro.kernels.dispatch.ACCESS_RULES`), built on first read;
        the inline path never reads them, so it never builds them.  Tasks
        built directly take explicit ``reads=``/``writes=``.
    call:
        Optional picklable :class:`~repro.kernels.dispatch.KernelCall`
        descriptor form of the same kernel — the form the multi-process
        executor ships to its workers.
    fused:
        Number of logical per-tile kernels this task performs: the sum of
        ``mix`` (1 for a per-tile panel kernel).  The cost model multiplies
        the per-kernel duration by it and calibration divides measured
        durations back down.
    mix:
        ``(kernel, count)`` pairs of a sweep (see
        :attr:`repro.runtime.task.Task.mix`); a step's Table-I counts are
        the sum of its tasks' mixes.
    """

    kernel: str
    fn: Callable[[], None]
    sets: _AccessSets
    call: Optional[object] = None
    fused: int = 1
    mix: Tuple[Tuple[str, int], ...] = ()

    def __init__(
        self, kernel: str, fn: Callable[[], None], reads=None, writes=None,
        call=None, fused: int = 1, mix=(), sets=None,
    ) -> None:
        if sets is None:
            sets = _AccessSets(sets=(frozenset(reads or ()), frozenset(writes or ())))
        elif reads is not None or writes is not None:
            raise TypeError("a task takes explicit reads/writes or shared sets, not both")
        self.kernel, self.fn, self.sets = kernel, fn, sets
        self.call, self.fused, self.mix = call, fused, mix

    reads = property(lambda self: self.sets()[0], doc="Tiles read (built on first use).")
    writes = property(lambda self: self.sets()[1], doc="Tiles written (built on first use).")


def call_task(
    kernel: str,
    tiles,
    call,
    step: int,
    products: Optional[Dict[object, object]] = None,
    mix: Tuple[Tuple[str, int], ...] = (),
) -> KernelTask:
    """The task that runs ``call``'s op from :data:`KERNELS` at step ``step``.

    The body does on ``tiles`` exactly what a worker process does with
    the descriptor, so both forms of the task are one code path.  Reads and
    writes come from the op's access rule on first read; ``fused`` is the
    sum of ``mix`` (a per-tile kernel passes none).  ``products`` is the
    step's factor table: consumed keys are read from it and the op's result
    is stored under ``call.produces`` — the in-process counterpart of the
    executors' produces/consumes edges.
    """
    op = KERNELS[call.kernel]
    args, consumes, produces = call.args, call.consumes, call.produces

    def run() -> None:
        result = op(tiles, tuple(products[key] for key in consumes), *args)
        if produces is not None:
            products[produces] = result

    fused = sum(count for _, count in mix) if mix else 1
    return KernelTask(kernel, run, call=call, fused=fused, mix=mix, sets=_AccessSets(call, step))


def build_step_graph(
    tasks: Sequence[KernelTask],
    step: int = 0,
    graph: Optional[TaskGraph] = None,
) -> TaskGraph:
    """Materialise kernel tasks as a :class:`TaskGraph`.

    Tasks must be given in the sequential (program) order of the step;
    read/write dependencies are inferred by the graph's superscalar
    analysis.  Passing an existing ``graph`` appends the tasks to it (the
    audit accumulates every step of a factorization in one graph this way).
    """
    if graph is None:
        graph = TaskGraph()
    for t in tasks:
        graph.add_task(
            kernel=t.kernel,
            step=step,
            reads=t.reads,
            writes=t.writes,
            fn=t.fn,
            call=t.call,
            fused=t.fused,
            mix=t.mix,
        )
    return graph


def run_step_tasks(
    tasks: Sequence[KernelTask],
    executor=None,
    step: int = 0,
) -> Optional[ExecutionTrace]:
    """Execute one step's kernel tasks, sequentially or on an executor.

    With ``executor=None`` the tasks simply run in program order with no
    graph overhead (the sequential reference path); otherwise the task
    graph is materialised and dispatched on the executor (sequential,
    threaded, or multi-process), and the execution trace is returned so
    callers can inspect the achieved parallelism.
    """
    if executor is None:
        for t in tasks:
            t.fn()
        return None
    graph = build_step_graph(tasks, step=step)
    return executor.run(graph)


def kernel_cost_fn(
    tile_size: int, calibration: Optional[object] = None
) -> Callable[[Task], float]:
    """Per-task cost function for critical-path priorities.

    With a ``calibration`` (any object exposing
    ``kernel_duration(kernel, nb) -> Optional[float]`` and
    ``flops_per_second(nb) -> Optional[float]``, e.g.
    :class:`repro.perf.calibrate.Calibration`), measured per-kernel
    durations are used; kernels the calibration has never seen fall back
    to their Table-I flop count converted at the calibrated rate, so all
    costs stay in seconds.  Without a calibration, costs are plain flop
    counts — only relative magnitudes matter for priorities.  Kernels with
    no Table-I entry (``tstrf``, ``ssssm``, RHS variants strip their
    ``_rhs`` suffix first) are charged a generic ``nb^3``.  A sweep is
    charged per logical kernel of its :func:`~repro.runtime.task.kernel_mix`.
    """
    nb = int(tile_size)

    if calibration is None:
        return lambda task: sum(
            static_kernel_flops(kernel, nb) * m for kernel, m in kernel_mix(task)
        )

    rate = calibration.flops_per_second(nb)

    def unit_cost(kernel: str) -> float:
        measured = calibration.kernel_duration(kernel, nb)
        if measured is not None and measured > 0.0:
            return float(measured)
        fl = static_kernel_flops(kernel, nb)
        return fl / rate if rate else fl

    return lambda task: sum(unit_cost(kernel) * m for kernel, m in kernel_mix(task))


def static_kernel_flops(kernel: str, nb: int) -> float:
    """Table-I flop count of one ``kernel`` on tiles of order ``nb``.

    RHS variants are charged as their ``_rhs``-stripped kernel; kernels
    with no Table-I entry a generic ``nb^3``.
    """
    base = kernel[:-4] if kernel.endswith("_rhs") else kernel
    try:
        return float(KernelFlops(nb).of(base))
    except KeyError:
        return float(nb**3)


def assign_task_priorities(
    graph: TaskGraph, tile_size: int, calibration: Optional[object] = None
) -> None:
    """Assign b-level (critical-path) priorities to every task of ``graph``.

    Thin wrapper combining :func:`kernel_cost_fn` with
    :meth:`TaskGraph.assign_priorities
    <repro.runtime.graph.TaskGraph.assign_priorities>`.
    """
    graph.assign_priorities(kernel_cost_fn(tile_size, calibration))


class StepPipeline:
    """Cross-step lookahead: plan ahead, flush dependency-closed slices.

    The tiled drivers plan elimination steps one at a time (the per-step
    criterion decision is inherently sequential), but the planned kernel
    tasks need not run before the next step is planned.  The pipeline
    keeps up to ``lookahead + 1`` steps of planned tasks in one pending
    window and, before step ``k`` is planned, flushes only what planning
    step ``k`` actually needs: every pending writer of panel column ``k``
    (panel analysis reads column ``k`` alone), any task a flushed task
    depends on (the dependency closure under the superscalar analysis —
    RAW, WAW and WAR edges alike), and every task of steps older than the
    lookahead depth.  ``submit`` adds each task once to the window's
    dependency oracle, one :class:`~repro.runtime.graph.TaskGraph` holding
    kernel, step and access sets (no closures).  A flush runs the oracle's
    induced :meth:`~repro.runtime.graph.TaskGraph.subgraph` on the selected
    tasks with critical-path priorities, to completion on the executor —
    so step ``k``'s panel tasks execute concurrently with step ``k-1``'s
    still-pending trailing update inside the same graph.

    Results are bit-identical to the sequential reference: the closure
    guarantees every flushed task sees exactly the tile bytes it would
    have seen inline, and tasks left pending only ever *depend on* flushed
    work, never the other way around.

    Growth tracking needs the per-step tile norms, which the host can no
    longer observe between steps once flushes interleave them; instead the
    last writer of each tile within a step samples the tile's 1-norm right
    after its kernel (via a wrapped closure in-process, or via
    ``KernelCall.norm_tiles`` on worker processes) into ``norm_samples``,
    which the driver replays step by step after the factorization.  A task
    samples with one ``region_tile_norms`` pass over its tiles' bounding
    box (``TileMatrix.sampled_tile_norms``), the reduction of the inline
    ``[k:, k:]`` pass, so the replayed values are bit-identical.

    Parameters
    ----------
    executor:
        The dataflow executor every flush runs on.
    tile_size:
        Tile order ``nb`` (drives the priority cost model).
    lookahead:
        How many steps may stay pending behind the one being planned
        (``0`` degenerates to one flush per step; ``1`` is the classic
        panel/update overlap).
    calibration:
        Optional calibrated cost model for priorities (see
        :func:`kernel_cost_fn`).
    collect_graphs:
        Keep each flush's :class:`TaskGraph` in ``graphs`` (used to replay
        real executions through the simulator).
    """

    def __init__(
        self,
        executor,
        tile_size: int,
        lookahead: int = 1,
        calibration: Optional[object] = None,
        collect_graphs: bool = False,
    ) -> None:
        if lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {lookahead}")
        self.executor = executor
        self.tile_size = int(tile_size)
        self.lookahead = int(lookahead)
        self.calibration = calibration
        self.collect_graphs = bool(collect_graphs)
        self.traces: List[ExecutionTrace] = []
        self.graphs: List[TaskGraph] = []
        #: ``(min_step, max_step)`` per flush — how many elimination steps
        #: were in flight together.  The liveness pass uses flush windows as
        #: its memory-certification granularity, so the spans double as a
        #: direct measure of how much lookahead actually materialised.
        self.window_spans: List[Tuple[int, int]] = []
        #: ``step -> {tile: 1-norm after that step}`` samples for growth
        #: replay; only populated when ``submit`` is given the tiles.
        self.norm_samples: Dict[int, Dict[TileRef, float]] = {}
        self._oracle = TaskGraph()
        #: ``(oracle uid, task)`` of every planned task that has not run yet.
        self._pending: List[Tuple[int, KernelTask]] = []
        # Executors whose kernels run outside this process (shared-memory
        # workers or distributed cluster nodes) must sample norms on the
        # worker, via KernelCall.norm_tiles; in-process executors sample
        # through a wrapped closure over the live tiles.
        self._shared_tiles = bool(
            getattr(executor, "uses_shared_tiles", False)
            or getattr(executor, "distributes_tiles", False)
        )
        self._lock = threading.Lock()
        self._failed = False

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Driver-facing API
    # ------------------------------------------------------------------ #
    def submit(
        self, tasks: Sequence[KernelTask], step: int, tiles=None
    ) -> None:
        """Append one planned step's tasks to the pending window.

        ``tiles`` (the live :class:`~repro.tiles.tile_matrix.TileMatrix`)
        enables norm sampling for growth tracking; pass ``None`` when
        growth is not tracked.
        """
        entries = list(tasks)
        if tiles is not None and entries:
            entries = self._attach_norm_sampling(entries, step, tiles)
        for task in entries:
            entry = self._oracle.add_task(task.kernel, step, task.reads, task.writes)
            self._pending.append((entry.uid, task))

    def advance(self, k: int) -> None:
        """Flush everything planning step ``k`` needs (call before planning)."""
        if not self._pending:
            return
        horizon = k - 1 - self.lookahead

        def needed(step: int, task: KernelTask) -> bool:
            return step <= horizon or any(j == k for (_, j) in task.writes)

        self._flush(needed)

    def flush_all(self) -> None:
        """Run every still-pending task (end of factorization/breakdown)."""
        if self._failed:
            # A previous flush died mid-graph; re-running its tasks would
            # re-apply kernels to half-updated tiles.  The factorization is
            # being torn down anyway, so just drop the window.
            self._pending.clear()
            return
        self._flush(lambda step, task: True)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _attach_norm_sampling(
        self, entries: List[KernelTask], step: int, tiles
    ) -> List[KernelTask]:
        n = tiles.n
        last_writer: Dict[TileRef, int] = {}
        for idx, task in enumerate(entries):
            for tile in task.writes:
                if 0 <= tile[1] < n:  # matrix tiles only, RHS is not tracked
                    last_writer[tile] = idx
        sample_of: Dict[int, List[TileRef]] = {}
        for tile, idx in last_writer.items():
            sample_of.setdefault(idx, []).append(tile)
        for idx, sample_tiles in sample_of.items():
            task = entries[idx]
            ordered = tuple(sorted(sample_tiles))
            if self._shared_tiles:
                # Worker processes mutate their own mapping of the shared
                # segment; sampling must happen worker-side, piggybacked on
                # the kernel descriptor and harvested from the trace.
                if task.call is not None:
                    entries[idx] = dataclass_replace(
                        task,
                        call=dataclass_replace(task.call, norm_tiles=ordered),
                    )
            else:
                entries[idx] = dataclass_replace(
                    task, fn=self._sampling_fn(task.fn, tiles, step, ordered)
                )
        return entries

    def _sampling_fn(
        self, fn: Callable[[], None], tiles, step: int, sample_tiles
    ) -> Callable[[], None]:
        def sampled() -> None:
            fn()
            # Sample after the write; the next writer of each tile lives in
            # a later step and therefore depends on this task, so no other
            # task can touch the tile between the write and the sample.
            values = tiles.sampled_tile_norms(sample_tiles)
            with self._lock:
                self.norm_samples.setdefault(step, {}).update(zip(sample_tiles, values))

        return sampled

    def _flush(self, needed: Callable[[int, KernelTask], bool]) -> None:
        if not self._pending:
            return
        # The oracle turns every RAW/WAW/WAR relation into an edge, so the
        # closure below is exactly "everything a selected task needs to have
        # run first" (edges to tasks that already ran are ignored).
        oracle = self._oracle
        live = {uid for uid, _ in self._pending}
        selected = set()
        for uid, task in reversed(self._pending):
            if uid in selected or needed(oracle.task(uid).step, task):
                selected.add(uid)
                selected.update(live.intersection(oracle.task(uid).deps))
        if not selected:
            return
        graph = oracle.subgraph(selected)
        chosen = [task for uid, task in self._pending if uid in selected]
        for entry, task in zip(graph.tasks, chosen):
            entry.fn, entry.call = task.fn, task.call
            entry.fused, entry.mix = max(int(task.fused), 1), tuple(task.mix)
        assign_task_priorities(graph, self.tile_size, self.calibration)
        steps = [entry.step for entry in graph.tasks]
        self.window_spans.append((min(steps), max(steps)))
        if self.collect_graphs:
            self.graphs.append(graph)
        self._pending = [entry for entry in self._pending if entry[0] not in selected]
        for uid in selected:  # about to run: the oracle keeps their uids, not their sets
            oracle.task(uid).reads = oracle.task(uid).writes = frozenset()
        try:
            trace = self.executor.run(graph)
        except BaseException:
            self._failed = True
            raise
        self.traces.append(trace)
        # Harvest worker-side norm samples (multi-process path).
        for uid, norms in trace.tile_norms.items():
            store = self.norm_samples.setdefault(graph.task(uid).step, {})
            store.update(norms)


def _check_trace_consistency(tr: ExecutionTrace) -> None:
    """Reject traces whose fused bookkeeping contradicts the kernel map.

    Executors record ``kernel_of_task`` for every task they start and add
    a ``fused_of_task`` entry (the per-task kernel multiplicity, always
    >= 2) only for fused tasks.  A trace that violates either invariant
    was corrupted upstream; merging it would silently skew calibration
    (fused durations are split back into per-kernel samples), so fail
    loudly here instead.
    """
    fused = getattr(tr, "fused_of_task", {})
    orphans = sorted(uid for uid in fused if uid not in tr.kernel_of_task)
    if orphans:
        raise ValueError(
            "inconsistent ExecutionTrace: fused_of_task names task uids "
            f"{orphans} that kernel_of_task never recorded"
        )
    bad_counts = sorted(uid for uid, m in fused.items() if int(m) < 2)
    if bad_counts:
        raise ValueError(
            "inconsistent ExecutionTrace: fused_of_task records a "
            f"multiplicity < 2 for task uids {bad_counts} (fused tasks "
            "always batch at least two kernels)"
        )


def merge_traces(traces: Sequence[ExecutionTrace]) -> ExecutionTrace:
    """Concatenate per-step traces into one (uids offset per step).

    The merged trace keeps real wall-clock timestamps, so the concurrency
    profile of a whole factorization (one trace per elimination step) can
    be inspected at once; ``wall_time`` is the sum of the step wall times.
    Robust to the partial traces of errored or timed-out runs: an empty
    sequence merges to an empty trace, and tasks missing their start or
    finish timestamp are carried through as-is (cost calibration filters
    them out rather than tripping over them here).
    """
    merged = ExecutionTrace()
    offset = 0
    for tr in traces:
        _check_trace_consistency(tr)
        for uid, t in tr.start_times.items():
            merged.start_times[offset + uid] = t
        for uid, t in tr.finish_times.items():
            merged.finish_times[offset + uid] = t
        for uid, w in tr.worker_of_task.items():
            merged.worker_of_task[offset + uid] = w
        for uid, kernel in tr.kernel_of_task.items():
            merged.kernel_of_task[offset + uid] = kernel
        for uid, m in getattr(tr, "fused_of_task", {}).items():
            merged.fused_of_task[offset + uid] = m
        for uid, mix in getattr(tr, "mix_of_task", {}).items():
            merged.mix_of_task[offset + uid] = mix
        for uid, norms in tr.tile_norms.items():
            merged.tile_norms[offset + uid] = dict(norms)
        for uid, rank in getattr(tr, "rank_of_task", {}).items():
            merged.rank_of_task[offset + uid] = rank
        merged.wall_time += tr.wall_time
        # Advance past the largest uid seen, not the entry count: a partial
        # trace (errored/timed-out run) has non-contiguous uids, and a
        # length-based offset would collide with the next trace's entries.
        # A task that errored before finishing may only appear in the
        # worker/kernel maps, so those count toward the offset too.
        seen = (
            set(tr.start_times)
            | set(tr.finish_times)
            | set(tr.worker_of_task)
            | set(tr.kernel_of_task)
            | set(getattr(tr, "fused_of_task", ()))
            | set(getattr(tr, "mix_of_task", ()))
            | set(tr.tile_norms)
            | set(getattr(tr, "rank_of_task", ()))
        )
        offset += (max(seen) + 1) if seen else 0
    return merged
