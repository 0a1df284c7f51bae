"""Schedule the *numerical* kernels of one elimination step on an executor.

The numerical drivers (:mod:`repro.core.lu_step`, :mod:`repro.core.qr_step`,
the baselines) describe each elimination step as an ordered list of
:class:`KernelTask` objects: a kernel name, the tiles it reads and writes,
and a closure performing the actual numpy computation.  This module turns
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

``build_step_graph`` accepts an existing graph to append to, which is the
seam for cross-step lookahead; :class:`StepPipeline` builds on that seam:
it holds the planned-but-not-yet-executed tasks of several steps in one
pending window and flushes *dependency-closed* slices of it, so step
``k+1``'s panel tasks run in the same graph — and therefore concurrently
with — step ``k``'s still-draining trailing update, exactly the panel/
update overlap the paper obtains from PaRSEC's asynchrony.  Before each
flush the graph's tasks are prioritised by critical-path depth (b-level)
under the calibrated cost model, so the executors' priority-ordered ready
sets favour the panel chain.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..kernels.dispatch import KERNELS
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
    "written_tiles",
]


@dataclass
class KernelTask:
    """One numerical kernel invocation of an elimination step.

    Attributes
    ----------
    kernel:
        Lower-case kernel name (``"getrf"``, ``"gemm"``, ``"tsqrt"``, ...).
    fn:
        Closure performing the kernel on the tile matrix.  Closures read
        tile state lazily (at execution time), so the same task list can be
        run sequentially or handed to an executor.
    reads / writes:
        Tile coordinates accessed; right-hand-side tiles use the
        ``(i, RHS_COLUMN)`` convention of :mod:`repro.runtime.task`.
        Dependencies between tasks are inferred from these sets.
    flops:
        Optional flop count (forwarded to the graph for diagnostics).
    call:
        Optional picklable :class:`~repro.kernels.dispatch.KernelCall`
        descriptor form of the same kernel — the form the multi-process
        executor ships to its workers (closures cannot cross a process
        boundary, so a task without a descriptor can only run in-process).
    fused:
        Number of logical per-tile kernels this task performs (1 for the
        per-tile panel kernels; a trailing-update sweep carries its tile
        count).  The cost model multiplies the per-kernel duration by it
        and calibration divides measured durations back down.
    mix:
        ``(kernel, count)`` pairs of a sweep running several kernel
        families (see :attr:`repro.runtime.task.Task.mix`).
    """

    kernel: str
    fn: Callable[[], None]
    reads: FrozenSet[TileRef] = frozenset()
    writes: FrozenSet[TileRef] = frozenset()
    flops: float = 0.0
    call: Optional[object] = None
    fused: int = 1
    mix: Tuple[Tuple[str, int], ...] = ()


def call_task(
    kernel: str,
    tiles,
    call,
    reads: Iterable[TileRef],
    writes: Iterable[TileRef],
    products: Optional[Dict[object, object]] = None,
    fused: int = 1,
    mix: Tuple[Tuple[str, int], ...] = (),
) -> KernelTask:
    """A task whose in-process body runs ``call``'s op from :data:`KERNELS`.

    The closure does on ``tiles`` exactly what a worker process does with
    the descriptor, so both forms of the task are one code path.
    ``products`` is the step's factor table: consumed keys are read from
    it and the op's result is stored under ``call.produces`` — the
    in-process counterpart of the executors' produces/consumes edges.
    """
    op = KERNELS[call.kernel]
    args, consumes, produces = call.args, call.consumes, call.produces

    def run() -> None:
        result = op(tiles, tuple(products[key] for key in consumes), *args)
        if produces is not None:
            products[produces] = result

    return KernelTask(
        kernel,
        run,
        reads=frozenset(reads),
        writes=frozenset(writes),
        call=call,
        fused=fused,
        mix=mix,
    )


def build_step_graph(
    tasks: Sequence[KernelTask],
    step: int = 0,
    graph: Optional[TaskGraph] = None,
) -> TaskGraph:
    """Materialise kernel tasks as a :class:`TaskGraph`.

    Tasks must be given in the sequential (program) order of the step;
    read/write dependencies are inferred by the graph's superscalar
    analysis.  Passing an existing ``graph`` appends the tasks to it —
    the entry point for cross-step lookahead.
    """
    if graph is None:
        graph = TaskGraph()
    for t in tasks:
        graph.add_task(
            kernel=t.kernel,
            step=step,
            reads=t.reads,
            writes=t.writes,
            flops=t.flops,
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
    lookahead depth.  Each flush materialises one
    :class:`~repro.runtime.graph.TaskGraph` in program order, assigns
    critical-path priorities, and runs it to completion on the executor —
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
    which the driver replays step by step after the factorization — the
    samples are taken by the same ``region_tile_norms`` code path as the
    inline bookkeeping, so the replayed values are bit-identical.

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
        self._pending.extend((step, t) for t in entries)

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
            values = [
                (t, float(tiles.region_tile_norms(t[0], t[0] + 1, t[1], t[1] + 1)[0, 0]))
                for t in sample_tiles
            ]
            with self._lock:
                store = self.norm_samples.setdefault(step, {})
                for tile, value in values:
                    store[tile] = value

        return sampled

    def _flush(self, needed: Callable[[int, KernelTask], bool]) -> None:
        if not self._pending:
            return
        # Dependency oracle over the whole pending window: the superscalar
        # analysis turns every RAW/WAW/WAR relation into an edge, so the
        # ancestor closure below is exactly "everything a selected task
        # needs to have run first".
        oracle = TaskGraph()
        for step, task in self._pending:
            oracle.add_task(
                kernel=task.kernel, step=step, reads=task.reads, writes=task.writes
            )
        selected = [needed(step, task) for step, task in self._pending]
        for idx in range(len(self._pending) - 1, -1, -1):
            if selected[idx]:
                for dep in oracle.task(idx).deps:
                    selected[dep] = True
        if not any(selected):
            return
        graph = TaskGraph()
        for idx, (step, task) in enumerate(self._pending):
            if selected[idx]:
                graph.add_task(
                    kernel=task.kernel,
                    step=step,
                    reads=task.reads,
                    writes=task.writes,
                    flops=task.flops,
                    fn=task.fn,
                    call=task.call,
                    fused=task.fused,
                    mix=task.mix,
                )
        assign_task_priorities(graph, self.tile_size, self.calibration)
        steps = [step for idx, (step, _) in enumerate(self._pending) if selected[idx]]
        self.window_spans.append((min(steps), max(steps)))
        if self.collect_graphs:
            self.graphs.append(graph)
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
        self._pending = [
            entry for idx, entry in enumerate(self._pending) if not selected[idx]
        ]


def written_tiles(tasks: Iterable[KernelTask]) -> FrozenSet[TileRef]:
    """Union of the tiles written by the given tasks (RHS refs included)."""
    out: set = set()
    for t in tasks:
        out.update(t.writes)
    return frozenset(out)


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
