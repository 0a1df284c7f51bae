"""Schedule the *numerical* kernels of one elimination step on an executor.

The numerical drivers (:mod:`repro.core.lu_step`, :mod:`repro.core.qr_step`,
the baselines) describe each elimination step as an ordered list of
:class:`KernelTask` objects, each built by :func:`call_task` from one
:class:`~repro.kernels.dispatch.KernelCall`: the call's op is the body, and
the tiles it reads and writes come from the op's access rule.  This module turns
such a list into a :class:`~repro.runtime.graph.TaskGraph` — dependencies
are inferred with the same superscalar (last-writer) analysis PaRSEC uses,
the analysis :mod:`repro.perf.model` applies to the same plan's per-tile
units for the performance simulation — and runs it on a real executor.

The per-step criterion decision of the hybrid algorithm stays sequential
(it is inherently dynamic, mirroring the BACKUP / LU ON PANEL / PROPAGATE
control layer of the paper's Figure 1), but every panel
elimination and trailing-matrix update within a step fans out; since numpy
kernels release the GIL inside BLAS, the updates genuinely overlap on a
:class:`~repro.runtime.executor.ThreadedExecutor`.  Each step is one graph,
prioritised by critical-path depth (b-level) in Table-I flops and run to
completion, so the host sees the step's writes before it plans the next
step.  The priorities depend only on the plan: no measured cost enters the
solve path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from ..kernels.dispatch import KERNELS, access_sets
from ..kernels.flops import KernelFlops
from .executor import ExecutionTrace
from .graph import TaskGraph
from .task import Task, TileRef, kernel_mix

__all__ = [
    "KernelTask",
    "call_task",
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
    tile_size: Optional[int] = None,
) -> Optional[Tuple[ExecutionTrace, TaskGraph]]:
    """Execute one step's kernel tasks, sequentially or on an executor.

    With ``executor=None`` the tasks simply run in program order with no
    graph overhead (the sequential reference path) and ``None`` is
    returned.  Otherwise the step's task graph is materialised, given
    b-level priorities in Table-I flops (:func:`kernel_cost_fn` without a
    calibration) when ``tile_size`` is known (without it every priority
    stays 0: submission order), and run to completion on the executor
    (sequential, threaded, multi-process or cluster); the execution trace
    and the graph are returned.
    """
    if executor is None:
        for t in tasks:
            t.fn()
        return None
    graph = build_step_graph(tasks, step=step)
    if tile_size is not None:
        assign_task_priorities(graph, tile_size)
    return executor.run(graph), graph


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
    counts — only relative magnitudes matter for priorities.  RHS variants
    are priced as their ``_rhs``-stripped kernel, and a kernel with no
    :class:`~repro.kernels.flops.KernelFlops` entry a generic ``nb^3``.  A
    sweep is charged per logical kernel of its
    :func:`~repro.runtime.task.kernel_mix`.  The solvers' executor path
    always prices by flops; a calibration comes only from a caller that
    fitted one.
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
    """Flop count of one ``kernel`` on tiles of order ``nb``, from
    :class:`~repro.kernels.flops.KernelFlops`.

    RHS variants are charged as their ``_rhs``-stripped kernel; kernels
    with no entry (control tasks) a generic ``nb^3``.
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


def _check_trace_consistency(tr: ExecutionTrace) -> None:
    """Reject traces whose kernel mixes contradict the kernel map.

    Executors record ``kernel_of_task`` for every task they start and add
    a ``mix_of_task`` entry (each kernel family's count, every count
    >= 1) for sweep tasks.  A trace that violates either invariant was
    corrupted upstream; merging it would silently skew calibration (a
    sweep's duration is split back into per-kernel samples by its mix),
    so fail loudly here instead.
    """
    mixes = tr.mix_of_task
    orphans = sorted(uid for uid in mixes if uid not in tr.kernel_of_task)
    if orphans:
        raise ValueError(
            "inconsistent ExecutionTrace: mix_of_task names task uids "
            f"{orphans} that kernel_of_task never recorded"
        )
    bad_counts = sorted(
        uid for uid, mix in mixes.items() if any(int(count) < 1 for _, count in mix)
    )
    if bad_counts:
        raise ValueError(
            "inconsistent ExecutionTrace: mix_of_task records a kernel "
            f"count < 1 for task uids {bad_counts}"
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
        for uid, mix in tr.mix_of_task.items():
            merged.mix_of_task[offset + uid] = mix
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
            | set(tr.mix_of_task)
            | set(getattr(tr, "rank_of_task", ()))
        )
        offset += (max(seen) + 1) if seen else 0
    return merged
