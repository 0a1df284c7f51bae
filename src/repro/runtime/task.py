"""Tasks: the unit of work of the dataflow runtime.

The paper implements its algorithms on top of PaRSEC, a distributed
dataflow runtime that executes a graph of *tasks* (tile kernels) whose
edges are data dependencies between tiles.  This module defines the task
abstraction used by our pure-Python substitute: a task knows

* which kernel it represents (``getrf``, ``gemm``, ``tsqrt``, ...),
* which elimination step it belongs to,
* which tiles it reads and writes (used both to build dependencies and to
  derive communication volumes),
* which process (node) owns it (the *owner computes* rule: a task runs on
  the node owning the tile it writes),
* its floating-point cost,
* optionally a Python callable so the threaded executor can actually run
  the numerical kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional, Set, Tuple

__all__ = ["TileRef", "Task", "kernel_mix"]

#: A tile coordinate ``(i, j)``; the right-hand-side tile of row ``i`` is
#: represented as ``(i, RHS_COLUMN)``.
TileRef = Tuple[int, int]

#: Pseudo-column index used for right-hand-side tiles in task read/write sets.
RHS_COLUMN = -1


@dataclass
class Task:
    """One node of the task graph.

    Attributes
    ----------
    uid:
        Unique integer id within its :class:`~repro.runtime.graph.TaskGraph`.
    kernel:
        Lower-case kernel name (drives the cost model).
    step:
        Elimination step ``k`` this task belongs to.
    reads / writes:
        Tiles read and written.  A tile that is modified in place appears
        in both sets.
    owner:
        Linear rank of the process executing the task.
    flops:
        Floating-point operations performed by the task.
    critical:
        Marks control/decision tasks (backup, propagate, all-reduce) that
        belong to the decision-making overhead of the hybrid algorithm.
    duration_hint:
        Optional fixed duration in seconds; when set, the simulator uses it
        instead of deriving a duration from ``flops`` and the kernel rate
        (used for communication/control tasks such as the criterion
        all-reduce or the LUPP pivot exchange).
    fn:
        Optional callable executed by the threaded/sequential executors.
    call:
        Optional picklable :class:`~repro.kernels.dispatch.KernelCall`
        descriptor of the same kernel, executed by the multi-process
        executor (closures cannot cross a process boundary).
    priority:
        Scheduling priority — larger runs first among simultaneously ready
        tasks.  Executors use it to order their ready sets; the canonical
        assignment is the critical-path depth (b-level) under a calibrated
        cost model, see :meth:`TaskGraph.assign_priorities
        <repro.runtime.graph.TaskGraph.assign_priorities>`.  Priorities
        never override dependencies, so they affect timing only, not
        results.
    fused:
        Number of logical per-tile kernels this task batches (1 for a
        plain per-tile task; a trailing-update sweep carries its tile
        count).  The priority cost model scales the per-kernel duration by
        this count, and calibration divides the measured duration back
        down so cost tables stay per-tile.
    mix:
        ``(kernel, count)`` pairs of a sweep, one per kernel family it runs
        (a QR update chain mixes UNMQR, TSMQR and TTMQR); the counts add up
        to ``fused``.  Empty for a task that is ``fused`` copies of
        ``kernel`` (a per-tile task) — see :func:`kernel_mix`.
    """

    uid: int
    kernel: str
    step: int
    reads: FrozenSet[TileRef] = frozenset()
    writes: FrozenSet[TileRef] = frozenset()
    owner: int = 0
    flops: float = 0.0
    critical: bool = False
    duration_hint: Optional[float] = None
    fn: Optional[Callable[[], None]] = None
    call: Optional[object] = None
    priority: float = 0.0
    fused: int = 1
    mix: Tuple[Tuple[str, int], ...] = ()
    deps: Set[int] = field(default_factory=set)

    def touches(self) -> FrozenSet[TileRef]:
        """All tiles accessed by the task."""
        return self.reads | self.writes

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task(uid={self.uid}, kernel={self.kernel!r}, step={self.step}, "
            f"owner={self.owner}, deps={sorted(self.deps)})"
        )


def kernel_mix(task) -> Tuple[Tuple[str, int], ...]:
    """The ``(kernel, count)`` pairs one task performs.

    A task's ``mix`` when it has one, else ``((kernel, fused),)``.  The
    priority cost model and calibration price a task through this, so a QR
    update chain is charged per UNMQR/TSMQR/TTMQR, not as ``fused`` copies
    of the kernel it is labelled with.
    """
    mix = getattr(task, "mix", ())
    if mix:
        return tuple(mix)
    return ((task.kernel, max(int(getattr(task, "fused", 1)), 1)),)
