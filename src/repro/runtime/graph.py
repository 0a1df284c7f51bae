"""Task graph with superscalar (last-writer) dependency construction.

PaRSEC derives the task graph of a tiled algorithm from the data accessed
by each task.  We reproduce the same mechanism: tasks are appended in the
sequential (program) order of the algorithm, and the graph records, for
every tile, the last task that wrote it; a new task depends on the last
writer of every tile it touches, and on the previous readers of every tile
it writes (write-after-read).  The result is exactly the dataflow DAG of
the tiled algorithm, without any manual dependency bookkeeping in the
drivers.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import replace
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .task import Task, TileRef

__all__ = ["CycleError", "TaskGraph"]


class CycleError(ValueError):
    """A task graph has no valid topological order.

    Raised by :meth:`TaskGraph.topological_order` when the dependency
    edges contain a cycle (or reference tasks that do not exist);
    ``task_uids`` names the tasks that could not be ordered — the cycle
    members plus anything downstream of them.
    """

    def __init__(self, message: str, task_uids: Iterable[int] = ()) -> None:
        super().__init__(message)
        self.task_uids: Tuple[int, ...] = tuple(task_uids)


class TaskGraph:
    """A DAG of :class:`~repro.runtime.task.Task` objects.

    Tasks must be submitted in a valid sequential order (the program order
    of the algorithm); dependencies are inferred automatically from tile
    accesses, but can also be added explicitly (control dependencies).
    """

    def __init__(self) -> None:
        self._tasks: List[Task] = []
        self._last_writer: Dict[TileRef, int] = {}
        self._readers_since_write: Dict[TileRef, Set[int]] = defaultdict(set)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_task(
        self,
        kernel: str,
        step: int,
        reads: Iterable[TileRef] = (),
        writes: Iterable[TileRef] = (),
        owner: int = 0,
        flops: float = 0.0,
        critical: bool = False,
        duration_hint: Optional[float] = None,
        fn=None,
        call=None,
        fused: int = 1,
        mix: Iterable[Tuple[str, int]] = (),
        extra_deps: Iterable[int] = (),
    ) -> Task:
        """Append a task; infer its dependencies from tile accesses."""
        reads_f: FrozenSet[TileRef] = frozenset(reads)
        writes_f: FrozenSet[TileRef] = frozenset(writes)
        task = Task(
            uid=len(self._tasks),
            kernel=kernel,
            step=step,
            reads=reads_f,
            writes=writes_f,
            owner=owner,
            flops=flops,
            critical=critical,
            duration_hint=duration_hint,
            fn=fn,
            call=call,
            fused=max(int(fused), 1),
            mix=tuple(mix),
        )

        deps: Set[int] = set(extra_deps)
        # Read-after-write and write-after-write: depend on the last writer
        # of every accessed tile.
        for tile in task.touches():
            if tile in self._last_writer:
                deps.add(self._last_writer[tile])
        # Write-after-read: a writer must wait for every reader since the
        # previous write of the tile.
        for tile in writes_f:
            deps.update(self._readers_since_write.get(tile, ()))
        deps.discard(task.uid)
        task.deps = deps

        # Bookkeeping for future tasks.
        for tile in writes_f:
            self._last_writer[tile] = task.uid
            self._readers_since_write[tile] = set()
        for tile in reads_f - writes_f:
            self._readers_since_write[tile].add(task.uid)

        self._tasks.append(task)
        return task

    def subgraph(self, uids: Iterable[int]) -> "TaskGraph":
        """Induced subgraph on ``uids``, renumbered in program order; edges to
        other tasks are dropped.  For ``uids`` closed under not-yet-run
        dependencies these are the edges a fresh graph would infer.  The copy
        has no last-writer state: run it, do not append to it."""
        renumber = {old: new for new, old in enumerate(sorted(uids))}
        graph = TaskGraph()
        for old, new in renumber.items():
            task = self._tasks[old]
            deps = {renumber[d] for d in task.deps if d in renumber}
            graph._tasks.append(replace(task, uid=new, deps=deps))
        return graph

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def tasks(self) -> List[Task]:
        return self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def task(self, uid: int) -> Task:
        return self._tasks[uid]

    def successors(self) -> Dict[int, List[int]]:
        """Adjacency list ``uid -> [successor uids]``."""
        succ: Dict[int, List[int]] = {t.uid: [] for t in self._tasks}
        for t in self._tasks:
            for d in t.deps:
                succ[d].append(t.uid)
        return succ

    def total_flops(self) -> float:
        return float(sum(t.flops for t in self._tasks))

    def kernel_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for t in self._tasks:
            counts[t.kernel] = counts.get(t.kernel, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[int]:
        """Task uids in a valid execution order (submission order is one).

        Graphs built through :meth:`add_task` only ever have backward
        dependencies, so submission order is returned unchanged.  Graphs
        whose edges were edited by hand (or corrupted) fall back to a
        Kahn sort; if no order exists this raises :class:`CycleError`
        naming the tasks that could not be ordered.
        """
        if all(d < t.uid for t in self._tasks for d in t.deps):
            return [t.uid for t in self._tasks]
        return self._kahn_order()

    def _kahn_order(self) -> List[int]:
        n = len(self._tasks)
        for t in self._tasks:
            bad = sorted(d for d in t.deps if not 0 <= d < n)
            if bad:
                raise CycleError(
                    f"task {t.uid} depends on unknown task(s) {bad}", (t.uid,)
                )
        indegree = {t.uid: len(t.deps) for t in self._tasks}
        succ = self.successors()
        ready = [uid for uid, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            uid = heapq.heappop(ready)
            order.append(uid)
            for s in succ[uid]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(ready, s)
        if len(order) != n:
            stuck = sorted(set(indegree) - set(order))
            raise CycleError(
                f"task graph has a dependency cycle; {len(stuck)} task(s) "
                f"cannot be ordered: uids {stuck}",
                stuck,
            )
        return order

    def tile_intervals(self, offset: int = 0) -> Dict[TileRef, Tuple[int, int]]:
        """Live interval (first/last access position) of every tile.

        Positions index the topological order, shifted by ``offset`` so the
        intervals of consecutive pipeline-flushed graphs can be merged onto
        one global program-order axis (pass the running task count).  This
        is the first-def/last-use skeleton the liveness pass builds its
        peak-memory certification on.
        """
        intervals: Dict[TileRef, Tuple[int, int]] = {}
        for pos, uid in enumerate(self.topological_order(), start=offset):
            for tile in self._tasks[uid].touches():
                first, _ = intervals.get(tile, (pos, pos))
                intervals[tile] = (first, pos)
        return intervals

    def blevels(
        self, cost: Optional[Callable[[Task], float]] = None
    ) -> Dict[int, float]:
        """Bottom level of every task: its critical-path depth.

        The b-level of a task is its own cost plus the longest-cost chain
        of successors below it — the classic critical-path priority of
        list scheduling (tasks on the critical path get the largest
        values).  ``cost`` maps a task to its execution cost; when omitted
        every task counts for 1.
        """
        succ = self.successors()
        levels: Dict[int, float] = {}
        for uid in reversed(self.topological_order()):
            task = self._tasks[uid]
            own = 1.0 if cost is None else float(cost(task))
            below = max((levels[s] for s in succ[uid]), default=0.0)
            levels[uid] = own + below
        return levels

    def assign_priorities(
        self, cost: Optional[Callable[[Task], float]] = None
    ) -> Dict[int, float]:
        """Set every task's ``priority`` to its b-level and return the map.

        Executors with a priority-ordered ready set then favour the
        critical path: among simultaneously ready tasks, the one heading
        the longest remaining dependency chain (under the given cost
        model) starts first.
        """
        levels = self.blevels(cost)
        for task in self._tasks:
            task.priority = levels[task.uid]
        return levels

    def critical_path_length(
        self, duration: Optional[Dict[int, float]] = None
    ) -> float:
        """Length of the longest dependency chain.

        ``duration`` maps task uid to its execution time; when omitted every
        task counts for 1 (the critical path in number of tasks).
        """
        finish: Dict[int, float] = {}
        for uid in self.topological_order():
            t = self._tasks[uid]
            d = 1.0 if duration is None else duration.get(uid, 0.0)
            start = max((finish[p] for p in t.deps), default=0.0)
            finish[uid] = start + d
        return max(finish.values(), default=0.0)
