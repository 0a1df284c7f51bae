"""Static plan verifier for dataflow task graphs.

Checks one :class:`~repro.runtime.graph.TaskGraph` for every invariant
the executors rely on but never re-derive:

- **acyclicity** — a valid topological order exists (reusing
  :class:`~repro.runtime.graph.CycleError` for the diagnosis);
- **conflict freedom** — no two tasks that are concurrently schedulable
  (no dependency path in either direction) write the same tile
  (write-write, which covers duplicate writes without an ordering edge)
  or read a tile the other writes (read-write);
- **sweep descriptors** — a task batching several tile kernels
  (``fused > 1``) carries a :class:`~repro.kernels.dispatch.KernelCall`
  of a registered op, so placement can price it per kernel from the op's
  effect rule (its access sets are the op's access rule by construction);
- **product flow** — every ``consumes`` key is produced by an ancestor
  task along every topological order (equivalently: by a task with a
  dependency path to the consumer), or by an earlier graph of the same
  factorization (``external_products``).

Reachability uses ancestor bitsets (one arbitrary-precision int per
task), so verifying a whole factorization plan of T tasks is O(E·T/64)
— fast enough to run over every solver in CI.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List

from ..kernels.dispatch import KERNELS
from ..runtime.graph import CycleError, TaskGraph
from ..runtime.task import TileRef
from .report import Violation

__all__ = ["verify_graph"]


def verify_graph(
    graph: TaskGraph,
    *,
    external_products: FrozenSet = frozenset(),
) -> List[Violation]:
    """Verify one task graph; return all violations found (empty = clean).

    ``external_products`` names ``produces`` keys satisfied outside this
    graph — the step pipeline flushes a factorization as several
    graphs, and a later flush may legally consume factors produced by an
    earlier one.
    """
    violations: List[Violation] = []
    try:
        order = graph.topological_order()
    except CycleError as exc:
        return [
            Violation(
                kind="cycle",
                message=str(exc),
                tasks=exc.task_uids,
            )
        ]

    # Ancestor bitsets: bit d of ancestors[uid] is set iff task d has a
    # dependency path to task uid.  Built in topological order so every
    # dependency's bitset is final before it is merged.
    ancestors: Dict[int, int] = {}
    for uid in order:
        bits = 0
        for d in graph.task(uid).deps:
            bits |= ancestors[d] | (1 << d)
        ancestors[uid] = bits

    def ordered(a: int, b: int) -> bool:
        return bool((ancestors[b] >> a) & 1 or (ancestors[a] >> b) & 1)

    # ------------------------------------------------------------------ #
    # Concurrent-access conflicts
    # ------------------------------------------------------------------ #
    writers: Dict[TileRef, List[int]] = defaultdict(list)
    readers: Dict[TileRef, List[int]] = defaultdict(list)
    for t in graph.tasks:
        for tile in t.writes:
            writers[tile].append(t.uid)
        for tile in t.reads - t.writes:
            readers[tile].append(t.uid)

    for tile, ws in sorted(writers.items()):
        for i, a in enumerate(ws):
            for b in ws[i + 1:]:
                if not ordered(a, b):
                    violations.append(
                        Violation(
                            kind="write-write-conflict",
                            message=(
                                f"tasks {a} ({graph.task(a).kernel}) and "
                                f"{b} ({graph.task(b).kernel}) both write "
                                f"tile {tile} with no ordering edge"
                            ),
                            tasks=(a, b),
                            tile=tile,
                        )
                    )
            for r in readers.get(tile, ()):
                if not ordered(a, r):
                    violations.append(
                        Violation(
                            kind="read-write-conflict",
                            message=(
                                f"task {r} ({graph.task(r).kernel}) reads "
                                f"tile {tile} concurrently with writer "
                                f"{a} ({graph.task(a).kernel})"
                            ),
                            tasks=(a, r),
                            tile=tile,
                        )
                    )

    # ------------------------------------------------------------------ #
    # Sweep descriptors
    # ------------------------------------------------------------------ #
    for t in graph.tasks:
        if t.fused > 1 and (t.call is None or t.call.kernel not in KERNELS):
            violations.append(
                Violation(
                    kind="fused-descriptor-missing",
                    message=(
                        f"fused task {t.uid} ({t.kernel}, x{t.fused}) has "
                        "no KernelCall descriptor of a registered op"
                        + (f" (got {t.call.kernel!r})" if t.call else "")
                    ),
                    tasks=(t.uid,),
                )
            )

    # ------------------------------------------------------------------ #
    # Produces/consumes product flow
    # ------------------------------------------------------------------ #
    producers: Dict[object, List[int]] = defaultdict(list)
    for t in graph.tasks:
        if t.call is not None and t.call.produces is not None:
            producers[t.call.produces].append(t.uid)
    for key, ps in producers.items():
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                if not ordered(a, b):
                    violations.append(
                        Violation(
                            kind="duplicate-producer",
                            message=(
                                f"tasks {a} and {b} both produce key {key!r} "
                                "with no ordering edge"
                            ),
                            tasks=(a, b),
                        )
                    )
    for t in graph.tasks:
        if t.call is None:
            continue
        for key in t.call.consumes:
            ps = producers.get(key)
            if not ps:
                if key not in external_products:
                    violations.append(
                        Violation(
                            kind="missing-producer",
                            message=(
                                f"task {t.uid} ({t.kernel}) consumes key "
                                f"{key!r} that no task in the graph produces"
                            ),
                            tasks=(t.uid,),
                        )
                    )
                continue
            if not any((ancestors[t.uid] >> p) & 1 for p in ps):
                violations.append(
                    Violation(
                        kind="unordered-producer",
                        message=(
                            f"task {t.uid} ({t.kernel}) consumes key {key!r} "
                            f"but no producer ({ps}) is one of its ancestors"
                        ),
                        tasks=(t.uid, *ps),
                    )
                )

    return violations
