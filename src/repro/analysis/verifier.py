"""Static plan verifier for dataflow task graphs.

Checks one :class:`~repro.runtime.graph.TaskGraph` for every invariant
the executors rely on but never re-derive:

- **acyclicity** — a valid topological order exists (reusing
  :class:`~repro.runtime.graph.CycleError` for the diagnosis);
- **conflict freedom** — no two tasks that are concurrently schedulable
  (no dependency path in either direction) write the same tile
  (write-write, which covers duplicate writes without an ordering edge)
  or read a tile the other writes (read-write);
- **sweep unions** — a task batching several tile kernels (``fused > 1``)
  declares exactly the union of their accesses, as its
  :class:`~repro.kernels.dispatch.KernelCall` signature reconstructs it,
  and batches as many kernels as the signature counts;
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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..kernels.dispatch import KERNEL_SIGNATURES, SigContext
from ..runtime.graph import CycleError, TaskGraph
from ..runtime.task import Task, TileRef
from .report import Violation

__all__ = ["verify_graph", "expected_fused_sets"]


#: Signature context for access sets alone: sweep signatures take every
#: tile range from the call's arguments, so size and dtype do not matter.
_SET_CONTEXT = SigContext(n=0, nb=1, nrhs=1, dtype=np.float64)


def expected_fused_sets(
    task: Task,
) -> Optional[Tuple[Set[TileRef], Set[TileRef], int]]:
    """Reconstruct ``(reads, writes, count)`` of a task from its descriptor.

    Evaluates the op's signature in
    :data:`~repro.kernels.dispatch.KERNEL_SIGNATURES` (the QR chains take
    the elimination step ``k`` from ``task.step``).  Returns ``None`` for
    tasks without a descriptor, ops without a signature, and arguments
    the signature rejects.
    """
    call = task.call
    signature = None if call is None else KERNEL_SIGNATURES.get(call.kernel)
    if signature is None:
        return None
    try:
        effect = signature.effect(call, task.step, _SET_CONTEXT)
    except (TypeError, ValueError, IndexError):  # malformed arguments
        return None
    return set(effect.reads), set(effect.writes), effect.unit_count


def _fmt_tiles(tiles: Iterable[TileRef], limit: int = 6) -> str:
    items = sorted(tiles)
    shown = ", ".join(map(str, items[:limit]))
    extra = len(items) - limit
    return shown + (f", ... +{extra}" if extra > 0 else "")


def verify_graph(
    graph: TaskGraph,
    *,
    external_products: FrozenSet = frozenset(),
) -> List[Violation]:
    """Verify one task graph; return all violations found (empty = clean).

    ``external_products`` names ``produces`` keys satisfied outside this
    graph — the lookahead pipeline flushes a factorization as several
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
    # Sweep-task union sets
    # ------------------------------------------------------------------ #
    for t in graph.tasks:
        if t.fused <= 1:
            continue
        expected = expected_fused_sets(t)
        if expected is None:
            violations.append(
                Violation(
                    kind="fused-descriptor-missing",
                    message=(
                        f"fused task {t.uid} ({t.kernel}, x{t.fused}) has "
                        "no KernelCall descriptor with a signature"
                        + (f" (got {t.call.kernel!r})" if t.call else "")
                    ),
                    tasks=(t.uid,),
                )
            )
            continue
        exp_reads, exp_writes, exp_count = expected
        mixed = sum(count for _, count in t.mix) if t.mix else t.fused
        if t.fused != exp_count or mixed != exp_count:
            violations.append(
                Violation(
                    kind="fused-count-mismatch",
                    message=(
                        f"task {t.uid} ({t.kernel}) declares fused={t.fused} "
                        f"and a kernel mix of {mixed} but its descriptor "
                        f"batches {exp_count} kernels"
                    ),
                    tasks=(t.uid,),
                )
            )
        for label, declared, exp in (
            ("reads", set(t.reads), exp_reads),
            ("writes", set(t.writes), exp_writes),
        ):
            if declared != exp:
                missing = exp - declared
                extra = declared - exp
                parts = []
                if missing:
                    parts.append(f"missing {_fmt_tiles(missing)}")
                if extra:
                    parts.append(f"extraneous {_fmt_tiles(extra)}")
                violations.append(
                    Violation(
                        kind="fused-union-mismatch",
                        message=(
                            f"task {t.uid} ({t.kernel}, x{t.fused}) declared "
                            f"{label} differ from the union of its "
                            f"constituent kernels: {'; '.join(parts)}"
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
