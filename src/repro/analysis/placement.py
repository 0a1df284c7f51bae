"""Owner placement and communication analysis under a block-cyclic grid.

The paper's distributed runs place every task *owner-computes*: a task runs
on the process that owns the tile it writes, so the only communication is
(a) remote tiles read by a task, (b) panel factors flowing along
produces/consumes edges to another owner, and (c) the panel-wide pivot
exchanges of LUPP.  This pass maps every task of an emitted plan to its
owner under a :class:`~repro.tiles.distribution.BlockCyclicDistribution`,
verifies the declared ``Task.owner`` fields agree, statically certifies the
paper's pivoting invariant — an LU panel's pivot chain
(``lu.scatter_factor``) never crosses nodes unless it is a deliberate
panel-wide LUPP exchange — and prices the cross-owner traffic with a
:class:`~repro.runtime.platform.Platform`.

Sweeps are decomposed into their signature-declared constituents, so a
sweep whose written tiles span several owners is priced per logical
kernel (and reported as a ``multi-owner`` statistic — a fusion boundary a
distributed executor must split, not a correctness violation).

Message counting is deduplicated per destination: a tile fetched by many
constituents of one task, or a factor consumed by many tasks on one node,
ships once.  The critical-path communication volume is the longest
comm-weighted dependency chain, accumulated across the pipeline-flushed
graphs (flushes are sequential, so their critical paths add).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..kernels.dispatch import SigContext
from ..runtime.graph import TaskGraph
from ..runtime.task import RHS_COLUMN, Task
from ..tiles.distribution import BlockCyclicDistribution
from .abstract import signature_effect, task_label
from .report import Violation

__all__ = [
    "PlacementSummary",
    "owner_of_ref",
    "ref_bytes",
    "constituent_units",
    "task_anchor",
    "assign_owners",
    "analyze_placement",
]


@dataclass
class PlacementSummary:
    """Communication/placement statistics of one analyzed plan."""

    tasks: int = 0
    opaque_tasks: int = 0
    units: int = 0
    local_units: int = 0
    cross_messages: int = 0
    cross_bytes: int = 0
    product_messages: int = 0
    product_bytes: int = 0
    multi_owner_tasks: int = 0
    diagonal_pivot_steps: int = 0
    panel_wide_pivot_steps: int = 0
    comm_seconds: Optional[float] = None
    pivot_exchange_seconds: Optional[float] = None
    critical_path_comm_seconds: Optional[float] = None
    edge_messages: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "tasks": self.tasks,
            "opaque_tasks": self.opaque_tasks,
            "units": self.units,
            "local_units": self.local_units,
            "cross_messages": self.cross_messages,
            "cross_bytes": self.cross_bytes,
            "product_messages": self.product_messages,
            "product_bytes": self.product_bytes,
            "multi_owner_tasks": self.multi_owner_tasks,
            "diagonal_pivot_steps": self.diagonal_pivot_steps,
            "panel_wide_pivot_steps": self.panel_wide_pivot_steps,
            "edge_messages": {
                f"{src}->{dst}": count
                for (src, dst), count in sorted(self.edge_messages.items())
            },
        }
        if self.comm_seconds is not None:
            out["comm_seconds"] = self.comm_seconds
        if self.pivot_exchange_seconds is not None:
            out["pivot_exchange_seconds"] = self.pivot_exchange_seconds
        if self.critical_path_comm_seconds is not None:
            out["critical_path_comm_seconds"] = self.critical_path_comm_seconds
        return out


def owner_of_ref(
    ref: Tuple[int, int], dist: BlockCyclicDistribution
) -> int:
    """Owner rank of a tile reference (RHS pseudo-column included)."""
    i, j = ref
    if j == RHS_COLUMN:
        return dist.rhs_owner(i)
    return dist.owner(i, j)


def ref_bytes(ref: Tuple[int, int], ctx: SigContext) -> int:
    """Model size in bytes of one tile reference under ``ctx``.

    This is the byte currency of every communication prediction (and of the
    cluster executor's measured counters, so predicted and measured traffic
    stay directly comparable): matrix tiles are ``nb x nb``, RHS pseudo-
    column tiles are ``nb x nrhs``, both at the context's itemsize.
    """
    if ref[1] == RHS_COLUMN:
        return ctx.nb * ctx.nrhs * ctx.itemsize
    return ctx.nb * ctx.nb * ctx.itemsize


_ref_bytes = ref_bytes


def constituent_units(effect) -> Tuple[Tuple[Tuple[Any, ...], Any], ...]:
    """Decompose an effect into ``((read_refs, ...), anchor_ref)`` units.

    Sweeps decompose into their signature-declared constituents; a plain
    per-tile kernel is a single unit anchored at its owner tile.
    Shared between this analyzer and the cluster executor so both count
    messages per logical kernel with identical semantics.
    """
    if effect.constituents:
        return effect.constituents
    anchor = effect.owner_tile
    if anchor is None:
        anchor = min(effect.writes) if effect.writes else min(effect.reads, default=None)
    if anchor is None:
        return ()
    return ((tuple(effect.reads), anchor),)


_constituents = constituent_units


def task_anchor(task: Task, ctx: SigContext) -> Optional[Tuple[int, int]]:
    """The tile anchoring ``task``'s owner (owner-computes), or ``None``."""
    effect, _violation = signature_effect(task, ctx)
    if effect is None:
        return None
    if effect.owner_tile is not None:
        return effect.owner_tile
    units = _constituents(effect)
    return units[0][1] if units else None


def assign_owners(
    graphs: Sequence[TaskGraph], dist: BlockCyclicDistribution, ctx: SigContext
) -> int:
    """Set every task's ``owner`` to its owner-computes rank.

    This is the placement a distributed executor will schedule by; the
    planners leave ``Task.owner`` at 0, so audit assigns before verifying.
    Returns the number of tasks assigned (tasks without a signature anchor
    are left untouched).
    """
    assigned = 0
    for graph in graphs:
        for task in graph.tasks:
            anchor = task_anchor(task, ctx)
            if anchor is not None:
                task.owner = owner_of_ref(anchor, dist)
                assigned += 1
    return assigned


def _check_pivot_chain(
    task: Task,
    call: Any,
    dist: BlockCyclicDistribution,
    ctx: SigContext,
    platform,
    summary: PlacementSummary,
    violations: List[Violation],
) -> None:
    """Statically verify the LU pivoting domain invariant for one panel."""
    k, rows, _factor = call.args
    rows = list(rows)
    owners = {dist.owner(i, k) for i in rows}
    panel = dist.panel_rows(k)
    if len(owners) == 1:
        # Node-local chain.  The paper's invariant additionally wants it on
        # the *diagonal domain* (the node owning (k, k)); a single-owner
        # chain elsewhere would mean the panel factor was computed on a node
        # that then ships every result tile home.
        if owners == {dist.diagonal_owner(k)}:
            summary.diagonal_pivot_steps += 1
        else:
            violations.append(
                Violation(
                    kind="cross-domain-pivot",
                    message=(
                        f"{task_label(task)}: pivot chain of step {k} runs on rank "
                        f"{next(iter(owners))}, not the diagonal owner "
                        f"{dist.diagonal_owner(k)}"
                    ),
                    tasks=(task.uid,),
                    tile=(k, k),
                )
            )
    elif rows == panel:
        # Deliberate panel-wide pivoting (LUPP): allowed, but priced.
        summary.panel_wide_pivot_steps += 1
        if platform is not None:
            summary.pivot_exchange_seconds = (
                summary.pivot_exchange_seconds or 0.0
            ) + platform.pivot_exchange_time(len(owners), ctx.nb)
    else:
        violations.append(
            Violation(
                kind="cross-domain-pivot",
                message=(
                    f"{task_label(task)}: pivot chain of step {k} spans rows {rows} "
                    f"owned by ranks {sorted(owners)} — neither node-local "
                    "(diagonal domain) nor a full-panel LUPP exchange"
                ),
                tasks=(task.uid,),
                tile=(k, k),
            )
        )


def analyze_placement(
    graphs: Sequence[TaskGraph],
    dist: BlockCyclicDistribution,
    ctx: SigContext,
    *,
    platform=None,
    check_declared: bool = True,
) -> Tuple[List[Violation], PlacementSummary]:
    """Verify owner placement and price the communication of a plan.

    ``check_declared`` compares each ``Task.owner`` against the
    owner-computes rank (run :func:`assign_owners` first — or let a future
    distributed planner set them — and any drift is a ``wrong-owner``
    violation).
    """
    violations: List[Violation] = []
    summary = PlacementSummary()
    product_owner: Dict[Any, int] = {}
    product_nbytes: Dict[Any, int] = {}
    product_shipped: Set[Tuple[Any, int]] = set()
    cp_total = 0.0

    for g_idx, graph in enumerate(graphs):
        cp: Dict[int, float] = {}
        owner_cache: Dict[int, Optional[int]] = {}
        product_uid: Dict[Any, Tuple[int, int]] = {}
        for uid in graph.topological_order():
            task = graph.tasks[uid]
            call = getattr(task, "call", None)
            summary.tasks += 1
            effect, _violation = signature_effect(task, ctx)
            if effect is None:
                summary.opaque_tasks += 1
                owner_cache[uid] = None
                cp[uid] = max((cp.get(d, 0.0) for d in task.deps), default=0.0)
                continue

            anchor = effect.owner_tile
            units = _constituents(effect)
            if anchor is None and units:
                anchor = units[0][1]
            expected = owner_of_ref(anchor, dist) if anchor is not None else None
            owner_cache[uid] = expected
            if check_declared and expected is not None and task.owner != expected:
                violations.append(
                    Violation(
                        kind="wrong-owner",
                        message=(
                            f"{task_label(task)}: declared owner {task.owner}, but "
                            f"owner-computes on {anchor} places it on rank "
                            f"{expected}"
                        ),
                        tasks=(uid,),
                        tile=anchor,
                    )
                )

            # Per-unit tile traffic, deduplicated per destination within the
            # task (a sweep fetches a shared tile once per node).
            fetched: Set[Tuple[Tuple[int, int], int]] = set()
            unit_owners: Set[int] = set()
            for unit_reads, unit_anchor in units:
                dest = owner_of_ref(unit_anchor, dist)
                unit_owners.add(dest)
                summary.units += 1
                remote = False
                for ref in unit_reads:
                    if ref == unit_anchor:
                        continue
                    src = owner_of_ref(ref, dist)
                    if src == dest:
                        continue
                    remote = True
                    if (ref, dest) in fetched:
                        continue
                    fetched.add((ref, dest))
                    summary.cross_messages += 1
                    summary.cross_bytes += _ref_bytes(ref, ctx)
                    edge = (src, dest)
                    summary.edge_messages[edge] = summary.edge_messages.get(edge, 0) + 1
                if not remote:
                    summary.local_units += 1
            if len(unit_owners) > 1:
                summary.multi_owner_tasks += 1

            # Product flow along produces/consumes edges.  Bytes flowing in
            # from a same-graph producer are remembered per producer uid so
            # the critical-path weights below can price that edge.
            product_in: Dict[int, int] = {}
            if call is not None:
                for key in call.consumes:
                    src = product_owner.get(key)
                    if src is None or expected is None or src == expected:
                        continue
                    origin = product_uid.get(key)
                    if origin is not None and origin[0] == g_idx:
                        product_in[origin[1]] = (
                            product_in.get(origin[1], 0) + product_nbytes.get(key, 0)
                        )
                    if (key, expected) in product_shipped:
                        continue
                    product_shipped.add((key, expected))
                    summary.product_messages += 1
                    summary.product_bytes += product_nbytes.get(key, 0)
                    edge = (src, expected)
                    summary.edge_messages[edge] = summary.edge_messages.get(edge, 0) + 1
                if call.produces is not None and expected is not None:
                    product_owner[call.produces] = expected
                    product_nbytes[call.produces] = effect.product_bytes
                    product_uid[call.produces] = (g_idx, uid)
                if call.kernel == "lu.scatter_factor":
                    _check_pivot_chain(
                        task, call, dist, ctx, platform, summary, violations
                    )

            # Critical-path comm: the longest comm-weighted dependency chain.
            best = 0.0
            for d in task.deps:
                weight = 0.0
                if platform is not None and expected is not None:
                    dep_owner = owner_cache.get(d)
                    if dep_owner is not None and dep_owner != expected:
                        dep_task = graph.tasks[d]
                        edge_bytes = sum(
                            _ref_bytes(ref, ctx)
                            for ref in dep_task.writes
                            if ref in task.touches()
                        )
                        edge_bytes += product_in.get(d, 0)
                        if edge_bytes > 0:
                            weight = platform.transfer_time(edge_bytes)
                best = max(best, cp.get(d, 0.0) + weight)
            cp[uid] = best
        cp_total += max(cp.values(), default=0.0)

    if platform is not None:
        # Total comm time: one transfer per counted message, priced from the
        # aggregates (latency per message + bytes/bandwidth).
        total_messages = summary.cross_messages + summary.product_messages
        total_bytes = summary.cross_bytes + summary.product_bytes
        summary.comm_seconds = (
            total_messages * platform.latency + total_bytes / platform.bandwidth
        )
        summary.critical_path_comm_seconds = cp_total
    return violations, summary
