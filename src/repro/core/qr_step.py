"""The QR elimination step (hierarchical tiled QR on one panel).

When the robustness criterion rejects an LU step, the panel is eliminated
with orthogonal transformations following the HQR framework: every
sub-diagonal tile of the panel is zeroed by an *eliminator* tile according
to the elimination list produced by a reduction tree (the paper's default
is a GREEDY tree inside each node and a FIBONACCI tree across nodes).

The planner below walks the elimination list, triangularizing tiles with
GEQRT/UNMQR on demand, coupling tiles with TSQRT/TSMQR (square victims) or
TTQRT/TTMQR (triangular victims), and applying every transformation to the
trailing tiles and to the attached right-hand side.  Like the LU step, the
work is emitted as a list of :class:`~repro.runtime.schedule.KernelTask`
objects with tile read/write sets: one task per panel kernel, then one
update chain over the trailing columns and the right-hand side, ``[A | b]``.
The compact-WY factors flow from the panel tasks to the chains along
produces/consumes keys, and the tile access sets serialize producers
before consumers under the superscalar dependency rules, so the same plan
runs inline (the sequential reference) or fans out on a dataflow executor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..kernels.dispatch import KernelCall
from ..kernels.qr_kernels import QRTileFactor
from ..runtime.schedule import KernelTask, call_task
from ..tiles.tile_matrix import TileMatrix
from ..trees.base import Elimination, validate_eliminations
from .factorization import StepRecord

__all__ = ["perform_qr_step", "qr_step_tasks"]


def qr_step_tasks(
    tiles: TileMatrix,
    k: int,
    eliminations: Sequence[Elimination],
    record: StepRecord,
    validate: bool = True,
) -> List[KernelTask]:
    """Plan one QR step as a list of kernel tasks.

    ``eliminations`` must reduce the panel rows ``k..n-1`` to the diagonal
    row ``k``; it is validated by default (cheap) so that a malformed
    reduction tree cannot silently corrupt the factorization.  ``record``
    receives the Table-I kernel counts and the elimination list at planning
    time.

    The panel kernels (GEQRT/TSQRT/TTQRT) are one task each, in the order
    of the elimination list; each publishes its compact-WY factor under a
    ``produces`` key.  The trailing update then runs as one chain over
    ``[A | b]``: every UNMQR/TSMQR/TTMQR of the step, in program order,
    applied to columns ``k+1..n-1`` and the RHS (alone at ``k = n-1``).  A
    column sees the same kernels in the same order as under a per-tile
    plan, the padded applies are width-stable, and panel column ``k`` is
    never an update operand, so neither the one chain nor running all
    panel kernels first changes a value.
    """
    n = tiles.n
    elims: List[Elimination] = list(eliminations)
    if validate:
        validate_eliminations(list(range(k, n)), elims)

    # Compact-WY factors flow from the panel tasks to the chains through
    # this table, keyed like the descriptors' produces/consumes edges.
    products: Dict[object, QRTileFactor] = {}
    tasks: List[KernelTask] = []
    triangular: Set[int] = set()
    # The trailing-update chain: (kernel, rows..., factor key) per op.
    chain: List[tuple] = []

    def triangularize(row: int) -> None:
        """GEQRT the panel tile of ``row``; its UNMQR joins the chain."""
        if row in triangular:
            return
        key = ("geqrt", k, row)
        call = KernelCall("qr.geqrt", args=(row, k), produces=key)
        tasks.append(call_task("geqrt", tiles, call, k, products))
        chain.append(("unmqr", row, key))
        triangular.add(row)

    for e in elims:
        triangularize(e.eliminator)
        if e.kind == "TT":
            triangularize(e.killed)
            couple, update = "ttqrt", "ttmqr"
        else:
            couple, update = "tsqrt", "tsmqr"
        key = ("couple", k, e.eliminator, e.killed)
        call = KernelCall(
            "qr.couple", args=(e.kind, e.eliminator, e.killed, k), produces=key
        )
        tasks.append(call_task(couple, tiles, call, k, products))
        chain.append((update, e.eliminator, e.killed, key))

    # The surviving diagonal tile must end up triangular even if no
    # elimination used it as an eliminator (single-row panel, degenerate
    # trees).
    triangularize(k)
    record.eliminations = elims

    # Descriptor form of the chain: factors referenced by their index in
    # the consumes tuple.
    index = {key: i for i, key in enumerate(dict.fromkeys(op[-1] for op in chain))}
    keys = tuple(index)
    ops = tuple(op[:-1] + (index[op[-1]],) for op in chain)
    kernel = "tsmqr" if any(op[0] != "unmqr" for op in ops) else "unmqr"
    families: Dict[str, int] = {}
    for op in ops:
        families[op[0]] = families.get(op[0], 0) + 1

    # The chain is labelled with one kernel; its mix keeps the per-family
    # counts, matrix and RHS apart, for Table I, the cost model and calibration.
    m, rhs = n - k - 1, tiles.has_rhs
    mix = [(name, count * m) for name, count in families.items() if m]
    mix += [(name + "_rhs", count) for name, count in families.items() if rhs]
    if mix:
        call = KernelCall("qr.sweep", args=(k + 1, n, rhs, ops), consumes=keys)
        label = kernel if m else kernel + "_rhs"
        tasks.append(call_task(label, tiles, call, k, products, tuple(mix)))
    record.add_tasks(tasks)
    return tasks


def perform_qr_step(
    tiles: TileMatrix,
    k: int,
    eliminations: Sequence[Elimination],
    record: StepRecord,
    validate: bool = True,
) -> None:
    """Apply one QR step in place, following the given elimination list.

    Sequential reference driver: plans the step with :func:`qr_step_tasks`
    and runs the kernels in program order.
    """
    for task in qr_step_tasks(tiles, k, eliminations, record, validate=validate):
        task.fn()
