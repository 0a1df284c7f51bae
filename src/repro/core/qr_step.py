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
update chain per trailing column range and one for the right-hand side.
The compact-WY factors flow from the panel tasks to the chains along
produces/consumes keys, and the tile access sets serialize producers
before consumers under the superscalar dependency rules, so the same plan
runs inline (the sequential reference) or fans out on a dataflow executor.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Set

from ..kernels.dispatch import KernelCall, sweep_ranges
from ..kernels.qr_kernels import QRTileFactor
from ..runtime.schedule import KernelTask, call_task
from ..runtime.task import RHS_COLUMN
from ..tiles.tile_matrix import TileMatrix
from ..trees.base import Elimination, validate_eliminations
from .factorization import StepRecord

__all__ = ["perform_qr_step", "qr_step_tasks", "qr_step_operations"]


def qr_step_operations(
    k: int, n: int, eliminations: Sequence[Elimination]
) -> List[tuple]:
    """Symbolic kernel sequence of one QR step (no numerics).

    Returns the ordered list of kernel invocations that
    :func:`perform_qr_step` would execute for the same elimination list,
    as tuples:

    * ``("geqrt", row)`` and ``("unmqr", row, j)`` — triangularization of a
      row and the update of its trailing tiles;
    * ``("tsqrt"|"ttqrt", eliminator, killed)`` — the panel coupling;
    * ``("tsmqr"|"ttmqr", eliminator, killed, j)`` — the trailing update of
      the coupled rows at column ``j``.

    The task-graph builder uses this sequence to generate QR-step tasks, and
    the test suite checks it stays consistent with the numerical driver.
    """
    ops: List[tuple] = []
    triangular: Set[int] = set()

    def triangularize(row: int) -> None:
        if row in triangular:
            return
        ops.append(("geqrt", row))
        for j in range(k + 1, n):
            ops.append(("unmqr", row, j))
        triangular.add(row)

    elims = list(eliminations)
    if not elims:
        triangularize(k)
        return ops

    for e in elims:
        triangularize(e.eliminator)
        if e.kind == "TT":
            triangularize(e.killed)
            ops.append(("ttqrt", e.eliminator, e.killed))
            update = "ttmqr"
        else:
            ops.append(("tsqrt", e.eliminator, e.killed))
            update = "tsmqr"
        for j in range(k + 1, n):
            ops.append((update, e.eliminator, e.killed, j))
    if k not in triangular:
        triangularize(k)
    return ops


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
    ``produces`` key.  The trailing update then runs as one chain per
    column range (:func:`~repro.kernels.dispatch.sweep_ranges`) and one for
    the right-hand side: every UNMQR/TSMQR/TTMQR of the step, in program
    order, applied to the tile-row blocks of the range.  A column sees the
    same kernels in the same order as under a per-tile plan, and panel
    column ``k`` is never an update operand, so running all panel kernels
    first changes no value.
    """
    n = tiles.n
    m = n - k - 1
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

    def pair_sets(e: Elimination):
        pair = {(e.eliminator, k), (e.killed, k)}
        return pair, pair

    def triangularize(row: int) -> None:
        """GEQRT the panel tile of ``row``; its UNMQR joins the chain."""
        if row in triangular:
            return
        key = ("geqrt", k, row)
        call = KernelCall("qr.geqrt", args=(row, k), produces=key)
        tasks.append(call_task("geqrt", tiles, call, lambda: ({(row, k)}, {(row, k)}), products))
        record.add_kernel("geqrt")
        chain.append(("unmqr", row, key))
        if m:
            record.add_kernel("unmqr", m)
        if tiles.has_rhs:
            record.add_kernel("unmqr_rhs")
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
        tasks.append(call_task(couple, tiles, call, partial(pair_sets, e), products))
        record.add_kernel(couple)
        chain.append((update, e.eliminator, e.killed, key))
        if m:
            record.add_kernel(update, m)
        if tiles.has_rhs:
            record.add_kernel(update + "_rhs")

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

    def chain_sets(columns):
        reads, writes = set(), set()
        for op in ops:
            reads.add((op[-2], k))  # the factor's panel tile (row or killed)
            writes.update((row, j) for row in op[1:-1] for j in columns)
        return reads | writes, writes

    def add_chain(suffix: str, call: KernelCall, columns) -> None:
        # The chain is labelled with one kernel; its mix keeps the per-family
        # counts for the cost model and calibration.
        mix = tuple((name + suffix, count * len(columns)) for name, count in families.items())
        tasks.append(
            call_task(
                kernel + suffix, tiles, call, partial(chain_sets, columns), products,
                fused=len(ops) * len(columns),
                mix=mix if len(mix) > 1 else (),
            )
        )

    for j0, j1 in sweep_ranges(k, n):
        call = KernelCall("qr.sweep", args=(j0, j1, ops), consumes=keys)
        add_chain("", call, range(j0, j1))
    if tiles.has_rhs:
        call = KernelCall("qr.sweep_rhs", args=(ops,), consumes=keys)
        add_chain("_rhs", call, (RHS_COLUMN,))
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
