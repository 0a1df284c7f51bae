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
closures with tile read/write sets: the compact-WY factors produced by the
panel kernels flow to their update tasks through a shared factor table,
and the tile access sets serialize producers before consumers under the
superscalar dependency rules, so the same plan runs inline (the sequential
reference) or fans out on a dataflow executor.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from ..kernels.dispatch import KernelCall
from ..kernels.qr_kernels import QRTileFactor, geqrt_tile, tsmqr, tsqrt, ttqrt, unmqr
from ..runtime.schedule import KernelTask
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
    backend=None,
) -> List[KernelTask]:
    """Plan one QR step as a list of kernel tasks.

    ``eliminations`` must reduce the panel rows ``k..n-1`` to the diagonal
    row ``k``; it is validated by default (cheap) so that a malformed
    reduction tree cannot silently corrupt the factorization.  ``record``
    receives the kernel counts and the elimination list at planning time.

    ``backend`` (a :class:`~repro.kernels.backends.KernelBackend`) controls
    the trailing-update plan: with a fusing backend, the panel kernels
    (GEQRT/TSQRT/TTQRT) stay per-tile but each trailing column's update
    chain (UNMQR/TSMQR/TTMQR in program order) collapses into one task —
    per-column numerics are identical because the chain replays exactly
    the per-tile op order of that column.
    """
    n = tiles.n
    rows = list(range(k, n))
    elims: List[Elimination] = list(eliminations)
    if validate:
        validate_eliminations(rows, elims)

    fuse = backend is not None and getattr(backend, "fuses", False)

    # Compact-WY factors flow from the panel kernels to their trailing
    # updates through this table (keyed by producing event); the tile
    # read/write sets below guarantee each producer runs first.
    factors: Dict[Tuple, QRTileFactor] = {}
    tasks: List[KernelTask] = []
    triangular: Set[int] = set()

    # Fusion bookkeeping: per trailing column, the ordered op chain (in
    # program order), its picklable descriptor form (factors referenced by
    # index into the chain's ``consumes`` tuple), and the ordered factor
    # keys it consumes.  Populated while walking the elimination list,
    # emitted as one task per column by ``emit_chains`` at the end.
    chains: Dict[int, List[tuple]] = {j: [] for j in range(k + 1, n)}
    chain_desc: Dict[int, List[tuple]] = {j: [] for j in range(k + 1, n)}
    chain_keys: Dict[int, List[tuple]] = {j: [] for j in range(k + 1, n)}
    rhs_chain: List[tuple] = []
    rhs_desc: List[tuple] = []
    rhs_keys: List[tuple] = []

    def chain_input(keys: List[tuple], key: tuple) -> int:
        """Index of ``key`` in the chain's consumes tuple (appending once)."""
        try:
            return keys.index(key)
        except ValueError:
            keys.append(key)
            return len(keys) - 1

    def emit_triangularize(row: int) -> None:
        """GEQRT the panel tile of ``row`` and update its trailing tiles."""
        if row in triangular:
            return

        def do_geqrt(row=row) -> None:
            factor = geqrt_tile(tiles.tile(row, k))
            factors[("geqrt", row)] = factor
            tiles.set_tile(row, k, factor.r)

        # In descriptor form the compact-WY factor flows to the update
        # tasks along the graph edges (produces/consumes keys) instead of
        # through the in-process ``factors`` table.
        geqrt_key = ("geqrt", k, row)
        tasks.append(
            KernelTask(
                "geqrt",
                do_geqrt,
                reads=frozenset({(row, k)}),
                writes=frozenset({(row, k)}),
                call=KernelCall("qr.geqrt", args=(row, k), produces=geqrt_key),
            )
        )
        record.add_kernel("geqrt")
        if fuse:
            for j in range(k + 1, n):
                idx = chain_input(chain_keys[j], geqrt_key)
                chains[j].append(("unmqr", row, ("geqrt", row)))
                chain_desc[j].append(("unmqr", row, idx))
                record.add_kernel("unmqr")
            if tiles.has_rhs:
                idx = chain_input(rhs_keys, geqrt_key)
                rhs_chain.append(("unmqr", row, ("geqrt", row)))
                rhs_desc.append(("unmqr", row, idx))
                record.add_kernel("unmqr_rhs")
            triangular.add(row)
            return
        for j in range(k + 1, n):
            def do_unmqr(row=row, j=j) -> None:
                factor = factors[("geqrt", row)]
                tiles.set_tile(row, j, unmqr(factor, tiles.tile(row, j)))

            tasks.append(
                KernelTask(
                    "unmqr",
                    do_unmqr,
                    reads=frozenset({(row, k), (row, j)}),
                    writes=frozenset({(row, j)}),
                    call=KernelCall(
                        "qr.unmqr", args=(row, j), consumes=(geqrt_key,)
                    ),
                )
            )
            record.add_kernel("unmqr")
        if tiles.has_rhs:
            def do_unmqr_rhs(row=row) -> None:
                factor = factors[("geqrt", row)]
                tiles.rhs_tile(row)[...] = unmqr(factor, tiles.rhs_tile(row))

            tasks.append(
                KernelTask(
                    "unmqr_rhs",
                    do_unmqr_rhs,
                    reads=frozenset({(row, k), (row, RHS_COLUMN)}),
                    writes=frozenset({(row, RHS_COLUMN)}),
                    call=KernelCall(
                        "qr.unmqr_rhs", args=(row,), consumes=(geqrt_key,)
                    ),
                )
            )
            record.add_kernel("unmqr_rhs")
        triangular.add(row)

    def emit_chains() -> None:
        """Emit one fused task per trailing column (and one for the RHS).

        All panel tasks (GEQRT/couples) precede the chains in program
        order; a chain only reads column ``k`` panel tiles and its own
        column's tiles, so the superscalar analysis orders each chain
        after every factor it consumes and chains of different columns
        stay independent (full cross-column executor parallelism).
        """
        if not fuse:
            return
        bname = backend.descriptor_name
        for j in range(k + 1, n):
            ops = chains[j]
            if not ops:
                continue
            reads: Set[Tuple[int, int]] = set()
            writes: Set[Tuple[int, int]] = set()
            for op in ops:
                if op[0] == "unmqr":
                    _, row, _ = op
                    reads.update({(row, k), (row, j)})
                    writes.add((row, j))
                else:
                    _, elim, killed, _ = op
                    reads.update({(killed, k), (elim, j), (killed, j)})
                    writes.update({(elim, j), (killed, j)})
            kernel_name = (
                "tsmqr" if any(op[0] == "update" for op in ops) else "unmqr"
            )

            def do_chain(j=j, ops=tuple(ops)) -> None:
                backend.qr_column_chain(tiles, j, ops, factors)

            tasks.append(
                KernelTask(
                    kernel_name,
                    do_chain,
                    reads=frozenset(reads),
                    writes=frozenset(writes),
                    fused=len(ops),
                    call=KernelCall(
                        "fused.qr_column_chain",
                        args=(bname, j, tuple(chain_desc[j])),
                        consumes=tuple(chain_keys[j]),
                    ),
                )
            )
        if tiles.has_rhs and rhs_chain:
            reads = set()
            writes = set()
            for op in rhs_chain:
                if op[0] == "unmqr":
                    _, row, _ = op
                    reads.update({(row, k), (row, RHS_COLUMN)})
                    writes.add((row, RHS_COLUMN))
                else:
                    _, elim, killed, _ = op
                    reads.update(
                        {(killed, k), (elim, RHS_COLUMN), (killed, RHS_COLUMN)}
                    )
                    writes.update({(elim, RHS_COLUMN), (killed, RHS_COLUMN)})
            kernel_name = (
                "tsmqr_rhs"
                if any(op[0] == "update" for op in rhs_chain)
                else "unmqr_rhs"
            )

            def do_rhs_chain(ops=tuple(rhs_chain)) -> None:
                backend.qr_rhs_chain(tiles, ops, factors)

            tasks.append(
                KernelTask(
                    kernel_name,
                    do_rhs_chain,
                    reads=frozenset(reads),
                    writes=frozenset(writes),
                    fused=len(rhs_chain),
                    call=KernelCall(
                        "fused.qr_rhs_chain",
                        args=(bname, tuple(rhs_desc)),
                        consumes=tuple(rhs_keys),
                    ),
                )
            )

    # The diagonal tile must end up triangular even if no elimination uses
    # it as an eliminator (single-row panel, or trees rooted elsewhere merge
    # into it last with TT kernels which triangularize it on demand).
    if not elims:
        emit_triangularize(k)
        emit_chains()
        return tasks

    for e in elims:
        emit_triangularize(e.eliminator)
        if e.kind == "TT":
            emit_triangularize(e.killed)
            couple, couple_name = ttqrt, "ttqrt"
            update_name, update_rhs_name = "ttmqr", "ttmqr_rhs"
        else:
            couple, couple_name = tsqrt, "tsqrt"
            update_name, update_rhs_name = "tsmqr", "tsmqr_rhs"
        key = ("couple", e.eliminator, e.killed)
        panel_pair = frozenset({(e.eliminator, k), (e.killed, k)})
        couple_key = ("couple", k, e.eliminator, e.killed)

        def do_couple(e=e, couple=couple, key=key) -> None:
            factor = couple(tiles.tile(e.eliminator, k), tiles.tile(e.killed, k))
            factors[key] = factor
            tiles.set_tile(e.eliminator, k, factor.r)
            tiles.set_tile(e.killed, k, 0.0)

        tasks.append(
            KernelTask(
                couple_name,
                do_couple,
                reads=panel_pair,
                writes=panel_pair,
                call=KernelCall(
                    "qr.couple",
                    args=(e.kind, e.eliminator, e.killed, k),
                    produces=couple_key,
                ),
            )
        )
        record.add_kernel(couple_name)

        if fuse:
            for j in range(k + 1, n):
                idx = chain_input(chain_keys[j], couple_key)
                chains[j].append(("update", e.eliminator, e.killed, key))
                chain_desc[j].append(("update", e.eliminator, e.killed, idx))
                record.add_kernel(update_name)
            if tiles.has_rhs:
                idx = chain_input(rhs_keys, couple_key)
                rhs_chain.append(("update", e.eliminator, e.killed, key))
                rhs_desc.append(("update", e.eliminator, e.killed, idx))
                record.add_kernel(update_rhs_name)
            continue

        for j in range(k + 1, n):
            def do_update(e=e, j=j, key=key) -> None:
                factor = factors[key]
                top, bottom = tsmqr(
                    factor, tiles.tile(e.eliminator, j), tiles.tile(e.killed, j)
                )
                tiles.set_tile(e.eliminator, j, top)
                tiles.set_tile(e.killed, j, bottom)

            pair_j = frozenset({(e.eliminator, j), (e.killed, j)})
            tasks.append(
                KernelTask(
                    update_name,
                    do_update,
                    reads=pair_j | frozenset({(e.killed, k)}),
                    writes=pair_j,
                    call=KernelCall(
                        "qr.update",
                        args=(e.eliminator, e.killed, j),
                        consumes=(couple_key,),
                    ),
                )
            )
            record.add_kernel(update_name)
        if tiles.has_rhs:
            def do_update_rhs(e=e, key=key) -> None:
                factor = factors[key]
                top, bottom = tsmqr(
                    factor, tiles.rhs_tile(e.eliminator), tiles.rhs_tile(e.killed)
                )
                tiles.rhs_tile(e.eliminator)[...] = top
                tiles.rhs_tile(e.killed)[...] = bottom

            pair_rhs = frozenset(
                {(e.eliminator, RHS_COLUMN), (e.killed, RHS_COLUMN)}
            )
            tasks.append(
                KernelTask(
                    update_rhs_name,
                    do_update_rhs,
                    reads=pair_rhs | frozenset({(e.killed, k)}),
                    writes=pair_rhs,
                    call=KernelCall(
                        "qr.update_rhs",
                        args=(e.eliminator, e.killed),
                        consumes=(couple_key,),
                    ),
                )
            )
            record.add_kernel(update_rhs_name)

    # Make sure the surviving diagonal tile is triangular (it always is when
    # it acted as an eliminator at least once, but a defensive GEQRT keeps
    # the invariant for degenerate trees).
    if k not in triangular:
        emit_triangularize(k)

    emit_chains()
    record.eliminations = elims
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
