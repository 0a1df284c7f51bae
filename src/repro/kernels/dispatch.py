"""Picklable kernel descriptors and the worker-side dispatch table.

Kernel *closures* (the ``fn`` of a
:class:`~repro.runtime.schedule.KernelTask`) capture live objects — the
:class:`~repro.tiles.tile_matrix.TileMatrix`, panel factors, the step's
factor table — so they can run on threads but can never cross a process
boundary.  The multi-process executor therefore ships each task as a
:class:`KernelCall` descriptor instead: a kernel *name* resolved against
the :data:`KERNELS` table below, plus a tuple of picklable arguments (tile
indices, domain rows, pre-computed panel factors).

Data produced at execution time (compact-WY factors from GEQRT/TSQRT,
pairwise-pivot factors from TSTRF) flows along the graph edges exactly as
in PaRSEC: a producing call names a ``produces`` key, the scheduler
publishes the worker's return value under that key, and consuming calls
list the key in ``consumes`` — the values are injected when the consumer
is dispatched, which is always after the producer finished because the
tile access sets already order producer before consumer.

Every operation reads and writes tiles through a
:class:`~repro.tiles.tile_matrix.TileMatrix` view over the shared-memory
segment described by a
:class:`~repro.tiles.shared_buffer.SharedBufferMeta`; attachments are
cached per worker process so only the first task of a factorization pays
the attach cost.

The step planners (:mod:`repro.core.lu_step`, :mod:`repro.core.qr_step`,
:mod:`repro.baselines.lu_incpiv`) run these same operations in-process
(:func:`repro.runtime.schedule.call_task`), so descriptor execution on a
worker is bit-identical to closure execution by construction.

Panel kernels are one call per tile.  The trailing update of step ``k`` is
one *sweep* call per column range (:func:`sweep_ranges`: the next two
panel columns, then the bulk block) plus one for the right-hand side: a single
GEMM over a block view for LU, the step's UNMQR/TSMQR/TTMQR chain in
program order over tile-row blocks for QR, the SSSSM chain for IncPiv.
Each sweep's effect lists its per-tile constituents (kernel name, reads,
writes, owner anchor), so placement prices its communication and the
performance model (:mod:`repro.perf.model`) its cost kernel by kernel.

Every op is one :func:`kernel_op` registration: its body, its *access
rule* (:data:`ACCESS_RULES`: the tiles a call reads and writes, built
directly from the call's arguments and the elimination step) and its
*effect rule* (:data:`EFFECT_RULES`: owner anchor, per-tile constituents
and product size, read by placement, the cluster executor and the
performance model).  The
access rule is the only place a task's accesses are declared; a planned
task's ``reads``/``writes`` are its output.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import current_process
from typing import Any, Callable, ClassVar, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from ..tiles.shared_buffer import SharedBufferMeta, SharedTileBuffer
from ..tiles.tile_matrix import TileMatrix
from .lu_kernels import (
    apply_swptrsm,
    eliminate_trsm,
    factor_panel_lu,
    factor_tile_lu,
    stacked_row_index,
    swptrsm_inplace,
)
from .qr_kernels import IB, apply_chain, geqrt_tile, tsqrt, ttqrt

__all__ = [
    "KernelCall",
    "KERNELS",
    "ACCESS_RULES",
    "EFFECT_RULES",
    "kernel_op",
    "access_sets",
    "op_effect",
    "execute_kernel_call",
    "SigContext",
    "OpEffect",
    "Unit",
    "sweep_ranges",
]


@dataclass(frozen=True)
class KernelCall:
    """Picklable form of one kernel task.

    Attributes
    ----------
    kernel:
        Name resolved against :data:`KERNELS` in the executing process.
    args:
        Static positional arguments (tile indices, domain rows, panel
        factors) — everything here must pickle.
    consumes:
        Keys of upstream results injected at dispatch time (ordered; the
        operation receives them as its ``inputs`` tuple).
    produces:
        Key under which the operation's return value is published for
        downstream ``consumes``.
    """

    kernel: str
    args: Tuple[Any, ...] = ()
    consumes: Tuple[Any, ...] = ()
    produces: Optional[Any] = None


#: A tile coordinate ``(i, j)``; column ``-1`` is the right-hand side.
#: The RHS pseudo-column mirrors repro.runtime.task.RHS_COLUMN; it is not
#: imported because repro.runtime.__init__ imports the process executor,
#: which imports this module.
_RHS = -1
TileRef = Tuple[int, int]
TileSet = FrozenSet[TileRef]


@dataclass(frozen=True)
class SigContext:
    """Problem-level context an effect rule is evaluated under.

    Tiles always hold float64 (``TileMatrix`` converts any input on
    entry), so every byte count prices :attr:`itemsize` = 8.
    """

    n: int
    nb: int
    nrhs: int

    itemsize: ClassVar[int] = 8


class Unit(NamedTuple):
    """One logical per-tile kernel of a task: the accesses it has as a task
    of its own, and the tile its owner computes on."""

    kernel: str
    reads: Tuple[TileRef, ...]
    writes: Tuple[TileRef, ...]
    anchor: TileRef


@dataclass(frozen=True)
class OpEffect:
    """What placement, the cluster executor and the performance model read
    of one kernel call.

    ``owner_tile`` anchors a per-tile kernel's owner (owner-computes on the
    written tile).  ``constituents`` decomposes a sweep into its
    :class:`Unit` s, one per logical kernel, so placement prices its
    communication and the performance model its cost kernel by kernel; a
    sweep's owner is its first unit's anchor.  ``product_bytes`` sizes the
    value published under ``call.produces``.
    """

    owner_tile: Optional[TileRef] = None
    constituents: Tuple[Unit, ...] = ()
    product_bytes: int = 0


#: Name -> operation table the worker resolves descriptors against.
KERNELS: Dict[str, Callable[..., Any]] = {}

#: Name -> access rule ``rule(step, *call.args) -> (reads, writes)``: the
#: tiles a call reads (those it updates in place included) and writes at
#: elimination step ``step``.  It is the one declaration of a task's
#: accesses: dependency inference and the access tracer's guards read it.
ACCESS_RULES: Dict[str, Callable[..., Tuple[TileSet, TileSet]]] = {}

#: Name -> effect rule ``rule(ctx, step, *call.args) -> OpEffect``.
EFFECT_RULES: Dict[str, Callable[..., OpEffect]] = {}


def kernel_op(
    name: str,
    access: Callable[..., Tuple[TileSet, TileSet]],
    effect: Callable[..., OpEffect],
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a worker-side kernel operation under ``name`` with its
    access and effect rules."""

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in KERNELS:
            raise ValueError(f"kernel operation {name!r} is already registered")
        KERNELS[name] = fn
        ACCESS_RULES[name] = access
        EFFECT_RULES[name] = effect
        return fn

    return decorator


def access_sets(call: KernelCall, step: int) -> Tuple[TileSet, TileSet]:
    """``(reads, writes)`` of ``call`` at step ``step``, from its op's access rule."""
    return ACCESS_RULES[call.kernel](step, *call.args)


def op_effect(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    """The effect of ``call`` at step ``step``, from its op's effect rule."""
    return EFFECT_RULES[call.kernel](ctx, step, *call.args)


def _tiles(rows, columns) -> TileSet:
    return frozenset([(i, j) for i in rows for j in columns])


def _sweep_effect(units) -> OpEffect:
    """Effect of a sweep over its per-tile kernel units.

    ``units`` are ``(kernel, reads, writes, anchor)`` tuples, one per
    logical kernel, exactly the accesses that kernel has as a task of its
    own.  The sweep's reads and writes are its access rule, which the test
    suite checks against the union of the units' sets.
    """
    return OpEffect(constituents=tuple(Unit(*unit) for unit in units))


def sweep_ranges(k: int, n: int) -> List[Tuple[int, int]]:
    """Trailing tile-column ranges of step ``k``: ``k+1``, ``k+2``, ``[k+3, n)``.

    The split was chosen for a one-step-deep cross-step window, since
    removed (each step now runs as one graph, to completion).  It stays
    because the ranges set the GEMM widths, and other widths can move the
    factors' bits.  Empty ranges are dropped.
    """
    edges = [min(j, n) for j in (k + 1, k + 2, k + 3)] + [n]
    return [(j0, j1) for j0, j1 in zip(edges, edges[1:]) if j0 < j1]


# --------------------------------------------------------------------------- #
# LU step (variant A1)
# --------------------------------------------------------------------------- #
def _lu_scatter_access(step, k, rows, factor):
    panel = _tiles(rows, (k,))
    return panel, panel


def _lu_swptrsm_access(step, rows, columns):
    """Domain ``rows`` of ``columns`` updated with the step's panel factor."""
    cols = _tiles(rows, columns)
    return cols.union([(i, step) for i in rows]), cols


def _lu_swptrsm_effect(step, rows, columns) -> OpEffect:
    """One SWPTRSM per column, anchored at the domain's first row."""
    panel = tuple((i, step) for i in rows)
    units = []
    for j in columns:
        col = tuple((i, j) for i in rows)
        units.append(("swptrsm", panel + col, col, (rows[0], j)))
    return _sweep_effect(units)


def _lu_gemm_access(k, i1, columns):
    """Rows ``k+1..i1-1`` of ``columns`` less multipliers times row ``k``."""
    rows = range(k + 1, i1)
    cols = _tiles(rows, columns)
    return cols.union([(i, k) for i in rows], [(k, j) for j in columns]), cols


def _lu_gemm_effect(kernel, k, i1, columns) -> OpEffect:
    """One GEMM per updated tile."""
    return _sweep_effect(
        [
            (kernel, ((i, k), (k, j), (i, j)), ((i, j),), (i, j))
            for i in range(k + 1, i1)
            for j in columns
        ]
    )


@kernel_op(
    "lu.scatter_factor",
    _lu_scatter_access,
    lambda ctx, step, k, rows, factor: OpEffect(owner_tile=(k, k)),
)
def _lu_scatter_factor(tiles: TileMatrix, inputs, k, domain_rows, factor) -> None:
    tiles.scatter_panel(k, list(domain_rows), factor.lu)


@kernel_op(
    "lu.swptrsm",
    lambda step, j0, j1, rows, factor: _lu_swptrsm_access(step, rows, range(j0, j1)),
    lambda ctx, step, j0, j1, rows, factor: _lu_swptrsm_effect(step, rows, range(j0, j1)),
)
def _lu_swptrsm(tiles: TileMatrix, inputs, j0, j1, domain_rows, factor) -> None:
    columns = tiles.column_rows(j0, j1, domain_rows)
    swptrsm_inplace(factor, columns, stacked_row_index(domain_rows, tiles.nb))


@kernel_op(
    "lu.swptrsm_rhs",
    lambda step, rows, factor: _lu_swptrsm_access(step, rows, (_RHS,)),
    lambda ctx, step, rows, factor: OpEffect(owner_tile=(rows[0], _RHS)),
)
def _lu_swptrsm_rhs(tiles: TileMatrix, inputs, domain_rows, factor) -> None:
    rhs = tiles.rhs_rows(domain_rows)
    swptrsm_inplace(factor, rhs, stacked_row_index(domain_rows, tiles.nb))


@kernel_op(
    "lu.trsm",
    lambda step, i, k, factor: (frozenset({(k, k), (i, k)}), frozenset({(i, k)})),
    lambda ctx, step, i, k, factor: OpEffect(owner_tile=(i, k)),
)
def _lu_trsm(tiles: TileMatrix, inputs, i, k, factor) -> None:
    tile = tiles.tile(i, k)
    tile[...] = eliminate_trsm(factor, tile)


@kernel_op(
    "lu.gemm_sweep",
    lambda step, k, i1, j0, j1: _lu_gemm_access(k, i1, range(j0, j1)),
    lambda ctx, step, k, i1, j0, j1: _lu_gemm_effect("gemm", k, i1, range(j0, j1)),
)
def _lu_gemm_sweep(tiles: TileMatrix, inputs, k, i1, j0, j1) -> None:
    c = tiles.block(k + 1, i1, j0, j1)
    c -= tiles.block(k + 1, i1, k, k + 1) @ tiles.block(k, k + 1, j0, j1)


@kernel_op(
    "lu.gemm_sweep_rhs",
    lambda step, k, i1: _lu_gemm_access(k, i1, (_RHS,)),
    lambda ctx, step, k, i1: _lu_gemm_effect("gemm_rhs", k, i1, (_RHS,)),
)
def _lu_gemm_sweep_rhs(tiles: TileMatrix, inputs, k, i1) -> None:
    c = tiles.rhs_block(k + 1, i1)
    c -= tiles.block(k + 1, i1, k, k + 1) @ tiles.rhs_tile(k)


# --------------------------------------------------------------------------- #
# QR step (hierarchical tiled QR)
# --------------------------------------------------------------------------- #
def _pair_access(a, b, k):
    """A panel kernel updating tiles ``(a, k)`` and ``(b, k)`` in place."""
    pair = frozenset({(a, k), (b, k)})
    return pair, pair


def _qr_chain_access(step, columns, ops):
    """Every row an op of the chain updates, over ``columns``; the factors'
    panel tiles (an op's last row) are read."""
    writes = _tiles(dict.fromkeys([row for op in ops for row in op[1:-1]]), columns)
    return writes.union([(op[-2], step) for op in ops]), writes


def _qr_chain_effect(step, columns, ops, suffix="") -> OpEffect:
    """One UNMQR/TSMQR/TTMQR per op and column, in program order."""
    units = []
    for j in columns:
        for op in ops:
            if op[0] == "unmqr":
                ref = (op[1], j)
                units.append((op[0] + suffix, ((op[1], step), ref), (ref,), ref))
            else:
                pair = ((op[1], j), (op[2], j))
                units.append((op[0] + suffix, pair + ((op[2], step),), pair, pair[1]))
    return _sweep_effect(units)


def _qr_factor_effect(ctx: SigContext, owner: TileRef) -> OpEffect:
    """A QR factor's arrays: ``vb`` and ``r`` (``nb x nb``), block-T ``t`` (``ib x nb``)."""
    nbytes = (2 * ctx.nb + min(ctx.nb, IB)) * ctx.nb * ctx.itemsize
    return OpEffect(owner_tile=owner, product_bytes=nbytes)


@kernel_op(
    "qr.geqrt",
    lambda step, row, k: _pair_access(row, row, k),
    lambda ctx, step, row, k: _qr_factor_effect(ctx, (row, k)),
)
def _qr_geqrt(tiles: TileMatrix, inputs, row, k):
    factor = geqrt_tile(tiles.tile(row, k))
    tiles.set_tile(row, k, factor.r)
    return factor


@kernel_op(
    "qr.couple",
    lambda step, kind, a, b, k: _pair_access(a, b, k),
    lambda ctx, step, kind, a, b, k: _qr_factor_effect(ctx, (b, k)),
)
def _qr_couple(tiles: TileMatrix, inputs, kind, eliminator, killed, k):
    couple = ttqrt if kind == "TT" else tsqrt
    factor = couple(tiles.tile(eliminator, k), tiles.tile(killed, k))
    tiles.set_tile(eliminator, k, factor.r)
    tiles.set_tile(killed, k, 0.0)
    return factor


def _qr_chain(operand, ops, factors) -> None:
    """Apply a step's trailing-update chain, in program order, to one range.

    ``ops`` holds ``("unmqr", row, idx)`` and ``("tsmqr"|"ttmqr", eliminator,
    killed, idx)`` entries; ``idx`` indexes the consumed factors and
    ``operand(row)`` is the tile-row view of the range.  The whole chain is
    one :func:`~repro.kernels.qr_kernels.apply_chain`: each row is staged
    once, every apply runs in place on the staged copy, and each row is
    written back once.
    """
    rows = list(dict.fromkeys(r for op in ops for r in op[1:-1]))
    slot = {row: i for i, row in enumerate(rows)}
    apply_chain(
        [operand(row) for row in rows],
        [(factors[op[-1]], slot[op[1]], slot[op[2]] if len(op) == 4 else None) for op in ops],
    )


@kernel_op(
    "qr.sweep",
    lambda step, j0, j1, ops: _qr_chain_access(step, range(j0, j1), ops),
    lambda ctx, step, j0, j1, ops: _qr_chain_effect(step, range(j0, j1), ops),
)
def _qr_sweep(tiles: TileMatrix, inputs, j0, j1, ops) -> None:
    _qr_chain(lambda row: tiles.row_block(row, j0, j1), ops, inputs)


@kernel_op(
    "qr.sweep_rhs",
    lambda step, ops: _qr_chain_access(step, (_RHS,), ops),
    lambda ctx, step, ops: _qr_chain_effect(step, (_RHS,), ops, "_rhs"),
)
def _qr_sweep_rhs(tiles: TileMatrix, inputs, ops) -> None:
    _qr_chain(tiles.rhs_tile, ops, inputs)


# --------------------------------------------------------------------------- #
# LU IncPiv
# --------------------------------------------------------------------------- #
def _incpiv_row_access(k, columns):
    """Row ``k`` of ``columns`` updated with the diagonal tile's factor."""
    cols = _tiles((k,), columns)
    return cols | {(k, k)}, cols


def _ssssm_access(k, rows, columns):
    """Rows ``k`` and ``rows`` of ``columns`` updated with the pairwise factors."""
    cols = _tiles((k,) + tuple(rows), columns)
    return cols.union([(i, k) for i in rows]), cols


def _ssssm_effect(kernel, k, rows, columns) -> OpEffect:
    """One SSSSM per pair and column, anchored at the pair's lower tile."""
    units = []
    for j in columns:
        for i in rows:
            pair = ((k, j), (i, j))
            units.append((kernel, ((i, k),) + pair, pair, (i, j)))
    return _sweep_effect(units)


def _tile_factor_bytes(ctx: SigContext, tiles: int) -> int:
    """An LU factor over ``tiles`` stacked tiles plus its ``nb`` pivots."""
    return tiles * ctx.nb * ctx.nb * ctx.itemsize + ctx.nb * 8


@kernel_op(
    "incpiv.getrf",
    lambda step, k: _pair_access(k, k, k),
    lambda ctx, step, k: OpEffect(owner_tile=(k, k), product_bytes=_tile_factor_bytes(ctx, 1)),
)
def _incpiv_getrf(tiles: TileMatrix, inputs, k):
    factor = factor_tile_lu(tiles.tile(k, k))
    tiles.set_tile(k, k, np.triu(factor.lu))
    return factor


@kernel_op(
    "incpiv.swptrsm",
    lambda step, k, j0, j1: _incpiv_row_access(k, range(j0, j1)),
    lambda ctx, step, k, j0, j1: _sweep_effect(
        [("swptrsm", ((k, k), (k, j)), ((k, j),), (k, j)) for j in range(j0, j1)]
    ),
)
def _incpiv_swptrsm(tiles: TileMatrix, inputs, k, j0, j1) -> None:
    (factor,) = inputs
    c = tiles.row_block(k, j0, j1)
    c[...] = apply_swptrsm(factor, c)


@kernel_op(
    "incpiv.swptrsm_rhs",
    lambda step, k: _incpiv_row_access(k, (_RHS,)),
    lambda ctx, step, k: OpEffect(owner_tile=(k, _RHS)),
)
def _incpiv_swptrsm_rhs(tiles: TileMatrix, inputs, k) -> None:
    (factor,) = inputs
    tiles.rhs_tile(k)[...] = apply_swptrsm(factor, tiles.rhs_tile(k))


@kernel_op(
    "incpiv.tstrf",
    lambda step, k, i: _pair_access(k, i, k),
    lambda ctx, step, k, i: OpEffect(owner_tile=(i, k), product_bytes=_tile_factor_bytes(ctx, 2)),
)
def _incpiv_tstrf(tiles: TileMatrix, inputs, k, i):
    nb = tiles.nb
    stacked = np.vstack([np.triu(tiles.tile(k, k)), tiles.tile(i, k)])
    pair = factor_panel_lu(stacked, nb)
    tiles.set_tile(k, k, np.triu(pair.lu[:nb]))
    tiles.set_tile(i, k, pair.lu[nb:])
    return pair


def _ssssm_chain(operand, k, rows, pairs, nb) -> None:
    """SSSSM of row ``k`` with each row of ``rows`` in turn, on one range."""
    top = operand(k)
    for i, pair in zip(rows, pairs):
        bottom = operand(i)
        c = apply_swptrsm(pair, np.vstack([top, bottom]))
        top[...], bottom[...] = c[:nb], c[nb:] - pair.lu[nb:] @ c[:nb]


@kernel_op(
    "incpiv.ssssm_sweep",
    lambda step, k, j0, j1, rows: _ssssm_access(k, rows, range(j0, j1)),
    lambda ctx, step, k, j0, j1, rows: _ssssm_effect("ssssm", k, rows, range(j0, j1)),
)
def _incpiv_ssssm_sweep(tiles: TileMatrix, inputs, k, j0, j1, rows) -> None:
    _ssssm_chain(lambda i: tiles.row_block(i, j0, j1), k, rows, inputs, tiles.nb)


@kernel_op(
    "incpiv.ssssm_sweep_rhs",
    lambda step, k, rows: _ssssm_access(k, rows, (_RHS,)),
    lambda ctx, step, k, rows: _ssssm_effect("ssssm_rhs", k, rows, (_RHS,)),
)
def _incpiv_ssssm_sweep_rhs(tiles: TileMatrix, inputs, k, rows) -> None:
    _ssssm_chain(tiles.rhs_tile, k, rows, inputs, tiles.nb)

# --------------------------------------------------------------------------- #
# Worker entry point
# --------------------------------------------------------------------------- #
@dataclass
class _Attachment:
    buffer: SharedTileBuffer
    tiles: TileMatrix


#: Per-process cache of shared-segment attachments, so only the first task
#: of a factorization pays the attach cost.  Bounded: concurrent
#: factorizations interleave tasks of different segments through the same
#: worker, so a few attachments stay warm at once; beyond that the oldest
#: is closed.  Segments the owner already unlinked are dropped eagerly
#: (checked against /dev/shm where POSIX shared memory lives), so a big
#: finished factorization does not stay resident in every worker until
#: unrelated traffic happens to evict it.  A fully *idle* worker still
#: holds its most recent attachments until the next task or pool shutdown
#: — the price of a persistent pool.
_ATTACHMENTS: Dict[str, _Attachment] = {}
_MAX_ATTACHMENTS = 4


def _segment_unlinked(name: str) -> bool:
    try:
        return os.path.isdir("/dev/shm") and not os.path.exists("/dev/shm/" + name)
    except OSError:  # pragma: no cover - defensive
        return False


def _drop_attachment(name: str) -> None:
    stale = _ATTACHMENTS.pop(name, None)
    if stale is not None:
        stale.tiles = None
        stale.buffer.close()


def _tiles_for(meta: SharedBufferMeta) -> TileMatrix:
    for name in list(_ATTACHMENTS):
        if name != meta.name and _segment_unlinked(name):
            _drop_attachment(name)
    cached = _ATTACHMENTS.get(meta.name)
    if cached is not None:
        return cached.tiles
    while len(_ATTACHMENTS) >= _MAX_ATTACHMENTS:
        _drop_attachment(next(iter(_ATTACHMENTS)))
    buffer = SharedTileBuffer.attach(meta)
    attachment = _Attachment(buffer=buffer, tiles=buffer.tile_matrix())
    _ATTACHMENTS[meta.name] = attachment
    return attachment.tiles


def execute_kernel_call(
    meta: SharedBufferMeta, call: KernelCall, inputs: Tuple[Any, ...]
) -> Tuple[Any, float, float, str]:
    """Run one :class:`KernelCall` against the shared tiles (worker side).

    Returns ``(result, start, finish, worker_name)`` where the
    timestamps come from :func:`time.perf_counter` (system-wide monotonic
    on Linux, so they are comparable across the worker processes of one
    node).
    """
    tiles = _tiles_for(meta)
    try:
        op = KERNELS[call.kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel operation {call.kernel!r}; available: "
            f"{', '.join(sorted(KERNELS))}"
        ) from None
    start = time.perf_counter()
    result = op(tiles, inputs, *call.args)
    finish = time.perf_counter()
    return result, start, finish, current_process().name
