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
Each sweep's signature lists its per-tile constituents, so the analyzers
price and check it kernel by kernel.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import current_process
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

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
from .qr_kernels import (
    geqrt_tile,
    tsmqr_inplace,
    tsqrt,
    ttmqr_inplace,
    ttqrt,
    unmqr_inplace,
)

__all__ = [
    "KernelCall",
    "KERNELS",
    "kernel_op",
    "execute_kernel_call",
    "SigContext",
    "OpEffect",
    "KernelSignature",
    "KERNEL_SIGNATURES",
    "kernel_signature",
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
    norm_tiles:
        Tile coordinates whose 1-norms the worker samples right after the
        operation (outside the timed window) and ships back with the
        result.  The scheduler attaches these to the last writer of each
        tile per elimination step so growth tracking stays exact — and
        bit-identical to the inline path — even when cross-step lookahead
        interleaves steps (the host cannot sample between steps then).
    """

    kernel: str
    args: Tuple[Any, ...] = ()
    consumes: Tuple[Any, ...] = ()
    produces: Optional[Any] = None
    norm_tiles: Tuple[Tuple[int, int], ...] = ()


#: Name -> operation table the worker resolves descriptors against.
KERNELS: Dict[str, Callable[..., Any]] = {}


def kernel_op(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a worker-side kernel operation under ``name``."""

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in KERNELS:
            raise ValueError(f"kernel operation {name!r} is already registered")
        KERNELS[name] = fn
        return fn

    return decorator


def sweep_ranges(k: int, n: int) -> List[Tuple[int, int]]:
    """Trailing tile-column ranges of step ``k``: ``k+1``, ``k+2``, ``[k+3, n)``.

    The split follows what the default lookahead-1 pipeline
    (:class:`~repro.runtime.schedule.StepPipeline`) flushes.  Planning
    step ``k+1`` needs only step ``k``'s update of column ``k+1``, so that
    column is a sweep of its own.  Planning step ``k+2`` flushes the rest
    of step ``k`` together with step ``k+1``'s update of column ``k+2``;
    with column ``k+2`` apart from the bulk block, that update waits only
    on step ``k``'s sweep of the same column and runs beside the bulk
    block.  A bulk block holding column ``k+2`` would make every such
    flush one serial chain.  The ranges do not follow a solver's
    ``lookahead``, so that no setting of it changes a bit of the result.
    Empty ranges are dropped.
    """
    edges = [min(j, n) for j in (k + 1, k + 2, k + 3)] + [n]
    return [(j0, j1) for j0, j1 in zip(edges, edges[1:]) if j0 < j1]


# --------------------------------------------------------------------------- #
# LU step (variant A1)
# --------------------------------------------------------------------------- #
@kernel_op("lu.scatter_factor")
def _lu_scatter_factor(tiles: TileMatrix, inputs, k, domain_rows, factor) -> None:
    tiles.scatter_panel(k, list(domain_rows), factor.lu)


@kernel_op("lu.swptrsm")
def _lu_swptrsm(tiles: TileMatrix, inputs, j0, j1, domain_rows, factor) -> None:
    columns = tiles.column_rows(j0, j1, domain_rows)
    swptrsm_inplace(factor, columns, stacked_row_index(domain_rows, tiles.nb))


@kernel_op("lu.swptrsm_rhs")
def _lu_swptrsm_rhs(tiles: TileMatrix, inputs, domain_rows, factor) -> None:
    rhs = tiles.rhs_rows(domain_rows)
    swptrsm_inplace(factor, rhs, stacked_row_index(domain_rows, tiles.nb))


@kernel_op("lu.trsm")
def _lu_trsm(tiles: TileMatrix, inputs, i, k, factor) -> None:
    tile = tiles.tile(i, k)
    tile[...] = eliminate_trsm(factor, tile)


@kernel_op("lu.gemm_sweep")
def _lu_gemm_sweep(tiles: TileMatrix, inputs, k, i1, j0, j1) -> None:
    c = tiles.block(k + 1, i1, j0, j1)
    c -= tiles.block(k + 1, i1, k, k + 1) @ tiles.block(k, k + 1, j0, j1)


@kernel_op("lu.gemm_sweep_rhs")
def _lu_gemm_sweep_rhs(tiles: TileMatrix, inputs, k, i1) -> None:
    c = tiles.rhs_block(k + 1, i1)
    c -= tiles.block(k + 1, i1, k, k + 1) @ tiles.rhs_tile(k)


# --------------------------------------------------------------------------- #
# QR step (hierarchical tiled QR)
# --------------------------------------------------------------------------- #
@kernel_op("qr.geqrt")
def _qr_geqrt(tiles: TileMatrix, inputs, row, k):
    factor = geqrt_tile(tiles.tile(row, k))
    tiles.set_tile(row, k, factor.r)
    return factor


@kernel_op("qr.couple")
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
    ``operand(row)`` is the tile-row view of the range, updated in place
    (fetched once per row and chain).
    """
    views = {row: operand(row) for row in dict.fromkeys(r for op in ops for r in op[1:-1])}
    for op in ops:
        if op[0] == "unmqr":
            _, row, idx = op
            unmqr_inplace(factors[idx], views[row])
        else:
            name, eliminator, killed, idx = op
            apply = ttmqr_inplace if name == "ttmqr" else tsmqr_inplace
            apply(factors[idx], views[eliminator], views[killed])


@kernel_op("qr.sweep")
def _qr_sweep(tiles: TileMatrix, inputs, j0, j1, ops) -> None:
    _qr_chain(lambda row: tiles.row_block(row, j0, j1), ops, inputs)


@kernel_op("qr.sweep_rhs")
def _qr_sweep_rhs(tiles: TileMatrix, inputs, ops) -> None:
    _qr_chain(tiles.rhs_tile, ops, inputs)


# --------------------------------------------------------------------------- #
# LU IncPiv
# --------------------------------------------------------------------------- #
@kernel_op("incpiv.getrf")
def _incpiv_getrf(tiles: TileMatrix, inputs, k):
    factor = factor_tile_lu(tiles.tile(k, k))
    tiles.set_tile(k, k, np.triu(factor.lu))
    return factor


@kernel_op("incpiv.swptrsm")
def _incpiv_swptrsm(tiles: TileMatrix, inputs, k, j0, j1) -> None:
    (factor,) = inputs
    c = tiles.row_block(k, j0, j1)
    c[...] = apply_swptrsm(factor, c)


@kernel_op("incpiv.swptrsm_rhs")
def _incpiv_swptrsm_rhs(tiles: TileMatrix, inputs, k) -> None:
    (factor,) = inputs
    tiles.rhs_tile(k)[...] = apply_swptrsm(factor, tiles.rhs_tile(k))


@kernel_op("incpiv.tstrf")
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


@kernel_op("incpiv.ssssm_sweep")
def _incpiv_ssssm_sweep(tiles: TileMatrix, inputs, k, j0, j1, rows) -> None:
    _ssssm_chain(lambda i: tiles.row_block(i, j0, j1), k, rows, inputs, tiles.nb)


@kernel_op("incpiv.ssssm_sweep_rhs")
def _incpiv_ssssm_sweep_rhs(tiles: TileMatrix, inputs, k, rows) -> None:
    _ssssm_chain(tiles.rhs_tile, k, rows, inputs, tiles.nb)


# --------------------------------------------------------------------------- #
# Shape signatures — abstract transfer rules for the static analyzer
# --------------------------------------------------------------------------- #
# The analyzer (repro.analysis.abstract) symbolically executes plans over an
# abstract domain of tile shapes.  Each kernel operation in
# KERNELS declares a *signature*: a function mapping a KernelCall to the tile
# sets it reads and writes, the conformability checks its numerics imply, an
# owner anchor for placement (owner-computes on the written tile), and the
# byte size of any produced factor.  Registry lint fails when KERNELS and
# KERNEL_SIGNATURES drift apart in either direction.
#
# The RHS pseudo-column constant mirrors repro.runtime.task.RHS_COLUMN; it is
# not imported because repro.runtime.__init__ imports the process executor,
# which imports this module.
_RHS = -1


@dataclass(frozen=True)
class SigContext:
    """Problem-level context a signature is evaluated under.

    Tiles always hold float64 (``TileMatrix`` converts any input on
    entry), so every byte count prices :attr:`itemsize` = 8.
    """

    n: int
    nb: int
    nrhs: int

    itemsize: ClassVar[int] = 8


@dataclass(frozen=True)
class OpEffect:
    """Abstract effect of one kernel application.

    ``checks`` is a tuple of conformability assertions over shape operands.
    An operand is a tile reference ``(i, j)`` (column ``-1`` = RHS), a
    literal ``("lit", rows, cols)``, or a vertical stack
    ``("stack", (ref, ...))`` whose row counts add and whose column counts
    must agree.  Check forms:

    - ``("matmul", a, b, out)`` — ``a @ b`` conforms and matches ``out``
    - ``("same_shape", a, b)``
    - ``("concrete", label, actual_shape, expected_shape)`` — a concrete
      array carried inside the call (panel factors) has the shape the plan
      geometry implies

    ``owner_tile`` anchors the task's owner under a distribution
    (owner-computes on the written tile).  ``constituents`` decomposes a
    sweep operation into ``((read_refs, ...), anchor_ref)`` units so
    placement can price intra-sweep communication per logical kernel.
    ``product_bytes`` sizes the value published under ``call.produces``.
    ``unit_count`` is the number of logical kernels (cross-checked against
    ``Task.fused``).
    """

    reads: Any
    writes: Any
    checks: Tuple[Any, ...] = ()
    owner_tile: Optional[Tuple[int, int]] = None
    constituents: Tuple[Any, ...] = ()
    product_bytes: int = 0
    unit_count: int = 1


@dataclass(frozen=True)
class KernelSignature:
    """Transfer rule for one kernel op.

    ``effect(call, step, ctx) -> OpEffect`` derives the abstract effect.
    """

    effect: Callable[[KernelCall, int, SigContext], OpEffect]


#: Name -> signature table, lint-checked against :data:`KERNELS` both ways.
KERNEL_SIGNATURES: Dict[str, KernelSignature] = {}


def kernel_signature(
    name: str,
) -> Callable[[Callable[..., OpEffect]], Callable[..., OpEffect]]:
    """Register the shape signature for kernel op ``name``."""

    def decorator(fn: Callable[..., OpEffect]) -> Callable[..., OpEffect]:
        if name in KERNEL_SIGNATURES:
            raise ValueError(f"kernel signature {name!r} is already registered")
        KERNEL_SIGNATURES[name] = KernelSignature(effect=fn)
        return fn

    return decorator


def _factor_lu_shape(factor: Any) -> Tuple[int, ...]:
    return tuple(getattr(getattr(factor, "lu", None), "shape", ()))


@kernel_signature("lu.scatter_factor")
def _sig_lu_scatter_factor(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, rows, factor = call.args
    refs = frozenset((i, k) for i in rows)
    return OpEffect(
        reads=refs,
        writes=refs,
        checks=(
            (
                "concrete",
                "scatter_factor.lu",
                _factor_lu_shape(factor),
                (len(rows) * ctx.nb, ctx.nb),
            ),
        ),
        owner_tile=(k, k),
    )


def _sweep_effect(units, checks=()) -> OpEffect:
    """Effect of a sweep op: the union of its per-tile kernel units.

    ``units`` are ``(reads, writes, check, anchor)`` tuples, one per
    logical kernel, exactly the effect that kernel has as a task of its
    own; they become the placement constituents and the unit count.
    """
    reads: set = set()
    writes: set = set()
    for unit_reads, unit_writes, _check, _anchor in units:
        reads.update(unit_reads)
        writes.update(unit_writes)
    return OpEffect(
        reads=frozenset(reads | writes),
        writes=frozenset(writes),
        checks=tuple(checks) + tuple(unit[2] for unit in units),
        constituents=tuple((unit[0], unit[3]) for unit in units),
        unit_count=len(units),
    )


@kernel_signature("lu.swptrsm")
def _sig_lu_swptrsm(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    j0, j1, rows, factor = call.args
    panel = tuple((i, step) for i in rows)
    d = len(rows) * ctx.nb
    units = []
    for j in range(j0, j1):
        col = tuple((i, j) for i in rows)
        check = ("matmul", ("lit", d, d), ("stack", col), ("stack", col))
        units.append((panel + col, col, check, (rows[0], j)))
    return _sweep_effect(
        units,
        checks=(("concrete", "swptrsm.lu", _factor_lu_shape(factor), (d, ctx.nb)),),
    )


@kernel_signature("lu.swptrsm_rhs")
def _sig_lu_swptrsm_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    rows, factor = call.args
    panel = frozenset((i, step) for i in rows)
    col = tuple((i, _RHS) for i in rows)
    d = len(rows) * ctx.nb
    return OpEffect(
        reads=panel | frozenset(col),
        writes=frozenset(col),
        checks=(
            ("concrete", "swptrsm.lu", _factor_lu_shape(factor), (d, ctx.nb)),
            ("matmul", ("lit", d, d), ("stack", col), ("stack", col)),
        ),
        owner_tile=(rows[0], _RHS),
    )


@kernel_signature("lu.trsm")
def _sig_lu_trsm(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    i, k, _factor = call.args
    return OpEffect(
        reads=frozenset({(k, k), (i, k)}),
        writes=frozenset({(i, k)}),
        checks=(("matmul", (i, k), ("lit", ctx.nb, ctx.nb), (i, k)),),
        owner_tile=(i, k),
    )


@kernel_signature("lu.gemm_sweep")
def _sig_lu_gemm_sweep(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, i1, j0, j1 = call.args
    return _sweep_effect(
        [
            (((i, k), (k, j), (i, j)), ((i, j),), ("matmul", (i, k), (k, j), (i, j)), (i, j))
            for i in range(k + 1, i1)
            for j in range(j0, j1)
        ]
    )


@kernel_signature("lu.gemm_sweep_rhs")
def _sig_lu_gemm_sweep_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, i1 = call.args
    return _sweep_effect(
        [
            (
                ((i, k), (k, _RHS), (i, _RHS)),
                ((i, _RHS),),
                ("matmul", (i, k), (k, _RHS), (i, _RHS)),
                (i, _RHS),
            )
            for i in range(k + 1, i1)
        ]
    )


@kernel_signature("qr.geqrt")
def _sig_qr_geqrt(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    row, k = call.args
    return OpEffect(
        reads=frozenset({(row, k)}),
        writes=frozenset({(row, k)}),
        checks=(("matmul", ("lit", ctx.nb, ctx.nb), (row, k), (row, k)),),
        owner_tile=(row, k),
        product_bytes=3 * ctx.nb * ctx.nb * ctx.itemsize,
    )


@kernel_signature("qr.couple")
def _sig_qr_couple(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    _kind, eliminator, killed, k = call.args
    pair = ((eliminator, k), (killed, k))
    return OpEffect(
        reads=frozenset(pair),
        writes=frozenset(pair),
        checks=(
            ("same_shape", (eliminator, k), (killed, k)),
            ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair)),
        ),
        owner_tile=(killed, k),
        product_bytes=3 * ctx.nb * ctx.nb * ctx.itemsize,
    )


def _qr_sweep_effect(columns, ops, step: int, ctx: SigContext) -> OpEffect:
    units = []
    for j in columns:
        for op in ops:
            if op[0] == "unmqr":
                ref = (op[1], j)
                check = ("matmul", ("lit", ctx.nb, ctx.nb), ref, ref)
                units.append((((op[1], step), ref), (ref,), check, ref))
            else:
                pair = ((op[1], j), (op[2], j))
                check = ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair))
                units.append((pair + ((op[2], step),), pair, check, pair[1]))
    return _sweep_effect(units)


@kernel_signature("qr.sweep")
def _sig_qr_sweep(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    j0, j1, ops = call.args
    return _qr_sweep_effect(range(j0, j1), ops, step, ctx)


@kernel_signature("qr.sweep_rhs")
def _sig_qr_sweep_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    (ops,) = call.args
    return _qr_sweep_effect((_RHS,), ops, step, ctx)


@kernel_signature("incpiv.getrf")
def _sig_incpiv_getrf(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    (k,) = call.args
    return OpEffect(
        reads=frozenset({(k, k)}),
        writes=frozenset({(k, k)}),
        checks=(("matmul", ("lit", ctx.nb, ctx.nb), (k, k), (k, k)),),
        owner_tile=(k, k),
        product_bytes=ctx.nb * ctx.nb * ctx.itemsize + ctx.nb * 8,
    )


@kernel_signature("incpiv.swptrsm")
def _sig_incpiv_swptrsm(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, j0, j1 = call.args
    return _sweep_effect(
        [
            (((k, k), (k, j)), ((k, j),), ("matmul", ("lit", ctx.nb, ctx.nb), (k, j), (k, j)), (k, j))
            for j in range(j0, j1)
        ]
    )


@kernel_signature("incpiv.swptrsm_rhs")
def _sig_incpiv_swptrsm_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    (k,) = call.args
    return OpEffect(
        reads=frozenset({(k, k), (k, _RHS)}),
        writes=frozenset({(k, _RHS)}),
        checks=(("matmul", ("lit", ctx.nb, ctx.nb), (k, _RHS), (k, _RHS)),),
        owner_tile=(k, _RHS),
    )


@kernel_signature("incpiv.tstrf")
def _sig_incpiv_tstrf(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, i = call.args
    pair = ((k, k), (i, k))
    return OpEffect(
        reads=frozenset(pair),
        writes=frozenset(pair),
        checks=(
            ("same_shape", (k, k), (i, k)),
            ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair)),
        ),
        owner_tile=(i, k),
        product_bytes=2 * ctx.nb * ctx.nb * ctx.itemsize + ctx.nb * 8,
    )


def _ssssm_sweep_effect(k, columns, rows, ctx: SigContext) -> OpEffect:
    units = []
    for j in columns:
        for i in rows:
            pair = ((k, j), (i, j))
            check = ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair))
            units.append((((i, k),) + pair, pair, check, (i, j)))
    return _sweep_effect(units)


@kernel_signature("incpiv.ssssm_sweep")
def _sig_incpiv_ssssm_sweep(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, j0, j1, rows = call.args
    return _ssssm_sweep_effect(k, range(j0, j1), rows, ctx)


@kernel_signature("incpiv.ssssm_sweep_rhs")
def _sig_incpiv_ssssm_sweep_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, rows = call.args
    return _ssssm_sweep_effect(k, (_RHS,), rows, ctx)


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
) -> Tuple[Any, Optional[Tuple[float, ...]], float, float, str]:
    """Run one :class:`KernelCall` against the shared tiles (worker side).

    Returns ``(result, norms, start, finish, worker_name)`` where the
    timestamps come from :func:`time.perf_counter` (system-wide monotonic
    on Linux, so they are comparable across the worker processes of one
    node) and ``norms`` holds the 1-norms of ``call.norm_tiles`` (``None``
    when no sampling was requested).  The norms are computed after
    ``finish`` is taken, so sampling never skews kernel timings used for
    calibration.
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
    norms: Optional[Tuple[float, ...]] = None
    if call.norm_tiles:
        # One region_tile_norms pass over the sampled tiles' bounding box,
        # the reduction the inline drivers' growth norms use, so the
        # sampled values are bit-identical to the inline bookkeeping.
        norms = tiles.sampled_tile_norms(call.norm_tiles)
    return result, norms, start, finish, current_process().name
