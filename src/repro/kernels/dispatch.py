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

The numerical code below mirrors the closures in
:mod:`repro.core.lu_step`, :mod:`repro.core.qr_step` and
:mod:`repro.baselines.lu_incpiv` operation for operation, so descriptor
execution is bit-identical to closure execution.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from multiprocessing import current_process
from typing import Any, Callable, Dict, Optional, Tuple

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
from .qr_kernels import geqrt_tile, tsmqr, tsqrt, ttqrt, unmqr

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


# --------------------------------------------------------------------------- #
# LU step (variant A1) — mirrors repro.core.lu_step closures
# --------------------------------------------------------------------------- #
@kernel_op("lu.scatter_factor")
def _lu_scatter_factor(tiles: TileMatrix, inputs, k, domain_rows, factor) -> None:
    tiles.scatter_panel(k, list(domain_rows), factor.lu)


@kernel_op("lu.swptrsm")
def _lu_swptrsm(tiles: TileMatrix, inputs, j, domain_rows, factor) -> None:
    column = tiles.column_rows(j, domain_rows)
    swptrsm_inplace(factor, column, stacked_row_index(domain_rows, tiles.nb))


@kernel_op("lu.swptrsm_rhs")
def _lu_swptrsm_rhs(tiles: TileMatrix, inputs, domain_rows, factor) -> None:
    rhs = tiles.rhs_rows(domain_rows)
    swptrsm_inplace(factor, rhs, stacked_row_index(domain_rows, tiles.nb))


@kernel_op("lu.trsm")
def _lu_trsm(tiles: TileMatrix, inputs, i, k, factor) -> None:
    tile = tiles.tile(i, k)
    tile[...] = eliminate_trsm(factor, tile)


@kernel_op("lu.gemm")
def _lu_gemm(tiles: TileMatrix, inputs, i, j, k) -> None:
    tiles.tile(i, j)[...] -= tiles.tile(i, k) @ tiles.tile(k, j)


@kernel_op("lu.gemm_rhs")
def _lu_gemm_rhs(tiles: TileMatrix, inputs, i, k) -> None:
    tiles.rhs_tile(i)[...] -= tiles.tile(i, k) @ tiles.rhs_tile(k)


# --------------------------------------------------------------------------- #
# QR step (hierarchical tiled QR) — mirrors repro.core.qr_step closures
# --------------------------------------------------------------------------- #
@kernel_op("qr.geqrt")
def _qr_geqrt(tiles: TileMatrix, inputs, row, k):
    factor = geqrt_tile(tiles.tile(row, k))
    tiles.set_tile(row, k, factor.r)
    return factor


@kernel_op("qr.unmqr")
def _qr_unmqr(tiles: TileMatrix, inputs, row, j) -> None:
    (factor,) = inputs
    tiles.set_tile(row, j, unmqr(factor, tiles.tile(row, j)))


@kernel_op("qr.unmqr_rhs")
def _qr_unmqr_rhs(tiles: TileMatrix, inputs, row) -> None:
    (factor,) = inputs
    tiles.rhs_tile(row)[...] = unmqr(factor, tiles.rhs_tile(row))


@kernel_op("qr.couple")
def _qr_couple(tiles: TileMatrix, inputs, kind, eliminator, killed, k):
    couple = ttqrt if kind == "TT" else tsqrt
    factor = couple(tiles.tile(eliminator, k), tiles.tile(killed, k))
    tiles.set_tile(eliminator, k, factor.r)
    tiles.set_tile(killed, k, 0.0)
    return factor


@kernel_op("qr.update")
def _qr_update(tiles: TileMatrix, inputs, eliminator, killed, j) -> None:
    (factor,) = inputs
    top, bottom = tsmqr(factor, tiles.tile(eliminator, j), tiles.tile(killed, j))
    tiles.set_tile(eliminator, j, top)
    tiles.set_tile(killed, j, bottom)


@kernel_op("qr.update_rhs")
def _qr_update_rhs(tiles: TileMatrix, inputs, eliminator, killed) -> None:
    (factor,) = inputs
    top, bottom = tsmqr(factor, tiles.rhs_tile(eliminator), tiles.rhs_tile(killed))
    tiles.rhs_tile(eliminator)[...] = top
    tiles.rhs_tile(killed)[...] = bottom


# --------------------------------------------------------------------------- #
# LU IncPiv — mirrors repro.baselines.lu_incpiv closures
# --------------------------------------------------------------------------- #
@kernel_op("incpiv.getrf")
def _incpiv_getrf(tiles: TileMatrix, inputs, k):
    factor = factor_tile_lu(tiles.tile(k, k))
    tiles.set_tile(k, k, np.triu(factor.lu))
    return factor


@kernel_op("incpiv.swptrsm")
def _incpiv_swptrsm(tiles: TileMatrix, inputs, k, j) -> None:
    (factor,) = inputs
    tiles.set_tile(k, j, apply_swptrsm(factor, tiles.tile(k, j)))


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


def _ssssm_pair(pair, nb, top, bottom):
    l2 = pair.lu[nb:]
    c = np.vstack([top, bottom])
    c = apply_swptrsm(pair, c)
    return c[:nb], c[nb:] - l2 @ c[:nb]


@kernel_op("incpiv.ssssm")
def _incpiv_ssssm(tiles: TileMatrix, inputs, k, i, j) -> None:
    (pair,) = inputs
    top, bottom = _ssssm_pair(pair, tiles.nb, tiles.tile(k, j), tiles.tile(i, j))
    tiles.set_tile(k, j, top)
    tiles.set_tile(i, j, bottom)


@kernel_op("incpiv.ssssm_rhs")
def _incpiv_ssssm_rhs(tiles: TileMatrix, inputs, k, i) -> None:
    (pair,) = inputs
    top, bottom = _ssssm_pair(pair, tiles.nb, tiles.rhs_tile(k), tiles.rhs_tile(i))
    tiles.rhs_tile(k)[...] = top
    tiles.rhs_tile(i)[...] = bottom


# --------------------------------------------------------------------------- #
# Shape/dtype signatures — abstract transfer rules for the static analyzer
# --------------------------------------------------------------------------- #
# The analyzer (repro.analysis.abstract) symbolically executes plans over an
# abstract domain of (tile shape, dtype) values.  Each kernel operation in
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

    ``dtype`` is the dtype of the *input* matrix (pre tile-storage cast), so
    abstract interpretation covers dtypes the concrete TileMatrix would
    normalise away.
    """

    n: int
    nb: int
    nrhs: int
    dtype: Any

    @property
    def itemsize(self) -> int:
        return int(np.dtype(self.dtype).itemsize)


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
    fused operation into ``((read_refs, ...), anchor_ref)`` units so
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

    ``effect(call, step, ctx) -> OpEffect`` derives the abstract effect;
    ``dtype_rule`` is ``"preserve"`` (writes take the promoted dtype of the
    reads) or a concrete numpy dtype name the operation forces its outputs
    to.
    """

    effect: Callable[[KernelCall, int, SigContext], OpEffect]
    dtype_rule: str = "preserve"


#: Name -> signature table, lint-checked against :data:`KERNELS` both ways.
KERNEL_SIGNATURES: Dict[str, KernelSignature] = {}


def kernel_signature(
    name: str, dtype_rule: str = "preserve"
) -> Callable[[Callable[..., OpEffect]], Callable[..., OpEffect]]:
    """Register the shape/dtype signature for kernel op ``name``."""

    def decorator(fn: Callable[..., OpEffect]) -> Callable[..., OpEffect]:
        if name in KERNEL_SIGNATURES:
            raise ValueError(f"kernel signature {name!r} is already registered")
        KERNEL_SIGNATURES[name] = KernelSignature(effect=fn, dtype_rule=dtype_rule)
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


@kernel_signature("lu.swptrsm")
def _sig_lu_swptrsm(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    j, rows, factor = call.args
    panel = frozenset((i, step) for i in rows)
    col = tuple((i, j) for i in rows)
    d = len(rows) * ctx.nb
    return OpEffect(
        reads=panel | frozenset(col),
        writes=frozenset(col),
        checks=(
            ("concrete", "swptrsm.lu", _factor_lu_shape(factor), (d, ctx.nb)),
            ("matmul", ("lit", d, d), ("stack", col), ("stack", col)),
        ),
        owner_tile=(rows[0], j),
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


@kernel_signature("lu.gemm")
def _sig_lu_gemm(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    i, j, k = call.args
    return OpEffect(
        reads=frozenset({(i, k), (k, j), (i, j)}),
        writes=frozenset({(i, j)}),
        checks=(("matmul", (i, k), (k, j), (i, j)),),
        owner_tile=(i, j),
    )


@kernel_signature("lu.gemm_rhs")
def _sig_lu_gemm_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    i, k = call.args
    return OpEffect(
        reads=frozenset({(i, k), (k, _RHS), (i, _RHS)}),
        writes=frozenset({(i, _RHS)}),
        checks=(("matmul", (i, k), (k, _RHS), (i, _RHS)),),
        owner_tile=(i, _RHS),
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


@kernel_signature("qr.unmqr")
def _sig_qr_unmqr(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    row, j = call.args
    return OpEffect(
        reads=frozenset({(row, step), (row, j)}),
        writes=frozenset({(row, j)}),
        checks=(("matmul", ("lit", ctx.nb, ctx.nb), (row, j), (row, j)),),
        owner_tile=(row, j),
    )


@kernel_signature("qr.unmqr_rhs")
def _sig_qr_unmqr_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    (row,) = call.args
    return OpEffect(
        reads=frozenset({(row, step), (row, _RHS)}),
        writes=frozenset({(row, _RHS)}),
        checks=(("matmul", ("lit", ctx.nb, ctx.nb), (row, _RHS), (row, _RHS)),),
        owner_tile=(row, _RHS),
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


@kernel_signature("qr.update")
def _sig_qr_update(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    eliminator, killed, j = call.args
    pair = ((eliminator, j), (killed, j))
    return OpEffect(
        reads=frozenset(pair) | frozenset({(killed, step)}),
        writes=frozenset(pair),
        checks=(
            ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair)),
        ),
        owner_tile=(killed, j),
    )


@kernel_signature("qr.update_rhs")
def _sig_qr_update_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    eliminator, killed = call.args
    pair = ((eliminator, _RHS), (killed, _RHS))
    return OpEffect(
        reads=frozenset(pair) | frozenset({(killed, step)}),
        writes=frozenset(pair),
        checks=(
            ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair)),
        ),
        owner_tile=(killed, _RHS),
    )


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
    k, j = call.args
    return OpEffect(
        reads=frozenset({(k, k), (k, j)}),
        writes=frozenset({(k, j)}),
        checks=(("matmul", ("lit", ctx.nb, ctx.nb), (k, j), (k, j)),),
        owner_tile=(k, j),
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


@kernel_signature("incpiv.ssssm")
def _sig_incpiv_ssssm(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, i, j = call.args
    pair = ((k, j), (i, j))
    return OpEffect(
        reads=frozenset({(i, k), (k, j), (i, j)}),
        writes=frozenset(pair),
        checks=(
            ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair)),
        ),
        owner_tile=(i, j),
    )


@kernel_signature("incpiv.ssssm_rhs")
def _sig_incpiv_ssssm_rhs(call: KernelCall, step: int, ctx: SigContext) -> OpEffect:
    k, i = call.args
    pair = ((k, _RHS), (i, _RHS))
    return OpEffect(
        reads=frozenset({(i, k), (k, _RHS), (i, _RHS)}),
        writes=frozenset(pair),
        checks=(
            ("matmul", ("lit", 2 * ctx.nb, 2 * ctx.nb), ("stack", pair), ("stack", pair)),
        ),
        owner_tile=(i, _RHS),
    )


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
        # Same code path as the incremental norm cache of the tiled
        # drivers (region_tile_norms over a 1x1 tile region), so the
        # sampled values are bit-identical to the inline bookkeeping.
        norms = tuple(
            float(tiles.region_tile_norms(i, i + 1, j, j + 1)[0, 0])
            for (i, j) in call.norm_tiles
        )
    return result, norms, start, finish, current_process().name
