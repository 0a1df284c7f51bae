"""Dynamic access-tracing race detector.

The static verifier can only check what the planners *declare*; this
module checks what the kernels actually *do*.  A
:class:`TracingBackend` (registered as the ``tracing`` kernel backend)
interposes on the two seams every factorization flows through:

- :meth:`~repro.kernels.backends.KernelBackend.prepare_tiles` swaps the
  working :class:`~repro.tiles.tile_matrix.TileMatrix` for a
  :class:`TracingTileMatrix` whose tile accessors record every tile a
  kernel touches and hand out *read-only* numpy views for tiles outside
  the current task's declared write set;
- :meth:`~repro.kernels.backends.KernelBackend.wrap_task` wraps each
  planned task closure so a per-thread task context (declared reads and
  writes) is active exactly while the kernel body runs.

Any access outside the declared sets raises a structured
:class:`~repro.analysis.report.RaceReport` naming the task, kernel, and
tile — including in-place writes through a read-guarded view, which
numpy rejects and the wrapper translates.  Planning-time accesses
(panel analysis, criterion evaluation, growth-norm sampling) happen
outside any task context and pass through unguarded, exactly like the
runtime treats them.

Over-declaration is legal (a declared read that never happens adds a
spurious dependency edge, which is conservative, not racy); the tracer
flags only *under*-declaration, which is what breaks the superscalar
dependency inference.

Scope: the tracer observes in-process execution (inline and threaded
executors; thread-local contexts keep concurrent tasks separate).  The
process executor runs picklable descriptors inside worker processes
where closures never execute, so those runs are planned-and-verified
statically but not traced — ``repro.analysis.audit`` therefore always
drives its dynamic pass through an in-process harness.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import replace as dataclass_replace
from typing import Any, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..api.registry import register_kernel_backend
from ..kernels.backends import KernelBackend
from ..runtime.task import RHS_COLUMN, TileRef
from ..tiles.tile_matrix import TileMatrix
from .report import RaceReport

__all__ = ["AccessRecorder", "TracingTileMatrix", "TracingBackend"]


class _TaskContext:
    """Declared sets and observed accesses of one in-flight task."""

    __slots__ = ("uid", "kernel", "step", "reads", "writes", "touched", "written")

    def __init__(self, uid, kernel, step, reads, writes) -> None:
        self.uid = uid
        self.kernel = kernel
        self.step = step
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)
        self.touched: Set[TileRef] = set()
        self.written: Set[TileRef] = set()


class AccessRecorder:
    """Thread-local task contexts plus the accesses observed under them.

    ``begin``/``end`` bracket one task body on the calling thread; tile
    accessors call :meth:`on_read`/:meth:`on_write`, which record the
    access and raise :class:`RaceReport` the moment it falls outside the
    declared sets.  Accesses with no active context (planning, growth
    sampling, result extraction) are ignored.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records: List[_TaskContext] = []

    @property
    def current(self) -> Optional[_TaskContext]:
        return getattr(self._local, "ctx", None)

    def begin(self, *, uid, kernel, step, reads, writes) -> _TaskContext:
        if self.current is not None:
            raise RuntimeError(
                f"task context for {kernel!r} opened while "
                f"{self.current.kernel!r} is still active on this thread"
            )
        ctx = _TaskContext(uid, kernel, step, reads, writes)
        self._local.ctx = ctx
        return ctx

    def end(self) -> Optional[_TaskContext]:
        ctx = self.current
        self._local.ctx = None
        if ctx is not None:
            with self._lock:
                self.records.append(ctx)
        return ctx

    def _race(self, ctx: _TaskContext, tile: TileRef, access: str) -> RaceReport:
        return RaceReport(
            f"kernel {ctx.kernel!r} (task {ctx.uid}, step {ctx.step}) "
            f"performed an undeclared {access} of tile {tile}; declared "
            f"reads={sorted(ctx.reads)} writes={sorted(ctx.writes)}",
            task_uid=ctx.uid,
            kernel=ctx.kernel,
            step=ctx.step,
            tile=tile,
            access=access,
            declared_reads=tuple(ctx.reads),
            declared_writes=tuple(ctx.writes),
        )

    def on_read(self, tile: TileRef) -> None:
        ctx = self.current
        if ctx is None:
            return
        ctx.touched.add(tile)
        if tile not in ctx.reads and tile not in ctx.writes:
            raise self._race(ctx, tile, "read")

    def on_write(self, tile: TileRef) -> None:
        ctx = self.current
        if ctx is None:
            return
        ctx.touched.add(tile)
        if tile not in ctx.writes:
            raise self._race(ctx, tile, "write")
        ctx.written.add(tile)


class TracingTileMatrix(TileMatrix):
    """Tile matrix whose accessors record and write-guard tile views.

    Aliases the storage of the matrix it wraps (no copies), so tracing
    observes the real factorization.  Under an active task context:

    - a tile inside the declared write set comes back as the ordinary
      writable view and is recorded as (potentially) written;
    - a tile inside the declared read set only comes back as a
      *read-only* view — numpy then rejects any in-place write;
    - a tile in neither set raises :class:`RaceReport` immediately;
    - block views are writable only when *every* covered tile is
      declared written.

    With no active context every accessor behaves exactly like
    :class:`TileMatrix`.
    """

    def __init__(
        self,
        data: np.ndarray,
        tile_size: int,
        rhs: Optional[np.ndarray] = None,
        recorder: Optional[AccessRecorder] = None,
        copy: bool = False,
    ) -> None:
        super().__init__(data, tile_size, rhs=rhs, copy=copy)
        self.recorder = recorder if recorder is not None else AccessRecorder()

    @classmethod
    def wrap(cls, tiles: TileMatrix, recorder: AccessRecorder) -> "TracingTileMatrix":
        """Wrap an existing tile matrix, aliasing its storage."""
        return cls(tiles.array, tiles.nb, rhs=tiles.rhs, recorder=recorder)

    # -- guarded single-tile views ------------------------------------- #
    @staticmethod
    def _read_only(view: np.ndarray) -> np.ndarray:
        guarded = view.view()
        guarded.flags.writeable = False
        return guarded

    def _guarded(self, view: np.ndarray, tile: TileRef) -> np.ndarray:
        ctx = self.recorder.current
        if ctx is None:
            return view
        if tile in ctx.writes:
            self.recorder.on_write(tile)
            return view
        self.recorder.on_read(tile)
        return self._read_only(view)

    def tile(self, i: int, j: int) -> np.ndarray:
        return self._guarded(TileMatrix.tile(self, i, j), (i, j))

    def rhs_tile(self, i: int) -> np.ndarray:
        return self._guarded(TileMatrix.rhs_tile(self, i), (i, RHS_COLUMN))

    def set_tile(self, i: int, j: int, value: np.ndarray) -> None:
        self.recorder.on_write((i, j))
        TileMatrix.tile(self, i, j)[...] = value

    # -- guarded block views ------------------------------------------- #
    def _guarded_block(
        self, view: np.ndarray, tiles: Sequence[TileRef]
    ) -> np.ndarray:
        ctx = self.recorder.current
        if ctx is None or not tiles:
            return view
        if all(t in ctx.writes for t in tiles):
            for t in tiles:
                self.recorder.on_write(t)
            return view
        for t in tiles:
            self.recorder.on_read(t)
        return self._read_only(view)

    def block(self, i0: int, i1: int, j0: int, j1: int) -> np.ndarray:
        refs = [(i, j) for i in range(i0, i1) for j in range(j0, j1)]
        return self._guarded_block(TileMatrix.block(self, i0, i1, j0, j1), refs)

    def rhs_block(self, i0: int, i1: int) -> np.ndarray:
        refs = [(i, RHS_COLUMN) for i in range(i0, i1)]
        return self._guarded_block(TileMatrix.rhs_block(self, i0, i1), refs)

    def row_block(
        self, i: int, j_start: int, j_stop: Optional[int] = None
    ) -> np.ndarray:
        view = TileMatrix.row_block(self, i, j_start, j_stop)
        stop = self.n if j_stop is None else j_stop
        return self._guarded_block(view, [(i, j) for j in range(j_start, stop)])

    # -- guarded full-height views (in-place SWPTRSM) -------------------- #
    # The view spans whole columns; the tiles recorded and guarded are
    # the ones the kernel names, all-or-nothing like the block views.
    def column_rows(self, j0: int, j1: int, rows: Sequence[int]) -> np.ndarray:
        view = TileMatrix.column_rows(self, j0, j1, rows)
        return self._guarded_block(view, [(i, j) for i in rows for j in range(j0, j1)])

    def rhs_rows(self, rows: Sequence[int]) -> np.ndarray:
        refs = [(i, RHS_COLUMN) for i in rows]
        return self._guarded_block(TileMatrix.rhs_rows(self, rows), refs)

    # -- guarded panel copies ------------------------------------------- #
    def panel(self, k: int, rows: Optional[Sequence[int]] = None) -> np.ndarray:
        for i in range(k, self.n) if rows is None else rows:
            self.recorder.on_read((i, k))
        return TileMatrix.panel(self, k, rows)

    def scatter_panel(self, k: int, rows: Sequence[int], panel: np.ndarray) -> None:
        for i in rows:
            self.recorder.on_write((i, k))
        TileMatrix.scatter_panel(self, k, rows, panel)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracing{TileMatrix.__repr__(self)}"


@register_kernel_backend("tracing", aliases=("trace",))
class TracingBackend(KernelBackend):
    """Kernel backend that traces the tile accesses of every task.

    The planners emit the same tasks under it as under ``numpy`` and the
    wrapped kernels run on the same bytes, so traced factorizations are
    bit-identical to untraced ones.  Collects every :class:`RaceReport` it
    raises in :attr:`reports`; per-task access records live on
    :attr:`recorder`.

    Usage::

        solver = repro.make_solver("hybrid", tile_size=8,
                                   kernel_backend="tracing")
        solver.factor(a)          # raises RaceReport on undeclared access
    """

    name = "tracing"

    def __init__(self) -> None:
        self.recorder = AccessRecorder()
        self.reports: List[RaceReport] = []
        #: Bytes of the tile storage (matrix + RHS) of the last traced
        #: factorization — the allocation high-water mark of the always-live
        #: population, which the liveness pass cross-checks its certified
        #: base against.
        self.storage_bytes: int = 0
        self._uids = itertools.count()

    def reset(self) -> None:
        """Drop all recorded accesses and reports (new factorization)."""
        self.recorder = AccessRecorder()
        self.reports = []
        self.storage_bytes = 0
        self._uids = itertools.count()

    # -- instrumentation hooks ----------------------------------------- #
    def prepare_tiles(self, tiles: TileMatrix) -> TracingTileMatrix:
        self.reset()
        self.storage_bytes = int(tiles.array.nbytes) + (
            int(tiles.rhs.nbytes) if tiles.rhs is not None else 0
        )
        return TracingTileMatrix.wrap(tiles, self.recorder)

    def wrap_task(self, task, step: int):
        fn = task.fn
        if fn is None:
            return task
        uid = next(self._uids)

        def traced() -> None:
            recorder = self.recorder
            ctx = recorder.begin(
                uid=uid,
                kernel=task.kernel,
                step=step,
                reads=task.reads,
                writes=task.writes,
            )
            try:
                fn()
            except RaceReport as report:
                self.reports.append(report)
                raise
            except ValueError as exc:
                if "read-only" not in str(exc):
                    raise
                report = RaceReport(
                    f"kernel {ctx.kernel!r} (task {uid}, step {step}) wrote "
                    "in place through a read-guarded tile view — it touched "
                    "a tile outside its declared write set "
                    f"(writes={sorted(ctx.writes)})",
                    task_uid=uid,
                    kernel=ctx.kernel,
                    step=step,
                    access="write",
                    declared_reads=tuple(ctx.reads),
                    declared_writes=tuple(ctx.writes),
                )
                self.reports.append(report)
                raise report from exc
            finally:
                recorder.end()

        return dataclass_replace(task, fn=traced)

    def undeclared_accesses(self) -> List[Tuple[Any, TileRef]]:
        """Cross-check recorded accesses against declarations, post hoc.

        The on-access checks raise eagerly, so this is a defensive second
        pass (it would only find something if a proxy recorded without
        checking); returns ``(context, tile)`` pairs.
        """
        out: List[Tuple[Any, TileRef]] = []
        for ctx in self.recorder.records:
            declared = ctx.reads | ctx.writes
            for tile in sorted(ctx.touched - declared):
                out.append((ctx, tile))
            for tile in sorted(ctx.written - ctx.writes):
                out.append((ctx, tile))
        return out
