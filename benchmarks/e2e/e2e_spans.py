"""Span recorder and the three instruments the traced phase plugs into a solver.

Everything here lives in the benchmark: the solver is observed only through
its public extension points — a :class:`~repro.kernels.backends.KernelBackend`
(``wrap_task`` / ``prepare_tiles``, the hooks ``analysis.tracing`` uses) and
the criterion object handed to ``make_solver``.  The wrapped kernels run the
very same closures on the very same bytes, so a traced factorization stays
bit-identical to an untraced one (the runner asserts it).
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional

from repro.kernels.backends import KernelBackend, resolve_backend
from repro.tiles.tile_matrix import TileMatrix

#: Planner kernel names of the LU family; every other kernel is a QR kernel.
LU_KERNELS = frozenset({"getrf", "swptrsm", "trsm", "gemm"})


def base_kernel(name: str) -> str:
    """``gemm_rhs`` -> ``gemm``: right-hand-side variants count with their kernel."""
    return name[:-4] if name.endswith("_rhs") else name


class SpanRecorder:
    """In-memory spans: ``[name, layer, start, end, parent, op]`` rows.

    Only the benchmark's main thread opens nesting spans (:meth:`span`);
    kernels running on worker threads add leaves under whichever span is
    open at that moment, which is the factorization they belong to.
    """

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.parent: Optional[int] = None
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[int]:
        index = len(self.rows)
        row = [name, layer, time.perf_counter(), None, self.parent, self.op]
        self.rows.append(row)
        outer, self.parent = self.parent, index
        try:
            yield index
        finally:
            row[3] = time.perf_counter()
            self.parent = outer

    def leaf(self, name: str, layer: str, start: float, end: float) -> None:
        self.rows.append([name, layer, start, end, self.parent, self.op])

    def children(self, parent: int, layer: Optional[str] = None) -> List[list]:
        return [
            r for r in self.rows if r[4] == parent and (layer is None or r[1] == layer)
        ]

    def write(self, path: str) -> None:
        keys = ("name", "layer", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, row)) for row in self.rows], fh)


class CountingTileMatrix(TileMatrix):
    """Aliases a tile matrix's storage and counts the accessor calls.

    Counts only: timing each of tens of thousands of sub-microsecond calls
    would distort the run.  ``region_tile_norms`` is called a few times per
    step, so that one gets a real span.  ``itertools.count`` keeps the
    tallies exact when kernels run on worker threads.
    """

    def __init__(self, tiles: TileMatrix, recorder: SpanRecorder) -> None:
        super().__init__(tiles.array, tiles.nb, rhs=tiles.rhs)
        self._recorder = recorder
        self._accessor_calls = itertools.count()

    @property
    def accessor_calls(self) -> int:
        return next(self._accessor_calls)

    def tile(self, i: int, j: int):
        next(self._accessor_calls)
        return TileMatrix.tile(self, i, j)

    def rhs_tile(self, i: int):
        next(self._accessor_calls)
        return TileMatrix.rhs_tile(self, i)

    def block(self, i0: int, i1: int, j0: int, j1: int):
        next(self._accessor_calls)
        return TileMatrix.block(self, i0, i1, j0, j1)

    def rhs_block(self, i0: int, i1: int):
        next(self._accessor_calls)
        return TileMatrix.rhs_block(self, i0, i1)

    def row_block(self, i: int, j_start: int, j_stop: Optional[int] = None):
        next(self._accessor_calls)
        return TileMatrix.row_block(self, i, j_start, j_stop)

    def region_tile_norms(self, i0: int, i1: int, j0: int, j1: int):
        start = time.perf_counter()
        out = TileMatrix.region_tile_norms(self, i0, i1, j0, j1)
        self._recorder.leaf("tiles.region_tile_norms", "tiles", start, time.perf_counter())
        return out


class SpanBackend(KernelBackend):
    """Kernel backend that times every task body of an inner compute backend.

    Worker processes execute picklable descriptors, never these closures, so
    on the ``processes`` and ``cluster`` executors the kernel times come from
    the executors' own ``ExecutionTrace`` instead; the planning-side counts
    (tasks planned, host accessor calls) are recorded on every executor.
    """

    name = "span"

    def __init__(self, recorder: SpanRecorder, inner: Any = None) -> None:
        self.recorder = recorder
        self.inner = resolve_backend(inner)
        self.tasks_planned = 0
        self.tiles: List[CountingTileMatrix] = []

    @property
    def fuses(self) -> bool:
        return self.inner.fuses

    @property
    def descriptor_name(self) -> str:
        return self.inner.descriptor_name

    def warm(self, nb: int, dtype: Any = float) -> None:
        self.inner.warm(nb, dtype)

    def prepare_tiles(self, tiles: TileMatrix) -> CountingTileMatrix:
        counting = CountingTileMatrix(tiles, self.recorder)
        self.tiles.append(counting)
        return counting

    def wrap_task(self, task, step: int):
        self.tasks_planned += 1
        fn = task.fn
        if fn is None:
            return task
        name = "kernels." + base_kernel(task.kernel)
        leaf = self.recorder.leaf

        def timed() -> None:
            start = time.perf_counter()
            fn()
            leaf(name, "kernels", start, time.perf_counter())

        return replace(task, fn=timed)


class SpanCriterion:
    """Pass-through robustness criterion that spans every ``evaluate`` call."""

    def __init__(self, inner: Any, recorder: SpanRecorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def evaluate(self, info):
        start = time.perf_counter()
        decision = self._inner.evaluate(info)
        self._recorder.leaf("criteria.evaluate", "criteria", start, time.perf_counter())
        return decision

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)


def kernel_totals(recorder: SpanRecorder, parent: int) -> Dict[str, List[float]]:
    """``{kernel: [calls, busy seconds]}`` of the kernel leaves under one span."""
    out: Dict[str, List[float]] = {}
    for name, _layer, start, end, _parent, _op in recorder.children(parent, "kernels"):
        entry = out.setdefault(name[len("kernels."):], [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    return out


def trace_kernel_totals(traces) -> Dict[str, List[float]]:
    """Same table from the ``ExecutionTrace`` records an executor publishes."""
    out: Dict[str, List[float]] = {}
    for trace in traces:
        for uid, finish in trace.finish_times.items():
            entry = out.setdefault(base_kernel(trace.kernel_of_task[uid]), [0, 0.0])
            entry[0] += 1
            entry[1] += finish - trace.start_times[uid]
    return out
