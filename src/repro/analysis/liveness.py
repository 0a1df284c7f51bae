"""Tile/product liveness and certified peak-live-memory bounds.

Tiled factorizations have two memory populations.  The *tile storage*
(matrix + RHS) is allocated once and stays live for the whole run — its
size is a closed form of ``(n, nb, nrhs)``.  The *products* (compact-WY
factors from GEQRT/TSQRT/TTQRT, pairwise-pivot factors from
GETRF/TSTRF) are born when a producing task publishes them under a
``produces`` key and die after the last ``consumes`` of that key — their
overlap is what lookahead actually buys memory-wise, and the thing worth
certifying per ``(solver, n, nb, lookahead)``.

Intervals are computed from first-def/last-use over the pipeline-flushed
step graphs at two granularities:

``sequential``
    Position-granular along the topological program order.  Sound for the
    inline reference path, which executes exactly in that order.

``window``
    Flush-granular: a product is counted live in every flushed graph from
    the one that produces it through the one holding its last consumer.
    Flushes run to completion before the next begins, while tasks *within*
    a flush run concurrently — so any set of products simultaneously live
    at a wall-clock instant is covered by a single flush window, and the
    window bound structurally dominates every executor's true high-water
    mark.  This is the certified bound.

The cross-check against reality prices the trace with the *same* static
per-product byte estimator and asks whether the timed overlap (producer
finish to last-consumer finish) ever exceeds the certified bound; at equal
timestamps releases are processed before acquires, matching the fact that
a consumer finishing when another starts cannot overlap it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..kernels.dispatch import SigContext
from ..runtime.graph import TaskGraph
from .abstract import signature_effect
from .report import Violation

__all__ = [
    "ProductInterval",
    "MemoryCertificate",
    "tile_storage_bytes",
    "collect_product_intervals",
    "certify_peak_memory",
    "traced_product_peak",
    "analyze_liveness",
]


@dataclass
class ProductInterval:
    """Live interval of one produces/consumes product."""

    key: Any
    nbytes: int
    birth_pos: int
    last_pos: int
    birth_graph: int
    producer: Tuple[int, int]  # (graph index, uid)
    last_graph: int
    consumers: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class MemoryCertificate:
    """Certified peak-live-bytes bound of one plan."""

    mode: str
    base_bytes: int
    product_peak_bytes: int
    products: int
    graphs: int
    tiles_live: int
    max_steps_in_flight: int

    @property
    def peak_bytes(self) -> int:
        return self.base_bytes + self.product_peak_bytes

    def as_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "base_bytes": self.base_bytes,
            "product_peak_bytes": self.product_peak_bytes,
            "peak_bytes": self.peak_bytes,
            "products": self.products,
            "graphs": self.graphs,
            "tiles_live": self.tiles_live,
            "max_steps_in_flight": self.max_steps_in_flight,
        }


def tile_storage_bytes(ctx: SigContext) -> int:
    """Bytes of the always-live tile storage (matrix + RHS)."""
    matrix = ctx.n * ctx.n * ctx.nb * ctx.nb * ctx.itemsize
    rhs = ctx.n * ctx.nb * ctx.nrhs * ctx.itemsize
    return matrix + rhs


def collect_product_intervals(
    graphs: Sequence[TaskGraph], ctx: SigContext
) -> List[ProductInterval]:
    """First-def/last-use interval of every product across the graphs.

    Byte sizes come from the kernel signatures (the same estimator the
    traced cross-check uses).  Products nothing consumes die at their
    producer; ``consumes`` keys with no known producer are the verifier's
    problem, not ours, and are skipped here.
    """
    records: Dict[Any, ProductInterval] = {}
    pos = 0
    for g_idx, graph in enumerate(graphs):
        for uid in graph.topological_order():
            task = graph.tasks[uid]
            call = getattr(task, "call", None)
            if call is None:
                pos += 1
                continue
            for key in call.consumes:
                interval = records.get(key)
                if interval is not None:
                    interval.last_pos = pos
                    interval.last_graph = g_idx
                    interval.consumers.append((g_idx, uid))
            if call.produces is not None:
                effect, _violation = signature_effect(task, ctx)
                nbytes = effect.product_bytes if effect is not None else 0
                records[call.produces] = ProductInterval(
                    key=call.produces,
                    nbytes=nbytes,
                    birth_pos=pos,
                    last_pos=pos,
                    birth_graph=g_idx,
                    last_graph=g_idx,
                    producer=(g_idx, uid),
                )
            pos += 1
    return list(records.values())


def _max_steps_in_flight(graphs: Sequence[TaskGraph]) -> int:
    spans = []
    for graph in graphs:
        steps = [t.step for t in graph.tasks]
        if steps:
            spans.append(max(steps) - min(steps) + 1)
    return max(spans, default=0)


def certify_peak_memory(
    graphs: Sequence[TaskGraph],
    ctx: SigContext,
    *,
    mode: str = "window",
    base_bytes: Optional[int] = None,
    intervals: Optional[List[ProductInterval]] = None,
) -> MemoryCertificate:
    """Certify a peak-live-bytes bound for the plan (see module docstring)."""
    if mode not in ("sequential", "window"):
        raise ValueError(f"unknown liveness mode {mode!r}")
    if intervals is None:
        intervals = collect_product_intervals(graphs, ctx)
    if base_bytes is None:
        base_bytes = tile_storage_bytes(ctx)

    if mode == "sequential":
        # Position-granular event sweep along program order.
        deltas: Dict[int, int] = {}
        for iv in intervals:
            deltas[iv.birth_pos] = deltas.get(iv.birth_pos, 0) + iv.nbytes
            deltas[iv.last_pos + 1] = deltas.get(iv.last_pos + 1, 0) - iv.nbytes
        live = peak = 0
        for pos in sorted(deltas):
            live += deltas[pos]
            peak = max(peak, live)
    else:
        # Flush-granular: a product is live in every graph its interval
        # covers; graphs run one after another, so the per-graph sums bound
        # any concurrent schedule of the tasks inside each flush.
        per_graph = [0] * len(graphs)
        for iv in intervals:
            for g in range(iv.birth_graph, iv.last_graph + 1):
                per_graph[g] += iv.nbytes
        peak = max(per_graph, default=0)

    tiles_live = len(
        {t for graph in graphs for task in graph.tasks for t in task.touches()}
    )
    return MemoryCertificate(
        mode=mode,
        base_bytes=int(base_bytes),
        product_peak_bytes=int(peak),
        products=len(intervals),
        graphs=len(graphs),
        tiles_live=tiles_live,
        max_steps_in_flight=_max_steps_in_flight(graphs),
    )


def traced_product_peak(
    traces: Sequence[Any], intervals: Sequence[ProductInterval]
) -> Optional[int]:
    """Peak product bytes actually overlapping in time, per the traces.

    ``traces[g]`` must be the :class:`ExecutionTrace` of ``graphs[g]`` (the
    pipeline appends them 1:1).  Products whose producer has no finish
    timestamp (errored/partial traces) are skipped — that only ever lowers
    the traced value, so the bound comparison stays conservative.  Returns
    ``None`` when no trace data is usable.
    """
    events: List[Tuple[float, int, int]] = []
    usable = False
    for iv in intervals:
        g, uid = iv.producer
        if g >= len(traces) or traces[g] is None:
            continue
        t0 = traces[g].finish_times.get(uid)
        if t0 is None:
            continue
        t1 = t0
        for cg, cuid in iv.consumers:
            if cg < len(traces) and traces[cg] is not None:
                tc = traces[cg].finish_times.get(cuid)
                if tc is not None:
                    t1 = max(t1, tc)
        usable = True
        # Releases sort before acquires at equal timestamps.
        events.append((t0, 1, iv.nbytes))
        events.append((t1, 0, -iv.nbytes))
    if not usable:
        return None
    live = peak = 0
    for _t, _order, delta in sorted(events):
        live += delta
        peak = max(peak, live)
    return peak


def analyze_liveness(
    graphs: Sequence[TaskGraph],
    ctx: SigContext,
    *,
    mode: str = "window",
    base_bytes: Optional[int] = None,
    traces: Optional[Sequence[Any]] = None,
    max_memory: Optional[int] = None,
) -> Tuple[List[Violation], MemoryCertificate]:
    """Full liveness pass: certify the bound, cross-check, admit.

    Returns the violations (``peak-bound-violated`` when the traced product
    overlap exceeds the certified one; ``memory-admission`` when the bound
    exceeds ``max_memory``) and the certificate.
    """
    violations: List[Violation] = []
    intervals = collect_product_intervals(graphs, ctx)
    cert = certify_peak_memory(
        graphs, ctx, mode=mode, base_bytes=base_bytes, intervals=intervals
    )
    if traces is not None and len(traces) == len(graphs):
        traced = traced_product_peak(traces, intervals)
        if traced is not None and traced > cert.product_peak_bytes:
            violations.append(
                Violation(
                    kind="peak-bound-violated",
                    message=(
                        f"traced product high-water mark ({traced} B) exceeds "
                        f"the certified bound ({cert.product_peak_bytes} B, "
                        f"mode={cert.mode})"
                    ),
                )
            )
    if max_memory is not None and cert.peak_bytes > int(max_memory):
        violations.append(
            Violation(
                kind="memory-admission",
                message=(
                    f"certified peak memory {cert.peak_bytes} B exceeds the "
                    f"admission limit {int(max_memory)} B "
                    f"(base {cert.base_bytes} B + products "
                    f"{cert.product_peak_bytes} B)"
                ),
            )
        )
    return violations, cert
