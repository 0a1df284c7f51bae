"""Seeded corruption fixtures for the static resource analyzer.

Each fixture takes a *real* emitted plan, corrupts it in one specific,
realistic way (a mis-placed task, a pivot chain escaping its domain, a
trailing-update sweep whose row range runs off the matrix, a panel factor
of the wrong shape), and asserts the analyzer
flags it.  They serve two purposes: regression tests that the analyses have
teeth, and executable documentation of what each violation kind means.

Every fixture returns the list of violations the corrupted artifact
produced; callers check the expected ``kind`` is present.
``run_corruption_suite()`` runs them all and reports detection per
fixture — CI fails if any corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from .abstract import interpret_graph
from .audit import capture_plan
from .placement import analyze_placement, assign_owners
from .report import Violation

__all__ = [
    "corrupt_wrong_owner",
    "corrupt_cross_domain_pivot",
    "corrupt_sweep_range",
    "corrupt_factor_shape",
    "run_corruption_suite",
]


def _solver(algorithm: str = "hybrid", grid: str = "2x2"):
    from ..api.facade import make_solver

    return make_solver(algorithm, tile_size=4, grid=grid)


def corrupt_wrong_owner(algorithm: str = "hybrid") -> List[Violation]:
    """A task scheduled on a rank that does not own its written tile.

    Models a distributed planner bug: owners are assigned correctly, then
    one task is flipped to a different rank.  ``analyze_placement`` must
    report ``wrong-owner`` for exactly that task.
    """
    graph, ctx, dist = capture_plan(_solver(algorithm))
    assign_owners([graph], dist, ctx)
    victim = next(t for t in graph.tasks if t.call is not None and t.writes)
    victim.owner = (victim.owner + 1) % dist.grid.size
    violations, _summary = analyze_placement([graph], dist, ctx)
    return violations


def corrupt_cross_domain_pivot(algorithm: str = "lu_nopiv") -> List[Violation]:
    """A pivot chain spanning two nodes without being panel-wide.

    Rewrites one ``lu.scatter_factor``'s row set to a proper multi-owner
    subset of the panel — pivoting that would require inter-node
    communication without being a declared LUPP exchange.  The diagonal
    -domain invariant check must flag ``cross-domain-pivot``.
    """
    graph, ctx, dist = capture_plan(_solver(algorithm))
    victim = next(
        t
        for t in graph.tasks
        if t.call is not None and t.call.kernel == "lu.scatter_factor"
    )
    k, rows, factor = victim.call.args
    panel = dist.panel_rows(k)
    bad_rows: Tuple[int, ...] = ()
    for candidate in (tuple(panel[:2]), tuple(panel[::2])):
        owners = {dist.owner(i, k) for i in candidate}
        if len(owners) > 1 and list(candidate) != panel:
            bad_rows = candidate
            break
    if not bad_rows:  # pragma: no cover - needs a >1-rank panel
        raise RuntimeError("fixture needs a panel spanning at least two ranks")
    victim.call = dataclasses.replace(victim.call, args=(k, bad_rows, factor))
    assign_owners([graph], dist, ctx)
    violations, _summary = analyze_placement([graph], dist, ctx, check_declared=False)
    return violations


def corrupt_sweep_range(algorithm: str = "lu_nopiv") -> List[Violation]:
    """A GEMM sweep whose row range outruns the matrix.

    Extends one ``lu.gemm_sweep``'s row range by one: its units now
    multiply and update a tile row beyond the matrix edge, which the
    interpreter must report as ``unknown-tile``.
    """
    graph, ctx, dist = capture_plan(_solver(algorithm))
    victim = next(
        t
        for t in graph.tasks
        if t.call is not None and t.call.kernel == "lu.gemm_sweep"
    )
    k, i1, j0, j1 = victim.call.args
    victim.call = dataclasses.replace(victim.call, args=(k, i1 + 1, j0, j1))
    result = interpret_graph(graph, ctx)
    return result.violations


def corrupt_factor_shape(algorithm: str = "lu_nopiv") -> List[Violation]:
    """A scatter task carrying a truncated panel factor.

    Drops the last tile row of one ``lu.scatter_factor``'s LU factor; the
    concrete-shape check (factor rows = len(rows) * nb) must report
    ``shape-mismatch``.
    """
    graph, ctx, dist = capture_plan(_solver(algorithm))
    victim = next(
        t
        for t in graph.tasks
        if t.call is not None and t.call.kernel == "lu.scatter_factor"
    )
    k, rows, factor = victim.call.args
    truncated = dataclasses.replace(factor, lu=factor.lu[: -ctx.nb, :])
    victim.call = dataclasses.replace(victim.call, args=(k, rows, truncated))
    result = interpret_graph(graph, ctx)
    return result.violations


#: Fixture name -> (builder, violation kind that must be present).
_SUITE = {
    "wrong-owner": (corrupt_wrong_owner, "wrong-owner"),
    "cross-domain-pivot": (corrupt_cross_domain_pivot, "cross-domain-pivot"),
    "sweep-range": (corrupt_sweep_range, "unknown-tile"),
    "factor-shape": (corrupt_factor_shape, "shape-mismatch"),
}


def run_corruption_suite() -> Dict[str, Dict[str, Any]]:
    """Run every fixture; report whether its corruption was detected."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, (builder, expected_kind) in _SUITE.items():
        violations = builder()
        kinds = sorted({v.kind for v in violations})
        out[name] = {
            "expected": expected_kind,
            "detected": expected_kind in kinds,
            "kinds": kinds,
            "violations": len(violations),
        }
    return out
