"""Seeded corruption fixtures for the placement analysis.

Each fixture takes a *real* emitted plan, corrupts it in one specific,
realistic way (a mis-placed task, a pivot chain escaping its domain), and
asserts the analyzer flags it.  They serve two purposes: regression tests
that the analysis has teeth, and executable documentation of what each
violation kind means.

Every fixture returns the list of violations the corrupted artifact
produced; callers check the expected ``kind`` is present.
``run_corruption_suite()`` runs them all and reports detection per
fixture — CI fails if any corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from .audit import capture_plan
from .placement import analyze_placement, assign_owners
from .report import Violation

__all__ = [
    "corrupt_wrong_owner",
    "corrupt_cross_domain_pivot",
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


#: Fixture name -> (builder, violation kind that must be present).
_SUITE = {
    "wrong-owner": (corrupt_wrong_owner, "wrong-owner"),
    "cross-domain-pivot": (corrupt_cross_domain_pivot, "cross-domain-pivot"),
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
