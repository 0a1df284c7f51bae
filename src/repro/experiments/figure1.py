"""Figure 1 — dataflow of one elimination step of the hybrid algorithm.

Figure 1 of the paper is a diagram of the per-step dataflow that the
PaRSEC extension executes: BACKUP PANEL tasks feed LU ON PANEL tasks, the
criterion decision is all-reduced, PROPAGATE tasks gate the two potential
branches (the LU step and the QR step), and the unselected branch is
discarded.  This harness takes one step of the hybrid's task graph
(:func:`repro.perf.model.plan_graph`, the graph the performance model
prices) once with the step planned as an LU step and once as a QR step,
and prints:

* the number of tasks per control kernel and per branch,
* the size of the two branches and of the graph for both outcomes,
* a textual edge listing (a DOT-like description) of the step.

Both outcomes share the control tasks up to the decision; the LU branch
starts with the propagate of the reused panel factor, the QR branch with
the restore of the panel.

Run with ``python -m repro.experiments.figure1``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..perf.model import FactorizationSpec, plan_graph
from ..runtime.task import Task
from ..tiles.distribution import ProcessGrid
from .common import format_table

__all__ = ["figure1_summary", "dataflow_edges", "main"]


def _step_outcomes(
    n_tiles: int, tile_size: int, grid: Optional[ProcessGrid], step: int
) -> Tuple[Dict[str, List[Task]], Set[int]]:
    """Tasks of hybrid step ``step`` planned as an LU and as a QR step, and
    the uids of the control tasks both outcomes share (the steps before are
    LU steps in both graphs, so those uids agree)."""
    outcomes = {}
    for kind in ("LU", "QR"):
        kinds = ["LU"] * n_tiles
        kinds[step] = kind
        spec = FactorizationSpec(
            n_tiles, tile_size, kinds, "LUQR", True, grid if grid else ProcessGrid(2, 2)
        )
        outcomes[kind] = [t for t in plan_graph(spec).tasks if t.step == step]
    return outcomes, {t.uid for t in outcomes["LU"] if t.critical}


def figure1_summary(
    n_tiles: int = 8,
    tile_size: int = 8,
    grid: Optional[ProcessGrid] = None,
    step: int = 0,
) -> Dict[str, object]:
    """Task counts of the per-step dataflow and of both outcomes."""
    outcomes, shared = _step_outcomes(n_tiles, tile_size, grid, step)
    # A branch is what only its outcome runs: the LU branch starts with the
    # propagate of the reused factor, the QR branch with the restore.
    lu_branch = [t for t in outcomes["LU"] if t.uid not in shared]
    qr_branch = [t for t in outcomes["QR"] if t.uid not in shared]
    stages = Counter(t.kernel for t in outcomes["QR"] if t.critical)
    stages.update(lu_step=len(lu_branch), qr_step=len(qr_branch) - stages["panel_restore"])
    return {
        "n_tiles": n_tiles,
        "step": step,
        "stage_task_counts": dict(stages),
        "total_tasks_in_graph": len(shared) + len(lu_branch) + len(qr_branch),
        "lu_branch_tasks": len(lu_branch),
        "qr_branch_tasks": len(qr_branch),
        "control_tasks": len(shared),
        "tasks_if_lu_selected": len(outcomes["LU"]),
        "tasks_if_qr_selected": len(outcomes["QR"]),
    }


def dataflow_edges(
    n_tiles: int = 4,
    tile_size: int = 8,
    grid: Optional[ProcessGrid] = None,
    step: int = 0,
    max_edges: int = 200,
) -> List[str]:
    """A DOT-like edge list ``"task_a -> task_b"`` of the step's dataflow.

    Branch tasks are prefixed with their outcome (``LU:``/``QR:``); the
    shared control tasks are listed once.
    """
    outcomes, shared = _step_outcomes(n_tiles, tile_size, grid, step)
    edges: List[str] = []
    for kind, tasks in outcomes.items():
        by_uid = {t.uid: t for t in tasks}
        label = {
            t.uid: f"{'' if t.uid in shared else kind + ':'}{t.kernel}#{t.uid}" for t in tasks
        }
        for task in tasks:
            if kind == "LU" or task.uid not in shared:
                edges += [f"{label[d]} -> {label[task.uid]}" for d in sorted(task.deps) if d in by_uid]
    return edges[:max_edges]


def main() -> None:  # pragma: no cover - CLI entry point
    summary = figure1_summary()
    print("Figure 1 — dataflow of one elimination step (both outcomes)")
    rows = [{"quantity": key, "value": str(val)} for key, val in summary.items()]
    print(format_table(rows, ["quantity", "value"]))
    print("\nStep edges (4-tile example):")
    for edge in dataflow_edges(n_tiles=4, max_edges=60):
        print(f"  {edge}")


if __name__ == "__main__":  # pragma: no cover
    main()
