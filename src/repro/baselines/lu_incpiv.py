"""LU IncPiv baseline: incremental (pairwise) pivoting.

"LU IncPiv performs incremental pairwise pivoting across all tiles in the
elimination panel (still efficient but not stable either)" (Section V-B,
after Buttari et al. and Quintana-Orti et al.).  The diagonal tile is
factored first; then each sub-diagonal tile of the panel is eliminated by a
*pairwise* LU factorization of the current (triangular) diagonal tile
stacked on top of it, with pivoting restricted to those ``2 nb`` rows.  The
trailing tiles of the two rows involved are updated after every pairwise
elimination (the SSSSM kernel of PLASMA).

Stability degrades as the number of tiles grows because the pairwise
eliminations compound growth — the behaviour Figure 2 shows for LU IncPiv.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..api.registry import register_solver
from ..core.factorization import StepRecord
from ..core.panel_analysis import PanelAnalysis
from ..core.solver_base import TiledSolverBase
from ..kernels.dispatch import KernelCall, sweep_ranges
from ..kernels.lu_kernels import LUPanelFactor
from ..runtime.schedule import KernelTask, call_task
from ..tiles.distribution import BlockCyclicDistribution
from ..tiles.tile_matrix import TileMatrix

__all__ = ["LUIncPivSolver"]


@register_solver("lu_incpiv", aliases=("incpiv", "luincpiv"))
class LUIncPivSolver(TiledSolverBase):
    """Tiled LU with incremental pairwise pivoting."""

    algorithm = "LU IncPiv"

    def plan_kind(
        self,
        tiles: TileMatrix,
        dist: BlockCyclicDistribution,
        k: int,
        kind: str,
        analysis: Optional[PanelAnalysis] = None,
    ) -> Tuple[StepRecord, List[KernelTask]]:
        record = StepRecord(k=k, kind="LU", decision_overhead=False)
        n = tiles.n
        m = n - k - 1
        ranges = sweep_ranges(k, n)
        # Pairwise factors are computed at execution time (they depend on the
        # evolving diagonal tile) and flow to the SSSSM chains through this
        # table, keyed like the descriptors' produces/consumes edges; the
        # tile access sets serialize the TSTRF chain through (k, k).
        products: Dict[object, LUPanelFactor] = {}
        rows = tuple(range(k + 1, n))

        # ---- Factor the diagonal tile (pivoting inside the tile). -------- #
        diag_key = ("incpiv-diag", k)
        call = KernelCall("incpiv.getrf", args=(k,), produces=diag_key)
        tasks = [call_task("getrf", tiles, call, k, products)]

        # Apply its transformation to the trailing row k and the RHS.
        for j0, j1 in ranges:
            call = KernelCall("incpiv.swptrsm", args=(k, j0, j1), consumes=(diag_key,))
            tasks.append(call_task("swptrsm", tiles, call, k, products, (("swptrsm", j1 - j0),)))
        if tiles.has_rhs:
            call = KernelCall("incpiv.swptrsm_rhs", args=(k,), consumes=(diag_key,))
            tasks.append(call_task("swptrsm", tiles, call, k, products))

        # ---- Pairwise elimination of every sub-diagonal panel tile. ------ #
        # PLASMA's TSTRF per tile, then the SSSSM updates of all pairs as one
        # chain per column range: a column sees the pairs in the same order
        # as under a per-tile plan, and no TSTRF reads a trailing tile.
        pair_keys = tuple(("incpiv-pair", k, i) for i in rows)
        for i, key in zip(rows, pair_keys):
            call = KernelCall("incpiv.tstrf", args=(k, i), produces=key)
            tasks.append(call_task("tstrf", tiles, call, k, products))

        for j0, j1 in ranges:
            call = KernelCall(
                "incpiv.ssssm_sweep", args=(k, j0, j1, rows), consumes=pair_keys
            )
            tasks.append(call_task("ssssm", tiles, call, k, products, (("ssssm", m * (j1 - j0)),)))
        if tiles.has_rhs and m:
            call = KernelCall("incpiv.ssssm_sweep_rhs", args=(k, rows), consumes=pair_keys)
            tasks.append(call_task("ssssm_rhs", tiles, call, k, products, (("ssssm_rhs", m),)))
        record.add_tasks(tasks)
        return record, tasks
