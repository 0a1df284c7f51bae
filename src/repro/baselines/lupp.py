"""LUPP baseline: LU with partial pivoting across the whole panel.

This is the reference algorithm for stability in the paper (the ScaLAPACK
implementation, called LUPP / PDGETRF there).  At every step the pivot
search spans *every* tile of the elimination panel, which requires
panel-wide communication and synchronization on a distributed platform —
the very overhead the hybrid algorithm avoids — but yields the well-known
practical stability of GEPP.

Numerically this is the hybrid LU step with the diagonal domain extended to
the full panel; the performance model charges the panel-wide pivot search
and the row exchanges that the real algorithm needs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..api.registry import register_solver
from ..core.factorization import StepRecord
from ..core.lu_step import lu_step_tasks
from ..core.panel_analysis import PanelAnalysis, analyze_panel, planned_panel
from ..core.solver_base import TiledSolverBase
from ..runtime.schedule import KernelTask
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.tile_matrix import TileMatrix

__all__ = ["LUPPSolver"]


@register_solver("lupp")
class LUPPSolver(TiledSolverBase):
    """Tiled LU with partial pivoting over the entire elimination panel."""

    algorithm = "LUPP"

    def _panel_analysis(self, tiles, dist, k):
        return analyze_panel(tiles, self._full_panel(tiles), k, domain_pivoting=True)

    def plan_kind(
        self,
        tiles: TileMatrix,
        dist: BlockCyclicDistribution,
        k: int,
        kind: str,
        analysis: Optional[PanelAnalysis] = None,
    ) -> Tuple[StepRecord, List[KernelTask]]:
        if analysis is None:
            analysis = planned_panel(self._full_panel(tiles), k)
        record = StepRecord(k=k, kind="LU", decision_overhead=False)
        record.domain_rows = analysis.domain_rows
        record.add_kernel("panel_pivot_exchange")
        return record, lu_step_tasks(tiles, k, analysis, record)

    @staticmethod
    def _full_panel(tiles) -> BlockCyclicDistribution:
        """A single-process distribution: its "diagonal domain" is the whole
        panel, exactly the panel-wide pivot search of LUPP."""
        return BlockCyclicDistribution(ProcessGrid(1, 1), tiles.n)
