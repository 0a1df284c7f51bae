"""LU NoPiv baseline: pivoting inside the diagonal tile only.

"LU NoPiv performs pivoting only inside the diagonal tile but no pivoting
across tiles (known to be both efficient and unstable)" (Section V-B).
Every step is an LU step of variant A1 with the pivot search restricted to
the diagonal tile; nothing is ever checked, so there is no decision-making
overhead.  The factorization breaks down (raising through the
``Factorization.breakdown`` field) when a diagonal tile is singular —
exactly the failure the paper reports on the ``fiedler`` matrix.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..api.registry import register_solver
from ..core.factorization import StepRecord
from ..core.lu_step import lu_step_tasks
from ..core.panel_analysis import PanelAnalysis, analyze_panel, planned_panel
from ..core.solver_base import Executor, TiledSolverBase
from ..runtime.schedule import KernelTask
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.tile_matrix import TileMatrix

__all__ = ["LUNoPivSolver"]


@register_solver("lu_nopiv", aliases=("nopiv", "lunopiv"))
class LUNoPivSolver(TiledSolverBase):
    """Tiled LU without inter-tile pivoting (fast, conditionally stable).

    Parameters
    ----------
    tile_size, grid, track_growth:
        See :class:`~repro.core.solver_base.TiledSolverBase`.
    domain_pivoting:
        When True the pivot search covers the diagonal *domain* rather than
        the diagonal tile, which is the behaviour of the hybrid algorithm
        with ``alpha = inf``; the plain LU NoPiv baseline of the paper uses
        False (diagonal tile only).
    """

    algorithm = "LU NoPiv"

    def __init__(
        self,
        tile_size: int,
        grid: Optional[ProcessGrid] = None,
        domain_pivoting: bool = False,
        track_growth: bool = True,
        executor: Optional[Executor] = None,
        kernel_backend=None,
    ) -> None:
        super().__init__(
            tile_size=tile_size,
            grid=grid,
            track_growth=track_growth,
            executor=executor,
            kernel_backend=kernel_backend,
        )
        self.domain_pivoting = bool(domain_pivoting)

    def _panel_analysis(self, tiles, dist, k):
        return analyze_panel(tiles, dist, k, domain_pivoting=self.domain_pivoting)

    def plan_kind(
        self,
        tiles: TileMatrix,
        dist: BlockCyclicDistribution,
        k: int,
        kind: str,
        analysis: Optional[PanelAnalysis] = None,
    ) -> Tuple[StepRecord, List[KernelTask]]:
        if analysis is None:
            analysis = planned_panel(dist, k, self.domain_pivoting)
        record = StepRecord(k=k, kind="LU", decision_overhead=False)
        record.domain_rows = analysis.domain_rows
        return record, lu_step_tasks(tiles, k, analysis, record)
