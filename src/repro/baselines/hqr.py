"""HQR baseline: hierarchical tiled QR factorization.

The unconditionally stable end of the paper's spectrum: every panel is
eliminated with orthogonal transformations, organised by a two-level
reduction tree (GREEDY inside nodes, FIBONACCI between nodes, the same
configuration as the QR steps of the hybrid algorithm).  Costs twice the
flops of LU and exposes less parallelism in the update, but never grows the
norm of the trailing matrix.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..api.registry import register_solver
from ..core.factorization import StepRecord
from ..core.panel_analysis import PanelAnalysis
from ..core.qr_step import qr_step_tasks
from ..core.solver_base import Executor, TiledSolverBase
from ..runtime.schedule import KernelTask
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.tile_matrix import TileMatrix
from ..trees.base import ReductionTree
from ..trees.fibonacci import FibonacciTree
from ..trees.greedy import GreedyTree
from ..trees.hierarchical import HierarchicalTree

__all__ = ["HQRSolver"]


@register_solver("hqr")
class HQRSolver(TiledSolverBase):
    """Hierarchical tiled QR solver (always stable, twice the flops of LU).

    Parameters
    ----------
    tile_size, grid, track_growth:
        See :class:`~repro.core.solver_base.TiledSolverBase`.
    intra_tree / inter_tree:
        Reduction trees used inside a domain / across domains.
    """

    algorithm = "HQR"
    step_kinds = ("QR",)

    def __init__(
        self,
        tile_size: int,
        grid: Optional[ProcessGrid] = None,
        intra_tree: Optional[ReductionTree] = None,
        inter_tree: Optional[ReductionTree] = None,
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
        self.intra_tree = intra_tree if intra_tree is not None else GreedyTree()
        self.inter_tree = inter_tree if inter_tree is not None else FibonacciTree()

    def plan_kind(
        self,
        tiles: TileMatrix,
        dist: BlockCyclicDistribution,
        k: int,
        kind: str,
        analysis: Optional[PanelAnalysis] = None,
    ) -> Tuple[StepRecord, List[KernelTask]]:
        record = StepRecord(k=k, kind="QR", decision_overhead=False)
        tree = HierarchicalTree(
            distribution=dist,
            intra_tree=self.intra_tree,
            inter_tree=self.inter_tree,
            step=k,
        )
        elims = tree.eliminations_for_step(k, list(range(k, tiles.n)))
        return record, qr_step_tasks(tiles, k, elims, record)
