"""The hybrid LU-QR solver (Algorithm 1 of the paper).

At every panel the solver:

1. **Backs up** the panel tiles of the diagonal domain (so a QR step can
   start from pristine data),
2. **Factors** the diagonal domain with LU and partial pivoting and gathers
   the criterion data (tile norms, per-column maxima, pivots) — the
   "LU ON PANEL" stage of Figure 1,
3. **Checks** the robustness criterion (conceptually after an all-reduce of
   the panel information across the nodes hosting panel tiles),
4. Performs an **LU step** (variant A1, reusing the domain factorization)
   when the criterion accepts, or discards the factorization, restores the
   panel and performs a **QR step** (hierarchical tiled QR) otherwise.

The decision and the per-step kernel activity are recorded in
:class:`~repro.core.factorization.StepRecord` objects so the performance
model can replay the run on a simulated platform, including the
backup/restore overhead of the decision-making process (measured at ~10%
in the paper, Section V-B).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..api.registry import register_solver
from ..criteria.base import RobustnessCriterion
from ..criteria.max_criterion import MaxCriterion
from ..runtime.schedule import KernelTask
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.tile_matrix import TileMatrix
from ..trees.base import ReductionTree
from ..trees.fibonacci import FibonacciTree
from ..trees.greedy import GreedyTree
from ..trees.hierarchical import HierarchicalTree
from .factorization import StepRecord
from .lu_step import lu_step_tasks
from .panel_analysis import PanelAnalysis, analyze_panel, planned_panel
from .qr_step import qr_step_tasks
from .solver_base import Executor, TiledSolverBase

__all__ = ["HybridLUQRSolver"]


@register_solver("hybrid", aliases=("luqr", "lu-qr"))
class HybridLUQRSolver(TiledSolverBase):
    """Dense solver that dynamically mixes LU and QR elimination steps.

    Parameters
    ----------
    tile_size:
        Tile order ``nb``.
    criterion:
        Robustness criterion deciding between LU and QR at every step
        (default: :class:`~repro.criteria.MaxCriterion` with ``alpha = 1``).
    grid:
        Virtual process grid (2D block-cyclic distribution).  The grid both
        defines the diagonal domains used for local pivoting and drives the
        performance model.
    intra_tree / inter_tree:
        Reduction trees used by QR steps inside a domain and across domains
        (defaults: GREEDY inside, FIBONACCI across — the paper's choice).
    domain_pivoting:
        Search LU pivots across the whole diagonal domain (True, the
        paper's experimental variant) or only inside the diagonal tile.
    executor:
        Optional dataflow executor for the numerical kernels; the per-step
        decision stays sequential but the selected branch's kernels fan
        out (see :class:`~repro.core.solver_base.TiledSolverBase`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import HybridLUQRSolver, MaxCriterion
    >>> rng = np.random.default_rng(0)
    >>> a = rng.standard_normal((64, 64)); b = rng.standard_normal(64)
    >>> solver = HybridLUQRSolver(tile_size=8, criterion=MaxCriterion(alpha=100.0))
    >>> result = solver.solve(a, b)
    >>> bool(result.hpl3 < 50)
    True
    """

    algorithm = "LUQR"
    step_kinds = ("LU", "QR")

    def __init__(
        self,
        tile_size: int,
        criterion: Optional[RobustnessCriterion] = None,
        grid: Optional[ProcessGrid] = None,
        intra_tree: Optional[ReductionTree] = None,
        inter_tree: Optional[ReductionTree] = None,
        domain_pivoting: bool = True,
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
        self.criterion = criterion if criterion is not None else MaxCriterion(alpha=1.0)
        self.intra_tree = intra_tree if intra_tree is not None else GreedyTree()
        self.inter_tree = inter_tree if inter_tree is not None else FibonacciTree()
        self.domain_pivoting = bool(domain_pivoting)

    # ------------------------------------------------------------------ #
    # TiledSolverBase hooks
    # ------------------------------------------------------------------ #
    def _criterion_name(self) -> Optional[str]:
        return self.criterion.name

    def _alpha(self) -> Optional[float]:
        return getattr(self.criterion, "alpha", None)

    def _reset(self) -> None:
        self.criterion.reset()

    def _plan_step(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> Tuple[StepRecord, List[KernelTask]]:
        # LU ON PANEL (Figure 1): factor the diagonal domain, gather the
        # criterion data and decide.  The tiles are never overwritten before
        # the decision, so the panel backup is bookkeeping only here.
        analysis = analyze_panel(tiles, dist, k, domain_pivoting=self.domain_pivoting)
        decision = self.criterion.evaluate(analysis.info)
        # A singular diagonal domain cannot be used for an LU step no matter
        # what the criterion says (there is no factorization to reuse).
        use_lu = decision.use_lu and not analysis.singular
        record, tasks = self.plan_kind(tiles, dist, k, "LU" if use_lu else "QR", analysis)
        record.decision = decision
        return record, tasks

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
        record = StepRecord(k=k, kind=kind, decision_overhead=True)
        record.domain_rows = analysis.domain_rows
        record.add_kernel("panel_backup")
        record.add_kernel("criterion_allreduce")
        if kind == "LU":
            return record, lu_step_tasks(tiles, k, analysis, record)
        # The domain factorization is discarded and the panel restored
        # (Figure 1, PROPAGATE): charge the wasted factorization and the
        # restore, then run the hierarchical QR step on pristine tiles.
        record.add_kernel("getrf_discarded")
        record.add_kernel("panel_restore")
        tree = HierarchicalTree(
            distribution=dist,
            intra_tree=self.intra_tree,
            inter_tree=self.inter_tree,
            step=k,
        )
        elims = tree.eliminations_for_step(k, list(range(k, tiles.n)))
        return record, qr_step_tasks(tiles, k, elims, record)
