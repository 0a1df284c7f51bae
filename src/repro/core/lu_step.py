"""The LU elimination step (variant A1, with diagonal-domain pivoting).

This implements Algorithm 2 of the paper in its experimental variant: the
panel tiles of the *diagonal domain* are factored together with partial
pivoting (the pivot search never leaves the node owning the diagonal tile),
the resulting row permutation is applied to the trailing columns of the
domain rows, the remaining panel tiles are eliminated with TRSM against
``U_kk``, and the trailing sub-matrix receives the embarrassingly parallel
GEMM update ``A_ij <- A_ij - A_ik A_kj``.

The attached right-hand side is updated exactly like an extra trailing
column, so the factorization directly produces the transformed ``b``.

The step is *planned* rather than executed: :func:`lu_step_tasks` emits the
ordered list of :class:`~repro.runtime.schedule.KernelTask` objects, each
built from its kernel descriptor (whose op's access rule gives the tile
read/write sets), so the same plan can run inline (the sequential
reference, :func:`perform_lu_step`) or fan out on a dataflow executor.  The
panel kernels are one task per tile; the trailing update is one SWPTRSM and
one GEMM per column range (:func:`~repro.kernels.dispatch.sweep_ranges`:
the next two panel columns, then the bulk block) plus one of each for the
right-hand side.  A range's GEMM is a single BLAS call over block views
(the README records where its bits match those of per-tile products).
"""

from __future__ import annotations

from typing import List

from ..kernels.dispatch import KernelCall, sweep_ranges
from ..linalg.pivoting import SingularPanelError
from ..runtime.schedule import KernelTask, call_task
from ..tiles.tile_matrix import TileMatrix
from .factorization import StepRecord
from .panel_analysis import PLANNED_FACTOR, PanelAnalysis

__all__ = ["perform_lu_step", "lu_step_tasks"]


def lu_step_tasks(
    tiles: TileMatrix,
    k: int,
    analysis: PanelAnalysis,
    record: StepRecord,
) -> List[KernelTask]:
    """Plan one LU step (variant A1) as a list of kernel tasks.

    ``analysis`` must come from :func:`repro.core.panel_analysis.analyze_panel`
    for the same ``tiles`` and ``k``; its domain factorization is reused (it
    is *not* recomputed), exactly as in the paper where the factorization
    performed for the criterion check becomes the factorization of the step
    when the LU branch is selected.  The pre-computed factor (a picklable
    :class:`~repro.kernels.lu_kernels.LUPanelFactor`) travels in the task
    descriptors, so the plan also runs on worker processes.

    ``record`` receives the Table-I kernel counts at planning time (one per
    logical tile kernel, however the kernels are batched into tasks).
    """
    if analysis.factor is None:
        raise SingularPanelError(
            f"diagonal domain of panel {k} is singular; an LU step is impossible"
        )
    n = tiles.n
    m = n - k - 1
    rows = tuple(analysis.domain_rows)
    factor = analysis.factor
    if factor is not PLANNED_FACTOR:
        factor.moves  # built here, on the host, before the concurrent SWPTRSMs read it
    ranges = sweep_ranges(k, n)

    # Factor: write the packed domain factorization into the panel tiles.
    # The diagonal tile receives L1\U, the other domain tiles their L blocks
    # (which are exactly the Schur multipliers of those rows).
    tasks = [call_task("getrf", tiles, KernelCall("lu.scatter_factor", args=(k, rows, factor)), k)]

    # Apply (SWPTRSM): permute the domain rows of the trailing columns (and
    # of the RHS) with the panel pivots and solve the unit-lower system on
    # the new row k, A_kj <- L1^{-1} P A_kj — in place, on a view of the
    # domain rows (strided under a p > 1 grid).
    for j0, j1 in ranges:
        call = KernelCall("lu.swptrsm", args=(j0, j1, rows, factor))
        tasks.append(call_task("swptrsm", tiles, call, k, mix=(("swptrsm", j1 - j0),)))
    if tiles.has_rhs:
        call = KernelCall("lu.swptrsm_rhs", args=(rows, factor))
        tasks.append(call_task("swptrsm", tiles, call, k))

    # Eliminate (TRSM): panel tiles outside the diagonal domain become the
    # Schur multipliers A_ik U_kk^{-1}.  (Domain tiles below the diagonal
    # already hold their multipliers from the packed factorization.)
    domain = set(rows)
    for i in range(k + 1, n):
        if i not in domain:
            tasks.append(call_task("trsm", tiles, KernelCall("lu.trsm", args=(i, k, factor)), k))

    # Update (GEMM): A_ij <- A_ij - A_ik A_kj over each column range in one
    # product of block views, then the same update of the RHS.
    for j0, j1 in ranges:
        call = KernelCall("lu.gemm_sweep", args=(k, n, j0, j1))
        tasks.append(call_task("gemm", tiles, call, k, mix=(("gemm", m * (j1 - j0)),)))
    if tiles.has_rhs and m:
        call = KernelCall("lu.gemm_sweep_rhs", args=(k, n))
        tasks.append(call_task("gemm_rhs", tiles, call, k, mix=(("gemm_rhs", m),)))

    # Table I charges one TRSM per sub-diagonal panel tile regardless of
    # which node performs it: the domain rows' TRSMs are part of the domain
    # factorization, so they have no task of their own.
    record.add_kernel("trsm", len(rows) - 1)
    record.add_tasks(tasks)
    return tasks


def perform_lu_step(
    tiles: TileMatrix,
    k: int,
    analysis: PanelAnalysis,
    record: StepRecord,
) -> None:
    """Apply one LU step (variant A1) in place, using a pre-factored panel.

    Sequential reference driver: plans the step with :func:`lu_step_tasks`
    and runs the kernels in program order.
    """
    for task in lu_step_tasks(tiles, k, analysis, record):
        task.fn()
