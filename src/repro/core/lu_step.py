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
ordered list of :class:`~repro.runtime.schedule.KernelTask` closures with
their tile read/write sets, so the same plan can run inline (the sequential
reference, :func:`perform_lu_step`) or fan out on a dataflow executor with
dependencies inferred exactly as the DAG builder infers them for the
performance simulation.
"""

from __future__ import annotations

from typing import List

from ..kernels.dispatch import KernelCall
from ..kernels.lu_kernels import eliminate_trsm, stacked_row_index, swptrsm_inplace
from ..linalg.pivoting import SingularPanelError
from ..runtime.schedule import KernelTask
from ..runtime.task import RHS_COLUMN
from ..tiles.tile_matrix import TileMatrix
from .factorization import StepRecord
from .panel_analysis import PanelAnalysis

__all__ = ["perform_lu_step", "lu_step_tasks"]


def lu_step_tasks(
    tiles: TileMatrix,
    k: int,
    analysis: PanelAnalysis,
    record: StepRecord,
    backend=None,
) -> List[KernelTask]:
    """Plan one LU step (variant A1) as a list of kernel tasks.

    ``analysis`` must come from :func:`repro.core.panel_analysis.analyze_panel`
    for the same ``tiles`` and ``k``; its domain factorization is reused (it
    is *not* recomputed), exactly as in the paper where the factorization
    performed for the criterion check becomes the factorization of the step
    when the LU branch is selected.

    ``record`` receives the kernel counts at planning time (they describe
    the step regardless of how it is executed).  Closures read tile state
    lazily, so the returned tasks are valid for sequential execution in
    program order and for dataflow execution under the superscalar
    dependency rules.

    ``backend`` (a :class:`~repro.kernels.backends.KernelBackend`) controls
    the trailing-update plan: a fusing backend collapses each trailing
    column's GEMM sweep into one stacked-GEMM task (``fused`` tasks carry
    the logical kernel count); ``None`` or the ``numpy`` reference keeps
    the bit-exact one-task-per-tile plan.
    """
    if analysis.factor is None:
        raise SingularPanelError(
            f"diagonal domain of panel {k} is singular; an LU step is impossible"
        )
    nb = tiles.nb
    n = tiles.n
    domain_rows: List[int] = analysis.domain_rows
    factor = analysis.factor
    domain_set = set(domain_rows)
    panel_refs = frozenset((i, k) for i in domain_rows)
    tasks: List[KernelTask] = []

    # ------------------------------------------------------------------ #
    # Factor: write the packed domain factorization into the panel tiles.
    # The diagonal tile receives L1\U, the other domain tiles receive their
    # L blocks (which are exactly the Schur multipliers of those rows).
    # ------------------------------------------------------------------ #
    def do_factor() -> None:
        tiles.scatter_panel(k, domain_rows, factor.lu)

    # Descriptor forms ship the pre-computed domain factorization (a
    # picklable LUPanelFactor) with every task that uses it, so the plan
    # can also run on the multi-process executor.
    rows_t = tuple(domain_rows)
    tasks.append(
        KernelTask(
            "getrf",
            do_factor,
            reads=panel_refs,
            writes=panel_refs,
            call=KernelCall("lu.scatter_factor", args=(k, rows_t, factor)),
        )
    )
    record.add_kernel("getrf")

    # ------------------------------------------------------------------ #
    # Apply (SWPTRSM): for each trailing column (and the RHS), permute the
    # domain rows with the panel pivots and solve the unit-lower system on
    # the new row k:  A_kj <- L1^{-1} P A_kj.  In place on a view of the
    # tile column: only the rows the pivots move are gathered (the domain
    # rows are strided under a p > 1 grid, hence matrix row indices).
    # ------------------------------------------------------------------ #
    row_index = stacked_row_index(domain_rows, nb)
    for j in range(k + 1, n):
        def do_apply(j=j) -> None:
            swptrsm_inplace(factor, tiles.column_rows(j, domain_rows), row_index)

        col_refs = frozenset((i, j) for i in domain_rows)
        tasks.append(
            KernelTask(
                "swptrsm",
                do_apply,
                reads=panel_refs | col_refs,
                writes=col_refs,
                call=KernelCall("lu.swptrsm", args=(j, rows_t, factor)),
            )
        )
        record.add_kernel("swptrsm")

    if tiles.has_rhs:
        def do_apply_rhs() -> None:
            swptrsm_inplace(factor, tiles.rhs_rows(domain_rows), row_index)

        rhs_refs = frozenset((i, RHS_COLUMN) for i in domain_rows)
        tasks.append(
            KernelTask(
                "swptrsm",
                do_apply_rhs,
                reads=panel_refs | rhs_refs,
                writes=rhs_refs,
                call=KernelCall("lu.swptrsm_rhs", args=(rows_t, factor)),
            )
        )
        record.add_kernel("swptrsm")

    # ------------------------------------------------------------------ #
    # Eliminate (TRSM): panel tiles outside the diagonal domain become the
    # Schur multipliers A_ik U_kk^{-1}.  (Domain tiles below the diagonal
    # already hold their multipliers from the packed factorization.)
    # ------------------------------------------------------------------ #
    for i in (i for i in range(k + 1, n) if i not in domain_set):
        def do_eliminate(i=i) -> None:
            tile = tiles.tile(i, k)
            tile[...] = eliminate_trsm(factor, tile)

        tasks.append(
            KernelTask(
                "trsm",
                do_eliminate,
                reads=frozenset({(k, k), (i, k)}),
                writes=frozenset({(i, k)}),
                call=KernelCall("lu.trsm", args=(i, k, factor)),
            )
        )
    # Table I charges one TRSM per sub-diagonal panel tile regardless of
    # which node performs it.
    record.add_kernel("trsm", max(n - k - 1, 0))

    # ------------------------------------------------------------------ #
    # Update (GEMM): A_ij <- A_ij - A_ik A_kj for every trailing tile, plus
    # the same update of the RHS tiles.  A fusing backend collapses each
    # trailing column into one stacked GEMM over contiguous block views:
    # the sweep's tile rows are contiguous (k+1..n-1), so the whole column
    # update is a single (m*nb, nb) x (nb, nb) product — mathematically
    # identical to the per-tile loop, one dispatch instead of m.
    # ------------------------------------------------------------------ #
    m = n - k - 1
    if backend is not None and getattr(backend, "fuses", False) and m >= 2:
        i0, i1 = k + 1, n
        sweep_panel = frozenset((i, k) for i in range(i0, i1))
        for j in range(k + 1, n):
            def do_update_col(j=j) -> None:
                backend.lu_gemm_sweep(tiles, k, j, i0, i1)

            col_refs = frozenset((i, j) for i in range(i0, i1))
            tasks.append(
                KernelTask(
                    "gemm",
                    do_update_col,
                    reads=sweep_panel | frozenset({(k, j)}) | col_refs,
                    writes=col_refs,
                    fused=m,
                    call=KernelCall(
                        "fused.lu_gemm_sweep", args=(backend.descriptor_name, k, j, i0, i1)
                    ),
                )
            )
            record.add_kernel("gemm", m)
        if tiles.has_rhs:
            def do_update_rhs_sweep() -> None:
                backend.lu_gemm_rhs_sweep(tiles, k, i0, i1)

            rhs_refs = frozenset((i, RHS_COLUMN) for i in range(i0, i1))
            tasks.append(
                KernelTask(
                    "gemm_rhs",
                    do_update_rhs_sweep,
                    reads=sweep_panel | frozenset({(k, RHS_COLUMN)}) | rhs_refs,
                    writes=rhs_refs,
                    fused=m,
                    call=KernelCall(
                        "fused.lu_gemm_rhs_sweep", args=(backend.descriptor_name, k, i0, i1)
                    ),
                )
            )
            record.add_kernel("gemm_rhs", m)
        return tasks

    for i in range(k + 1, n):
        for j in range(k + 1, n):
            def do_update(i=i, j=j) -> None:
                tiles.tile(i, j)[...] -= tiles.tile(i, k) @ tiles.tile(k, j)

            tasks.append(
                KernelTask(
                    "gemm",
                    do_update,
                    reads=frozenset({(i, k), (k, j), (i, j)}),
                    writes=frozenset({(i, j)}),
                    call=KernelCall("lu.gemm", args=(i, j, k)),
                )
            )
            record.add_kernel("gemm")
        if tiles.has_rhs:
            def do_update_rhs(i=i) -> None:
                tiles.rhs_tile(i)[...] -= tiles.tile(i, k) @ tiles.rhs_tile(k)

            tasks.append(
                KernelTask(
                    "gemm_rhs",
                    do_update_rhs,
                    reads=frozenset({(i, k), (k, RHS_COLUMN), (i, RHS_COLUMN)}),
                    writes=frozenset({(i, RHS_COLUMN)}),
                    call=KernelCall("lu.gemm_rhs", args=(i, k)),
                )
            )
            record.add_kernel("gemm_rhs")
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
