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

import numpy as np

from ..api.registry import register_solver
from ..core.factorization import StepRecord
from ..core.solver_base import Executor, TiledSolverBase
from ..kernels.dispatch import KernelCall
from ..kernels.lu_kernels import LUPanelFactor, apply_swptrsm, factor_panel_lu, factor_tile_lu
from ..runtime.schedule import KernelTask
from ..runtime.task import RHS_COLUMN
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.tile_matrix import TileMatrix

__all__ = ["LUIncPivSolver"]


@register_solver("lu_incpiv", aliases=("incpiv", "luincpiv"))
class LUIncPivSolver(TiledSolverBase):
    """Tiled LU with incremental pairwise pivoting."""

    algorithm = "LU IncPiv"

    def __init__(
        self,
        tile_size: int,
        grid: Optional[ProcessGrid] = None,
        track_growth: bool = True,
        executor: Optional[Executor] = None,
        lookahead: int = 1,
        kernel_backend=None,
    ) -> None:
        super().__init__(
            tile_size=tile_size,
            grid=grid,
            track_growth=track_growth,
            executor=executor,
            lookahead=lookahead,
            kernel_backend=kernel_backend,
        )

    def _plan_step(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> Tuple[StepRecord, List[KernelTask]]:
        record = StepRecord(k=k, kind="LU", decision_overhead=False)
        nb = tiles.nb
        n = tiles.n
        tasks: List[KernelTask] = []
        # Pairwise factors are computed at execution time (they depend on the
        # evolving diagonal tile) and flow to their SSSSM updates through
        # this table; the tile access sets serialize the chain through
        # (k, k) while the updates fan out across trailing columns.
        factors: Dict[object, LUPanelFactor] = {}

        # ---- Factor the diagonal tile (pivoting inside the tile). -------- #
        def do_getrf() -> None:
            factor = factor_tile_lu(tiles.tile(k, k))
            factors["diag"] = factor
            tiles.set_tile(k, k, np.triu(factor.lu))

        # Descriptor keys carrying the pairwise factors along graph edges
        # on the multi-process executor (mirroring the ``factors`` table).
        diag_key = ("incpiv-diag", k)
        tasks.append(
            KernelTask(
                "getrf",
                do_getrf,
                reads=frozenset({(k, k)}),
                writes=frozenset({(k, k)}),
                call=KernelCall("incpiv.getrf", args=(k,), produces=diag_key),
            )
        )
        record.add_kernel("getrf")

        # Apply its transformation to the trailing row k and the RHS.
        for j in range(k + 1, n):
            def do_swptrsm(j=j) -> None:
                tiles.set_tile(k, j, apply_swptrsm(factors["diag"], tiles.tile(k, j)))

            tasks.append(
                KernelTask(
                    "swptrsm",
                    do_swptrsm,
                    reads=frozenset({(k, k), (k, j)}),
                    writes=frozenset({(k, j)}),
                    call=KernelCall(
                        "incpiv.swptrsm", args=(k, j), consumes=(diag_key,)
                    ),
                )
            )
            record.add_kernel("swptrsm")
        if tiles.has_rhs:
            def do_swptrsm_rhs() -> None:
                tiles.rhs_tile(k)[...] = apply_swptrsm(factors["diag"], tiles.rhs_tile(k))

            tasks.append(
                KernelTask(
                    "swptrsm",
                    do_swptrsm_rhs,
                    reads=frozenset({(k, k), (k, RHS_COLUMN)}),
                    writes=frozenset({(k, RHS_COLUMN)}),
                    call=KernelCall(
                        "incpiv.swptrsm_rhs", args=(k,), consumes=(diag_key,)
                    ),
                )
            )
            record.add_kernel("swptrsm")

        # ---- Pairwise elimination of every sub-diagonal panel tile. ------ #
        backend = self.kernel_backend
        sub_rows = list(range(k + 1, n))
        if (
            backend is not None
            and getattr(backend, "fuses", False)
            and len(sub_rows) >= 2
        ):
            return record, self._plan_fused_elimination(
                tiles, k, record, tasks, factors, backend, sub_rows
            )

        for i in range(k + 1, n):
            key = ("pair", i)

            def do_tstrf(i=i, key=key) -> None:
                stacked = np.vstack([np.triu(tiles.tile(k, k)), tiles.tile(i, k)])
                pair = factor_panel_lu(stacked, nb)
                factors[key] = pair
                tiles.set_tile(k, k, np.triu(pair.lu[:nb]))
                tiles.set_tile(i, k, pair.lu[nb:])

            pair_key = ("incpiv-pair", k, i)
            tasks.append(
                KernelTask(
                    "tstrf",  # PLASMA's pairwise panel kernel
                    do_tstrf,
                    reads=frozenset({(k, k), (i, k)}),
                    writes=frozenset({(k, k), (i, k)}),
                    call=KernelCall(
                        "incpiv.tstrf", args=(k, i), produces=pair_key
                    ),
                )
            )
            record.add_kernel("tstrf")

            for j in range(k + 1, n):
                def do_ssssm(i=i, j=j, key=key) -> None:
                    pair = factors[key]
                    l2 = pair.lu[nb:]
                    c = np.vstack([tiles.tile(k, j), tiles.tile(i, j)])
                    c = apply_swptrsm(pair, c)
                    top = c[:nb]
                    bottom = c[nb:] - l2 @ top
                    tiles.set_tile(k, j, top)
                    tiles.set_tile(i, j, bottom)

                tasks.append(
                    KernelTask(
                        "ssssm",
                        do_ssssm,
                        reads=frozenset({(i, k), (k, j), (i, j)}),
                        writes=frozenset({(k, j), (i, j)}),
                        call=KernelCall(
                            "incpiv.ssssm", args=(k, i, j), consumes=(pair_key,)
                        ),
                    )
                )
                record.add_kernel("ssssm")
            if tiles.has_rhs:
                def do_ssssm_rhs(i=i, key=key) -> None:
                    pair = factors[key]
                    l2 = pair.lu[nb:]
                    c = np.vstack([tiles.rhs_tile(k), tiles.rhs_tile(i)])
                    c = apply_swptrsm(pair, c)
                    top = c[:nb]
                    bottom = c[nb:] - l2 @ top
                    tiles.rhs_tile(k)[...] = top
                    tiles.rhs_tile(i)[...] = bottom

                tasks.append(
                    KernelTask(
                        "ssssm_rhs",
                        do_ssssm_rhs,
                        reads=frozenset({(i, k), (k, RHS_COLUMN), (i, RHS_COLUMN)}),
                        writes=frozenset({(k, RHS_COLUMN), (i, RHS_COLUMN)}),
                        call=KernelCall(
                            "incpiv.ssssm_rhs", args=(k, i), consumes=(pair_key,)
                        ),
                    )
                )
                record.add_kernel("ssssm_rhs")
        return record, tasks

    def _plan_fused_elimination(
        self,
        tiles: TileMatrix,
        k: int,
        record: StepRecord,
        tasks: List[KernelTask],
        factors: Dict[object, LUPanelFactor],
        backend,
        sub_rows: List[int],
    ) -> List[KernelTask]:
        """Fused plan for the pairwise eliminations of step ``k``.

        All TSTRF tasks are emitted first, then one SSSSM *chain* task per
        trailing column replays the pairwise updates of that column in
        program order.  This reordering is bit-exact: SSSSM closures read
        the pairwise factor objects (not the panel tile bytes), TSTRF only
        touches panel tiles ``(k, k)``/``(i, k)``, and within each column
        the update order is unchanged.  The chain's reads over the whole
        panel column give it RAW edges from every TSTRF, so the dataflow
        executors never start a chain before its factors exist.
        """
        nb = tiles.nb
        n = tiles.n
        rows_t = tuple(sub_rows)
        m = len(sub_rows)
        inproc_keys = []
        pair_keys = []
        for i in sub_rows:
            key = ("pair", i)
            inproc_keys.append(key)

            def do_tstrf(i=i, key=key) -> None:
                stacked = np.vstack([np.triu(tiles.tile(k, k)), tiles.tile(i, k)])
                pair = factor_panel_lu(stacked, nb)
                factors[key] = pair
                tiles.set_tile(k, k, np.triu(pair.lu[:nb]))
                tiles.set_tile(i, k, pair.lu[nb:])

            pair_key = ("incpiv-pair", k, i)
            pair_keys.append(pair_key)
            tasks.append(
                KernelTask(
                    "tstrf",
                    do_tstrf,
                    reads=frozenset({(k, k), (i, k)}),
                    writes=frozenset({(k, k), (i, k)}),
                    call=KernelCall("incpiv.tstrf", args=(k, i), produces=pair_key),
                )
            )
            record.add_kernel("tstrf")

        panel_reads = frozenset((i, k) for i in sub_rows)
        keys_t = tuple(inproc_keys)
        consumes = tuple(pair_keys)
        bname = backend.descriptor_name
        for j in range(k + 1, n):
            def do_ssssm_chain(j=j) -> None:
                pairs = tuple(factors[key] for key in keys_t)
                backend.incpiv_ssssm_chain(tiles, k, j, rows_t, pairs)

            col = frozenset({(k, j)}) | frozenset((i, j) for i in sub_rows)
            tasks.append(
                KernelTask(
                    "ssssm",
                    do_ssssm_chain,
                    reads=panel_reads | col,
                    writes=col,
                    fused=m,
                    call=KernelCall(
                        "fused.incpiv_ssssm_chain",
                        args=(bname, k, j, rows_t),
                        consumes=consumes,
                    ),
                )
            )
            record.add_kernel("ssssm", m)
        if tiles.has_rhs:
            def do_ssssm_rhs_chain() -> None:
                pairs = tuple(factors[key] for key in keys_t)
                backend.incpiv_ssssm_rhs_chain(tiles, k, rows_t, pairs)

            rhs_col = frozenset({(k, RHS_COLUMN)}) | frozenset(
                (i, RHS_COLUMN) for i in sub_rows
            )
            tasks.append(
                KernelTask(
                    "ssssm_rhs",
                    do_ssssm_rhs_chain,
                    reads=panel_reads | rhs_col,
                    writes=rhs_col,
                    fused=m,
                    call=KernelCall(
                        "fused.incpiv_ssssm_rhs_chain",
                        args=(bname, k, rows_t),
                        consumes=consumes,
                    ),
                )
            )
            record.add_kernel("ssssm_rhs", m)
        return tasks
