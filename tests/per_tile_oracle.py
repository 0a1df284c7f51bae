"""Per-tile trailing-update plan: the oracle the sweep plan is checked against.

Before the trailing update became one sweep per column range, every step
ran one closure per tile kernel: a SWPTRSM per trailing column, a GEMM per
trailing tile, an UNMQR/TSMQR/TTMQR per trailing tile in elimination order,
an SSSSM per (pair, column).  This module keeps that plan, closures only,
so the tests can run any solver under it (:func:`per_tile_plan`) and
compare factors, right-hand side and Table-I kernel counts bit for bit.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, List

import numpy as np

import repro.baselines.hqr
import repro.baselines.lu_nopiv
import repro.baselines.lupp
import repro.core.hybrid
from repro.baselines.lu_incpiv import LUIncPivSolver
from repro.core.factorization import StepRecord
from repro.kernels.lu_kernels import (
    apply_swptrsm,
    eliminate_trsm,
    factor_panel_lu,
    factor_tile_lu,
    stacked_row_index,
    swptrsm_inplace,
)
from repro.kernels.qr_kernels import geqrt_tile, tsmqr, tsqrt, ttmqr, ttqrt, unmqr
from repro.linalg.pivoting import SingularPanelError
from repro.runtime.schedule import KernelTask
from repro.trees.base import validate_eliminations


def _tasks(fns: List[Callable[[], None]]) -> List[KernelTask]:
    return [KernelTask("per_tile", fn) for fn in fns]


def lu_step_tasks(tiles, k, analysis, record: StepRecord) -> List[KernelTask]:
    if analysis.factor is None:
        raise SingularPanelError(f"diagonal domain of panel {k} is singular")
    nb, n = tiles.nb, tiles.n
    rows, factor = analysis.domain_rows, analysis.factor
    fns: List[Callable[[], None]] = [lambda: tiles.scatter_panel(k, rows, factor.lu)]
    record.add_kernel("getrf")

    row_index = stacked_row_index(rows, nb)
    for j in range(k + 1, n):
        fns.append(
            lambda j=j: swptrsm_inplace(factor, tiles.column_rows(j, j + 1, rows), row_index)
        )
        record.add_kernel("swptrsm")
    if tiles.has_rhs:
        fns.append(lambda: swptrsm_inplace(factor, tiles.rhs_rows(rows), row_index))
        record.add_kernel("swptrsm")

    def eliminate(i):
        tile = tiles.tile(i, k)
        tile[...] = eliminate_trsm(factor, tile)

    fns.extend(lambda i=i: eliminate(i) for i in range(k + 1, n) if i not in rows)
    record.add_kernel("trsm", max(n - k - 1, 0))

    def gemm(i, j):
        tiles.tile(i, j)[...] -= tiles.tile(i, k) @ tiles.tile(k, j)

    def gemm_rhs(i):
        tiles.rhs_tile(i)[...] -= tiles.tile(i, k) @ tiles.rhs_tile(k)

    for i in range(k + 1, n):
        for j in range(k + 1, n):
            fns.append(lambda i=i, j=j: gemm(i, j))
            record.add_kernel("gemm")
        if tiles.has_rhs:
            fns.append(lambda i=i: gemm_rhs(i))
            record.add_kernel("gemm_rhs")
    return _tasks(fns)


def qr_step_tasks(tiles, k, eliminations, record: StepRecord, validate=True):
    n = tiles.n
    elims = list(eliminations)
    if validate:
        validate_eliminations(list(range(k, n)), elims)
    factors: Dict[tuple, object] = {}
    fns: List[Callable[[], None]] = []
    triangular = set()

    def geqrt(row):
        factor = geqrt_tile(tiles.tile(row, k))
        factors[("geqrt", row)] = factor
        tiles.set_tile(row, k, factor.r)

    def apply_unmqr(row, j):
        tiles.set_tile(row, j, unmqr(factors[("geqrt", row)], tiles.tile(row, j)))

    def apply_unmqr_rhs(row):
        tiles.rhs_tile(row)[...] = unmqr(factors[("geqrt", row)], tiles.rhs_tile(row))

    def triangularize(row):
        if row in triangular:
            return
        fns.append(lambda: geqrt(row))
        record.add_kernel("geqrt")
        for j in range(k + 1, n):
            fns.append(lambda j=j: apply_unmqr(row, j))
            record.add_kernel("unmqr")
        if tiles.has_rhs:
            fns.append(lambda: apply_unmqr_rhs(row))
            record.add_kernel("unmqr_rhs")
        triangular.add(row)

    def couple(e, kernel):
        factor = kernel(tiles.tile(e.eliminator, k), tiles.tile(e.killed, k))
        factors[("couple", e.eliminator, e.killed)] = factor
        tiles.set_tile(e.eliminator, k, factor.r)
        tiles.set_tile(e.killed, k, 0.0)

    def update(e, apply, j):
        top, bottom = apply(
            factors[("couple", e.eliminator, e.killed)],
            tiles.tile(e.eliminator, j),
            tiles.tile(e.killed, j),
        )
        tiles.set_tile(e.eliminator, j, top)
        tiles.set_tile(e.killed, j, bottom)

    def update_rhs(e, apply):
        top, bottom = apply(
            factors[("couple", e.eliminator, e.killed)],
            tiles.rhs_tile(e.eliminator),
            tiles.rhs_tile(e.killed),
        )
        tiles.rhs_tile(e.eliminator)[...] = top
        tiles.rhs_tile(e.killed)[...] = bottom

    for e in elims:
        triangularize(e.eliminator)
        if e.kind == "TT":
            triangularize(e.killed)
            kernel, apply, name, update_name = ttqrt, ttmqr, "ttqrt", "ttmqr"
        else:
            kernel, apply, name, update_name = tsqrt, tsmqr, "tsqrt", "tsmqr"
        fns.append(lambda e=e, kernel=kernel: couple(e, kernel))
        record.add_kernel(name)
        for j in range(k + 1, n):
            fns.append(lambda e=e, apply=apply, j=j: update(e, apply, j))
            record.add_kernel(update_name)
        if tiles.has_rhs:
            fns.append(lambda e=e, apply=apply: update_rhs(e, apply))
            record.add_kernel(update_name + "_rhs")
    triangularize(k)
    record.eliminations = elims
    return _tasks(fns)


def _incpiv_plan_step(self, tiles, dist, k):
    record = StepRecord(k=k, kind="LU", decision_overhead=False)
    nb, n = tiles.nb, tiles.n
    factors: Dict[object, object] = {}
    fns: List[Callable[[], None]] = []

    def getrf():
        factor = factor_tile_lu(tiles.tile(k, k))
        factors["diag"] = factor
        tiles.set_tile(k, k, np.triu(factor.lu))

    def swptrsm(j):
        tiles.set_tile(k, j, apply_swptrsm(factors["diag"], tiles.tile(k, j)))

    def swptrsm_rhs():
        tiles.rhs_tile(k)[...] = apply_swptrsm(factors["diag"], tiles.rhs_tile(k))

    def tstrf(i):
        stacked = np.vstack([np.triu(tiles.tile(k, k)), tiles.tile(i, k)])
        pair = factor_panel_lu(stacked, nb)
        factors[i] = pair
        tiles.set_tile(k, k, np.triu(pair.lu[:nb]))
        tiles.set_tile(i, k, pair.lu[nb:])

    def ssssm(pair, top, bottom):
        c = apply_swptrsm(pair, np.vstack([top, bottom]))
        top[...] = c[:nb]
        bottom[...] = c[nb:] - pair.lu[nb:] @ c[:nb]

    fns.append(getrf)
    record.add_kernel("getrf")
    for j in range(k + 1, n):
        fns.append(lambda j=j: swptrsm(j))
        record.add_kernel("swptrsm")
    if tiles.has_rhs:
        fns.append(swptrsm_rhs)
        record.add_kernel("swptrsm")
    for i in range(k + 1, n):
        fns.append(lambda i=i: tstrf(i))
        record.add_kernel("tstrf")
        for j in range(k + 1, n):
            fns.append(lambda i=i, j=j: ssssm(factors[i], tiles.tile(k, j), tiles.tile(i, j)))
            record.add_kernel("ssssm")
        if tiles.has_rhs:
            fns.append(lambda i=i: ssssm(factors[i], tiles.rhs_tile(k), tiles.rhs_tile(i)))
            record.add_kernel("ssssm_rhs")
    return record, _tasks(fns)


@contextlib.contextmanager
def per_tile_plan():
    """Run every solver under the per-tile plan inside the block (inline only)."""
    patches = [
        (repro.core.hybrid, "lu_step_tasks", lu_step_tasks),
        (repro.core.hybrid, "qr_step_tasks", qr_step_tasks),
        (repro.baselines.lupp, "lu_step_tasks", lu_step_tasks),
        (repro.baselines.lu_nopiv, "lu_step_tasks", lu_step_tasks),
        (repro.baselines.hqr, "qr_step_tasks", qr_step_tasks),
        (LUIncPivSolver, "_plan_step", _incpiv_plan_step),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
