"""Benchmark: the numerical factorization through the dataflow runtime.

Compares the sequential reference driver (kernels inline, program order)
against the same kernels materialised as a per-step ``TaskGraph`` and
dispatched on a ``ThreadedExecutor``, and reports the measured task
concurrency.  On a single-core container the threaded path cannot beat
the sequential one in wall time (there is nothing to overlap *on*), but
the trace proves that tasks genuinely run concurrently; on a multi-core
node the same code overlaps the BLAS-bound trailing updates.

Also benchmarks the incremental growth tracking against the legacy
implementation that rescanned the whole trailing submatrix with one
``np.linalg.norm`` call per tile after every step.
"""

import numpy as np
import pytest

from repro import HybridLUQRSolver, LUPPSolver, MaxCriterion, ThreadedExecutor
from repro.matrices.random_gen import random_matrix, random_rhs
from repro.runtime import merge_traces

#: Smallest tile order at which the threaded runs below are sized.  Two tasks
#: overlap when a kernel outlasts the hand-off of the next task to another
#: thread (tens of microseconds); the LAPACK tile kernels finish an order-8
#: tile sooner than that, so at the harness default (12 tiles of 8) roughly
#: one threaded factorization in ten runs serially and the overlap assertions
#: below would fail by chance.
OVERLAP_TILE_SIZE = 64


# --------------------------------------------------------------------------- #
# Sequential vs threaded execution
# --------------------------------------------------------------------------- #
@pytest.mark.benchmark(group="dataflow-execution")
@pytest.mark.parametrize("mode", ["sequential", "threaded-4"])
def test_factorization_execution_path(benchmark, bench_config, mode):
    nb = max(bench_config.tile_size, OVERLAP_TILE_SIZE)
    n = bench_config.n_tiles * nb
    a = random_matrix(n, seed=1)
    b = random_rhs(n, seed=2)
    executor = ThreadedExecutor(workers=4) if mode == "threaded-4" else None
    solver = HybridLUQRSolver(
        nb, MaxCriterion(alpha=10.0), track_growth=False, executor=executor
    )

    fact = benchmark(lambda: solver.factor(a, b))
    assert fact.succeeded
    if executor is not None:
        merged = merge_traces(solver.step_traces)
        assert merged.max_concurrency > 1, "threaded path must overlap tasks"
        print(
            f"\n{mode}: {merged.n_tasks} tasks, "
            f"max concurrency {merged.max_concurrency} on 4 workers"
        )
    else:
        print(f"\n{mode}: inline kernels, N = {n}")


@pytest.mark.benchmark(group="dataflow-execution")
def test_threaded_concurrency_report(bench_config):
    """Not a timing benchmark: records the concurrency evidence explicitly."""
    nb = max(bench_config.tile_size, OVERLAP_TILE_SIZE)
    n = bench_config.n_tiles * nb
    a = random_matrix(n, seed=1)
    seq = LUPPSolver(nb, track_growth=False)
    par = LUPPSolver(nb, track_growth=False, executor=ThreadedExecutor(workers=4))
    f_seq = seq.factor(a)
    f_par = par.factor(a)
    assert np.array_equal(f_seq.tiles.array, f_par.tiles.array)
    merged = merge_traces(par.step_traces)
    assert merged.max_concurrency > 1
    profile = merged.concurrency_profile(resolution=50)
    print(
        f"\nLUPP through ThreadedExecutor(4): identical factors, "
        f"{merged.n_tasks} tasks, max concurrency {merged.max_concurrency}, "
        f"mean in-flight {sum(profile) / len(profile):.2f}"
    )


# --------------------------------------------------------------------------- #
# Growth tracking: legacy full rescan vs incremental vectorized
# --------------------------------------------------------------------------- #
class _LegacyGrowthSolver(LUPPSolver):
    """The seed implementation: full trailing rescan, one norm call per tile."""

    def _active_region_max_norm(self, tiles, k):
        best = 0.0
        for i in range(k, tiles.n):
            for j in range(k, tiles.n):
                best = max(best, tiles.tile_norm(i, j, ord=1))
        return best


@pytest.mark.benchmark(group="growth-tracking")
@pytest.mark.parametrize("mode", ["legacy-rescan", "incremental", "disabled"])
def test_growth_tracking_overhead(benchmark, bench_config, mode):
    n = bench_config.n_order
    nb = bench_config.tile_size
    a = random_matrix(n, seed=3)
    if mode == "legacy-rescan":
        solver = _LegacyGrowthSolver(nb, track_growth=True)
    else:
        solver = LUPPSolver(nb, track_growth=(mode == "incremental"))

    fact = benchmark(lambda: solver.factor(a))
    assert fact.succeeded
    if mode != "disabled":
        print(f"\n{mode}: growth factor {fact.growth_factor:.4g}")


def test_growth_values_agree(bench_config):
    """Legacy and incremental tracking record the same per-step maxima."""
    n = bench_config.n_order
    nb = bench_config.tile_size
    a = random_matrix(n, seed=3)
    legacy = _LegacyGrowthSolver(nb, track_growth=True).factor(a)
    incremental = LUPPSolver(nb, track_growth=True).factor(a)
    assert incremental.growth.per_step == pytest.approx(legacy.growth.per_step, rel=1e-12)
