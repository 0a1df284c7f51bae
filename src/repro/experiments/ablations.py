"""Ablation studies on the design choices discussed in the paper.

Three ablations back the qualitative claims of Sections II, IV and V:

1. **Decision-making overhead** (Section V-B): the hybrid algorithm with
   ``alpha = 0`` performs exactly the same eliminations as HQR plus the
   backup / criterion / propagate machinery; the paper measures ~10-13%
   overhead.  We simulate both at paper scale and report the ratio.

2. **Reduction-tree shape** (Section IV): the QR steps may use different
   intra/inter-node trees; the paper selects GREEDY + FIBONACCI.  We report
   the critical-path length of one panel reduction and the simulated
   makespan of a full HQR run for several tree combinations.

3. **Diagonal-domain vs diagonal-tile pivoting** (Sections II-A and V-B):
   with ``alpha = inf`` (every step LU), searching pivots across the whole
   diagonal domain is dramatically more stable than searching only in the
   diagonal tile on random matrices.  We measure both HPL3 values.

Run with ``python -m repro.experiments.ablations``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..baselines import LUNoPivSolver
from ..matrices.random_gen import random_matrix, random_rhs
from ..perf.model import FactorizationSpec, PerformanceModel
from ..runtime.platform import dancer_platform
from ..tiles.distribution import ProcessGrid
from ..trees import BinaryTree, FibonacciTree, FlatTree, GreedyTree
from .common import ExperimentConfig, format_table

__all__ = [
    "decision_overhead_ablation",
    "tree_shape_ablation",
    "domain_pivoting_ablation",
    "main",
]


def decision_overhead_ablation(
    paper_n_tiles: int = 84, paper_tile_size: int = 240
) -> Dict[str, float]:
    """Simulated overhead of the decision machinery when every step is QR."""
    grid = ProcessGrid(4, 4)
    model = PerformanceModel(dancer_platform(grid))
    hqr, luqr = (
        model.simulate_spec(
            FactorizationSpec(paper_n_tiles, paper_tile_size, ["QR"] * paper_n_tiles,
                              algorithm, overhead, grid)
        )
        for algorithm, overhead in (("HQR", False), ("LUQR", True))
    )
    return {
        "hqr_time_s": hqr.execution_time,
        "luqr_alpha0_time_s": luqr.execution_time,
        "overhead_pct": 100.0 * (luqr.execution_time / hqr.execution_time - 1.0),
        "hqr_gflops": hqr.fake_gflops,
        "luqr_alpha0_gflops": luqr.fake_gflops,
    }


def tree_shape_ablation(
    n_tiles: int = 32, tile_size: int = 240
) -> List[Dict[str, object]]:
    """Critical path and simulated makespan of HQR for several tree shapes."""
    grid = ProcessGrid(4, 4)
    model = PerformanceModel(dancer_platform(grid))
    trees = {
        "flat": FlatTree(),
        "binary": BinaryTree(),
        "greedy": GreedyTree(),
        "fibonacci": FibonacciTree(),
    }
    rows: List[Dict[str, object]] = []
    panel_rows = list(range(n_tiles))
    for intra_name, intra in trees.items():
        spec = FactorizationSpec(n_tiles, tile_size, ["QR"] * n_tiles, "HQR", grid=grid,
                                 intra_tree=intra, inter_tree=FibonacciTree())
        report = model.simulate_spec(spec)
        rows.append(
            {
                "intra_tree": intra_name,
                "inter_tree": "fibonacci",
                "panel_depth": intra.depth(panel_rows),
                "simulated_time_s": report.execution_time,
                "fake_gflops": report.fake_gflops,
            }
        )
    return rows


def domain_pivoting_ablation(
    config: Optional[ExperimentConfig] = None, samples: int = 3
) -> List[Dict[str, object]]:
    """HPL3 of all-LU runs with tile-only vs domain-wide pivot search."""
    config = config if config is not None else ExperimentConfig(n_tiles=12)
    n = config.n_order
    rows: List[Dict[str, object]] = []
    rng = np.random.default_rng(config.seed)
    for variant, domain in (("diagonal tile only", False), ("diagonal domain", True)):
        values = []
        for _ in range(samples):
            a = random_matrix(n, seed=int(rng.integers(2**31)))
            b = random_rhs(n, seed=int(rng.integers(2**31)))
            solver = LUNoPivSolver(
                tile_size=config.tile_size, grid=config.grid, domain_pivoting=domain
            )
            try:
                values.append(solver.solve(a, b).hpl3)
            except Exception:
                values.append(float("inf"))
        rows.append(
            {
                "pivot_search": variant,
                "median_hpl3": float(np.median(values)),
                "max_hpl3": float(np.max(values)),
            }
        )
    return rows


def main() -> None:  # pragma: no cover - CLI entry point
    print("Ablation 1 — decision-making overhead (alpha = 0 vs HQR, simulated):")
    print(format_table([decision_overhead_ablation()]))
    print("\nAblation 2 — reduction-tree shape (HQR, simulated):")
    print(format_table(tree_shape_ablation()))
    print("\nAblation 3 — diagonal-tile vs diagonal-domain pivoting (all-LU, measured):")
    print(format_table(domain_pivoting_ablation()))


if __name__ == "__main__":  # pragma: no cover
    main()
