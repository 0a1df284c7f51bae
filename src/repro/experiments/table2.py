"""Table II — detailed performance of the Max criterion at N = 20,000.

The paper's Table II lists, for the hybrid algorithm with the Max criterion
and a sweep of ``alpha`` (plus the LU NoPiv, LU IncPiv, HQR and LUPP
baselines): the execution time, the percentage of LU steps, the fake and
true GFLOP/s, and the corresponding fractions of the 1091 GFLOP/s peak.

Reproduction strategy (documented in DESIGN.md): the %LU-step trace of each
``alpha`` is measured with a full numerical factorization on a random
matrix at laptop scale, then replayed at the paper's problem size
(84 tiles of order 240, N = 20,160 ≈ 20,000) on the simulated Dancer
platform, which yields the time and GFLOP/s columns.

Run with ``python -m repro.experiments.table2``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..matrices.random_gen import random_matrix, random_rhs
from .common import (
    ExperimentConfig,
    format_table,
    make_baseline,
    make_hybrid,
    simulate_at_paper_scale,
)

__all__ = ["TABLE2_ALPHAS", "table2_rows", "main"]

#: Alpha sweep of Table II (the paper's values span 100% down to 0% LU steps;
#: the scaled-down matrices reach the same range with smaller thresholds).
TABLE2_ALPHAS: List[float] = [float("inf"), 200.0, 50.0, 20.0, 10.0, 5.0, 2.0, 0.0]


def table2_rows(
    config: Optional[ExperimentConfig] = None,
    alphas: Optional[Sequence[float]] = None,
) -> List[Dict[str, object]]:
    """Regenerate the rows of Table II (Max criterion + baselines)."""
    config = config if config is not None else ExperimentConfig(n_tiles=16)
    alphas = list(alphas) if alphas is not None else TABLE2_ALPHAS

    n = config.n_order
    a = random_matrix(n, seed=config.seed)
    b = random_rhs(n, seed=config.seed + 1)
    rows: List[Dict[str, object]] = []

    def add_row(label: str, alpha: object, fact) -> None:
        report = simulate_at_paper_scale(fact, config)
        rows.append(
            {
                "algorithm": label,
                "alpha": alpha,
                "time_s": report.execution_time,
                "lu_steps_pct": fact.lu_percentage,
                "fake_gflops": report.fake_gflops,
                "true_gflops": report.true_gflops,
                "fake_peak_pct": 100.0 * report.fake_peak_fraction,
                "true_peak_pct": 100.0 * report.true_peak_fraction,
            }
        )

    # Baselines first, as in the paper's table.
    for base in ("LU NoPiv", "LU IncPiv"):
        add_row(base, "", make_baseline(base, config).factor(a, b))
    for alpha in alphas:
        add_row("LUQR (MAX)", alpha, make_hybrid("max", alpha, config).factor(a, b))
    for base in ("HQR", "LUPP"):
        add_row(base, "", make_baseline(base, config).factor(a, b))

    return rows


def main() -> None:  # pragma: no cover - CLI entry point
    config = ExperimentConfig(n_tiles=16)
    rows = table2_rows(config)
    print(
        "Table II — performance at paper scale (N = "
        f"{config.paper_n_tiles * config.paper_tile_size}, 4x4 grid, simulated Dancer platform)"
    )
    print(
        format_table(
            rows,
            [
                "algorithm",
                "alpha",
                "time_s",
                "lu_steps_pct",
                "fake_gflops",
                "true_gflops",
                "fake_peak_pct",
                "true_peak_pct",
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
