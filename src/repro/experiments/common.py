"""Shared helpers for the experiment harnesses (Figures 1-3, Tables I-III).

The harnesses in this package regenerate the paper's tables and figures at
laptop scale: the *numerical* runs (stability, %LU steps) use small tile
sizes so a full factorization in pure Python finishes in seconds, while the
*performance* numbers are obtained by replaying the measured step-kind
trace on the simulated Dancer platform at the paper's tile size
(``nb = 240``).  The helpers below implement that replay, the solver
constructors shared by several experiments, and plain-text table printing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..api.facade import make_criterion, make_solver
from ..core.factorization import Factorization
from ..core.hybrid import HybridLUQRSolver
from ..perf.model import FactorizationSpec, PerformanceModel, PerformanceReport
from ..runtime.platform import Platform, dancer_platform
from ..tiles.distribution import ProcessGrid

__all__ = [
    "DEFAULT_TILE_SIZE",
    "PAPER_TILE_SIZE",
    "ExperimentConfig",
    "make_hybrid",
    "make_baseline",
    "resample_step_kinds",
    "simulate_at_paper_scale",
    "format_table",
]

#: Tile size used by the numerical (stability) runs of the harnesses.
DEFAULT_TILE_SIZE = 8

#: Tile size of the paper's experiments, used by the performance simulation.
PAPER_TILE_SIZE = 240


@dataclass
class ExperimentConfig:
    """Knobs shared by the experiment harnesses.

    ``n_tiles`` controls the numerical runs (matrix order is
    ``n_tiles * tile_size``); ``paper_n_tiles`` controls the size at which
    the performance simulation replays the run (84 tiles of 240 ≈ the
    paper's N = 20,000).  ``samples`` is the number of random matrices per
    data point (the paper averages 100; a handful is enough to get a stable
    average at laptop scale).
    """

    n_tiles: int = 12
    tile_size: int = DEFAULT_TILE_SIZE
    paper_n_tiles: int = 84
    paper_tile_size: int = PAPER_TILE_SIZE
    grid: ProcessGrid = None  # type: ignore[assignment]
    samples: int = 3
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.grid is None:
            self.grid = ProcessGrid(4, 4) if self.n_tiles >= 8 else ProcessGrid(2, 2)

    @property
    def n_order(self) -> int:
        return self.n_tiles * self.tile_size


# --------------------------------------------------------------------------- #
# Solver constructors
# --------------------------------------------------------------------------- #
def make_hybrid(
    criterion_name: str,
    alpha: float,
    config: ExperimentConfig,
    seed: Optional[int] = None,
) -> HybridLUQRSolver:
    """Build a hybrid solver for one of the paper's criteria.

    ``criterion_name`` is one of ``"max"``, ``"sum"``, ``"mumps"``,
    ``"random"``.  For the random policy, ``alpha`` is interpreted as the
    probability of an LU step (the paper sweeps an equivalent knob).

    Resolution goes through the public plugin registries
    (:mod:`repro.api`): an unregistered criterion name raises a
    :class:`ValueError` listing the available options.
    """
    name = criterion_name.lower()
    if name == "random":
        criterion = make_criterion("random", lu_probability=alpha, seed=seed)
    else:
        criterion = make_criterion(name, alpha=alpha)
    return make_solver(
        algorithm="hybrid",
        tile_size=config.tile_size,
        criterion=criterion,
        grid=config.grid,
    )


def make_baseline(name: str, config: ExperimentConfig):
    """Build one of the baseline solvers by registry name.

    Accepts the paper's table spellings (``"LU NoPiv"``, ``"LU IncPiv"``,
    ``"LUPP"``, ``"HQR"``) as well as the registry names/aliases.
    """
    return make_solver(
        algorithm=name.lower().replace(" ", "").replace("-", "_"),
        tile_size=config.tile_size,
        grid=config.grid,
    )


# --------------------------------------------------------------------------- #
# Performance replay at paper scale
# --------------------------------------------------------------------------- #
def resample_step_kinds(kinds: Sequence[str], target_steps: int) -> List[str]:
    """Stretch/shrink a step-kind trace to ``target_steps`` steps.

    Nearest-neighbour resampling preserves both the LU fraction and the
    position of the QR steps along the factorization (QR steps tend to
    cluster towards the end, where the diagonal tiles become small).
    """
    if not kinds:
        return ["LU"] * target_steps
    src = len(kinds)
    return [kinds[min(src - 1, int(i * src / target_steps))] for i in range(target_steps)]


def simulate_at_paper_scale(
    fact: Factorization,
    config: ExperimentConfig,
    platform: Optional[Platform] = None,
    algorithm: Optional[str] = None,
) -> PerformanceReport:
    """Replay a numerical run on the simulated Dancer platform at ``nb = 240``.

    The measured step-kind trace of ``fact`` is resampled to
    ``config.paper_n_tiles`` steps and compiled into a task graph at the
    paper's tile size; the discrete-event simulator then produces the
    normalised GFLOP/s that Figure 2 / Table II report.  On the default
    platform each distinct spec is simulated once per process: harnesses
    replay many runs whose resampled traces coincide.
    """
    key = (
        config.paper_n_tiles,
        config.paper_tile_size,
        tuple(resample_step_kinds(fact.step_kinds, config.paper_n_tiles)),
        algorithm if algorithm is not None else fact.algorithm,
        any(s.decision_overhead for s in fact.steps),
    )
    if platform is None:
        return _simulate_on_dancer(ProcessGrid(4, 4), *key)
    return _simulate(platform, *key)


def _simulate(platform, n_tiles, tile_size, step_kinds, algorithm, decision_overhead):
    spec = FactorizationSpec(
        n_tiles=n_tiles,
        tile_size=tile_size,
        step_kinds=list(step_kinds),
        algorithm=algorithm,
        decision_overhead=decision_overhead,
        grid=platform.grid,
    )
    return PerformanceModel(platform).simulate_spec(spec)


@functools.lru_cache(maxsize=256)
def _simulate_on_dancer(grid: ProcessGrid, *key) -> PerformanceReport:
    """:func:`_simulate` on the Dancer platform of ``grid``, memoized on
    every input the simulation reads."""
    return _simulate(dancer_platform(grid), *key)


# --------------------------------------------------------------------------- #
# Plain-text tables
# --------------------------------------------------------------------------- #
def format_table(rows: List[Dict[str, object]], columns: Optional[List[str]] = None) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return "(empty)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value == 0.0:
                return "0"
            if abs(value) >= 1e5 or abs(value) < 1e-3:
                return f"{value:.3e}"
            return f"{value:.3f}"
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in table)) for i, col in enumerate(columns)]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    lines.extend("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in table)
    return "\n".join(lines)
