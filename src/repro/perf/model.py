"""Performance model: from a step trace to the GFLOP/s numbers of the paper.

Performance in the paper is reported as *normalised* GFLOP/s:

    GFLOP/s = (2/3 N^3) / execution time

i.e. every algorithm is credited the flop count of an LU factorization —
the "fake" rate — so an algorithm that performs QR steps shows a lower rate
even at equal hardware efficiency.  Table II additionally reports the
"true" rate where the numerator is the number of flops actually performed,
``(2/3 f_LU + 4/3 (1 - f_LU)) N^3``.

:class:`PerformanceModel` glues the pieces together: it builds the task
graph of a run (from a numerical factorization or from an explicit spec),
schedules it on a modelled platform with the discrete-event simulator, and
converts the makespan into the fake/true GFLOP/s and %-of-peak columns.

The model is no longer purely analytic.  Pass a
:class:`~repro.perf.calibrate.Calibration` (fitted from real execution
traces by :mod:`repro.perf.calibrate`) and every kernel the calibration
has observed is priced at its *measured* per-core duration instead of the
platform's paper-derived rates, from the same fit the critical-path
scheduler's b-level priorities read online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.dag_builder import FactorizationSpec, build_task_graph, spec_from_factorization
from ..core.factorization import Factorization
from ..kernels.flops import fake_flops, true_flops
from ..runtime.platform import Platform, dancer_platform
from ..runtime.simulator import SimulationResult, simulate
from ..tiles.distribution import ProcessGrid

__all__ = ["PerformanceReport", "PerformanceModel"]


@dataclass
class PerformanceReport:
    """Performance of one simulated run (one row of Table II)."""

    algorithm: str
    n_order: int
    n_tiles: int
    tile_size: int
    lu_fraction: float
    execution_time: float
    fake_gflops: float
    true_gflops: float
    fake_peak_fraction: float
    true_peak_fraction: float
    n_tasks: int
    communication_bytes: float
    critical_path_time: float
    platform_peak_gflops: float
    per_kernel_time: Dict[str, float]

    @property
    def lu_percentage(self) -> float:
        return 100.0 * self.lu_fraction

    def as_row(self) -> Dict[str, float]:
        """Flat dict representation, convenient for printing tables."""
        return {
            "algorithm": self.algorithm,
            "N": self.n_order,
            "time_s": self.execution_time,
            "lu_steps_pct": self.lu_percentage,
            "fake_gflops": self.fake_gflops,
            "true_gflops": self.true_gflops,
            "fake_peak_pct": 100.0 * self.fake_peak_fraction,
            "true_peak_pct": 100.0 * self.true_peak_fraction,
        }


class PerformanceModel:
    """Simulate runs on a modelled platform and report normalised GFLOP/s.

    Parameters
    ----------
    platform:
        The platform model; defaults to the paper's Dancer cluster
        (16 nodes x 8 cores, 1091 GFLOP/s peak) on a 4x4 grid.
    calibration:
        Optional :class:`~repro.perf.calibrate.Calibration`; kernels it
        has observed use their measured durations, the rest fall back to
        the platform's analytic rates.
    """

    def __init__(
        self, platform: Optional[Platform] = None, calibration=None
    ) -> None:
        self.platform = platform if platform is not None else dancer_platform()
        self.calibration = calibration

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def simulate_spec(self, spec: FactorizationSpec) -> PerformanceReport:
        """Simulate a run described by an explicit spec."""
        graph = build_task_graph(spec, platform=self.platform)
        sim = simulate(
            graph,
            self.platform,
            spec.tile_size,
            record_schedule=False,
            calibration=self.calibration,
        )
        return self._report(spec, graph_task_count=len(graph), sim=sim)

    def simulate_factorization(
        self, fact: Factorization, grid: Optional[ProcessGrid] = None
    ) -> PerformanceReport:
        """Simulate the platform execution of an actual numerical run."""
        spec = spec_from_factorization(fact, grid=grid if grid is not None else self.platform.grid)
        return self.simulate_spec(spec)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _report(
        self, spec: FactorizationSpec, graph_task_count: int, sim: SimulationResult
    ) -> PerformanceReport:
        n_order = spec.n_tiles * spec.tile_size
        time_s = max(sim.makespan, 1e-12)
        fake = fake_flops(n_order) / time_s / 1.0e9
        true = true_flops(n_order, spec.lu_fraction) / time_s / 1.0e9
        peak = self.platform.peak_gflops
        return PerformanceReport(
            algorithm=spec.algorithm,
            n_order=n_order,
            n_tiles=spec.n_tiles,
            tile_size=spec.tile_size,
            lu_fraction=spec.lu_fraction,
            execution_time=time_s,
            fake_gflops=fake,
            true_gflops=true,
            fake_peak_fraction=fake / peak,
            true_peak_fraction=true / peak,
            n_tasks=graph_task_count,
            communication_bytes=sim.communication_bytes,
            critical_path_time=sim.critical_path_time,
            platform_peak_gflops=peak,
            per_kernel_time=dict(sim.per_kernel_time),
        )
