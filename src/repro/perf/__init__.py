"""Performance modelling and per-kernel calibration.

Two layers that close the loop between model and machine:

* :mod:`repro.perf.model` — the paper's analytic layer: plan a run's step
  kinds with the solvers' own planners, expand every planned task into its
  per-tile kernel units (:func:`plan_graph`), simulate that graph on a
  modelled platform and report normalised GFLOP/s (Figure 2, Table II),
  and bound the parallelism of the executed step graphs
  (:func:`plan_parallelism`);
* :mod:`repro.perf.calibrate` — fit per-kernel cost models from the
  execution traces of real factorizations on *this* host.  A calibration
  lives in the process that fits it: the caller passes it to the
  simulator or :class:`PerformanceModel`; nothing is written to disk.

Tile size and executor are chosen by the caller, as the paper fixes
``nb`` per platform by experiment; nothing here picks them.
"""

from ..runtime.platform import Platform, dancer_platform, laptop_platform
from .calibrate import (
    Calibration,
    KernelCost,
    calibrate_from_traces,
    calibrated_platform,
    collect_samples,
    run_calibration,
)
from .model import FactorizationSpec, PerformanceModel, PerformanceReport, plan_graph
from .model import plan_parallelism, planned_steps

__all__ = [
    "Platform",
    "dancer_platform",
    "laptop_platform",
    "FactorizationSpec",
    "plan_graph",
    "plan_parallelism",
    "planned_steps",
    "PerformanceModel",
    "PerformanceReport",
    "Calibration",
    "KernelCost",
    "calibrate_from_traces",
    "calibrated_platform",
    "collect_samples",
    "run_calibration",
]
