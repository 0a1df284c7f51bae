"""Performance modelling, online calibration, and autotuning.

Three layers that close the loop between model and machine:

* :mod:`repro.perf.model` — the paper's analytic layer: simulate a run on
  a modelled platform and report normalised GFLOP/s (Figure 2, Table II);
* :mod:`repro.perf.calibrate` — fit per-kernel cost models from the
  execution traces of real factorizations on *this* host, persisted at
  ``~/.cache/repro/calibration.json``;
* :mod:`repro.perf.autotune` — use the calibrated model to pick tile size
  and executor for the next factorization
  (``make_solver(tile_size="auto", executor="auto")``).
"""

from ..runtime.platform import Platform, dancer_platform, laptop_platform
from .autotune import TunedConfig, autotune_config, predicted_makespan
from .calibrate import (
    Calibration,
    KernelCost,
    calibrate_from_traces,
    calibrated_platform,
    calibration_path,
    clear_calibration_cache,
    collect_samples,
    default_calibration,
    kernel_source_hash,
    run_calibration,
)
from .model import PerformanceModel, PerformanceReport

__all__ = [
    "Platform",
    "dancer_platform",
    "laptop_platform",
    "PerformanceModel",
    "PerformanceReport",
    "Calibration",
    "KernelCost",
    "calibrate_from_traces",
    "calibrated_platform",
    "calibration_path",
    "clear_calibration_cache",
    "collect_samples",
    "default_calibration",
    "kernel_source_hash",
    "run_calibration",
    "TunedConfig",
    "autotune_config",
    "predicted_makespan",
]
