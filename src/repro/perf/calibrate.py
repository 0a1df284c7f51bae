"""Per-kernel cost calibration from real execution traces.

The perf stack originally priced kernels with hard-coded platform
constants (the Dancer rates of Table II).  This module closes the loop
instead: every executor records which kernel each task ran
(``ExecutionTrace.kernel_of_task``) and when, so the measured durations of
a real factorization can be fitted into a per-kernel cost model

* an exact per-``(kernel, nb)`` mean for tile sizes that have been
  observed, and
* a cubic coefficient ``duration ~ c * nb^3`` (least squares over all
  observed sizes) to extrapolate to unobserved tile sizes — every tile
  kernel is ``Theta(nb^3)`` at leading order (Table I).

A :class:`Calibration` is an in-memory object: it is fitted in the process
that uses it (:func:`calibrate_from_traces`, or :func:`run_calibration` to
measure this host) and handed by the caller to the discrete-event
simulator (``simulate(..., calibration=...)``), to
:class:`~repro.perf.model.PerformanceModel` or to
:func:`repro.runtime.schedule.kernel_cost_fn`, so a simulated makespan
predicts a measured one.  Nothing is persisted, and the solvers never read
one: their schedule depends only on the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernels.flops import KernelFlops
from ..runtime.executor import ExecutionTrace, SequentialExecutor
from ..runtime.platform import Platform
from ..runtime.schedule import static_kernel_flops
from ..tiles.distribution import ProcessGrid

__all__ = [
    "KernelCost",
    "Calibration",
    "collect_samples",
    "calibrate_from_traces",
    "run_calibration",
    "calibrated_platform",
]


@dataclass
class KernelCost:
    """Measured cost of one kernel across observed tile sizes.

    ``by_nb`` maps a tile size to ``(mean duration seconds, sample
    count)``.  The cubic coefficient is derived from those aggregates, so
    merging two calibrations only needs the table.
    """

    by_nb: Dict[int, Tuple[float, int]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return sum(c for _, c in self.by_nb.values())

    @property
    def coeff(self) -> float:
        """Least-squares fit of ``duration = coeff * nb^3`` (0 if unfittable)."""
        num = sum(c * mean * nb**3 for nb, (mean, c) in self.by_nb.items())
        den = sum(c * float(nb) ** 6 for nb, (mean, c) in self.by_nb.items())
        return num / den if den > 0 else 0.0

    def duration(self, nb: int) -> Optional[float]:
        """Predicted duration at tile size ``nb`` (exact mean, else cubic fit)."""
        entry = self.by_nb.get(int(nb))
        if entry is not None:
            return entry[0]
        coeff = self.coeff
        return coeff * int(nb) ** 3 if coeff > 0 else None

    def add(self, nb: int, durations: Sequence[float]) -> None:
        """Fold new duration samples at tile size ``nb`` into the table."""
        values = [float(d) for d in durations if d > 0.0]
        if not values:
            return
        nb = int(nb)
        mean, count = self.by_nb.get(nb, (0.0, 0))
        total = mean * count + sum(values)
        count += len(values)
        self.by_nb[nb] = (total / count, count)


@dataclass
class Calibration:
    """Per-kernel cost model fitted from real execution traces."""

    kernels: Dict[str, KernelCost] = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return sum(k.count for k in self.kernels.values())

    def kernel_duration(self, kernel: str, nb: int) -> Optional[float]:
        """Calibrated duration of ``kernel`` at tile size ``nb``, if known.

        Returns ``None`` for kernels never observed; callers fall back to
        their static cost model (Table-I flops at an analytic rate).
        """
        cost = self.kernels.get(kernel)
        return None if cost is None else cost.duration(nb)

    def flops_per_second(self, nb: int) -> Optional[float]:
        """Effective per-core rate implied by the calibration at ``nb``.

        Preferred from GEMM (the dominant, best-understood kernel), else
        from the most-sampled kernel with a Table-I flop count.  Used to
        convert static flop counts of *uncalibrated* kernels into seconds
        so they remain comparable with calibrated ones.
        """
        flops = KernelFlops(int(nb))
        ranked: Dict[str, int] = {
            name: cost.count for name, cost in self.kernels.items()
        }
        candidates = ["gemm"] + sorted(ranked, key=lambda k: -ranked[k])
        for kernel in candidates:
            duration = self.kernel_duration(kernel, nb)
            if duration is None or duration <= 0.0:
                continue
            base = kernel[:-4] if kernel.endswith("_rhs") else kernel
            try:
                return flops.of(base) / duration
            except KeyError:
                continue
        return None

    def add_samples(self, samples: Dict[Tuple[str, int], List[float]]) -> "Calibration":
        """Fold ``(kernel, nb) -> durations`` samples in; returns self."""
        for (kernel, nb), durations in samples.items():
            self.kernels.setdefault(kernel, KernelCost()).add(nb, durations)
        return self


# --------------------------------------------------------------------------- #
# Fitting from traces
# --------------------------------------------------------------------------- #
def collect_samples(
    traces: Sequence[ExecutionTrace], tile_size: int
) -> Dict[Tuple[str, int], List[float]]:
    """Extract per-kernel duration samples from execution traces.

    Robust to partial traces: tasks missing their start or finish
    timestamp (errored or timed-out runs), tasks without a recorded kernel
    name (traces predating calibration), and non-positive durations
    (timer-resolution artifacts) are all skipped rather than crashing or
    skewing the fit.

    Sweep tasks batch several logical per-tile kernels in one measurement
    (``ExecutionTrace.mix_of_task``): the duration is shared out over the
    mix's families in proportion to their Table-I flop counts, each share
    is booked under that family's own name, and a family's share is split
    into one equal sample per kernel, so the fitted table stays per
    *logical* kernel.  A QR update chain (UNMQR, TSMQR and TTMQR in one
    task) is timed as a whole, so its samples are apportioned, not
    separately measured.
    """
    nb = int(tile_size)
    samples: Dict[Tuple[str, int], List[float]] = {}
    for trace in traces:
        mix_of_task = getattr(trace, "mix_of_task", {})
        for uid, kernel in trace.kernel_of_task.items():
            start = trace.start_times.get(uid)
            finish = trace.finish_times.get(uid)
            if start is None or finish is None:
                continue
            duration = finish - start
            if duration <= 0.0:
                continue
            mix = mix_of_task.get(uid)
            if not mix:
                samples.setdefault((kernel, nb), []).append(duration)
                continue
            weights = [static_kernel_flops(name, nb) * count for name, count in mix]
            total = sum(weights)
            for (name, count), weight in zip(mix, weights):
                share = duration * weight / total
                samples.setdefault((name, nb), []).extend([share / count] * count)
    return samples


def calibrate_from_traces(
    traces: Sequence[ExecutionTrace], tile_size: int
) -> Calibration:
    """Fit a :class:`Calibration` from the traces of one tile size."""
    return Calibration().add_samples(collect_samples(traces, tile_size))


def run_calibration(
    n: int = 192,
    tile_sizes: Sequence[int] = (16, 32),
    algorithms: Sequence[str] = ("lupp", "hqr"),
    seed: int = 20140401,
    executor=None,
) -> Calibration:
    """Measure this host: factor seeded matrices and fit a calibration.

    One factorization per ``(algorithm, tile size)`` pair; the default
    algorithms cover both the LU and the QR kernel families.  The
    default executor is a
    :class:`~repro.runtime.executor.SequentialExecutor` so every duration
    is an uncontended single-core measurement — exactly the per-core cost
    the simulator wants.  The calibration is returned, not stored.
    """
    import numpy as np

    from ..api.facade import make_solver

    if executor is None:
        executor = SequentialExecutor()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    calibration = Calibration()
    for nb in tile_sizes:
        for algorithm in algorithms:
            solver = make_solver(
                algorithm, tile_size=int(nb), executor=executor, track_growth=False
            )
            solver.factor(a.copy())
            calibration.add_samples(collect_samples(solver.step_traces, nb))
    return calibration


# --------------------------------------------------------------------------- #
# Calibrated platform for the simulator
# --------------------------------------------------------------------------- #
def calibrated_platform(
    calibration: Calibration, cores: int = 1, nb: int = 32
) -> Platform:
    """A single-node platform whose rates come from the calibration.

    Pass this together with ``calibration=...`` to
    :func:`repro.runtime.simulator.simulate`: calibrated kernels use their
    measured durations directly; anything never observed falls back to the
    platform's analytic rates, anchored at the calibration's effective
    GEMM rate at ``nb``.
    """
    rate = calibration.flops_per_second(nb)
    gemm_gflops = rate / 1.0e9 if rate else 1.0
    return Platform(
        grid=ProcessGrid(1, 1),
        cores=int(cores),
        gemm_gflops=gemm_gflops,
        latency=0.0,
        bandwidth=1.0e12,
        name="calibrated",
    )
