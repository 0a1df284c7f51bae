"""Online per-kernel cost calibration from real execution traces.

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

The fitted :class:`Calibration` drives two consumers:

* the critical-path scheduler (b-level priorities weigh each task by its
  calibrated duration, see :func:`repro.runtime.schedule.kernel_cost_fn`);
* the discrete-event simulator (``simulate(..., calibration=...)``
  replaces the analytic platform rates with measured per-core costs, so a
  simulated makespan predicts a measured one).

Calibrations persist per host at ``~/.cache/repro/calibration.json``
(override with the ``REPRO_CALIBRATION`` environment variable) and are
loaded lazily and cached by modification time, so solvers pick up a new
calibration without re-importing anything.  A saved file records a hash of
the kernel sources it was measured with; :func:`default_calibration`
ignores a file whose hash is missing or different — a table fitted before a
kernel got several times cheaper would silently skew priorities — until
:func:`run_calibration` is run again.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernels.flops import KernelFlops
from ..runtime.executor import ExecutionTrace, SequentialExecutor
from ..runtime.platform import Platform
from ..runtime.schedule import static_kernel_flops
from ..tiles.distribution import ProcessGrid

__all__ = [
    "KernelCost",
    "Calibration",
    "calibration_path",
    "kernel_source_hash",
    "default_calibration",
    "clear_calibration_cache",
    "collect_samples",
    "calibrate_from_traces",
    "run_calibration",
    "calibrated_platform",
]

#: Environment variable overriding the calibration file location.
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: Version-1 files load unchanged; a version-2 ``backends`` key (per
#: kernel-backend tables, which earlier releases wrote) is ignored.
_FORMAT_VERSION = 2


@functools.lru_cache(maxsize=1)
def kernel_source_hash() -> str:
    """SHA-256 over the sources of every tile kernel a calibration times.

    ``kernels/*.py`` plus the linalg modules the kernels are built on; a
    change to any of them may move a kernel's cost, so a persisted table is
    only trusted by :func:`default_calibration` under the hash it was
    measured with.
    """
    package = Path(__file__).resolve().parents[1]
    sources = sorted((package / "kernels").glob("*.py")) + [
        package / "linalg" / name
        for name in ("pivoting.py", "triangular.py")
    ]
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.name.encode())
        digest.update(source.read_bytes())
    return digest.hexdigest()


def calibration_path() -> Path:
    """Location of the per-host calibration file.

    ``$REPRO_CALIBRATION`` when set, else ``~/.cache/repro/calibration.json``
    (``$XDG_CACHE_HOME`` is honoured when present).
    """
    env = os.environ.get(CALIBRATION_ENV, "").strip()
    if env:
        return Path(env).expanduser()
    cache_root = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_root).expanduser() if cache_root else Path.home() / ".cache"
    return base / "repro" / "calibration.json"


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
    host: str = ""
    #: :func:`kernel_source_hash` at measurement time; empty for tables
    #: loaded from files that predate it (which load, but are not trusted
    #: as the host default).
    kernel_hash: str = field(default_factory=kernel_source_hash)

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

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @staticmethod
    def _table_to_dict(table: Dict[str, KernelCost]) -> Dict:
        return {
            name: {
                str(nb): {"mean": mean, "count": count}
                for nb, (mean, count) in sorted(cost.by_nb.items())
            }
            for name, cost in sorted(table.items())
        }

    @staticmethod
    def _table_from_dict(data: Dict) -> Dict[str, KernelCost]:
        table: Dict[str, KernelCost] = {}
        for name, entries in data.items():
            by_nb = {
                int(nb): (float(entry["mean"]), int(entry["count"]))
                for nb, entry in entries.items()
            }
            table[name] = KernelCost(by_nb=by_nb)
        return table

    def to_dict(self) -> Dict:
        return {
            "version": _FORMAT_VERSION,
            "host": self.host,
            "kernel_hash": self.kernel_hash,
            "kernels": self._table_to_dict(self.kernels),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Calibration":
        # Anything newer (or unversioned) is rejected rather than silently
        # misread.
        version = int(data.get("version", 0))
        if version not in (1, _FORMAT_VERSION):
            raise ValueError(
                f"unsupported calibration format version {data.get('version')!r}"
            )
        return cls(
            kernels=cls._table_from_dict(data.get("kernels", {})),
            host=str(data.get("host", "")),
            kernel_hash=str(data.get("kernel_hash", "")),
        )

    def save(self, path: Optional[Path] = None) -> Path:
        """Write the calibration file (creating parent directories)."""
        path = Path(path) if path is not None else calibration_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        tmp.replace(path)  # atomic: readers never see a torn file
        return path

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "Calibration":
        path = Path(path) if path is not None else calibration_path()
        return cls.from_dict(json.loads(path.read_text()))


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

    Sweep tasks (``ExecutionTrace.fused_of_task``) batch ``m`` logical
    per-tile kernels in one measurement; their duration is split into
    ``m`` equal per-kernel samples so the fitted table stays per *logical*
    kernel.  A QR update chain runs UNMQR, TSMQR and TTMQR in one task
    (``ExecutionTrace.mix_of_task``): its duration is shared out over the
    families in proportion to their Table-I flop counts, and each share is
    booked under that family's own name.  The chain is timed as a whole,
    so those samples are apportioned, not separately measured.
    """
    nb = int(tile_size)
    samples: Dict[Tuple[str, int], List[float]] = {}
    for trace in traces:
        fused_of_task = getattr(trace, "fused_of_task", {})
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
                m = max(int(fused_of_task.get(uid, 1)), 1)
                samples.setdefault((kernel, nb), []).extend([duration / m] * m)
                continue
            weights = [static_kernel_flops(name, nb) * count for name, count in mix]
            total = sum(weights)
            for (name, count), weight in zip(mix, weights):
                share = duration * weight / total
                samples.setdefault((name, nb), []).extend([share / count] * count)
    return samples


def calibrate_from_traces(
    traces: Sequence[ExecutionTrace],
    tile_size: int,
    host: Optional[str] = None,
) -> Calibration:
    """Fit a :class:`Calibration` from the traces of one tile size."""
    calibration = Calibration(
        host=host if host is not None else socket.gethostname()
    )
    return calibration.add_samples(collect_samples(traces, tile_size))


def run_calibration(
    n: int = 192,
    tile_sizes: Sequence[int] = (16, 32),
    algorithms: Sequence[str] = ("lupp", "hqr"),
    seed: int = 20140401,
    executor=None,
    save: bool = True,
    path: Optional[Path] = None,
) -> Calibration:
    """Measure this host: factor seeded matrices and fit a calibration.

    One factorization per ``(algorithm, tile size)`` pair; the default
    algorithms cover both the LU and the QR kernel families.  The
    default executor is a
    :class:`~repro.runtime.executor.SequentialExecutor` so every duration
    is an uncontended single-core measurement — exactly the per-core cost
    the simulator and the priority scheduler want.
    """
    import numpy as np

    from ..api.facade import make_solver

    if executor is None:
        executor = SequentialExecutor()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    calibration = Calibration(host=socket.gethostname())
    for nb in tile_sizes:
        for algorithm in algorithms:
            solver = make_solver(
                algorithm, tile_size=int(nb), executor=executor, track_growth=False
            )
            solver.factor(a.copy())
            calibration.add_samples(collect_samples(solver.step_traces, nb))
    if save:
        calibration.save(path)
        clear_calibration_cache()
    return calibration


# --------------------------------------------------------------------------- #
# Lazy per-host default
# --------------------------------------------------------------------------- #
_CACHE: Dict[str, Tuple[Optional[int], Optional[Calibration]]] = {}
_CACHE_LOCK = threading.Lock()


def default_calibration() -> Optional[Calibration]:
    """The host's persisted calibration, or ``None`` when there is none.

    Cached by file modification time, so the cost of calling this per
    factorization is one ``stat``; a corrupt or unreadable file degrades
    to ``None`` (static cost models) rather than raising, and so does a
    stale one — measured with other kernel sources than the installed ones
    (:func:`kernel_source_hash`), or before the hash was recorded.
    """
    path = calibration_path()
    key = str(path)
    try:
        mtime: Optional[int] = path.stat().st_mtime_ns
    except OSError:
        mtime = None
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
        if cached is not None and cached[0] == mtime:
            return cached[1]
    calibration: Optional[Calibration] = None
    if mtime is not None:
        try:
            calibration = Calibration.load(path)
        except (OSError, ValueError, KeyError, TypeError):
            calibration = None
        if calibration is not None and calibration.kernel_hash != kernel_source_hash():
            calibration = None
    with _CACHE_LOCK:
        _CACHE[key] = (mtime, calibration)
    return calibration


def clear_calibration_cache() -> None:
    """Drop the lazy-load cache (tests, or after writing a new file)."""
    with _CACHE_LOCK:
        _CACHE.clear()


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
