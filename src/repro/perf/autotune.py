"""Autotuned solver configuration from the calibrated performance model.

``make_solver(..., tile_size="auto", executor="auto")`` lands here: given
the order of the matrix about to be factored, the autotuner predicts the
makespan of candidate configurations with the discrete-event simulator
running on this host's :class:`~repro.perf.calibrate.Calibration`, and
returns the best one.  This closes the loop the perf stack was built for:
measured kernel durations feed a model, and the model chooses how the next
real factorization runs.

Candidates are constrained by the tiled storage format: the tile size must
divide the matrix order exactly (:class:`~repro.tiles.tile_matrix.TileMatrix`
rejects ragged tilings), so the candidate set is the divisors of ``n`` in a
practical range, merged with any tile sizes the calibration has actually
observed (those predictions are exact table lookups rather than cubic
extrapolations).

Deterministic fallback
----------------------
Without a calibration (fresh host, ``REPRO_CALIBRATION`` pointing at a
missing file) the choice degrades to a documented rule rather than a
prediction:

* ``tile_size="auto"`` picks the divisor of ``n`` closest to the facade
  default of 32 (ties break toward the smaller divisor);
* ``executor="auto"`` picks a threaded executor when ``n >= 256`` and the
  host has at least 2 CPUs, else the inline kernel path.

The same rule also applies when no candidate can be formed (e.g. ``n``
prime) — the autotuner never raises for lack of data.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.dag_builder import FactorizationSpec, build_task_graph
from ..runtime.simulator import simulate
from .calibrate import Calibration, calibrated_platform, default_calibration

__all__ = [
    "TunedConfig",
    "candidate_tile_sizes",
    "predicted_makespan",
    "autotune_config",
]

#: The facade's default tile size; the fallback rule centres on it.
_DEFAULT_TILE_SIZE = 32

#: Practical tile-size range considered by the tuner.
_MIN_NB = 8
_MAX_NB = 256

#: Keep graphs tractable: at most this many tile rows/columns.
_MAX_TILES = 64

#: Matrices below this order are not worth a parallel executor (fallback
#: rule; the calibrated path decides from predicted makespans instead).
_SERIAL_CUTOFF = 256

#: Predicted parallel speedup required before "auto" commits to a
#: threaded executor — thread startup and GIL overheads are not modelled,
#: so a marginal predicted win is treated as a loss.
_SPEEDUP_MARGIN = 1.15

_UNSET = object()


@dataclass
class TunedConfig:
    """The autotuner's answer for one matrix order.

    ``executor`` is a registry spec string (``"threaded(workers=4)"``) or
    ``None`` for the inline kernel path — exactly what
    :func:`repro.api.facade.make_executor` accepts.  ``source`` records
    how the choice was made:
    ``"calibrated"`` (simulated makespans under a measured cost model) or
    ``"fallback"`` (the deterministic rule).
    """

    n: int
    tile_size: int
    executor: Optional[str]
    source: str
    predicted_makespans: Dict[int, float] = field(default_factory=dict)


def _divisors_in_range(n: int, lo: int, hi: int) -> List[int]:
    return [d for d in range(lo, min(hi, n) + 1) if n % d == 0]


def _fallback_tile_size(n: int) -> int:
    """Divisor of ``n`` closest to the default of 32 (ties toward smaller)."""
    if n <= 0:
        return _DEFAULT_TILE_SIZE
    divisors = _divisors_in_range(n, 1, n)
    return min(divisors, key=lambda d: (abs(d - _DEFAULT_TILE_SIZE), d))


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return max(1, int(workers))
    return max(1, os.cpu_count() or 1)


def candidate_tile_sizes(
    n: int, calibration: Optional[Calibration] = None
) -> List[int]:
    """Tile sizes worth predicting for a matrix of order ``n``, ascending.

    Divisors of ``n`` within ``[8, 256]`` that keep the tile grid at or
    under 64x64, plus any calibrated-and-dividing sizes outside that
    range.  Empty when ``n`` has no practical divisor (the caller falls
    back to :func:`_fallback_tile_size`).
    """
    if n <= 0:
        return []
    candidates = {
        d
        for d in _divisors_in_range(n, _MIN_NB, _MAX_NB)
        if n // d <= _MAX_TILES
    }
    if calibration is not None:
        candidates.update(
            nb
            for nb in calibration.observed_tile_sizes()
            if 0 < nb <= n and n % nb == 0 and n // nb <= _MAX_TILES
        )
    return sorted(candidates)


def predicted_makespan(
    n: int,
    tile_size: int,
    calibration: Calibration,
    cores: int = 1,
) -> float:
    """Predicted wall time of factoring an order-``n`` matrix at ``nb``.

    Builds the task graph of an all-LU factorization (the kernel mix of
    the common case; the relative ranking across tile sizes carries over
    to QR-heavy runs since every kernel scales as ``nb^3``), prices it
    with the calibration, and list-schedules it on ``cores`` identical
    workers of one node.
    """
    nb = int(tile_size)
    n_tiles = n // nb
    spec = FactorizationSpec(
        n_tiles=n_tiles,
        tile_size=nb,
        step_kinds=["LU"] * n_tiles,
        algorithm="LUPP",
    )
    platform = calibrated_platform(calibration, cores=int(cores), nb=nb)
    graph = build_task_graph(spec, platform=platform)
    sim = simulate(graph, platform, nb, record_schedule=False, calibration=calibration)
    return float(sim.makespan)


def _tune(
    n: int, calibration: Calibration, candidates: List[int], w: int
) -> TunedConfig:
    """Best (tile size, executor) under the calibrated cost model."""
    serial: Dict[int, float] = {}
    parallel: Dict[int, float] = {}
    for nb in candidates:
        serial[nb] = predicted_makespan(n, nb, calibration, cores=1)
        parallel[nb] = (
            predicted_makespan(n, nb, calibration, cores=w) if w >= 2 else serial[nb]
        )

    def best(table: Dict[int, float]) -> Tuple[int, float]:
        nb = min(table, key=lambda k: (table[k], k))
        return nb, table[nb]

    serial_nb, serial_time = best(serial)
    parallel_nb, parallel_time = best(parallel)
    if w >= 2 and parallel_time * _SPEEDUP_MARGIN < serial_time:
        return TunedConfig(
            n=n,
            tile_size=parallel_nb,
            executor=f"threaded(workers={w})",
            source="calibrated",
            predicted_makespans=parallel,
        )
    return TunedConfig(
        n=n,
        tile_size=serial_nb,
        executor=None,
        source="calibrated",
        predicted_makespans=serial,
    )


def autotune_config(
    n: Optional[int],
    calibration=_UNSET,
    workers: Optional[int] = None,
) -> TunedConfig:
    """Choose ``(tile_size, executor)`` for order ``n``.

    With a calibration (the host's persisted one by default), candidate
    tile sizes are ranked by simulated makespan, once on a single core
    and once on ``workers`` cores; a threaded executor is chosen only
    when the best parallel prediction beats the best serial one by a
    clear margin.  Without one, the documented deterministic fallback
    applies (see the module docstring).  ``n=None`` (size unknown at
    :func:`~repro.api.facade.make_solver` time) always takes the
    fallback with the facade's default tile size.
    """
    if calibration is _UNSET:
        calibration = default_calibration()
    w = _worker_count(workers)

    if n is None or int(n) <= 0:
        executor = f"threaded(workers={w})" if w >= 2 else None
        return TunedConfig(
            n=0, tile_size=_DEFAULT_TILE_SIZE, executor=executor, source="fallback"
        )
    n = int(n)

    candidates = candidate_tile_sizes(n, calibration)
    if calibration is None or calibration.n_samples == 0 or not candidates:
        return TunedConfig(
            n=n,
            tile_size=_fallback_tile_size(n),
            executor=(
                f"threaded(workers={w})" if n >= _SERIAL_CUTOFF and w >= 2 else None
            ),
            source="fallback",
        )
    return _tune(n, calibration, candidates, w)
