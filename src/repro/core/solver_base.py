"""Common driver shared by the hybrid solver and all baselines.

Every tiled algorithm of this library follows the same outer loop: walk the
panels ``k = 0..n-1``, perform some elimination step on each, track the
tile-norm growth, and finally back-substitute the transformed right-hand
side.  :class:`TiledSolverBase` implements that loop, the (optional)
padding of matrices whose order is not a multiple of the tile size
(Section II-D2: "the algorithm can accommodate any N and nb with some
clean-up codes"), breakdown handling, and the construction of
:class:`~repro.core.factorization.Factorization` /
:class:`~repro.core.factorization.SolveResult` objects.

Concrete solvers implement :meth:`TiledSolverBase._plan_step`, which makes
the per-step decision (criterion evaluation, panel analysis — inherently
sequential, mirroring the paper's BACKUP/LU-ON-PANEL/PROPAGATE control
layer) and returns the step's numerical kernels as a task list.  The base
driver then either runs the kernels in program order (the sequential
reference) or, when an ``executor`` is configured, materialises them as a
:class:`~repro.runtime.graph.TaskGraph` and fans them out on the dataflow
executor — the execution model of the paper's PaRSEC runtime inside one
node.  Both paths execute the exact same kernel closures, so they produce
bit-identical factors.
"""

from __future__ import annotations

import numbers
import threading
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..kernels.backends import KernelBackend, resolve_backend
from ..linalg.pivoting import SingularPanelError
from ..runtime.executor import ExecutionTrace, SequentialExecutor, ThreadedExecutor
from ..runtime.graph import TaskGraph
from ..runtime.process_executor import ProcessExecutor
from ..runtime.schedule import KernelTask, StepPipeline, run_step_tasks
from ..stability.growth import GrowthTracker
from ..stability.metrics import stability_report, stability_reports
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.shared_buffer import SharedTileBuffer
from ..tiles.tile_matrix import TileMatrix
from .factorization import Factorization, SolveResult, StepRecord, stack_rhs

__all__ = ["TiledSolverBase", "pad_to_tile_multiple"]

#: Type of the executors accepted by :class:`TiledSolverBase`.
Executor = Union[SequentialExecutor, ThreadedExecutor, ProcessExecutor]


def pad_to_tile_multiple(
    a: np.ndarray, b: Optional[np.ndarray], tile_size: int
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Pad ``A`` (and ``b``) so the order becomes a multiple of ``tile_size``.

    The padding appends an identity block in the bottom-right corner and
    zeros elsewhere, which leaves the solution of the original system
    unchanged in its leading entries.  Returns ``(a_padded, b_padded, pad)``
    where ``pad`` is the number of appended rows/columns.  A 1-D ``b`` is
    returned as a padded ``(n + pad, 1)`` column (the solvers work on 2-D
    right-hand sides internally and unpad at the end).
    """
    n = a.shape[0]
    pad = (-n) % tile_size
    if pad == 0:
        return a, b, 0
    n_new = n + pad
    # Pad in the input's dtype: np.zeros defaults to float64, which would
    # silently upcast (and change the precision of) non-float64 workloads.
    a_pad = np.zeros((n_new, n_new), dtype=a.dtype)
    a_pad[:n, :n] = a
    a_pad[n:, n:] = np.eye(pad, dtype=a.dtype)
    b_pad = None
    if b is not None:
        b2 = b.reshape(n, -1)
        b_pad = np.zeros((n_new, b2.shape[1]), dtype=b2.dtype)
        b_pad[:n, :] = b2
    return a_pad, b_pad, pad


class TiledSolverBase(ABC):
    """Base class of every tiled factorization algorithm.

    Parameters
    ----------
    tile_size:
        Tile order ``nb``, an integer >= 1.
    grid:
        Virtual process grid used for the block-cyclic distribution (both
        for diagonal-domain definition and for the performance model).
        Defaults to a single process (shared-memory behaviour).
    track_growth:
        Record the tile-norm growth factor after every step (one
        vectorized pass over the trailing region ``[k:, k:]`` the step
        wrote; disable for pure benchmarking runs).  Either way a
        factorization that overflows raises ``ValueError``.
    executor:
        Optional dataflow executor.  When set, every elimination step's
        kernels are materialised as a task graph and dispatched on it (a
        :class:`~repro.runtime.executor.ThreadedExecutor` overlaps the
        trailing-matrix updates, since numpy kernels release the GIL inside
        BLAS; a :class:`~repro.runtime.process_executor.ProcessExecutor`
        runs them on worker processes, in which case the tiles are
        materialised in a shared-memory
        :class:`~repro.tiles.shared_buffer.SharedTileBuffer` for the
        duration of the factorization); when ``None`` (default) the kernels
        run inline in program order.  Per-flush
        :class:`~repro.runtime.executor.ExecutionTrace` objects of the
        last factorization are kept in ``step_traces``.
    lookahead:
        Cross-step lookahead depth used when an executor is configured
        (ignored on the inline path).  The driver plans up to
        ``lookahead + 1`` steps into one
        :class:`~repro.runtime.schedule.StepPipeline` window before
        draining it, so step ``k+1``'s panel tasks run concurrently with
        step ``k``'s trailing update.  ``0`` restores strict step-at-a-time
        execution; the default ``1`` is the classic panel/update overlap.
        Results are bit-identical for every depth (the pipeline only
        flushes dependency-closed task sets).
    kernel_backend:
        Kernel backend (a registry name such as ``"numpy"`` or
        ``"tracing"``, or a ready
        :class:`~repro.kernels.backends.KernelBackend` instance): hooks
        around the planned tasks, e.g. access tracing.  Every backend runs
        the same plan; the default ``None`` is ``numpy``.
    """

    #: Name used in experiment tables; overridden by subclasses.
    algorithm: str = "abstract"

    def __init__(
        self,
        tile_size: int,
        grid: Optional[ProcessGrid] = None,
        track_growth: bool = True,
        executor: Optional[Executor] = None,
        lookahead: int = 1,
        kernel_backend=None,
    ) -> None:
        if (
            not isinstance(tile_size, numbers.Integral)
            or isinstance(tile_size, bool)
            or tile_size < 1
        ):
            raise ValueError(f"tile_size must be an integer >= 1, got {tile_size!r}")
        if lookahead < 0:
            raise ValueError(f"lookahead must be >= 0, got {lookahead}")
        self.tile_size = int(tile_size)
        self.grid = grid if grid is not None else ProcessGrid(1, 1)
        self.track_growth = bool(track_growth)
        self.executor = executor
        self.lookahead = int(lookahead)
        #: Resolved kernel backend; ``None`` resolves to ``numpy``.
        self.kernel_backend: KernelBackend = resolve_backend(kernel_backend)
        #: Per-flush execution traces of the last factorization (only
        #: populated when an executor is configured).
        self.step_traces: List[ExecutionTrace] = []
        #: Set to True to retain each flush's TaskGraph of the last
        #: factorization in ``step_graphs`` (costs memory: the graphs hold
        #: the kernel closures); used to replay a real execution through
        #: the simulator, e.g. for calibration validation.
        self.collect_step_graphs = False
        self.step_graphs: List[TaskGraph] = []
        self._pipeline: Optional[StepPipeline] = None
        # A solver instance carries per-factorization state (the
        # pipeline, step traces, criterion state), so concurrent factor()
        # calls on one instance must serialize; SolverSession relies on
        # this when misses on different matrices share its single solver.
        self._factor_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _plan_step(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> Tuple[StepRecord, List[KernelTask]]:
        """Decide and plan elimination step ``k``.

        Performs the sequential control work (panel analysis, criterion
        decision) and returns the step's :class:`StepRecord` together with
        the ordered kernel tasks that carry out the numerical work.
        """

    def _do_step(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> StepRecord:
        """Perform elimination step ``k`` and describe it.

        Default implementation: with an executor configured, drain from
        the lookahead pipeline whatever planning step ``k`` needs, plan
        the step, and submit its kernels to the pending window (they run
        during a later ``advance`` or the final drain); on the inline path
        the kernels simply run in program order.  Subclasses normally only
        implement :meth:`_plan_step`; overriding ``_do_step`` directly
        opts out of the dataflow execution path (and of the pipeline).
        """
        if self.executor is not None:
            if self._pipeline is None:
                self._pipeline = StepPipeline(
                    self.executor,
                    tile_size=self.tile_size,
                    lookahead=self.lookahead,
                    calibration=self._calibration(),
                    collect_graphs=self.collect_step_graphs,
                )
            self._pipeline.advance(k)
            record, tasks = self._plan_step(tiles, dist, k)
            tasks = [self.kernel_backend.wrap_task(t, k) for t in tasks]
            self._pipeline.submit(
                tasks, step=k, tiles=tiles if self.track_growth else None
            )
            return record
        record, tasks = self._plan_step(tiles, dist, k)
        tasks = [self.kernel_backend.wrap_task(t, k) for t in tasks]
        run_step_tasks(tasks, executor=None, step=k)
        return record

    def _calibration(self):
        """Calibrated cost model for scheduling priorities, if one exists.

        Lazily loads the per-host calibration file
        (:func:`repro.perf.calibrate.default_calibration`); priorities fall
        back to static Table-I flop counts when no calibration exists.
        """
        from ..perf.calibrate import default_calibration

        return default_calibration()

    def _criterion_name(self) -> Optional[str]:
        return None

    def _alpha(self) -> Optional[float]:
        return None

    def _reset(self) -> None:
        """Reset per-factorization state (criteria RNGs, caches, ...)."""

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def factor(self, a: np.ndarray, b: Optional[np.ndarray] = None) -> Factorization:
        """Factor ``[A | b]`` and return the :class:`Factorization`.

        Thread-safe in the sense that concurrent calls on one solver
        instance serialize (the instance carries per-factorization state);
        use separate solver instances for genuinely parallel
        factorizations.  Raises ``ValueError`` when ``A`` or ``b`` holds a
        NaN or Inf, and when the factorization overflows (naming the step
        whose growth norms first turn non-finite when growth is tracked).
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        # LAPACK's dgetrf/dgeqrt do not flag NaN input; reject it here, once,
        # instead of wherever a triangular solve happens to meet it.
        if not np.isfinite(a).all():
            raise ValueError("A must not contain NaN or Inf")
        if b is not None:
            b = np.asarray(b, dtype=np.float64)
            if b.shape[0] != a.shape[0]:
                raise ValueError(
                    f"b has {b.shape[0]} rows but A has order {a.shape[0]}"
                )
            if not np.isfinite(b).all():
                raise ValueError("b must not contain NaN or Inf")
        with self._factor_lock:
            return self._factor_locked(a, b)

    def _factor_locked(
        self, a: np.ndarray, b: Optional[np.ndarray]
    ) -> Factorization:
        a_work, b_work, pad = pad_to_tile_multiple(a, b, self.tile_size)
        # A multi-process executor needs the tiles in shared memory so its
        # workers see (and mutate) the same bytes; the factors are copied
        # back out below so the returned Factorization owns plain arrays.
        shared: Optional[SharedTileBuffer] = None
        distributed = False
        if getattr(self.executor, "uses_shared_tiles", False):
            shared = SharedTileBuffer.allocate(a_work, self.tile_size, rhs=b_work)
            tiles = shared.tile_matrix()
            self.executor.bind(shared.meta)
        else:
            tiles = TileMatrix.from_dense(a_work, self.tile_size, rhs=b_work)
        dist = BlockCyclicDistribution(self.grid, tiles.n)
        if shared is None and getattr(self.executor, "distributes_tiles", False):
            # A distributed executor scatters the owned tiles to its worker
            # nodes; the host-side TileMatrix stays the planning mirror (the
            # sequential control layer reads panels between flushes) and
            # receives every remote write back, so it always holds the
            # factors once the pipeline drains.  Bind the raw tiles, before
            # any instrumenting backend wraps them in proxy views.
            self.executor.bind_tiles(tiles, dist)
            distributed = True
        # Instrumenting backends (e.g. the access tracer) interpose proxied
        # tile views here; compute backends return the tiles unchanged.
        tiles = self.kernel_backend.prepare_tiles(tiles)
        self._reset()
        self.step_traces = []
        self.step_graphs = []
        self._pipeline = None

        growth: Optional[GrowthTracker] = None
        norms = None
        if self.track_growth:
            norms = tiles.region_tile_norms(0, tiles.n, 0, tiles.n)
            growth = GrowthTracker(float(norms.max()))

        steps = []
        breakdown: Optional[str] = None
        try:
            for k in range(tiles.n):
                try:
                    record = self._do_step(tiles, dist, k)
                except SingularPanelError as exc:
                    breakdown = f"step {k}: {exc}"
                    break
                steps.append(record)
                # Under the pipeline the step's kernels have not run yet;
                # growth is replayed from the pipeline's norm samples after
                # the final drain instead.
                if growth is not None and self._pipeline is None:
                    growth.record(self._active_region_max_norm(tiles, k))
        finally:
            try:
                pipeline = self._pipeline
                if pipeline is not None:
                    try:
                        # Drain every pending task before the factors are
                        # read (or copied out of shared memory) below.
                        pipeline.flush_all()
                    finally:
                        self.step_traces.extend(pipeline.traces)
                        if self.collect_step_graphs:
                            self.step_graphs = list(pipeline.graphs)
            finally:
                if shared is not None:
                    self.executor.unbind()
                    tiles = tiles.copy()  # move the factors out of shared memory
                    shared.close()
                    shared.unlink()
                elif distributed:
                    self.executor.unbind_tiles()

        if growth is not None and self._pipeline is not None:
            self._replay_growth(growth, norms, len(steps))
        self._pipeline = None
        if growth is None and not np.isfinite(tiles.array).all():
            raise ValueError("the factorization overflowed: its factors hold NaN or Inf")
        return Factorization(
            tiles=tiles,
            steps=steps,
            algorithm=self.algorithm,
            criterion_name=self._criterion_name(),
            alpha=self._alpha(),
            growth=growth,
            breakdown=breakdown,
            padding=pad,
        )

    def _factor_and_back_substitute(
        self, a: np.ndarray, b: np.ndarray
    ) -> Tuple[Factorization, np.ndarray]:
        """Factor ``[A | b]``, raise on breakdown, return the unpadded 2-D solution."""
        fact = self.factor(a, b)
        if not fact.succeeded:
            raise SingularPanelError(
                f"{self.algorithm} broke down during factorization: {fact.breakdown}"
            )
        x_padded = fact.solve()
        if x_padded.ndim == 1:
            x_padded = x_padded.reshape(-1, 1)
        return fact, x_padded[: a.shape[0], :]

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        x_true: Optional[np.ndarray] = None,
    ) -> SolveResult:
        """Solve ``Ax = b`` and evaluate stability against the original data."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        fact, x2 = self._factor_and_back_substitute(a, b)
        # The solution keeps the shape of b: a 2-D single-column b yields a
        # (n, 1) solution so the residual a @ x - b never broadcasts.
        x = x2[:, 0] if b.ndim == 1 else x2
        report = stability_report(a, x, b, x_true=x_true)
        return SolveResult(x=x, factorization=fact, stability=report)

    def solve_many(
        self,
        a: np.ndarray,
        bs: Union[np.ndarray, Sequence[np.ndarray]],
        x_true: Optional[np.ndarray] = None,
    ) -> List[SolveResult]:
        """Solve ``A x_i = b_i`` for a batch of right-hand sides.

        ``A`` is factored **once** — all right-hand sides ride along the
        factorization as extra trailing columns (Section II-D1) and are
        back-substituted together — so the amortized cost per solve is one
        triangular solve.  ``bs`` is an ``(n, nrhs)`` array, a single
        length-``n`` vector, or a sequence of length-``n`` vectors;
        ``x_true``, when given, has the
        same shape as the stacked ``bs``.  Returns one
        :class:`SolveResult` per right-hand side (all sharing the same
        :class:`Factorization`).
        """
        a = np.asarray(a, dtype=np.float64)
        b_mat, xt_mat = stack_rhs(a.shape[0], bs, x_true)
        fact, x = self._factor_and_back_substitute(a, b_mat)
        reports = stability_reports(a, x, b_mat, xt_mat)
        return [
            SolveResult(x=x[:, j], factorization=fact, stability=report)
            for j, report in enumerate(reports)
        ]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _replay_growth(self, growth: GrowthTracker, norms: np.ndarray, n_steps: int) -> None:
        """Rebuild the per-step growth record from the pipeline's samples.

        Each tile's norm was sampled by its last writer of each step, with
        the same ``region_tile_norms`` reduction as the inline ``[k:, k:]``
        pass, so applying the samples step by step to the initial
        ``norms`` reproduces the inline per-step record bit for bit,
        regardless of how the pipeline interleaved the steps at execution
        time.
        """
        samples = self._pipeline.norm_samples
        for k in range(n_steps):
            for (i, j), value in samples.get(k, {}).items():
                norms[i, j] = value
            growth.record(float(norms[k:, k:].max()))

    def _active_region_max_norm(self, tiles: TileMatrix, k: int) -> float:
        """Largest tile 1-norm of the trailing region ``[k:, k:]`` after step ``k``.

        One vectorized pass: every solver's step ``k`` writes that region's
        bounding box, so re-norming all of it costs what re-norming only
        the written tiles would.
        """
        return float(tiles.region_tile_norms(k, tiles.n, k, tiles.n).max())

