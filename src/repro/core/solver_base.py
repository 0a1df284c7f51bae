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

Concrete solvers implement :meth:`TiledSolverBase.plan_kind`, which plans
a step of a given kind (LU or QR) as a task list of numerical kernels;
without a panel analysis it plans without numerics, which is how
:mod:`repro.perf.model` prices a step-kind sequence.
:meth:`TiledSolverBase._plan_step` makes the per-step decision before it
(criterion evaluation, panel analysis — inherently sequential, mirroring
the paper's BACKUP/LU-ON-PANEL/PROPAGATE control layer).  The base
driver then either runs the kernels in program order (the sequential
reference) or, when an ``executor`` is configured, materialises the step as
one :class:`~repro.runtime.graph.TaskGraph` and runs it to completion on
the dataflow executor — the execution model of the paper's PaRSEC runtime
inside one node, with a host barrier between steps.  Both paths execute
the exact same kernels on the same tile bytes, so they produce
bit-identical factors, and the growth record is read by the same host
pass after every step.
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
from ..runtime.schedule import KernelTask, run_step_tasks
from ..stability.growth import GrowthTracker
from ..stability.metrics import stability_report, stability_reports
from ..tiles.distribution import BlockCyclicDistribution, ProcessGrid
from ..tiles.shared_buffer import SharedTileBuffer
from ..tiles.tile_matrix import TileMatrix
from .factorization import Factorization, SolveResult, StepRecord, stack_rhs
from .panel_analysis import PanelAnalysis

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
        vectorized host pass over the trailing region ``[k:, k:]`` the
        step wrote, on every execution path; disable for pure
        benchmarking runs).  Either way a
        factorization that overflows raises ``ValueError``.
    executor:
        Optional dataflow executor.  When set, every elimination step's
        kernels are materialised as one task graph and run on it to
        completion before the next step is planned (a
        :class:`~repro.runtime.executor.ThreadedExecutor` overlaps the
        trailing-matrix updates, since numpy kernels release the GIL inside
        BLAS; a :class:`~repro.runtime.process_executor.ProcessExecutor`
        runs them on worker processes, in which case the tiles are
        materialised in a shared-memory
        :class:`~repro.tiles.shared_buffer.SharedTileBuffer` for the
        duration of the factorization); when ``None`` (default) the kernels
        run inline in program order.  Each graph's b-level priorities
        are Table-I flops
        (:func:`~repro.runtime.schedule.kernel_cost_fn`), so the schedule
        depends only on the plan.  The per-step
        :class:`~repro.runtime.executor.ExecutionTrace` objects of the
        last factorization are kept in ``step_traces``.
    kernel_backend:
        Kernel backend (a registry name such as ``"numpy"`` or
        ``"tracing"``, or a ready
        :class:`~repro.kernels.backends.KernelBackend` instance): hooks
        around the planned tasks, e.g. access tracing.  Every backend runs
        the same plan; the default ``None`` is ``numpy``.
    """

    #: Name used in experiment tables; overridden by subclasses.
    algorithm: str = "abstract"

    #: Step kinds :meth:`plan_kind` plans.
    step_kinds: Tuple[str, ...] = ("LU",)

    def __init__(
        self,
        tile_size: int,
        grid: Optional[ProcessGrid] = None,
        track_growth: bool = True,
        executor: Optional[Executor] = None,
        kernel_backend=None,
    ) -> None:
        if (
            not isinstance(tile_size, numbers.Integral)
            or isinstance(tile_size, bool)
            or tile_size < 1
        ):
            raise ValueError(f"tile_size must be an integer >= 1, got {tile_size!r}")
        self.tile_size = int(tile_size)
        self.grid = grid if grid is not None else ProcessGrid(1, 1)
        self.track_growth = bool(track_growth)
        self.executor = executor
        #: Resolved kernel backend; ``None`` resolves to ``numpy``.
        self.kernel_backend: KernelBackend = resolve_backend(kernel_backend)
        #: Per-step execution traces of the last factorization (only
        #: populated when an executor is configured).
        self.step_traces: List[ExecutionTrace] = []
        #: Set to True to retain each step's TaskGraph of the last
        #: factorization in ``step_graphs`` (costs memory: the graphs hold
        #: the kernel closures); used to replay a real execution through
        #: the simulator, e.g. for calibration validation.
        self.collect_step_graphs = False
        self.step_graphs: List[TaskGraph] = []
        # A solver instance carries per-factorization state (step
        # traces, criterion state), so concurrent factor()
        # calls on one instance must serialize; SolverSession relies on
        # this when misses on different matrices share its single solver.
        self._factor_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    def _plan_step(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> Tuple[StepRecord, List[KernelTask]]:
        """Decide and plan elimination step ``k``.

        Performs the sequential control work (panel analysis, criterion
        decision) and returns the step's :class:`StepRecord` together with
        the ordered kernel tasks that carry out the numerical work.  By
        default the step is the solver's one kind, planned from
        :meth:`_panel_analysis`.
        """
        analysis = self._panel_analysis(tiles, dist, k)
        return self.plan_kind(tiles, dist, k, self.step_kinds[0], analysis)

    def _panel_analysis(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> Optional[PanelAnalysis]:
        """The numerical panel analysis whose factor an LU step reuses."""
        return None

    @abstractmethod
    def plan_kind(
        self,
        tiles: TileMatrix,
        dist: BlockCyclicDistribution,
        k: int,
        kind: str,
        analysis: Optional[PanelAnalysis] = None,
    ) -> Tuple[StepRecord, List[KernelTask]]:
        """Plan elimination step ``k`` as a ``kind`` step (one of
        :attr:`step_kinds`): the part of :meth:`_plan_step` after the decision.

        ``analysis`` is the step's panel analysis, for the solvers whose LU
        step reuses its factor.  Without one the step is planned without
        numerics: ``tiles`` need only have ``n``, ``nb`` and ``has_rhs``,
        and an LU step carries a placeholder factor
        (:func:`~repro.core.panel_analysis.planned_panel`), so the plan can
        be priced but not run.
        """

    def _do_step(
        self, tiles: TileMatrix, dist: BlockCyclicDistribution, k: int
    ) -> StepRecord:
        """Perform elimination step ``k`` and describe it.

        Plans the step, then runs its kernels: inline in program order, or
        as one prioritised task graph on the executor, to completion (the
        trace, and the graph when ``collect_step_graphs`` is set, are kept).
        Subclasses normally only implement :meth:`plan_kind`.
        """
        record, tasks = self._plan_step(tiles, dist, k)
        tasks = [self.kernel_backend.wrap_task(t, k) for t in tasks]
        if self.executor is None:
            run_step_tasks(tasks, step=k)
            return record
        trace, graph = run_step_tasks(tasks, self.executor, step=k, tile_size=self.tile_size)
        self.step_traces.append(trace)
        if self.collect_step_graphs:
            self.step_graphs.append(graph)
        return record

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
            # sequential control layer reads panels between steps) and
            # receives every remote write back, so it holds each step's
            # writes once the step's graph has run.  Bind the raw tiles,
            # before any instrumenting backend wraps them in proxy views.
            self.executor.bind_tiles(tiles, dist)
            distributed = True
        # Instrumenting backends (e.g. the access tracer) interpose proxied
        # tile views here; compute backends return the tiles unchanged.
        tiles = self.kernel_backend.prepare_tiles(tiles)
        self._reset()
        self.step_traces = []
        self.step_graphs = []

        growth: Optional[GrowthTracker] = None
        if self.track_growth:
            growth = GrowthTracker(float(tiles.region_tile_norms(0, tiles.n, 0, tiles.n).max()))

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
                # The step has run on every path: shared memory (processes)
                # or the host mirror (cluster) already holds its writes.
                if growth is not None:
                    growth.record(self._active_region_max_norm(tiles, k))
        finally:
            if shared is not None:
                self.executor.unbind()
                tiles = tiles.copy()  # move the factors out of shared memory
                shared.close()
                shared.unlink()
            elif distributed:
                self.executor.unbind_tiles()

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
    def _active_region_max_norm(self, tiles: TileMatrix, k: int) -> float:
        """Largest tile 1-norm of the trailing region ``[k:, k:]`` after step ``k``.

        One vectorized pass: every solver's step ``k`` writes that region's
        bounding box, so re-norming all of it costs what re-norming only
        the written tiles would.  The column sums of each tile row are
        reduced straight to their maximum — the sums of
        :meth:`~repro.tiles.tile_matrix.TileMatrix.region_tile_norms`, in
        the same order, without its per-tile norm matrix.
        """
        nb = tiles.nb
        sub = tiles.array[k * nb :, k * nb :]
        return float(np.abs(sub).reshape(tiles.n - k, nb, -1).sum(axis=1).max())

