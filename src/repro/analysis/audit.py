"""`repro.analysis.audit` — one entry point over all analysis engines.

``audit(plan_or_solver)`` accepts either a ready
:class:`~repro.runtime.graph.TaskGraph` (static verification only) or a
configured solver.  For a solver it runs, in order:

1. **registry lint** over SOLVERS/EXECUTORS/KERNEL_BACKENDS/KERNELS;
2. a **combined plan + trace pass**: the solver's ``_plan_step`` is
   driven step by step through an in-process harness that accumulates
   every planned task into one cumulative task graph (verified
   statically) while executing the kernels under the access tracer
   (planning of step ``k+1`` depends on the numerical results of step
   ``k``, so planning and execution must interleave);
3. when the solver has an executor configured, a **real factorization**
   with step-graph collection enabled, verifying every graph the
   lookahead pipeline actually flushed (``produces`` keys from earlier
   flushes legitimately satisfy later ones and are threaded through as
   external products).

Both solver passes additionally run the **static resource analyzer**
(:mod:`repro.analysis.abstract`, :mod:`repro.analysis.liveness`,
:mod:`repro.analysis.placement`): shape abstract interpretation,
a certified peak-memory bound (cross-checked against the execution
traces and optionally admission-gated via ``max_memory``), and
owner-computes placement with priced communication volume.

The result is an :class:`~repro.analysis.report.AuditReport`; the audit
never raises on findings — races detected dynamically are converted to
violations (and stop the dynamic pass, since the factorization state is
corrupt beyond the first undeclared access).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..linalg.pivoting import SingularPanelError
from ..runtime.graph import TaskGraph
from ..runtime.schedule import build_step_graph
from ..tiles.distribution import BlockCyclicDistribution
from ..tiles.tile_matrix import TileMatrix
from .abstract import SigContext, interpret_graphs, make_context
from .liveness import analyze_liveness, tile_storage_bytes
from .placement import analyze_placement, assign_owners
from .report import AuditReport, RaceReport, Violation
from .tracing import TracingBackend
from .verifier import verify_graph

__all__ = ["audit", "capture_plan", "default_audit_system"]


def default_audit_system(solver, seed: int = 0, n: Optional[int] = None):
    """A well-conditioned random system sized for the solver's tiles.

    Diagonally dominant so every solver (including LU without pivoting)
    factors it without breakdown, with an attached RHS so the RHS task
    paths are audited too.
    """
    if n is None:
        n = 4 * solver.tile_size
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    b = rng.standard_normal(n)
    return a, b


def _system_context(
    solver, a: np.ndarray, b: Optional[np.ndarray]
) -> Tuple[SigContext, BlockCyclicDistribution]:
    """Signature context and distribution of a system.

    Tiles hold float64 whatever the input dtype, so the context prices
    every byte at 8 and a float32 input certifies as its float64 copy.
    """
    from ..core.solver_base import pad_to_tile_multiple

    a_work, b_work, _ = pad_to_tile_multiple(np.asarray(a), b, solver.tile_size)
    n_tiles = a_work.shape[0] // solver.tile_size
    nrhs = 0
    if b_work is not None:
        b_arr = np.asarray(b_work)
        nrhs = 1 if b_arr.ndim == 1 else int(b_arr.shape[1])
    ctx = make_context(n_tiles, solver.tile_size, nrhs)
    return ctx, BlockCyclicDistribution(solver.grid, n_tiles)


def _resource_passes(
    report: AuditReport,
    graphs: Sequence[TaskGraph],
    ctx: SigContext,
    dist: BlockCyclicDistribution,
    *,
    platform=None,
    base_bytes: Optional[int] = None,
    mode: str = "window",
    traces=None,
    max_memory: Optional[int] = None,
    key: str = "plan",
) -> None:
    """Run the three resource analyses over ``graphs`` into ``report``."""
    if platform is None:
        from ..runtime.platform import dancer_platform

        platform = dancer_platform(dist.grid)
    result = interpret_graphs(list(graphs), ctx)
    report.add("abstract", result.violations)
    report.count("kernels", result.kernels_checked)
    live_violations, cert = analyze_liveness(
        graphs,
        ctx,
        mode=mode,
        base_bytes=base_bytes,
        traces=traces,
        max_memory=max_memory,
    )
    report.add("liveness", live_violations)
    report.resources[f"memory[{key}]"] = cert.as_dict()
    assign_owners(graphs, dist, ctx)
    place_violations, summary = analyze_placement(
        graphs, dist, ctx, platform=platform
    )
    report.add("placement", place_violations)
    report.resources[f"placement[{key}]"] = summary.as_dict()


def capture_plan(solver, a=None, b=None, *, seed: int = 0, n: Optional[int] = None):
    """Plan (and inline-execute) a full factorization; return its artifacts.

    Returns ``(graph, ctx, dist)`` — the cumulative task graph of every
    planned step, the signature context, and the block-cyclic distribution.
    Used by the corruption fixtures and tests that need a real plan to
    mutate or analyze without going through a full :func:`audit`.
    """
    from ..core.solver_base import pad_to_tile_multiple

    if a is None:
        a, b = default_audit_system(solver, seed=seed, n=n)
    ctx, dist = _system_context(solver, a, b)
    with solver._factor_lock:
        a_work, b_work, _ = pad_to_tile_multiple(np.asarray(a), b, solver.tile_size)
        tiles = TileMatrix.from_dense(a_work, solver.tile_size, rhs=b_work)
        solver._reset()
        graph = TaskGraph()
        for k in range(tiles.n):
            try:
                _, tasks = solver._plan_step(tiles, dist, k)
            except SingularPanelError:
                break
            build_step_graph(tasks, step=k, graph=graph)
            # Planning of step k+1 reads step k's numbers: execute inline.
            for task in tasks:
                if task.fn is not None:
                    task.fn()
    return graph, ctx, dist


def _trace_and_verify(
    solver,
    a: np.ndarray,
    b: Optional[np.ndarray],
    *,
    dynamic: bool,
    report: AuditReport,
    platform=None,
    max_memory: Optional[int] = None,
) -> None:
    """Plan every step in-process, execute under the tracer, verify."""
    from ..core.solver_base import pad_to_tile_multiple

    tracer = (
        solver.kernel_backend
        if isinstance(solver.kernel_backend, TracingBackend)
        else TracingBackend()
    )
    violations: List[Violation] = []
    with solver._factor_lock:
        previous_backend = solver.kernel_backend
        solver.kernel_backend = tracer
        try:
            a_work, b_work, _ = pad_to_tile_multiple(a, b, solver.tile_size)
            tiles = TileMatrix.from_dense(a_work, solver.tile_size, rhs=b_work)
            if dynamic:
                tiles = tracer.prepare_tiles(tiles)
            dist = BlockCyclicDistribution(solver.grid, tiles.n)
            solver._reset()
            graph = TaskGraph()
            for k in range(tiles.n):
                try:
                    _, tasks = solver._plan_step(tiles, dist, k)
                except SingularPanelError:
                    break
                build_step_graph(tasks, step=k, graph=graph)
                report.count("tasks", len(tasks))
                # Step k+1's plan depends on step k's numbers: execute
                # the kernels now, traced when the dynamic pass is on.
                if dynamic:
                    tasks = [tracer.wrap_task(t, k) for t in tasks]
                try:
                    for task in tasks:
                        if task.fn is not None:
                            task.fn()
                except RaceReport as race:
                    violations.append(race.as_violation())
                    break
                report.count("steps")
        finally:
            solver.kernel_backend = previous_backend
    report.count("graphs")
    violations.extend(verify_graph(graph))
    report.add("verifier", [v for v in violations if not v.kind.startswith("undeclared")])
    if dynamic:
        report.add(
            "tracer", [v for v in violations if v.kind.startswith("undeclared")]
        )
    ctx, _dist_unused = _system_context(solver, a, b)
    base_bytes = tile_storage_bytes(ctx)
    if dynamic and getattr(tracer, "storage_bytes", 0):
        # Cross-check: the bound's base term must cover what the tracing
        # backend actually saw allocated for the tile store.
        base_bytes = max(base_bytes, int(tracer.storage_bytes))
    _resource_passes(
        report,
        [graph],
        ctx,
        dist,
        platform=platform,
        base_bytes=base_bytes,
        # One cumulative graph, executed inline step by step: the
        # position-granular sequential bound is sound here.
        mode="sequential",
        max_memory=max_memory,
        key="plan",
    )


def _verify_executed_graphs(
    solver,
    a: np.ndarray,
    b: Optional[np.ndarray],
    report: AuditReport,
    *,
    platform=None,
    max_memory: Optional[int] = None,
) -> None:
    """Run the real (executor-backed) factorization; verify flushed graphs."""
    violations: List[Violation] = []
    previous = solver.collect_step_graphs
    solver.collect_step_graphs = True
    try:
        solver.factor(a, b)
    finally:
        solver.collect_step_graphs = previous
    produced: Set[object] = set()
    for graph in solver.step_graphs:
        report.count("graphs")
        report.count("tasks", len(graph))
        violations.extend(
            verify_graph(graph, external_products=frozenset(produced))
        )
        for task in graph.tasks:
            if task.call is not None and task.call.produces is not None:
                produced.add(task.call.produces)
    report.add("verifier", violations)
    ctx, dist = _system_context(solver, a, b)
    traces = solver.step_traces if solver.step_traces else None
    _resource_passes(
        report,
        solver.step_graphs,
        ctx,
        dist,
        platform=platform,
        # Flush-granular window bound: dominates any executor's true
        # concurrent overlap because flushes run sequentially.
        mode="window",
        traces=traces,
        max_memory=max_memory,
        key="executed",
    )


def audit(
    plan_or_solver,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    *,
    dynamic: bool = True,
    lint: bool = True,
    seed: int = 0,
    n: Optional[int] = None,
    platform=None,
    max_memory: Optional[int] = None,
) -> AuditReport:
    """Audit a task graph or a configured solver; return an AuditReport.

    For a :class:`TaskGraph`, runs the static plan verifier only.  For a
    solver, runs the registry lint (``lint=False`` to skip), the combined
    plan+trace pass (``dynamic=False`` for plan-only), and — when the
    solver has an executor configured — verifies the task graphs of a
    real executor-backed factorization.  ``a``/``b`` default to a
    well-conditioned random system (``seed``, order ``n``).

    Both solver passes also run the resource analyzer: abstract
    shape interpretation, a certified peak-memory bound (admission
    checked against ``max_memory`` bytes when given), and owner-computes
    placement with communication volume priced by ``platform`` (default:
    the Dancer calibration on the solver's grid).
    """
    report = AuditReport()
    if isinstance(plan_or_solver, TaskGraph):
        report.count("graphs")
        report.count("tasks", len(plan_or_solver))
        report.add("verifier", verify_graph(plan_or_solver))
        return report

    solver = plan_or_solver
    if lint:
        from .registry_lint import lint_registries_with_coverage

        found, coverage = lint_registries_with_coverage()
        report.add("registry", found)
        for key, count in coverage.items():
            report.count(f"registry.{key}", count)
    if a is None:
        a, b = default_audit_system(solver, seed=seed, n=n)
    _trace_and_verify(
        solver,
        a,
        b,
        dynamic=dynamic,
        report=report,
        platform=platform,
        max_memory=max_memory,
    )
    if solver.executor is not None:
        _verify_executed_graphs(
            solver, a, b, report, platform=platform, max_memory=max_memory
        )
    return report
