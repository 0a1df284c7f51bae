"""`repro.analysis.audit` — one entry point over all analysis engines.

``audit(solver)`` takes a configured solver and runs, in order:

1. a **traced plan pass**: the solver's ``_plan_step`` is driven step by
   step (:func:`capture_plan`'s loop), accumulating every planned task
   into one cumulative task graph while executing the kernels under the
   access tracer (planning of step ``k+1`` depends on the numerical
   results of step ``k``, so planning and execution must interleave);
2. when the solver has an executor configured, a **real factorization**
   with step-graph collection enabled, whose step graphs get the
   placement check below.

Dependencies are inferred from the declared tile accesses, so what the
audit checks is that the kernels touch only what they declare (the
tracer) and that each task runs where it should (placement).  Plugins
are checked where they register (:mod:`repro.api.registry`), not here.

Both solver passes run the **placement analysis**
(:mod:`repro.analysis.placement`): owner-computes placement with priced
communication volume.  On a distributed executor the executed pass checks
where each task actually ran: a task whose recorded rank
(``ExecutionTrace.rank_of_task``) is not its owner-computes rank is a
``wrong-owner`` violation.

The result is an :class:`~repro.analysis.report.AuditReport`; the audit
never raises on findings.  Races detected dynamically are converted to
violations and stop the dynamic pass, since the factorization state is
corrupt beyond the first undeclared access.  A kernel that raises (a
sweep running off the matrix, a factor of the wrong shape, a product
nobody produced) becomes one ``kernel-error`` violation naming the task;
it stops the dynamic pass too, and the placement analysis and the
executor pass are skipped, since a plan whose kernels cannot run has no
placement to check.  An exception out of the executor pass (a worker's
kernel error, a refused pivot exchange, a product consumed before it was
produced) becomes one ``executor-error`` violation in the same
``execution`` section.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..kernels.dispatch import SigContext
from ..linalg.pivoting import SingularPanelError
from ..runtime.executor import ExecutionTrace
from ..runtime.graph import TaskGraph
from ..runtime.schedule import build_step_graph
from ..tiles.distribution import BlockCyclicDistribution
from ..tiles.tile_matrix import TileMatrix
from .placement import analyze_placement, assign_owners, task_label
from .report import AuditReport, RaceReport, Violation
from .tracing import TracingBackend

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
) -> Tuple[np.ndarray, Optional[np.ndarray], SigContext, BlockCyclicDistribution]:
    """The padded system, its signature context and its distribution.

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
    ctx = SigContext(n=n_tiles, nb=solver.tile_size, nrhs=nrhs)
    return a_work, b_work, ctx, BlockCyclicDistribution(solver.grid, n_tiles)


def _placement_pass(
    report: AuditReport,
    graphs: Sequence[TaskGraph],
    ctx: SigContext,
    dist: BlockCyclicDistribution,
    *,
    platform=None,
    traces: Sequence[ExecutionTrace] = (),
    key: str = "plan",
) -> None:
    """Check and price the placement of ``graphs`` into ``report``.

    Each task's owner is its owner-computes rank, unless the matching
    step's trace in ``traces`` records the rank a distributed executor
    ran it on; an owner that is not the owner-computes rank is a
    ``wrong-owner`` violation.
    """
    assign_owners(graphs, dist, ctx)
    for graph, trace in zip(graphs, traces):
        for uid, rank in trace.rank_of_task.items():
            graph.task(uid).owner = rank
    if platform is None:
        from ..runtime.platform import dancer_platform

        platform = dancer_platform(dist.grid)
    place_violations, summary = analyze_placement(
        graphs, dist, ctx, platform=platform
    )
    report.add("placement", place_violations)
    report.resources[f"placement[{key}]"] = summary.as_dict()


def _plan_inline(solver, a, b, tracer: Optional[TracingBackend] = None):
    """Plan every step in-process into one cumulative graph, running it inline.

    Planning step ``k+1`` reads step ``k``'s numbers, so each step's
    kernels run before the next step is planned; with a ``tracer`` they
    run on its proxied tiles, wrapped.  Returns ``(graph, ctx, dist,
    steps, failure)``: ``steps`` counts the steps whose kernels all ran,
    and ``failure`` is ``None`` or ``(exception, task)`` for the first
    kernel that raised, which stops the run.
    """
    a_work, b_work, ctx, dist = _system_context(solver, a, b)
    graph = TaskGraph()
    with solver._factor_lock:
        tiles = TileMatrix.from_dense(a_work, solver.tile_size, rhs=b_work)
        if tracer is not None:
            tiles = tracer.prepare_tiles(tiles)
        solver._reset()
        steps = 0
        for k in range(tiles.n):
            try:
                _, tasks = solver._plan_step(tiles, dist, k)
            except SingularPanelError:
                break
            first = len(graph)
            build_step_graph(tasks, step=k, graph=graph)
            for i, task in enumerate(tasks):
                if tracer is not None:
                    task = tracer.wrap_task(task, k)
                if task.fn is None:
                    continue
                try:
                    task.fn()
                except Exception as exc:
                    return graph, ctx, dist, steps, (exc, graph.task(first + i))
            steps += 1
    return graph, ctx, dist, steps, None


def capture_plan(solver, a=None, b=None, *, seed: int = 0, n: Optional[int] = None):
    """Plan (and inline-execute) a full factorization; return its artifacts.

    Returns ``(graph, ctx, dist)`` — the cumulative task graph of every
    planned step, the effect-rule context, and the block-cyclic distribution.
    Used by the corruption fixtures and tests that need a real plan to
    mutate or analyze without going through a full :func:`audit`.  A
    kernel that raises propagates.
    """
    if a is None:
        a, b = default_audit_system(solver, seed=seed, n=n)
    graph, ctx, dist, _steps, failure = _plan_inline(solver, a, b)
    if failure is not None:
        raise failure[0]
    return graph, ctx, dist


def _executed_placement_pass(
    solver,
    a: np.ndarray,
    b: Optional[np.ndarray],
    report: AuditReport,
    *,
    platform=None,
) -> None:
    """Run the real (executor-backed) factorization; check its placement.

    Placement is checked against the ranks the tasks ran on, so a task a
    distributed executor ran off its owner-computes rank is a
    ``wrong-owner`` violation.  If the factorization raises, that is one
    ``executor-error`` violation and no placement is checked.
    """
    previous = solver.collect_step_graphs
    solver.collect_step_graphs = True
    try:
        solver.factor(a, b)
    except Exception as exc:  # reported, not raised
        report.add("execution", [Violation(
            kind="executor-error",
            message=f"the {type(solver.executor).__name__} factorization raised "
            f"{type(exc).__name__}: {exc}",
        )])
        return
    finally:
        solver.collect_step_graphs = previous
    for graph in solver.step_graphs:
        report.count("graphs")
        report.count("tasks", len(graph))
    _, _, ctx, dist = _system_context(solver, a, b)
    _placement_pass(
        report,
        solver.step_graphs,
        ctx,
        dist,
        platform=platform,
        traces=solver.step_traces,
        key="executed",
    )


def audit(
    solver,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
    *,
    dynamic: bool = True,
    seed: int = 0,
    n: Optional[int] = None,
    platform=None,
) -> AuditReport:
    """Audit a configured solver; return an AuditReport.

    Runs the traced plan pass (``dynamic=False`` for plan-only) and —
    when the solver has an executor configured — the placement check of
    a real executor-backed factorization.  ``a``/``b`` default to a
    well-conditioned random system (``seed``, order ``n``).

    Both passes check owner-computes placement, with communication volume
    priced by ``platform`` (default: the Dancer calibration on the
    solver's grid); the executor pass checks the ranks a distributed
    executor ran the tasks on.  A kernel that raises is reported as one
    ``kernel-error`` violation, and an exception out of the executor pass
    as one ``executor-error`` violation, not raised.
    """
    if isinstance(solver, TaskGraph):
        raise TypeError(
            "audit() takes a configured solver, as audit(solver, a, b): a "
            "TaskGraph carries no kernels to trace"
        )
    report = AuditReport()
    if a is None:
        a, b = default_audit_system(solver, seed=seed, n=n)
    tracer = None
    if dynamic:
        tracer = (
            solver.kernel_backend
            if isinstance(solver.kernel_backend, TracingBackend)
            else TracingBackend()
        )
    graph, ctx, dist, steps, failure = _plan_inline(solver, a, b, tracer)
    report.count("tasks", len(graph))
    report.count("steps", steps)
    report.count("graphs")
    exc, failed = failure if failure is not None else (None, None)
    # A race stops the traced run but leaves a plan to certify.
    race = isinstance(exc, RaceReport)
    if dynamic:
        report.add("tracer", [exc.as_violation()] if race else [])
    if exc is not None and not race:
        error = Violation(
            kind="kernel-error",
            message=f"{task_label(failed)} raised {type(exc).__name__}: {exc}",
            tasks=(failed.uid,),
            subject=failed.call.kernel if failed.call is not None else failed.kernel,
        )
        report.add("execution", [error])
        return report
    _placement_pass(report, [graph], ctx, dist, platform=platform, key="plan")
    if solver.executor is not None:
        _executed_placement_pass(solver, a, b, report, platform=platform)
    return report
