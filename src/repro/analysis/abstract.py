"""Abstract interpretation of task plans over tile shapes.

The analyzer symbolically executes every emitted :class:`TaskGraph` over an
abstract domain where each tile is a ``(rows, cols)`` pair.  Each
:class:`~repro.kernels.dispatch.KernelCall` is given a *transfer rule* — the
:data:`~repro.kernels.dispatch.KERNEL_SIGNATURES` entry registered next to
its op in :data:`~repro.kernels.dispatch.KERNELS` — which yields the tile
sets the kernel reads and writes and conformability checks over its
operands.  Walking the graph in topological order then proves, for the
whole plan and without running a single kernel:

- every kernel application conforms (matrix products, stacked panels, and
  the concrete panel-factor arrays carried inside calls all have the shapes
  the plan geometry implies);
- the signature-declared access sets equal the sets the planner declared on
  the task, so trailing-update sweeps are shape- and access-consistent
  with their constituent tile kernels;
- every referenced tile exists (out-of-range sweeps surface as
  ``unknown-tile``).

Every factorization runs on float64 tiles whatever the input dtype
(:class:`~repro.tiles.tile_matrix.TileMatrix` converts on entry), so there
is no dtype to track.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..kernels.dispatch import KERNEL_SIGNATURES, SigContext
from ..runtime.graph import TaskGraph
from ..runtime.task import RHS_COLUMN, Task
from .report import Violation

__all__ = [
    "task_label",
    "AbstractTile",
    "AbstractResult",
    "make_context",
    "initial_state",
    "signature_effect",
    "interpret_graph",
    "interpret_graphs",
]


def task_label(task: Task) -> str:
    """Human-readable handle for a task in violation messages."""
    return f"task {task.uid} ({task.kernel}@{task.step})"


@dataclass(frozen=True)
class AbstractTile:
    """Abstract value of one tile: its shape."""

    rows: int
    cols: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)


@dataclass
class AbstractResult:
    """Outcome of interpreting one or more graphs."""

    violations: List[Violation] = field(default_factory=list)
    state: Dict[Tuple[int, int], AbstractTile] = field(default_factory=dict)
    products: Dict[Any, Dict[str, Any]] = field(default_factory=dict)
    tasks_checked: int = 0
    kernels_checked: int = 0


def make_context(n: int, nb: int, nrhs: int) -> SigContext:
    """Build the signature-evaluation context for an ``n``-tile problem."""
    return SigContext(n=n, nb=nb, nrhs=nrhs)


def initial_state(ctx: SigContext) -> Dict[Tuple[int, int], AbstractTile]:
    """Abstract tiles of the freshly prepared problem.

    Matrix tiles are ``nb``-square; the RHS pseudo-column holds one
    ``nb x nrhs`` tile per tile row when a right-hand side is present.
    """
    state: Dict[Tuple[int, int], AbstractTile] = {}
    for i in range(ctx.n):
        for j in range(ctx.n):
            state[(i, j)] = AbstractTile(ctx.nb, ctx.nb)
        if ctx.nrhs > 0:
            state[(i, RHS_COLUMN)] = AbstractTile(ctx.nb, ctx.nrhs)
    return state


def signature_effect(task: Task, ctx: SigContext):
    """Resolve ``task``'s transfer rule and evaluate it.

    Returns ``(effect, violation)``; on any failure the effect is ``None``
    and the violation explains why (missing rule for the op, or the rule
    raising on malformed arguments).  Tasks without a descriptor
    (``task.call is None``) return ``(None, None)`` — the caller decides
    whether opaque tasks are acceptable in its pass.
    """
    call = getattr(task, "call", None)
    if call is None:
        return None, None
    signature = KERNEL_SIGNATURES.get(call.kernel)
    if signature is None:
        return (
            None,
            Violation(
                kind="missing-transfer-rule",
                message=(
                    f"kernel op {call.kernel!r} has no entry in KERNEL_SIGNATURES; "
                    "the abstract interpreter cannot model it"
                ),
                tasks=(task.uid,),
                subject=call.kernel,
            ),
        )
    try:
        effect = signature.effect(call, task.step, ctx)
    except Exception as exc:
        return (
            None,
            Violation(
                kind="signature-error",
                message=f"signature of {call.kernel!r} failed on task {task_label(task)}: {exc!r}",
                tasks=(task.uid,),
                subject=call.kernel,
            ),
        )
    return effect, None


def _ref_label(ref: Tuple[int, int]) -> str:
    return f"rhs[{ref[0]}]" if ref[1] == RHS_COLUMN else f"tile{ref!r}"


def _operand_shape(
    operand: Any,
    state: Dict[Tuple[int, int], AbstractTile],
    task: Task,
    violations: List[Violation],
) -> Optional[Tuple[int, int]]:
    """Shape of a check operand, or None (violation already recorded)."""
    if isinstance(operand, tuple) and operand and operand[0] == "lit":
        return (operand[1], operand[2])
    if isinstance(operand, tuple) and operand and operand[0] == "stack":
        rows = 0
        cols: Optional[int] = None
        for ref in operand[1]:
            shape = _operand_shape(ref, state, task, violations)
            if shape is None:
                return None
            rows += shape[0]
            if cols is None:
                cols = shape[1]
            elif cols != shape[1]:
                violations.append(
                    Violation(
                        kind="shape-mismatch",
                        message=(
                            f"{task_label(task)}: stacked operand mixes column counts "
                            f"({cols} vs {shape[1]} at {_ref_label(ref)})"
                        ),
                        tasks=(task.uid,),
                        tile=ref,
                    )
                )
                return None
        return (rows, 0 if cols is None else cols)
    tile = state.get(operand)
    if tile is None:
        violations.append(
            Violation(
                kind="unknown-tile",
                message=f"{task_label(task)} references {_ref_label(operand)}, which does not exist",
                tasks=(task.uid,),
                tile=operand,
            )
        )
        return None
    return tile.shape


def _run_checks(
    task: Task,
    checks: Tuple[Any, ...],
    state: Dict[Tuple[int, int], AbstractTile],
    violations: List[Violation],
) -> None:
    for check in checks:
        kind = check[0]
        if kind == "matmul":
            _, a, b, out = check
            sa = _operand_shape(a, state, task, violations)
            sb = _operand_shape(b, state, task, violations)
            so = _operand_shape(out, state, task, violations)
            if sa is None or sb is None or so is None:
                continue
            if sa[1] != sb[0]:
                violations.append(
                    Violation(
                        kind="shape-mismatch",
                        message=(
                            f"{task_label(task)}: product does not conform "
                            f"({sa[0]}x{sa[1]} @ {sb[0]}x{sb[1]})"
                        ),
                        tasks=(task.uid,),
                    )
                )
            elif so != (sa[0], sb[1]):
                violations.append(
                    Violation(
                        kind="shape-mismatch",
                        message=(
                            f"{task_label(task)}: result shape {so[0]}x{so[1]} does not match "
                            f"the product shape {sa[0]}x{sb[1]}"
                        ),
                        tasks=(task.uid,),
                    )
                )
        elif kind == "same_shape":
            _, a, b = check
            sa = _operand_shape(a, state, task, violations)
            sb = _operand_shape(b, state, task, violations)
            if sa is not None and sb is not None and sa != sb:
                violations.append(
                    Violation(
                        kind="shape-mismatch",
                        message=(
                            f"{task_label(task)}: operands must share a shape "
                            f"({sa[0]}x{sa[1]} vs {sb[0]}x{sb[1]})"
                        ),
                        tasks=(task.uid,),
                    )
                )
        elif kind == "concrete":
            _, label, actual, expected = check
            if tuple(actual) != tuple(expected):
                violations.append(
                    Violation(
                        kind="shape-mismatch",
                        message=(
                            f"{task_label(task)}: carried array {label} has shape "
                            f"{tuple(actual)}, the plan geometry implies {tuple(expected)}"
                        ),
                        tasks=(task.uid,),
                        subject=label,
                    )
                )
        else:  # pragma: no cover - defensive against future check kinds
            violations.append(
                Violation(
                    kind="signature-error",
                    message=f"{task_label(task)}: unknown check kind {kind!r}",
                    tasks=(task.uid,),
                )
            )


def interpret_graph(
    graph: TaskGraph,
    ctx: SigContext,
    *,
    state: Optional[Dict[Tuple[int, int], AbstractTile]] = None,
    products: Optional[Dict[Any, Dict[str, Any]]] = None,
    result: Optional[AbstractResult] = None,
) -> AbstractResult:
    """Symbolically execute one graph; thread state/products across calls.

    Passing the ``state``/``products``/``result`` of a previous call chains
    interpretation across the pipeline-flushed step graphs of one
    factorization.
    """
    if result is None:
        result = AbstractResult()
    result.state = initial_state(ctx) if state is None else state
    result.products = {} if products is None else products
    state = result.state
    violations = result.violations

    for uid in graph.topological_order():
        task = graph.tasks[uid]
        result.tasks_checked += 1
        effect, violation = signature_effect(task, ctx)
        if violation is not None:
            violations.append(violation)
            continue
        if effect is None:  # opaque task (no descriptor): nothing to model
            continue
        result.kernels_checked += effect.unit_count

        if frozenset(effect.reads) != frozenset(task.reads):
            violations.append(
                Violation(
                    kind="read-set-mismatch",
                    message=(
                        f"{task_label(task)}: planner declared reads "
                        f"{sorted(task.reads)} but the {task.call.kernel!r} signature "
                        f"implies {sorted(effect.reads)}"
                    ),
                    tasks=(uid,),
                    subject=task.call.kernel,
                )
            )
        if frozenset(effect.writes) != frozenset(task.writes):
            violations.append(
                Violation(
                    kind="write-set-mismatch",
                    message=(
                        f"{task_label(task)}: planner declared writes "
                        f"{sorted(task.writes)} but the {task.call.kernel!r} signature "
                        f"implies {sorted(effect.writes)}"
                    ),
                    tasks=(uid,),
                    subject=task.call.kernel,
                )
            )
        fused_units = max(int(getattr(task, "fused", 1) or 1), 1)
        if effect.unit_count != fused_units:
            violations.append(
                Violation(
                    kind="fused-unit-mismatch",
                    message=(
                        f"{task_label(task)}: task fuses {fused_units} kernels but the "
                        f"signature decomposes into {effect.unit_count}"
                    ),
                    tasks=(uid,),
                    subject=task.call.kernel,
                )
            )

        _run_checks(task, effect.checks, state, violations)

        for ref in effect.writes:
            # unknown-tile was already recorded by the checks above when the
            # ref appeared there; record it here too for writes that no check
            # touches.
            if ref not in state and not any(
                v.kind == "unknown-tile" and v.tile == ref and uid in v.tasks
                for v in violations
            ):
                violations.append(
                    Violation(
                        kind="unknown-tile",
                        message=(
                            f"{task_label(task)} writes {_ref_label(ref)}, "
                            "which does not exist"
                        ),
                        tasks=(uid,),
                        tile=ref,
                    )
                )

        produced = task.call.produces
        if produced is not None:
            result.products[produced] = {
                "bytes": effect.product_bytes,
                "producer": uid,
            }
    return result


def interpret_graphs(
    graphs: List[TaskGraph], ctx: SigContext
) -> AbstractResult:
    """Interpret a sequence of flushed step graphs as one program."""
    result: Optional[AbstractResult] = None
    state: Optional[Dict[Tuple[int, int], AbstractTile]] = None
    products: Optional[Dict[Any, Dict[str, Any]]] = None
    for graph in graphs:
        result = interpret_graph(
            graph, ctx, state=state, products=products, result=result
        )
        state, products = result.state, result.products
    return result if result is not None else AbstractResult(state=initial_state(ctx))
