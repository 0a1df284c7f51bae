"""Schedule-perturbation determinism check.

The paper's asynchrony argument is that any dependency-respecting
execution order produces the same factors.  The runtime inherits that
claim: task priorities only reorder *ready* tasks, never dependencies,
so randomizing them must leave the results bit-identical.  This module
enforces it: :class:`PerturbedThreadedExecutor` overwrites every task
priority with seeded random noise before running the graph, and
:func:`determinism_check` factors the same system under several
perturbed schedules, comparing factors (and transformed RHS) bit for
bit against the inline in-program-order reference.  Any difference is
an undeclared dependency — a real race — reported as a violation; a
factorization that raises (the reference or a perturbed round) is
reported as a ``factorization-error`` violation naming it.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..runtime.executor import ThreadedExecutor
from .report import Violation

__all__ = ["PerturbedThreadedExecutor", "determinism_check"]


class PerturbedThreadedExecutor(ThreadedExecutor):
    """Threaded executor that randomizes ready-queue priorities per graph.

    Every submitted graph has its task priorities overwritten with
    seeded random values before dispatch, so the priority heap pops
    ready tasks in an adversarial (but reproducible) order.  Dependency
    edges still gate readiness, so a correctly-declared plan must
    produce bit-identical results under any seed.
    """

    def __init__(self, workers: int = 4, seed: int = 0) -> None:
        super().__init__(workers=workers)
        self._rng = np.random.default_rng(seed)

    def run(self, graph, timeout: Optional[float] = None):
        for task in graph.tasks:
            task.priority = float(self._rng.random())
        return super().run(graph, timeout=timeout)


def determinism_check(
    make_solver: Callable,
    a: np.ndarray,
    b: Optional[np.ndarray] = None,
    *,
    rounds: int = 3,
    workers: int = 3,
    seed: int = 0,
) -> List[Violation]:
    """Factor under perturbed schedules; flag any deviation from inline.

    ``make_solver(executor)`` must return a fresh configured solver using
    the given executor (``None`` selects the inline in-program-order
    path).  Runs ``rounds`` perturbed threaded factorizations with
    distinct seeds and compares tile storage, transformed RHS, and
    breakdown status bit-for-bit against the inline reference.
    """

    def raised(label: str, exc: Exception) -> Violation:
        return Violation(
            kind="factorization-error",
            message=f"{label} raised {type(exc).__name__}: {exc}",
        )

    violations: List[Violation] = []
    try:
        reference = make_solver(None).factor(a, b)
    except Exception as exc:  # reported, not raised: nothing to compare
        return [raised("the inline reference", exc)]
    ref_tiles = reference.tiles.array.copy()
    ref_rhs = None if reference.tiles.rhs is None else reference.tiles.rhs.copy()
    ref_breakdown = getattr(reference, "breakdown", None)

    for r in range(rounds):
        executor = PerturbedThreadedExecutor(workers=workers, seed=seed + r)
        label = f"perturbed schedule round {r} (seed {seed + r})"
        try:
            fact = make_solver(executor).factor(a, b)
        except Exception as exc:  # reported, not raised
            violations.append(raised(label, exc))
            continue
        if getattr(fact, "breakdown", None) != ref_breakdown:
            violations.append(
                Violation(
                    kind="nondeterminism",
                    message=(
                        f"{label}: breakdown status "
                        f"{getattr(fact, 'breakdown', None)!r} differs from "
                        f"inline reference {ref_breakdown!r}"
                    ),
                )
            )
            continue
        if not np.array_equal(fact.tiles.array, ref_tiles):
            diff = int(np.count_nonzero(fact.tiles.array != ref_tiles))
            violations.append(
                Violation(
                    kind="nondeterminism",
                    message=(
                        f"{label}: factor storage differs from the inline "
                        f"reference in {diff} element(s) — an undeclared "
                        "dependency let tasks race"
                    ),
                )
            )
        rhs = fact.tiles.rhs
        if (rhs is None) != (ref_rhs is None) or (
            rhs is not None and not np.array_equal(rhs, ref_rhs)
        ):
            violations.append(
                Violation(
                    kind="nondeterminism",
                    message=f"{label}: transformed RHS differs from inline",
                )
            )
    return violations
