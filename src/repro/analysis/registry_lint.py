"""Lint for the plugin registries (solvers, executors, backends, kernels).

Worker processes and the calibration pipeline assume conventions the
registries themselves never enforce: every dispatchable kernel op must
have a picklable :class:`~repro.kernels.dispatch.KernelCall` form, must
map onto task-kernel names the cost model can price (a flops entry in
:mod:`repro.kernels.flops` or the documented generic ``nb^3`` fallback),
and every registered backend/executor/solver must satisfy the protocol
the runtime calls into.  A plugin that drifts from those conventions
otherwise fails deep inside a worker process, long after registration;
``lint_registries()`` catches the drift up front — run it at import time
(CI does, via the audit CLI) so a broken registration fails the build,
not a production solve.
"""

from __future__ import annotations

import inspect
import pickle
from typing import Dict, List, Tuple

from .report import Violation

__all__ = ["lint_registries", "TASK_KERNELS_OF_OP", "GENERIC_COST_KERNELS"]


#: Dispatch-op name -> task-kernel names its tasks are labelled with.
#: This is the seam between the worker-side KERNELS table and the
#: calibration/cost layer (ExecutionTrace.kernel_of_task records the
#: task-kernel names); an op missing here is plugin drift the cost model
#: cannot price.  Extend it when registering new kernel ops.
TASK_KERNELS_OF_OP: Dict[str, Tuple[str, ...]] = {
    "lu.scatter_factor": ("getrf",),
    "lu.swptrsm": ("swptrsm",),
    "lu.swptrsm_rhs": ("swptrsm",),
    "lu.trsm": ("trsm",),
    "lu.gemm_sweep": ("gemm",),
    "lu.gemm_sweep_rhs": ("gemm_rhs",),
    "qr.geqrt": ("geqrt",),
    "qr.couple": ("tsqrt", "ttqrt"),
    "qr.sweep": ("unmqr", "tsmqr"),
    "qr.sweep_rhs": ("unmqr_rhs", "tsmqr_rhs"),
    "incpiv.getrf": ("getrf",),
    "incpiv.swptrsm": ("swptrsm",),
    "incpiv.swptrsm_rhs": ("swptrsm",),
    "incpiv.tstrf": ("tstrf",),
    "incpiv.ssssm_sweep": ("ssssm",),
    "incpiv.ssssm_sweep_rhs": ("ssssm_rhs",),
}

#: Task kernels with no closed-form Table-I entry; kernel_cost_fn prices
#: them with the generic nb^3 fallback by design.
GENERIC_COST_KERNELS = frozenset({"tstrf", "ssssm"})


def _priceable(kernel: str) -> bool:
    """True when the cost layer can price a task-kernel name."""
    from ..kernels.flops import KernelFlops

    base = kernel[:-4] if kernel.endswith("_rhs") else kernel
    if base in GENERIC_COST_KERNELS:
        return True
    try:
        KernelFlops(8).of(base)
    except KeyError:
        return False
    return True


def _constructible_without_args(obj, skip: Tuple[str, ...] = ()) -> List[str]:
    """Names of required parameters beyond ``skip`` (empty = constructible)."""
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):  # builtins without signatures
        return []
    required = []
    for name, p in sig.parameters.items():
        if name in skip or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if p.default is p.empty:
            required.append(name)
    return required


def _lint_kernels() -> Tuple[List[Violation], int]:
    from ..kernels.dispatch import KERNEL_SIGNATURES, KERNELS, KernelCall

    violations: List[Violation] = []
    # The abstract interpreter (repro.analysis.abstract) can only model ops
    # that declare a shape signature; drift in either direction —
    # a dispatchable op without a signature, or a signature for an op that
    # no longer dispatches — is a lint failure.
    for name in sorted(set(KERNELS) - set(KERNEL_SIGNATURES)):
        violations.append(
            Violation(
                kind="missing-kernel-signature",
                message=(
                    f"kernel op {name!r} is registered in KERNELS but has no "
                    "shape signature in KERNEL_SIGNATURES — the static "
                    "resource analyzer cannot model its tasks"
                ),
                subject=name,
            )
        )
    for name in sorted(set(KERNEL_SIGNATURES) - set(KERNELS)):
        violations.append(
            Violation(
                kind="orphan-kernel-signature",
                message=(
                    f"KERNEL_SIGNATURES declares {name!r} but no such op is "
                    "registered in KERNELS — stale signature, remove or "
                    "re-register the op"
                ),
                subject=name,
            )
        )
    for name in sorted(KERNELS):
        call = KernelCall(kernel=name)
        try:
            restored = pickle.loads(pickle.dumps(call))
        except Exception as exc:
            violations.append(
                Violation(
                    kind="unpicklable-kernel-call",
                    message=f"KernelCall({name!r}) does not pickle: {exc}",
                    subject=name,
                )
            )
        else:
            if restored != call:
                violations.append(
                    Violation(
                        kind="unpicklable-kernel-call",
                        message=(
                            f"KernelCall({name!r}) does not round-trip "
                            "through pickle unchanged"
                        ),
                        subject=name,
                    )
                )
        task_kernels = TASK_KERNELS_OF_OP.get(name)
        if task_kernels is None:
            violations.append(
                Violation(
                    kind="unmapped-kernel-op",
                    message=(
                        f"kernel op {name!r} is registered but not mapped to "
                        "task-kernel names in TASK_KERNELS_OF_OP — the cost "
                        "model and calibration cannot price its tasks"
                    ),
                    subject=name,
                )
            )
            continue
        for kernel in task_kernels:
            if not _priceable(kernel):
                violations.append(
                    Violation(
                        kind="missing-flops-entry",
                        message=(
                            f"task kernel {kernel!r} (from op {name!r}) has "
                            "no flops entry in kernels/flops.py and is not a "
                            "documented generic-cost kernel"
                        ),
                        subject=kernel,
                    )
                )
    return violations, len(KERNELS)


def _lint_solvers() -> Tuple[List[Violation], int]:
    from ..api.registry import SOLVERS
    from ..core.solver_base import TiledSolverBase

    violations: List[Violation] = []
    names = SOLVERS.names()
    for name in names:
        cls = SOLVERS.get(name)
        if not (isinstance(cls, type) and issubclass(cls, TiledSolverBase)):
            violations.append(
                Violation(
                    kind="solver-protocol",
                    message=f"solver {name!r} is not a TiledSolverBase subclass",
                    subject=name,
                )
            )
            continue
        if not isinstance(getattr(cls, "algorithm", None), str):
            violations.append(
                Violation(
                    kind="solver-protocol",
                    message=f"solver {name!r} has no string `algorithm` label",
                    subject=name,
                )
            )
        overrides_plan = cls._plan_step is not TiledSolverBase._plan_step
        overrides_step = cls._do_step is not TiledSolverBase._do_step
        if not (overrides_plan or overrides_step):
            violations.append(
                Violation(
                    kind="solver-protocol",
                    message=(
                        f"solver {name!r} overrides neither _plan_step nor "
                        "_do_step — it cannot perform elimination steps"
                    ),
                    subject=name,
                )
            )
        required = _constructible_without_args(cls, skip=("self", "tile_size"))
        if required:
            violations.append(
                Violation(
                    kind="solver-protocol",
                    message=(
                        f"solver {name!r} has required constructor parameters "
                        f"{required} beyond tile_size — the facade cannot "
                        "build it from a spec"
                    ),
                    subject=name,
                )
            )
    return violations, len(names)


def _lint_executors() -> Tuple[List[Violation], int]:
    from ..api.registry import EXECUTORS

    violations: List[Violation] = []
    names = EXECUTORS.names()
    for name in names:
        factory = EXECUTORS.get(name)
        if not callable(getattr(factory, "run", None)):
            violations.append(
                Violation(
                    kind="executor-protocol",
                    message=f"executor {name!r} has no callable `run(graph)`",
                    subject=name,
                )
            )
        required = _constructible_without_args(factory, skip=("self",))
        if required:
            violations.append(
                Violation(
                    kind="executor-protocol",
                    message=(
                        f"executor {name!r} has required constructor "
                        f"parameters {required} — the REPRO_EXECUTOR spec "
                        "path cannot build it without arguments"
                    ),
                    subject=name,
                )
            )
    return violations, len(names)


def _lint_kernel_backends() -> Tuple[List[Violation], int]:
    from ..api.registry import KERNEL_BACKENDS
    from ..kernels.backends import KernelBackend, resolve_backend

    violations: List[Violation] = []
    names = KERNEL_BACKENDS.names()
    for name in names:
        try:
            backend = resolve_backend(name)
        except Exception as exc:
            violations.append(
                Violation(
                    kind="backend-protocol",
                    message=f"kernel backend {name!r} fails to resolve: {exc}",
                    subject=name,
                )
            )
            continue
        if not isinstance(backend, KernelBackend):
            violations.append(
                Violation(
                    kind="backend-protocol",
                    message=f"kernel backend {name!r} is not a KernelBackend",
                    subject=name,
                )
            )
            continue
        # Calibration tables and trace views key off the name; it must
        # resolve back through the registry.
        if backend.name not in KERNEL_BACKENDS:
            violations.append(
                Violation(
                    kind="backend-protocol",
                    message=(
                        f"kernel backend {name!r} has name={backend.name!r} "
                        "which is not a registered backend name"
                    ),
                    subject=name,
                )
            )
    return violations, len(names)


def lint_registries() -> List[Violation]:
    """Lint all four registries; return the violations found (empty = clean)."""
    violations: List[Violation] = []
    for linter in (
        _lint_kernels,
        _lint_solvers,
        _lint_executors,
        _lint_kernel_backends,
    ):
        found, _ = linter()
        violations.extend(found)
    return violations


def lint_registries_with_coverage() -> Tuple[List[Violation], Dict[str, int]]:
    """Like :func:`lint_registries` but also report per-registry entry counts."""
    violations: List[Violation] = []
    coverage: Dict[str, int] = {}
    for key, linter in (
        ("kernels", _lint_kernels),
        ("solvers", _lint_solvers),
        ("executors", _lint_executors),
        ("kernel_backends", _lint_kernel_backends),
    ):
        found, count = linter()
        violations.extend(found)
        coverage[key] = count
    return violations, coverage
