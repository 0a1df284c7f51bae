"""Kernel backends: the seam instrumentation plugs into a factorization.

Every solver runs one trailing-update plan (see :mod:`repro.core.lu_step`
and :mod:`repro.core.qr_step`): the panel kernels are per tile, the
trailing update of step ``k`` is one sweep task per kernel family and
column range — columns ``k+1`` and ``k+2``, the bulk block ``k+3..n-1``
(:func:`~repro.kernels.dispatch.sweep_ranges`) — plus one for the
right-hand side.  A *kernel backend* does not change that plan; it
only gets two hooks around it, :meth:`KernelBackend.prepare_tiles` and
:meth:`KernelBackend.wrap_task`, which is how the access tracer in
:mod:`repro.analysis.tracing` observes every kernel.

``numpy`` is the compute backend and the default.  The names ``fused``,
``batched``, ``jit`` and ``numba`` are registry aliases of it: they once
selected separate per-column fusion plans, which the sweep plan replaced.

Backends register into :data:`~repro.api.registry.KERNEL_BACKENDS` with
``@register_kernel_backend`` exactly like solvers and executors; unknown
names raise a :class:`ValueError` listing the available options.
"""

from __future__ import annotations

from typing import Any

from ..api.registry import KERNEL_BACKENDS, register_kernel_backend

__all__ = ["KernelBackend", "NumpyBackend", "resolve_backend"]


class KernelBackend:
    """Hooks around the tasks of a factorization (no-ops here).

    ``name`` is the canonical registry name, by which a solver's backend
    is reported.
    """

    name = "abstract"

    def prepare_tiles(self, tiles):
        """Hook: wrap or replace the tile matrix before a factorization.

        Called by :class:`~repro.core.solver_base.TiledSolverBase` right
        after the working tiles are materialized and before any step is
        planned, so an instrumenting backend (e.g. the access-tracing
        backend in :mod:`repro.analysis`) can interpose proxied tile
        views.  Must return a tile matrix aliasing the same storage; the
        base implementation returns ``tiles`` unchanged.
        """
        return tiles

    def wrap_task(self, task, step: int):
        """Hook: wrap or replace a planned kernel task before it runs.

        Called once per planned task (inline and executor paths alike)
        before submission, so an instrumenting backend can wrap the task
        closure with bookkeeping.  Must return a task with identical
        declared ``reads``/``writes``; the base implementation returns
        ``task`` unchanged.
        """
        return task

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


@register_kernel_backend(
    "numpy", aliases=("reference", "ref", "fused", "batched", "jit", "numba")
)
class NumpyBackend(KernelBackend):
    """The compute backend: runs the planned tasks unchanged."""

    name = "numpy"


def resolve_backend(spec: Any = None) -> KernelBackend:
    """Resolve a backend spec (name, instance, or None) to an instance.

    ``None`` means the default ``numpy`` backend.  Names resolve through
    :data:`~repro.api.registry.KERNEL_BACKENDS` to a fresh instance on
    every call, so an instrumenting backend's state is never shared
    between solvers and a re-registered name takes effect at once;
    unknown names raise a :class:`ValueError` listing the available
    backends.  Ready instances pass through.
    """
    return KERNEL_BACKENDS.create("numpy" if spec is None else spec)
