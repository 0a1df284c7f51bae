"""Declarative construction of solvers: ``SolverSpec``, ``make_solver``,
and the top-level ``repro.solve`` / ``repro.factor`` facades.

Callers describe *what* they want — an algorithm name, a criterion spec, a
tree spec, an executor spec — and the facade resolves every part through
the plugin registries and assembles the exact same solver object a caller
would hand-construct:

>>> import numpy as np
>>> import repro
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal((64, 64)); b = rng.standard_normal(64)
>>> result = repro.solve(a, b, algorithm="hybrid", tile_size=8,
...                      criterion="max(alpha=50)")
>>> result.x.shape
(64,)

Because resolution only ever builds the registered classes with the parsed
keyword arguments, ``repro.solve(...)`` is bit-identical to constructing
the solver by hand with the same configuration.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional

import numpy as np

from ..tiles.distribution import ProcessGrid
from .registry import (
    CRITERIA,
    EXECUTORS,
    SOLVERS,
    TREES,
    parse_spec,
)

__all__ = [
    "SolverSpec",
    "make_solver",
    "make_criterion",
    "make_tree",
    "make_executor",
    "make_kernel_backend",
    "make_grid",
    "solve",
    "factor",
]

#: Default tile size of the facade (the README quick-start value).
DEFAULT_TILE_SIZE = 32

#: Executor specs that mean "run kernels inline, no dataflow executor".
_INLINE_EXECUTORS = {"none", "inline", "off"}

#: Environment variable supplying the default executor spec for solvers
#: built without an explicit executor (``REPRO_EXECUTOR=processes`` runs
#: the whole suite on the multi-process backend, as the CI matrix does).
_EXECUTOR_ENV = "REPRO_EXECUTOR"


@dataclass
class SolverSpec:
    """Declarative description of a configured solver.

    Every field accepts either an already-constructed object or a string
    spec resolved through the registries (``"max(alpha=50)"``,
    ``"fibonacci"``, ``"threaded(workers=4)"``).  ``grid`` additionally
    accepts a ``(p, q)`` tuple or a ``"PxQ"`` string.  Fields left at
    ``None`` keep the algorithm's own defaults, so a spec carrying only an
    algorithm name builds the same solver as the bare constructor call.

    ``options`` holds algorithm-specific keyword arguments (for example
    ``domain_pivoting=False`` for the hybrid solver); they are validated
    against the algorithm's constructor signature when the solver is built.

    ``kernel_backend`` selects the hooks wrapped around the planned tasks
    (a :data:`~repro.api.registry.KERNEL_BACKENDS` name such as
    ``"numpy"`` or ``"tracing"``, or a ready backend instance); ``None``
    is ``numpy``.

    ``tile_size`` is an integer >= 1 chosen by the caller; the paper, too,
    fixes ``nb`` per platform by experiment.
    """

    algorithm: Any = "hybrid"
    tile_size: Any = DEFAULT_TILE_SIZE
    criterion: Any = None
    intra_tree: Any = None
    inter_tree: Any = None
    grid: Any = None
    executor: Any = None
    track_growth: bool = True
    kernel_backend: Any = None
    options: Dict[str, Any] = field(default_factory=dict)


_SPEC_FIELDS = {f.name for f in fields(SolverSpec)}


# --------------------------------------------------------------------------- #
# Component resolvers
# --------------------------------------------------------------------------- #
def make_criterion(spec: Any, **overrides: Any) -> Any:
    """Resolve a criterion spec (``"max(alpha=50)"``) or pass through."""
    return CRITERIA.create(spec, **overrides)


def make_tree(spec: Any) -> Any:
    """Resolve a reduction-tree spec (``"fibonacci"``) or pass through."""
    return TREES.create(spec)


def _is_inline_executor_spec(spec: Any) -> bool:
    """True when a spec means "no executor" (``None``, ``"none"``, ...)."""
    return spec is None or (
        isinstance(spec, str) and spec.strip().lower() in _INLINE_EXECUTORS
    )


def make_executor(spec: Any) -> Any:
    """Resolve an executor spec (``"threaded(workers=4)"``) or pass through.

    ``None`` and the strings ``"none"`` / ``"inline"`` / ``"off"`` resolve
    to ``None`` — the sequential in-program-order kernel path.
    """
    if _is_inline_executor_spec(spec):
        return None
    return EXECUTORS.create(spec)


def make_kernel_backend(spec: Any) -> Any:
    """Resolve a kernel-backend spec (``"tracing"``) or pass through.

    ``None`` resolves to ``numpy``; unknown names raise a
    :class:`ValueError` listing the registered backends.
    """
    from ..kernels.backends import resolve_backend  # lazy: pulls in numpy

    return resolve_backend(spec)


def make_grid(spec: Any) -> Optional[ProcessGrid]:
    """Resolve a process-grid spec: ``ProcessGrid``, ``(p, q)``, ``"PxQ"``."""
    if spec is None or isinstance(spec, ProcessGrid):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return ProcessGrid(int(spec[0]), int(spec[1]))
    if isinstance(spec, str):
        text = spec.strip().lower()
        parts = text.split("x")
        if len(parts) == 2 and all(p.strip().isdigit() for p in parts):
            return ProcessGrid(int(parts[0]), int(parts[1]))
    raise ValueError(
        f"cannot interpret process grid spec {spec!r}; expected a "
        f"ProcessGrid, a (p, q) pair, or a 'PxQ' string"
    )


# --------------------------------------------------------------------------- #
# Solver assembly
# --------------------------------------------------------------------------- #
def _normalize_spec(spec: Any, kwargs: Dict[str, Any]) -> SolverSpec:
    """Merge a spec-or-None with keyword overrides into one ``SolverSpec``.

    Keyword arguments that are not ``SolverSpec`` fields are routed into
    ``options`` (algorithm-specific constructor arguments).
    """
    field_kwargs = {k: v for k, v in kwargs.items() if k in _SPEC_FIELDS}
    option_kwargs = {k: v for k, v in kwargs.items() if k not in _SPEC_FIELDS}
    if spec is None:
        spec = SolverSpec(**field_kwargs)
    elif isinstance(spec, SolverSpec):
        if field_kwargs:
            spec = replace(spec, **field_kwargs)
    elif isinstance(spec, dict):
        merged = dict(spec)
        merged.update(kwargs)
        return _normalize_spec(None, merged)
    elif isinstance(spec, str):
        # A bare algorithm spec: make_solver("hybrid", tile_size=8).
        field_kwargs["algorithm"] = spec
        spec = SolverSpec(**field_kwargs)
    else:
        raise TypeError(
            f"spec must be a SolverSpec, dict, algorithm name, or None; "
            f"got {type(spec).__name__}"
        )
    if option_kwargs:
        spec = replace(spec, options={**spec.options, **option_kwargs})
    return spec


def make_solver(spec: Any = None, **kwargs: Any):
    """Build a configured solver from a :class:`SolverSpec` (or kwargs).

    Accepts a ``SolverSpec``, a plain dict of its fields, a bare algorithm
    name, or nothing plus keyword arguments.  Examples::

        make_solver(algorithm="hybrid", tile_size=8, criterion="max(alpha=50)")
        make_solver("lupp", tile_size=16)
        make_solver(SolverSpec(algorithm="hqr", inter_tree="binary"))

    Raises :class:`ValueError` when the algorithm name is unknown (listing
    the registered names) or when a component is specified that the chosen
    algorithm does not accept (e.g. a criterion for a pure baseline),
    and when ``tile_size`` is not an integer >= 1.
    """
    spec = _normalize_spec(spec, kwargs)

    algorithm = spec.algorithm
    extra_options: Dict[str, Any] = dict(spec.options)
    if isinstance(algorithm, str):
        name, args, algo_kwargs = parse_spec(algorithm)
        if args:
            raise ValueError(
                f"algorithm spec {algorithm!r} takes keyword arguments only"
            )
        solver_cls = SOLVERS.get(name)
        extra_options.update(algo_kwargs)
    else:
        solver_cls = algorithm
    algo_label = getattr(solver_cls, "algorithm", solver_cls.__name__)

    # An executor left unspecified falls back to the REPRO_EXECUTOR
    # environment variable (the seam the CI matrix uses to exercise the
    # multi-process backend under the whole suite); an env-supplied spec is
    # silently dropped for solvers that do not take an executor, whereas an
    # explicitly configured one still raises below.
    executor_spec = spec.executor
    if executor_spec is None:
        env_spec = os.environ.get(_EXECUTOR_ENV, "").strip()
        if env_spec:
            executor_spec = env_spec

    params = inspect.signature(solver_cls.__init__).parameters
    build_kwargs: Dict[str, Any] = {}
    # ``tile_size=None`` means "the algorithm's own default", mirroring how
    # ``criterion``/``intra_tree`` treat ``None``: omit the argument when
    # the constructor declares a default, and fall back to the facade
    # default for the built-ins (whose tile_size is required).
    if "tile_size" in params:
        if spec.tile_size is not None:
            build_kwargs["tile_size"] = spec.tile_size
        elif params["tile_size"].default is inspect.Parameter.empty:
            build_kwargs["tile_size"] = DEFAULT_TILE_SIZE
    # Base arguments every built-in accepts; a user-registered solver with
    # a narrower signature only gets the ones it declares, and explicitly
    # configuring one it lacks is a spec error rather than a TypeError.
    for key, value, default in (
        ("grid", make_grid(spec.grid), None),
        ("track_growth", bool(spec.track_growth), True),
    ):
        if key in params:
            build_kwargs[key] = value
        elif value != default:
            raise ValueError(
                f"algorithm {algo_label!r} does not accept {key!r}"
            )
    if "executor" in params:
        build_kwargs["executor"] = make_executor(executor_spec)
    elif not _is_inline_executor_spec(spec.executor):
        # Explicitly configured (not env-supplied) executor on a solver
        # that takes none; checked without constructing a throwaway one.
        raise ValueError(
            f"algorithm {algo_label!r} does not accept 'executor'"
        )
    if spec.kernel_backend is not None:
        if "kernel_backend" not in params:
            raise ValueError(
                f"algorithm {algo_label!r} does not accept a kernel_backend"
            )
        build_kwargs["kernel_backend"] = make_kernel_backend(spec.kernel_backend)
    for key, value in (
        ("criterion", make_criterion(spec.criterion) if spec.criterion is not None else None),
        ("intra_tree", make_tree(spec.intra_tree) if spec.intra_tree is not None else None),
        ("inter_tree", make_tree(spec.inter_tree) if spec.inter_tree is not None else None),
    ):
        if value is None:
            continue
        if key not in params:
            raise ValueError(
                f"algorithm {algo_label!r} does not accept a {key}"
            )
        build_kwargs[key] = value
    for key, value in extra_options.items():
        if key not in params:
            accepted = sorted(p for p in params if p != "self")
            raise ValueError(
                f"algorithm {algo_label!r} does not accept option "
                f"{key!r}; accepted: {', '.join(accepted)}"
            )
        build_kwargs[key] = value
    return solver_cls(**build_kwargs)


# --------------------------------------------------------------------------- #
# Top-level facades
# --------------------------------------------------------------------------- #
def solve(
    a: np.ndarray,
    b: np.ndarray,
    *,
    x_true: Optional[np.ndarray] = None,
    spec: Any = None,
    **kwargs: Any,
):
    """Solve ``Ax = b`` with a declaratively configured solver.

    ``repro.solve(a, b, algorithm="hybrid", criterion="max(alpha=50)")``
    builds the registered solver with the parsed configuration and calls
    its :meth:`~repro.core.solver_base.TiledSolverBase.solve` — the result
    is bit-identical to hand-constructing the same solver.  Returns a
    :class:`~repro.core.factorization.SolveResult`.
    """
    return make_solver(spec, **kwargs).solve(a, b, x_true=x_true)


def factor(
    a: np.ndarray,
    b: Optional[np.ndarray] = None,
    *,
    spec: Any = None,
    **kwargs: Any,
):
    """Factor ``[A | b]`` with a declaratively configured solver.

    Returns the :class:`~repro.core.factorization.Factorization`.
    """
    return make_solver(spec, **kwargs).factor(a, b)
