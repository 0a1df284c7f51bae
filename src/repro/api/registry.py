"""Plugin registries and the string-spec mini-language of the public API.

The paper's framework hosts many interchangeable policies — robustness
criteria, reduction trees, execution backends, whole algorithms — behind
one tiled driver.  This module gives each of those extension points a
:class:`Registry` that built-ins (and user plugins) register into by
decorating their class:

>>> from repro.api.registry import register_criterion
>>> @register_criterion("shiny")
... class ShinyCriterion:
...     def __init__(self, alpha=1.0):
...         self.alpha = alpha

Registered names are then resolvable from declarative string specs with an
optional call-style argument list::

    "max"                -> MaxCriterion()
    "max(alpha=50)"      -> MaxCriterion(alpha=50)
    "threaded(workers=4)" -> ThreadedExecutor(workers=4)
    "fibonacci"          -> FibonacciTree()

Unknown names raise a :class:`ValueError` that lists every available
option, so typos are self-explanatory.  A plugin is checked when it
registers: a taken name raises, and so does a kernel backend whose
``name`` is not the name it registers under.  The module is intentionally
a leaf (stdlib imports only): every built-in module imports it at
definition time to self-register, so it must never import back into the
package.
"""

from __future__ import annotations

import ast
import re
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = [
    "Registry",
    "SpecError",
    "parse_spec",
    "SOLVERS",
    "CRITERIA",
    "TREES",
    "EXECUTORS",
    "KERNEL_BACKENDS",
    "register_solver",
    "register_criterion",
    "register_tree",
    "register_executor",
    "register_kernel_backend",
]


class SpecError(ValueError):
    """A string spec could not be parsed or resolved."""


_SPEC_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z0-9_\-]*)\s*(?:\((?P<args>.*)\))?\s*$",
    re.DOTALL,
)


def _parse_value(text: str) -> Any:
    """Parse one argument value: a Python literal, or a bare string."""
    text = text.strip()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        # Bare words ("fibonacci") are taken as strings so nested names do
        # not need quoting.
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_\-]*", text):
            return text
        raise SpecError(f"cannot parse argument value {text!r}") from None


def _split_args(text: str) -> List[str]:
    """Split a call argument list on top-level commas (brackets nest)."""
    parts: List[str] = []
    depth = 0
    current = ""
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if current.strip():
        parts.append(current)
    return [p for p in parts if p.strip()]


def parse_spec(spec: str) -> Tuple[str, Tuple[Any, ...], Dict[str, Any]]:
    """Parse ``"name"`` or ``"name(arg, key=value, ...)"``.

    Returns ``(name, positional_args, keyword_args)``.  Values are Python
    literals (``50``, ``1e-3``, ``True``, ``'s'``) or bare identifiers,
    which parse as strings.

    >>> parse_spec("max(alpha=50)")
    ('max', (), {'alpha': 50})
    >>> parse_spec("threaded(workers=4)")
    ('threaded', (), {'workers': 4})
    >>> parse_spec("fibonacci")
    ('fibonacci', (), {})
    """
    if not isinstance(spec, str):
        raise SpecError(f"spec must be a string, got {type(spec).__name__}")
    m = _SPEC_RE.match(spec)
    if m is None:
        raise SpecError(
            f"malformed spec {spec!r}; expected 'name' or 'name(key=value, ...)'"
        )
    name = m.group("name")
    arg_text = m.group("args")
    args: List[Any] = []
    kwargs: Dict[str, Any] = {}
    if arg_text:
        for part in _split_args(arg_text):
            part = part.strip()
            kv = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", part, re.DOTALL)
            if kv:
                kwargs[kv.group(1)] = _parse_value(kv.group(2))
            else:
                if kwargs:
                    raise SpecError(
                        f"positional argument {part!r} follows keyword arguments "
                        f"in spec {spec!r}"
                    )
                args.append(_parse_value(part))
    return name, tuple(args), kwargs


class Registry:
    """A named collection of factories for one extension point.

    Lookup is case-insensitive and alias-aware; creation resolves string
    specs through :func:`parse_spec`.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(
        self, name: str, *, aliases: Iterable[str] = ()
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Class/function decorator registering a factory under ``name``."""
        canonical = name.lower()

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            existing = self._factories.get(canonical)
            if existing is not None and existing is not factory:
                raise ValueError(
                    f"{self.kind} name {canonical!r} is already registered "
                    f"to {existing!r}"
                )
            if canonical in self._aliases:
                raise ValueError(
                    f"{self.kind} name {canonical!r} is already registered "
                    f"as an alias of {self._aliases[canonical]!r}"
                )
            for alias in aliases:
                key = alias.lower()
                taken = key in self._factories or (
                    key in self._aliases and self._aliases[key] != canonical
                )
                if taken:
                    raise ValueError(
                        f"cannot alias {key!r} to {canonical!r}: the "
                        f"{self.kind} name is already registered"
                    )
            self._check(canonical, factory)
            self._factories[canonical] = factory
            for alias in aliases:
                self._aliases[alias.lower()] = canonical
            return factory

        return decorator

    def _check(self, canonical: str, factory: Callable[..., Any]) -> None:
        """Raise to refuse ``factory`` before it registers as ``canonical``."""

    def unregister(self, name: str) -> None:
        """Remove a registered factory and every alias pointing at it.

        Intended for plugin teardown (tests, hot reload); unknown names
        raise the same listing :class:`ValueError` as :meth:`get`.
        """
        canonical = str(name).lower()
        canonical = self._aliases.get(canonical, canonical)
        if canonical not in self._factories:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: "
                f"{', '.join(self.names())}"
            )
        del self._factories[canonical]
        for alias in [a for a, c in self._aliases.items() if c == canonical]:
            del self._aliases[alias]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Sorted canonical names (aliases excluded)."""
        return sorted(self._factories)

    def aliases(self) -> Dict[str, str]:
        """Alias -> canonical name mapping."""
        return dict(self._aliases)

    def __contains__(self, name: str) -> bool:
        key = str(name).lower()
        return key in self._factories or key in self._aliases

    def get(self, name: str) -> Callable[..., Any]:
        """Return the factory registered under ``name`` (or an alias)."""
        key = str(name).lower()
        key = self._aliases.get(key, key)
        try:
            return self._factories[key]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; available: "
                f"{', '.join(self.names())}"
            ) from None

    def create(self, spec: Any, **overrides: Any) -> Any:
        """Instantiate from a string spec, or pass a ready instance through.

        ``"max(alpha=50)"`` resolves the factory registered as ``max`` and
        calls it with ``alpha=50``; anything that is not a string is assumed
        to be an already-configured instance and returned unchanged
        (``overrides`` are rejected in that case — they cannot be applied
        retroactively).
        """
        if not isinstance(spec, str):
            if overrides:
                raise ValueError(
                    f"cannot apply overrides {sorted(overrides)} to an "
                    f"already-constructed {self.kind} instance"
                )
            return spec
        name, args, kwargs = parse_spec(spec)
        factory = self.get(name)
        kwargs.update(overrides)
        return factory(*args, **kwargs)


class _BackendRegistry(Registry):
    def _check(self, canonical: str, factory: Callable[..., Any]) -> None:
        """Refuse a kernel backend whose ``name`` is not its registry name.

        A solver's backend is reported by its ``name``, so a plugin that
        inherits another backend's name (say a ``NumpyBackend`` subclass
        without its own) would pass for that backend.
        """
        declared = getattr(factory, "name", canonical)
        if declared != canonical:
            raise ValueError(
                f"kernel backend {canonical!r} declares name={declared!r}; "
                f"set name = {canonical!r} on the class it registers"
            )


#: The five extension points of the framework.
SOLVERS = Registry("algorithm")
CRITERIA = Registry("criterion")
TREES = Registry("reduction tree")
EXECUTORS = Registry("executor")
KERNEL_BACKENDS = _BackendRegistry("kernel backend")

#: Decorators used by the built-ins (and available to user plugins).
register_solver = SOLVERS.register
register_criterion = CRITERIA.register
register_tree = TREES.register
register_executor = EXECUTORS.register
register_kernel_backend = KERNEL_BACKENDS.register
