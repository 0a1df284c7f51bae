"""``SolverSession`` — the serving layer of the public API.

A session holds one configured solver and an LRU cache of factorizations
keyed by matrix fingerprint, so repeated ``session.solve(a, b)`` requests
against the same ``A`` skip the O(n^3) factorization and go straight to the
O(n^2) back-substitution.  This amortizes factorizations *across requests*
the same way the batched ``solve_many`` (one factorization, many trailing
columns, Section II-D1 of the paper) amortizes them across right-hand
sides.

To serve right-hand sides that were unknown at factorization time, a cache
miss factors ``[A | I]``: every transformation the elimination steps apply
to the right-hand side is a linear row operation, so riding the identity
along the factorization materializes the combined operator ``M`` with
``M @ b`` equal to the transformed right-hand side for *any* ``b``.  A
request is then one small matmul plus the back-substitution.  The
extra ``n`` trailing columns make the miss factorization costlier than a
single direct solve, which is the explicit trade of a serving layer: the
cost is paid once per matrix and every subsequent hit is cheap.

A hit therefore costs one ``transform @ b``, one back-substitution (a
single LAPACK ``dtrtrs`` on the cached factor) and one residual pass
``A @ x - b`` for the stability report; the two O(n^2) norms of ``A`` the
report needs are computed on the miss and kept on the cache entry.  A
right-hand side holding NaN or Inf is rejected before any of it, with the
``ValueError`` that ``factor`` raises, and counts neither a hit nor a
miss.  ``benchmarks/e2e`` measures a hit: ``serve_warm`` (hits only) and
``serve_churn`` (misses, evictions and hits); the counters are exposed on
``session.stats``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.factorization import Factorization, SolveResult, stack_rhs
from ..linalg.pivoting import SingularPanelError
from ..linalg.triangular import tiled_back_substitution
from ..stability.metrics import matrix_norms, stability_report, stability_reports
from .facade import make_solver

__all__ = ["CacheStats", "SolverSession", "matrix_fingerprint"]


def matrix_fingerprint(a: np.ndarray) -> str:
    """Content fingerprint of a matrix (shape + dtype + SHA-256 of bytes)."""
    a = np.ascontiguousarray(a)
    digest = hashlib.sha256()
    digest.update(str(a.shape).encode())
    digest.update(str(a.dtype).encode())
    digest.update(a)  # the C-contiguous buffer itself: no copy
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters of the session's factorization cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    solves: int = 0
    factor_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the cache (0.0 when empty)."""
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            solves=self.solves,
            factor_seconds=self.factor_seconds,
        )


@dataclass
class _CacheEntry:
    """One cached factorization: the factors plus the RHS operator ``M``."""

    factorization: Factorization
    transform: np.ndarray  # (n + pad, n): transformed-rhs operator
    n: int
    pad: int
    a_norms: Tuple[float, float]  # matrix_norms(A), for every report on a hit
    serves: int = field(default=0)


class SolverSession:
    """Serve many ``Ax = b`` requests from one solver and a factorization cache.

    Parameters
    ----------
    solver:
        A constructed solver, a :class:`~repro.api.facade.SolverSpec`, an
        algorithm name, or ``None`` — anything that is not already a solver
        is resolved through :func:`~repro.api.facade.make_solver` together
        with ``**spec_kwargs``.
    capacity:
        Maximum number of cached factorizations (LRU eviction); ``None``
        means unbounded.

    Examples
    --------
    >>> import numpy as np, repro
    >>> rng = np.random.default_rng(0)
    >>> a = rng.standard_normal((64, 64))
    >>> session = repro.SolverSession(algorithm="hybrid", tile_size=8,
    ...                               criterion="max(alpha=50)")
    >>> x1 = session.solve(a, rng.standard_normal(64))   # factors [A | I]
    >>> x2 = session.solve(a, rng.standard_normal(64))   # back-substitution only
    >>> (session.stats.misses, session.stats.hits)
    (1, 1)
    """

    def __init__(
        self,
        solver: Any = None,
        *,
        capacity: Optional[int] = 8,
        **spec_kwargs: Any,
    ) -> None:
        if hasattr(solver, "factor") and hasattr(solver, "solve"):
            if spec_kwargs:
                raise ValueError(
                    "cannot combine an already-constructed solver with "
                    f"spec keyword arguments {sorted(spec_kwargs)}"
                )
            self.solver = solver
        else:
            self.solver = make_solver(solver, **spec_kwargs)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._cache: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Per-key ``[lock, waiters]`` pairs serializing concurrent misses
        #: on the same matrix, so one factorization is shared instead of
        #: raced.  The refcount keeps the lock alive until the *last*
        #: in-flight miss finishes: if the winner dropped it eagerly, a
        #: request arriving after a clear() could mint a fresh lock while a
        #: queued waiter still factors, racing the same matrix twice.
        self._inflight: Dict[str, list] = {}
        #: Bumped by :meth:`clear` so an in-flight factorization that
        #: started before the clear cannot resurrect itself into the
        #: freshly cleared cache (or pollute the reset statistics).
        self._generation = 0

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop every cached factorization and reset the statistics.

        Safe against in-flight misses: the per-key locks in ``_inflight``
        are deliberately *not* dropped (a concurrent request must keep
        serializing on the same lock as the factorization already running,
        or the same matrix would factor twice in parallel), and bumping the
        generation counter prevents the in-flight winner from re-inserting
        its pre-clear entry into the freshly cleared cache.
        """
        with self._lock:
            self._cache.clear()
            self.stats = CacheStats()
            self._generation += 1

    def cached_factorization(
        self, a: Optional[np.ndarray] = None, *, key: Optional[str] = None
    ) -> Optional[Factorization]:
        """The cached factorization for ``A``, or ``None`` (no stats impact).

        Accepts either the matrix itself (validated and fingerprinted like
        :meth:`solve`) or a precomputed ``key`` — e.g. from a
        :class:`~repro.api.service.MatrixHandle` — which skips both.
        """
        if key is None:
            if a is None:
                raise ValueError("cached_factorization needs a matrix or a key")
            key = matrix_fingerprint(self._check_matrix(a))
        with self._lock:
            entry = self._cache.get(key)
        return entry.factorization if entry is not None else None

    def _lookup_hit(self, key: str) -> Optional[_CacheEntry]:
        """Return the cached entry and count a hit, or ``None`` (no count)."""
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.stats.hits += 1
        return entry

    def _get_or_factor(self, a: np.ndarray, key: str) -> _CacheEntry:
        """Cached entry for ``key``, factoring on a miss.

        Concurrent misses on the same matrix serialize on a per-key lock,
        so the factorization runs exactly once and the losers of the race
        are counted as hits (they are served from the winner's entry).
        Misses on *different* matrices do not block each other here, but
        they serialize inside the shared solver instance (whose ``factor``
        carries per-factorization state); cache hits never wait on either.
        """
        entry = self._lookup_hit(key)
        if entry is not None:
            return entry
        with self._lock:
            slot = self._inflight.setdefault(key, [threading.Lock(), 0])
            slot[1] += 1
        try:
            with slot[0]:
                entry = self._lookup_hit(key)
                if entry is not None:
                    return entry
                with self._lock:
                    self.stats.misses += 1
                    generation = self._generation
                return self._factor_entry(a, key, generation)
        finally:
            with self._lock:
                slot[1] -= 1
                if slot[1] == 0:
                    self._inflight.pop(key, None)

    def _insert(
        self, key: str, entry: _CacheEntry, factor_seconds: float, generation: int
    ) -> None:
        with self._lock:
            if generation != self._generation:
                # The cache was cleared while this factorization ran: the
                # caller still gets its entry, but inserting it would
                # resurrect a cleared entry (and charge the reset stats).
                return
            self._cache[key] = entry
            self._cache.move_to_end(key)
            self.stats.factor_seconds += factor_seconds
            if self.capacity is not None:
                while len(self._cache) > self.capacity:
                    self._cache.popitem(last=False)
                    self.stats.evictions += 1

    # ------------------------------------------------------------------ #
    # Factorization
    # ------------------------------------------------------------------ #
    def _factor_entry(self, a: np.ndarray, key: str, generation: int) -> _CacheEntry:
        """Cache miss: factor ``[A | I]`` and materialize the RHS operator."""
        n = a.shape[0]
        t0 = time.perf_counter()
        fact = self.solver.factor(a, np.eye(n))
        elapsed = time.perf_counter() - t0
        if not fact.succeeded:
            raise SingularPanelError(
                f"{self.solver.algorithm} broke down during factorization: "
                f"{fact.breakdown}"
            )
        entry = _CacheEntry(
            factorization=fact,
            transform=np.asarray(fact.tiles.rhs),
            n=n,
            pad=fact.padding,
            a_norms=matrix_norms(a),
        )
        self._insert(key, entry, elapsed, generation)
        return entry

    def warm(self, a: np.ndarray, *, key: Optional[str] = None) -> Factorization:
        """Pre-factor ``A`` (counting a miss if absent) and return the factors."""
        a = self._check_matrix(a)
        if key is None:
            key = matrix_fingerprint(a)
        return self._get_or_factor(a, key).factorization

    @staticmethod
    def _check_matrix(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        return a

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        x_true: Optional[np.ndarray] = None,
        *,
        key: Optional[str] = None,
    ) -> SolveResult:
        """Solve ``Ax = b``, reusing the cached factorization of ``A``.

        The first request for a given ``A`` factors ``[A | I]`` (a cache
        miss); every further request applies the cached right-hand-side
        operator and back-substitutes.  Shapes mirror
        :meth:`TiledSolverBase.solve`: a 1-D ``b`` yields a 1-D solution.
        A ``b`` holding NaN or Inf raises ``ValueError``, on a hit as on a
        miss.

        ``key`` is a precomputed :func:`matrix_fingerprint` of ``a``
        (callers vouch for the correspondence — a
        :class:`~repro.api.service.MatrixHandle` carries exactly this
        pair); passing it skips the per-request O(n^2) re-hash, which is
        the dominant cost of a cache hit on large matrices.
        """
        a = self._check_matrix(a)
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != a.shape[0]:
            raise ValueError(f"b has {b.shape[0]} rows but A has order {a.shape[0]}")
        entry, x2 = self._serve(a, b.reshape(a.shape[0], -1), key)
        x = x2[:, 0] if b.ndim == 1 else x2
        report = stability_report(a, x, b, x_true=x_true, a_norms=entry.a_norms)
        return SolveResult(x=x, factorization=entry.factorization, stability=report)

    def solve_many(
        self,
        a: np.ndarray,
        bs: Union[np.ndarray, Sequence[np.ndarray]],
        x_true: Optional[np.ndarray] = None,
        *,
        key: Optional[str] = None,
    ) -> List[SolveResult]:
        """Batched variant: one cache lookup, one back-substitution pass.

        This is the entry point the :class:`~repro.api.service.SolverService`
        dispatcher uses to serve a coalesced batch: ``key`` (the handle's
        precomputed fingerprint) skips the O(n^2) re-hash, and the whole
        batch is one cache lookup plus one multi-column back-substitution.
        """
        a = self._check_matrix(a)
        b_mat, xt_mat = stack_rhs(a.shape[0], bs, x_true)
        entry, x = self._serve(a, b_mat, key)
        reports = stability_reports(a, x, b_mat, xt_mat, a_norms=entry.a_norms)
        return [
            SolveResult(x=x[:, j], factorization=entry.factorization, stability=report)
            for j, report in enumerate(reports)
        ]

    def _serve(
        self, a: np.ndarray, b2: np.ndarray, key: Optional[str]
    ) -> Tuple[_CacheEntry, np.ndarray]:
        """Look up (or factor) ``A``, apply the cached RHS operator to the
        ``(n, nrhs)`` block ``b2`` and back-substitute: ``(entry, x)``."""
        # O(n nrhs), before the lookup: a NaN/Inf ``b`` would otherwise
        # surface only as a non-finite solution after the BLAS calls.
        # ``count_nonzero``, not ``.all()``: a ufunc reduction on the service
        # thread before its first factorization leaves ~7 MB more resident
        # after it (allocator layout, measured as serve_warm's peak RSS).
        if np.count_nonzero(np.isfinite(b2)) != b2.size:
            raise ValueError("b must not contain NaN or Inf")
        entry = self._get_or_factor(a, key if key is not None else matrix_fingerprint(a))
        tiles = entry.factorization.tiles
        transformed = entry.transform @ b2  # (n + pad, nrhs)
        x_padded = tiled_back_substitution(tiles.array, transformed, tiles.nb)
        with self._lock:
            entry.serves += 1
            self.stats.solves += 1
        return entry, x_padded[: entry.n, :]
