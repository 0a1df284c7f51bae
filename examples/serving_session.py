#!/usr/bin/env python
"""Serving layer: amortize one factorization across many solve requests.

A ``SolverSession`` holds one configured solver plus an LRU cache of
factorizations keyed by matrix fingerprint.  The first request for a matrix
factors ``[A | I]`` — riding the identity along the elimination
materializes the operator that maps *any* right-hand side to its
transformed image — and every further request against the same matrix is
one small matmul plus one LAPACK back-substitution.  This is the
across-requests analogue of ``solve_many`` (which amortizes one
factorization across a batch of right-hand sides, Section II-D1).

Run with ``python examples/serving_session.py``.
"""

import time

import numpy as np

import repro


def main() -> None:
    rng = np.random.default_rng(7)
    n, nb = 192, 16
    n_requests = 12

    # Two "hot" matrices that requests keep coming back to.
    matrices = [rng.standard_normal((n, n)) for _ in range(2)]

    session = repro.SolverSession(
        algorithm="hybrid",
        tile_size=nb,
        criterion="max(alpha=50)",
        capacity=4,
    )

    print(f"Serving {n_requests} requests against {len(matrices)} matrices "
          f"(order {n}, tiles of {nb})\n")
    for i in range(n_requests):
        a = matrices[i % len(matrices)]
        b = rng.standard_normal(n)
        t0 = time.perf_counter()
        result = session.solve(a, b)
        ms = 1e3 * (time.perf_counter() - t0)
        kind = "MISS (factored)" if i < len(matrices) else "hit"
        print(f"  request {i:2d}: {ms:8.2f} ms   {kind:15s} "
              f"HPL3 = {result.hpl3:.3e}")

    stats = session.stats
    print(f"\ncache: {stats.misses} misses, {stats.hits} hits "
          f"(hit rate {100 * stats.hit_rate:.0f}%), "
          f"{stats.evictions} evictions")
    print(f"time spent factoring: {stats.factor_seconds:.2f} s "
          f"amortized over {stats.solves} solves")

    # Batched right-hand sides ride the cached factorization too.
    results = session.solve_many(matrices[0], rng.standard_normal((n, 3)))
    print(f"\nsolve_many on the cached matrix: {len(results)} solutions, "
          f"worst HPL3 = {max(r.hpl3 for r in results):.3e}")


if __name__ == "__main__":
    main()
