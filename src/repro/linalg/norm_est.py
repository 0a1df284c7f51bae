"""Estimation of ``||A^{-1}||_1`` from an LU factorization.

The Max and Sum criteria of the paper (Section III-A/B) compare
``alpha * ||(A_kk)^{-1}||_1^{-1}`` with the 1-norms of the off-diagonal
panel tiles.  Computing ``||A_kk^{-1}||_1`` exactly would require forming
the inverse (``O(nb^3)`` extra work); the paper instead approximates it
"using the L and U factors by an iterative method in O(nb^2) floating-point
operations".  That iterative method is Hager's / Higham's 1-norm condition
estimator (the algorithm behind LAPACK ``dlacon``), which only needs a few
solves with the already-computed LU factors.

This module provides both the exact norm (for testing and for small tiles)
and the Hager estimator, whose solves are direct ``dtrtrs`` calls
(:func:`repro.linalg.triangular.trtrs`; ``scipy.linalg.solve_triangular``'s
input checks cost ten times an ``nb``-vector solve).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .pivoting import pivot_moves
from .triangular import trtrs

__all__ = [
    "inverse_norm1_exact",
    "inverse_norm1_estimate",
    "hager_norm1_estimate",
    "smallest_inverse_norm_from_lu",
]


def inverse_norm1_exact(a: np.ndarray) -> float:
    """``||A^{-1}||_1`` computed exactly (via an explicit inverse).

    Intended for testing and small tiles; raises ``numpy.linalg.LinAlgError``
    when ``A`` is singular.
    """
    return float(np.linalg.norm(np.linalg.inv(a), 1))


def hager_norm1_estimate(
    solve: Callable[[np.ndarray], np.ndarray],
    solve_t: Callable[[np.ndarray], np.ndarray],
    n: int,
    max_iter: int = 5,
) -> float:
    """Hager/Higham 1-norm estimator of ``||B||_1`` given products ``B x`` and ``B^T x``.

    ``solve(x)`` must return ``B @ x`` and ``solve_t(x)`` must return
    ``B.T @ x`` (for the inverse-norm use case these are triangular solves
    against the LU factors).  The estimator performs at most ``max_iter``
    iterations, each costing two such products — ``O(n^2)`` per iteration.

    The returned value is a lower bound on ``||B||_1`` that is almost always
    within a factor of 2-3 of the true norm [Higham, *Accuracy and Stability
    of Numerical Algorithms*, Alg. 15.4].
    """
    x = np.full(n, 1.0 / n)
    gamma = 0.0
    for _ in range(max_iter):
        y = solve(x)
        gamma_new = float(np.abs(y).sum())
        xi = np.sign(y)
        xi[xi == 0.0] = 1.0
        z = solve_t(xi)
        j = int(np.argmax(np.abs(z)))
        if np.abs(z[j]) <= float(z @ x) or gamma_new <= gamma:
            gamma = max(gamma, gamma_new)
            break
        gamma = gamma_new
        x = np.zeros(n)
        x[j] = 1.0

    # Final "alternating" test vector improves robustness for matrices whose
    # columns have similar norms (as recommended by Higham).
    if n > 1:
        i = np.arange(n)
        v = np.where(i % 2 == 0, 1.0, -1.0) * (1.0 + i / (n - 1.0))
    else:
        v = np.ones(1)
    y = solve(v)
    alt = 2.0 * float(np.abs(y).sum()) / (3.0 * n)
    return max(gamma, alt)


def _checked_pivots(lu: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """``piv`` as an array, after checking ``lu``/``piv`` describe a square factor."""
    piv = np.asarray(piv)
    n = lu.shape[0]
    if lu.ndim != 2 or lu.shape[1] != n or (piv.size and int(piv.max()) >= n):
        raise ValueError(
            f"expected the square LU factor of a square matrix and pivots < {n}, "
            f"got lu of shape {lu.shape} and pivots up to {int(piv.max(initial=0))}"
        )
    return piv


def inverse_norm1_estimate(lu: np.ndarray, piv: np.ndarray) -> float:
    """Estimate ``||A^{-1}||_1`` from the LU factors of ``A`` (``P A = L U``).

    ``lu``/``piv`` follow the storage convention of
    :func:`repro.linalg.pivoting.getrf` for a *square* ``A``; a tall
    factor, or pivots reaching past its order, raise ``ValueError``.  Each
    estimator iteration costs two triangular solves, i.e. ``O(nb^2)``
    flops — this matches the complexity the paper quotes for criterion
    evaluation (Section III-D).  The solves run against the packed ``lu``
    directly: LAPACK references only the triangle it is told to (and no
    diagonal for the unit-lower factor).  A non-finite ``lu``, or a
    non-finite vector entering a solve, raises ``ValueError``.
    """
    return _estimate(lu, _checked_pivots(lu, piv))


def _estimate(lu: np.ndarray, piv: np.ndarray) -> float:
    n = lu.shape[0]
    if not np.isfinite(lu).all():
        raise ValueError("LU factor must not contain NaN or Inf")
    # x -> P x is one gather of the rows the pivots move (none for the
    # identity sequence of a domain-pivoted tile); P^T undoes it.
    dst, src = pivot_moves(piv)
    lu_t = lu.T

    def trs(a: np.ndarray, y: np.ndarray, lower: int, unit: int = 0) -> np.ndarray:
        if not np.isfinite(y).all():
            raise ValueError("non-finite vector in the norm estimator")
        return trtrs(a, y, lower, 0, unit)

    def solve(x: np.ndarray) -> np.ndarray:
        # A^{-1} x = U^{-1} L^{-1} P x
        y = x
        if dst.size:
            y = x.copy()
            y[dst] = x[src]
        # x is one of the estimator's own (finite) test vectors.
        return trs(lu, trtrs(lu, y, 1, 0, 1), 0)

    def solve_t(x: np.ndarray) -> np.ndarray:
        # A^{-T} x = P^T L^{-T} U^{-T} x
        y = trs(lu_t, trs(lu_t, x, 1), 0, 1)
        if dst.size:
            z = y.copy()
            z[src] = y[dst]
            y = z
        return y

    return hager_norm1_estimate(solve, solve_t, n)


def smallest_inverse_norm_from_lu(lu: np.ndarray, piv: np.ndarray) -> float:
    """``||A^{-1}||_1^{-1}`` (a lower bound on the smallest "column scale" of A).

    This is the left-hand side quantity of the Max and Sum criteria,
    ``||(A_kk)^{-1}||_1^{-1}``, obtained from the already computed LU
    factors.  Returns ``0.0`` when the estimate of ``||A^{-1}||_1`` overflows
    or meets a non-finite value (i.e. the tile is numerically singular),
    which makes the criteria fail and forces a QR step — the desired
    behaviour.  A malformed ``lu``/``piv`` pair raises ``ValueError``
    instead (see :func:`inverse_norm1_estimate`).
    """
    piv = _checked_pivots(lu, piv)
    try:
        est = _estimate(lu, piv)
    except (np.linalg.LinAlgError, ValueError, FloatingPointError):
        return 0.0
    if not np.isfinite(est) or est == 0.0:
        return 0.0
    return 1.0 / est
