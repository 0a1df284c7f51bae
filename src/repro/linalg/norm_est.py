"""Estimation of ``||A^{-1}||_1`` from an LU factorization.

The Max and Sum criteria of the paper (Section III-A/B) compare
``alpha * ||(A_kk)^{-1}||_1^{-1}`` with the 1-norms of the off-diagonal
panel tiles.  Computing ``||A_kk^{-1}||_1`` exactly would require forming
the inverse (``O(nb^3)`` extra work); the paper instead approximates it
"using the L and U factors by an iterative method in O(nb^2) floating-point
operations".  That iterative method is Hager's / Higham's 1-norm condition
estimator, which LAPACK ships as ``dgecon``: one call on the packed factor
runs the whole iteration (a few triangular solves against ``L`` and ``U``).

This module provides both the exact norm (for testing and for small tiles)
and the ``dgecon`` estimate.  With ``anorm = 1`` the ``rcond`` ``dgecon``
returns is exactly the reciprocal of its estimate of ``||A^{-1}||_1``.

``dgecon``'s bits do not depend on the BLAS thread count up to order 255;
from order 256 OpenBLAS runs the ``dasum`` inside it on two threads, so
the last bits of an estimate (never the factors) may differ between one
and two BLAS threads there.  The estimate only feeds the criterion on the
host, so executor bit-identity is unaffected.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgecon

__all__ = [
    "inverse_norm1_exact",
    "inverse_norm1_estimate",
    "smallest_inverse_norm_from_lu",
]


def inverse_norm1_exact(a: np.ndarray) -> float:
    """``||A^{-1}||_1`` computed exactly (via an explicit inverse).

    Intended for testing and small tiles; raises ``numpy.linalg.LinAlgError``
    when ``A`` is singular.
    """
    return float(np.linalg.norm(np.linalg.inv(a), 1))


def _check_factor(lu: np.ndarray, piv: np.ndarray) -> None:
    """Check that ``lu``/``piv`` describe the LU factor of a square matrix."""
    largest = max(np.asarray(piv).tolist(), default=0)
    n = lu.shape[0]
    if lu.ndim != 2 or lu.shape[1] != n or largest >= n:
        raise ValueError(
            f"expected the square LU factor of a square matrix and pivots < {n}, "
            f"got lu of shape {lu.shape} and pivots up to {largest}"
        )


def _rcond(lu: np.ndarray) -> float:
    """``dgecon``'s ``rcond`` of the packed factor at ``anorm = 1``.

    Pivots only permute the columns of ``A^{-1}``, which leaves its 1-norm
    unchanged, so ``dgecon`` needs none.  ``0.0`` means the estimate
    overflowed (a numerically singular factor).
    """
    # Positional arguments: f2py keyword parsing costs as much as the call.
    rcond, info = dgecon(np.array(lu, dtype=np.float64, order="F"), 1.0, "1")
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dgecon")
    return float(rcond)


def inverse_norm1_estimate(lu: np.ndarray, piv: np.ndarray) -> float:
    """Estimate ``||A^{-1}||_1`` from the LU factors of ``A`` (``P A = L U``).

    ``lu``/``piv`` follow the storage convention of
    :func:`repro.linalg.pivoting.getrf` for a *square* ``A``; a tall
    factor, or pivots reaching past its order, raise ``ValueError``.  The
    estimate is ``1 / rcond`` of one ``dgecon`` call: a few triangular
    solves, ``O(nb^2)`` flops — the complexity the paper quotes for
    criterion evaluation (Section III-D).  A numerically singular factor
    gives ``inf``; a non-finite ``lu`` raises ``ValueError`` (``dgecon``
    does not flag NaN).
    """
    _check_factor(lu, piv)
    if not np.isfinite(lu).all():
        raise ValueError("LU factor must not contain NaN or Inf")
    rcond = _rcond(lu)
    return 1.0 / rcond if rcond > 0.0 else float("inf")


def smallest_inverse_norm_from_lu(lu: np.ndarray, piv: np.ndarray) -> float:
    """``||A^{-1}||_1^{-1}`` (a lower bound on the smallest "column scale" of A).

    This is the left-hand side quantity of the Max and Sum criteria,
    ``||(A_kk)^{-1}||_1^{-1}``, obtained from the already computed LU
    factors: ``dgecon``'s ``rcond`` itself.  Returns ``0.0`` when the
    factor is non-finite or numerically singular (the estimate of
    ``||A^{-1}||_1`` overflows), which makes the criteria fail and forces
    a QR step — the desired behaviour.  A malformed ``lu``/``piv`` pair
    raises ``ValueError`` instead (see :func:`inverse_norm1_estimate`).
    """
    _check_factor(lu, piv)
    if not np.isfinite(lu).all():
        return 0.0
    return _rcond(lu)
