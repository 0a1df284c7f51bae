"""Triangular solves on dense blocks and on the factored tile matrix.

Provides the TRSM-style block solves used by the LU kernels, plus the final
back-substitution used once the hybrid factorization has reduced
``[A | b]`` to an upper-triangular system (Section II-D1 of the paper).
The back-substitution is one LAPACK ``dtrtrs`` on the whole factor: its
upper triangle is already one contiguous array, so a tile-by-tile loop
only adds Python calls (the tiled form is kept in ``tests/`` as the
oracle).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dtrtrs

__all__ = [
    "trsm_upper_right",
    "trsm_lower_left_unit",
    "tiled_back_substitution",
]


def trsm_upper_right(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``X U = B`` for ``X`` with ``U`` upper triangular.

    This is the *Eliminate* kernel of the LU step: ``A_ik <- A_ik U_kk^{-1}``.
    """
    # X U = B  <=>  U^T X^T = B^T
    xt = sla.solve_triangular(u.T, b.T, lower=True)
    return xt.T


def trsm_lower_left_unit(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` for ``X`` with ``L`` *unit* lower triangular.

    This is the triangular part of the *Apply* kernel (SWPTRSM):
    ``A_kj <- L_kk^{-1} P_kk A_kj``.
    """
    return sla.solve_triangular(l, b, lower=True, unit_diagonal=True)


def tiled_back_substitution(a: np.ndarray, c: np.ndarray, tile_size: int) -> np.ndarray:
    """Solve ``U x = c`` where ``U`` is the upper triangle of the tiled factorization.

    ``a`` is the C-ordered ``(N, N)`` array left behind by the factorization:
    its upper triangle holds ``U`` (below-diagonal entries hold
    multipliers/reflectors and are never read).  The solve is one
    ``dtrtrs`` on ``a.T``, the Fortran-ordered view of the same bytes, as
    its lower triangle transposed (``lower=1, trans=1``), so ``a`` is
    neither copied nor written; ``c`` is copied once by LAPACK's wrapper
    and left untouched.  ``tile_size`` is only checked to divide ``N``.

    Returns the solution ``x`` with the same shape as ``c``.  Raises
    ``numpy.linalg.LinAlgError`` naming the first exactly-zero diagonal
    entry, and ``ValueError`` when the solution is not finite.
    """
    n_total = a.shape[0]
    if n_total % tile_size != 0:
        raise ValueError(
            f"matrix order {n_total} is not a multiple of tile_size {tile_size}"
        )
    c = np.asarray(c, dtype=np.float64)
    if c.shape[0] != n_total:
        raise ValueError(f"c has {c.shape[0]} rows but the factor has order {n_total}")
    # lower=1, trans=1, passed positionally as in ``qr_kernels._trmm``.
    x, info = dtrtrs(a.T, c.reshape(n_total, -1), 1, 1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular triangular factor: zero diagonal entry at index {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    # O(N nrhs): a NaN/Inf in the factor or in ``c`` surfaces in ``x``.
    if not np.isfinite(x).all():
        raise ValueError("back-substitution produced a non-finite solution")
    return x[:, 0] if c.ndim == 1 else x
