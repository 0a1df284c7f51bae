"""Triangular solves on dense blocks and on tiled matrices.

Provides the TRSM-style block solves used by the LU kernels, plus the final
tiled back-substitution used once the hybrid factorization has reduced
``[A | b]`` to an upper-triangular system (Section II-D1 of the paper).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = [
    "trsm_upper_right",
    "trsm_lower_left_unit",
    "trsm_upper_left",
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


def trsm_upper_left(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U X = B`` for ``X`` with ``U`` upper triangular (back-substitution block)."""
    return sla.solve_triangular(u, b, lower=False)


def tiled_back_substitution(a: np.ndarray, c: np.ndarray, tile_size: int) -> np.ndarray:
    """Solve ``U x = c`` where ``U`` is the upper triangle of the tiled factorization.

    ``a`` is the ``(N, N)`` array left behind by the factorization: its upper
    triangle holds ``U`` (below-diagonal entries hold multipliers/reflectors
    and are ignored).  The solve proceeds tile row by tile row from the
    bottom, using GEMM updates between tiles so the memory-access pattern
    matches a tiled implementation.

    Returns the solution ``x`` with the same shape as ``c``.
    """
    n_total = a.shape[0]
    if n_total % tile_size != 0:
        raise ValueError(
            f"matrix order {n_total} is not a multiple of tile_size {tile_size}"
        )
    n = n_total // tile_size
    c = np.asarray(c, dtype=np.float64)
    squeeze = c.ndim == 1
    if squeeze:
        c = c.reshape(-1, 1)

    nb = tile_size
    x = np.zeros_like(c)
    for i in range(n - 1, -1, -1):
        rows = slice(i * nb, (i + 1) * nb)
        acc = c[rows].copy()  # the one copy: ``c`` itself is never written
        for j in range(i + 1, n):
            cols = slice(j * nb, (j + 1) * nb)
            acc -= a[rows, cols] @ x[cols]
        # ``lower=False`` reads only the upper triangle of the diagonal tile,
        # so the multipliers/reflectors below it need no masking copy.
        x[rows] = trsm_upper_left(a[rows, rows], acc)

    return x[:, 0] if squeeze else x
