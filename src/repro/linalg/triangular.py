"""Triangular solves on dense blocks and on the factored tile matrix.

Provides the TRSM-style block solves used by the LU kernels, plus the final
back-substitution used once the hybrid factorization has reduced
``[A | b]`` to an upper-triangular system (Section II-D1 of the paper).
The back-substitution is one LAPACK ``dtrtrs`` on the whole factor: its
upper triangle is already one contiguous array, so a tile-by-tile loop
only adds Python calls (the tiled form is kept in ``tests/`` as the
oracle).  Every solve is a direct ``dtrtrs`` (:func:`trtrs`): the drivers
reject non-finite input once and catch overflow in their growth norms.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtrtrs

__all__ = [
    "trtrs",
    "trsm_upper_right",
    "trsm_lower_left_unit",
    "tiled_back_substitution",
]


def trtrs(a: np.ndarray, b: np.ndarray, lower: int, trans: int = 0, unit: int = 0) -> np.ndarray:
    """Solve ``op(A) X = B`` by LAPACK ``dtrtrs``, with no finiteness check.

    The call ``scipy.linalg.solve_triangular`` makes, so the same bits: a
    Fortran-ordered ``a`` as is, any other as ``a.T`` with the triangle and
    ``trans`` flipped; ``b`` is copied.  Raises ``LinAlgError`` on an
    exactly-zero diagonal entry.  Positional arguments: f2py's keyword
    parsing costs as much as a small tile's solve.
    """
    if a.flags.f_contiguous:
        x, info = dtrtrs(a, b, lower, trans, unit)
    else:
        x, info = dtrtrs(a.T, b, 1 - lower, 1 - trans, unit)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular triangular factor: zero diagonal entry at index {info - 1}"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def trsm_upper_right(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``X U = B`` for ``X`` with ``U`` upper triangular.

    This is the *Eliminate* kernel of the LU step: ``A_ik <- A_ik U_kk^{-1}``.
    """
    # X U = B  <=>  U^T X^T = B^T
    return trtrs(u.T, b.T, 1).T


def trsm_lower_left_unit(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L X = B`` for ``X`` with ``L`` *unit* lower triangular.

    This is the triangular part of the *Apply* kernel (SWPTRSM):
    ``A_kj <- L_kk^{-1} P_kk A_kj``.
    """
    return trtrs(l, b, 1, 0, 1)


def tiled_back_substitution(a: np.ndarray, c: np.ndarray, tile_size: int) -> np.ndarray:
    """Solve ``U x = c`` where ``U`` is the upper triangle of the tiled factorization.

    ``a`` is the C-ordered ``(N, N)`` array left behind by the factorization:
    its upper triangle holds ``U`` (below-diagonal entries hold
    multipliers/reflectors and are never read).  The solve is one
    :func:`trtrs`, i.e. ``dtrtrs`` on ``a.T``, the Fortran-ordered view of
    the same bytes, as its lower triangle transposed, so ``a`` is
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
    x = trtrs(a, c.reshape(n_total, -1), 0)
    # O(N nrhs): a NaN/Inf in the factor or in ``c`` surfaces in ``x``.
    if not np.isfinite(x).all():
        raise ValueError("back-substitution produced a non-finite solution")
    return x[:, 0] if c.ndim == 1 else x
