"""Tile kernels of the QR elimination step (tiled / hierarchical QR).

A QR step eliminates every tile below the diagonal of the panel using
orthogonal transformations.  The kernels, named after their PLASMA
counterparts, are:

* **GEQRT**  — QR of a single square tile, producing ``(V, T, R)`` in
  compact-WY form.
* **TSQRT**  — QR of a *triangular* tile stacked on a *square* tile
  (Triangle on top of Square): kills a square tile using an eliminator
  tile that is already triangular.
* **TSMQR**  — apply the TSQRT transformation to the trailing tiles of the
  two rows involved.
* **UNMQR**  — apply a GEQRT transformation to a trailing tile of the
  eliminator row.
* **TTQRT**  — QR of a triangular tile stacked on a *triangular* tile
  (Triangle on top of Triangle): merges two eliminators, used by the
  inter-domain reduction trees.
* **TTMQR**  — apply the TTQRT transformation to trailing tiles.

These are the production kernels: the three factorizations are one call
each to LAPACK ``dgeqrt`` (recursive, level-3) with the block size equal to
the tile size, so ``T`` is the full ``nb x nb`` compact-WY factor, and the
applies are plain GEMMs.  The readable pure-NumPy construction of the same
``(V, T, R)`` lives in :mod:`repro.linalg.householder`; the tests compare
every kernel here against it.

A coupled factorization works on ``[R_top; bottom]`` with ``R_top`` upper
triangular, so its reflectors always have the form ``V = [I; V_b]``: the top
block is exactly the identity and only the ``nb x nb`` bottom block ``V_b``
is stored.  TSMQR/TTMQR use that structure directly::

    w = T^T (C_top + V_b^T C_bot);   C_top -= w;   C_bot -= V_b w

Every kernel returns new tile values (functional style); the drivers in
:mod:`repro.core.qr_step` and :mod:`repro.baselines.hqr` write them back
into the :class:`~repro.tiles.TileMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.linalg.lapack import dgeqrt

from ..linalg.householder import apply_q_transpose

__all__ = [
    "QRTileFactor",
    "geqrt_tile",
    "unmqr",
    "tsqrt",
    "tsmqr",
    "ttqrt",
    "ttmqr",
]


@dataclass
class QRTileFactor:
    """Compact-WY representation ``Q = I - V T V^T`` of a tile elimination.

    ``vb`` is the stored ``nb x nb`` block of reflectors: all of ``V`` (unit
    lower triangular) for GEQRT, the bottom block of ``V = [I; V_b]`` for the
    coupled kernels (TSQRT/TTQRT).  ``t`` is the upper-triangular compact-WY
    factor and ``r`` the resulting upper-triangular tile, both with exact
    zeros below the diagonal.
    """

    vb: np.ndarray
    t: np.ndarray
    r: np.ndarray
    nb: int
    coupled: bool = False

    @property
    def v(self) -> np.ndarray:
        """The full reflector matrix (``2*nb`` rows for a coupled factor)."""
        if self.coupled:
            return np.vstack([np.eye(self.nb), self.vb])
        return self.vb


def _dgeqrt(a: np.ndarray, kernel: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-block LAPACK ``dgeqrt`` of ``a`` (``m x nb``, ``m >= nb``), in place.

    ``a`` must be a Fortran-ordered float64 array the caller owns.  Returns
    the packed LAPACK output (reflectors strictly below the diagonal), the
    ``nb x nb`` factor ``T`` and the tile ``R``.
    """
    nb = a.shape[1]
    qr, t, info = dgeqrt(nb, a, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{kernel}: LAPACK dgeqrt failed with info={info}")
    # LAPACK leaves the strict lower triangle of T unreferenced.
    return qr, np.triu(t), np.triu(qr[:nb])


def _couple(r_top: np.ndarray, bottom: np.ndarray, kernel: str) -> QRTileFactor:
    nb = r_top.shape[0]
    stacked = np.empty((2 * nb, nb), order="F")
    stacked[:nb] = np.triu(r_top)
    stacked[nb:] = bottom
    qr, t, r = _dgeqrt(stacked, kernel)
    return QRTileFactor(vb=np.ascontiguousarray(qr[nb:]), t=t, r=r, nb=nb, coupled=True)


def geqrt_tile(a_kk: np.ndarray) -> QRTileFactor:
    """GEQRT: QR of one square tile. Returns the compact-WY factor and ``R``."""
    qr, t, r = _dgeqrt(np.array(a_kk, dtype=np.float64, order="F"), "geqrt")
    v = np.tril(qr, -1)
    np.fill_diagonal(v, 1.0)
    return QRTileFactor(vb=v, t=t, r=r, nb=a_kk.shape[0])


def unmqr(factor: QRTileFactor, c: np.ndarray) -> np.ndarray:
    """UNMQR: apply ``Q^T`` of a GEQRT factorization to a trailing tile."""
    return apply_q_transpose(factor.vb, factor.t, c)


def tsqrt(r_top: np.ndarray, a_bottom: np.ndarray) -> QRTileFactor:
    """TSQRT: eliminate a square tile using a triangular eliminator tile.

    Factors the ``2nb x nb`` stacked matrix ``[R_top; A_bottom]`` where
    ``R_top`` is upper triangular.  The result's ``r`` replaces the
    eliminator tile, while the killed tile conceptually stores the
    reflectors (returned in ``vb``).
    """
    return _couple(r_top, a_bottom, "tsqrt")


def tsmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TSMQR: apply a TSQRT transformation to a pair of trailing tiles.

    ``c_top`` belongs to the eliminator row, ``c_bottom`` to the killed row.
    Returns the updated ``(c_top, c_bottom)``.
    """
    w = factor.t.T @ (c_top + factor.vb.T @ c_bottom)
    return c_top - w, c_bottom - factor.vb @ w


def ttqrt(r_top: np.ndarray, r_bottom: np.ndarray) -> QRTileFactor:
    """TTQRT: merge two triangular eliminator tiles (reduction-tree kernel).

    Factors ``[R_top; R_bottom]`` with both blocks upper triangular; used
    when combining the local eliminators of different domains along the
    inter-node reduction tree.
    """
    return _couple(r_top, np.triu(r_bottom), "ttqrt")


def ttmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TTMQR: apply a TTQRT transformation to a pair of trailing tiles."""
    return tsmqr(factor, c_top, c_bottom)
