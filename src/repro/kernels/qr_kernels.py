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

These are the production kernels.  The three factorizations are one call
each to LAPACK ``dgeqrt`` (recursive, level-3) with the block size equal to
the tile size, so ``T`` is the full ``nb x nb`` compact-WY factor.  The
applies work in place on the caller's views (``*_inplace``; the
functional ``unmqr``/``tsmqr``/``ttmqr`` are copy + in-place) and use the
structure of their operands: ``T`` is upper triangular, GEQRT's ``V`` is
unit lower triangular and TTQRT's ``V_b`` upper triangular, so those
products are BLAS ``dtrmm`` calls on one workspace; only TSMQR's full
square ``V_b`` goes through GEMM.  The tests compare every kernel here
against a readable pure-NumPy Householder construction of the same
``(V, T, R)``.

A coupled factorization works on ``[R_top; bottom]`` with ``R_top`` upper
triangular, so its reflectors always have the form ``V = [I; V_b]``: the top
block is exactly the identity and only the ``nb x nb`` bottom block ``V_b``
is stored.  TSMQR/TTMQR use that structure directly::

    w = T^T (C_top + V_b^T C_bot);   C_top -= w;   C_bot -= V_b w

The factorizations return new values; the trailing-update sweeps of
:mod:`repro.kernels.dispatch` run the in-place applies on views of the
:class:`~repro.tiles.TileMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dgeqrt

__all__ = [
    "QRTileFactor",
    "geqrt_tile",
    "unmqr",
    "unmqr_inplace",
    "tsqrt",
    "tsmqr",
    "tsmqr_inplace",
    "ttqrt",
    "ttmqr",
    "ttmqr_inplace",
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


@lru_cache(maxsize=None)
def _masks(nb: int) -> Tuple[np.ndarray, np.ndarray]:
    """Strictly-lower mask and identity of order ``nb``, built once (``np.triu``
    rebuilds its ``np.tri`` mask per call, at more than the ``np.where``)."""
    lower, eye = np.tri(nb, k=-1, dtype=bool), np.eye(nb)
    lower.flags.writeable = eye.flags.writeable = False
    return lower, eye


def _triu(m: np.ndarray) -> np.ndarray:
    """``np.triu(m)`` for a square ``m``: the same ``np.where``, cached mask."""
    return np.where(_masks(m.shape[0])[0], 0.0, m)


def _dgeqrt(a: np.ndarray, kernel: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-block LAPACK ``dgeqrt`` of ``a`` (``m x nb``, ``m >= nb``), in place.

    ``a`` must be a Fortran-ordered float64 array the caller owns.  Returns
    the packed LAPACK output (reflectors strictly below the diagonal), the
    ``nb x nb`` factor ``T`` and the tile ``R``.
    """
    nb = a.shape[1]
    qr, t, info = dgeqrt(nb, a, 1)  # positional: f2py keyword parsing is costly
    if info != 0:
        raise np.linalg.LinAlgError(f"{kernel}: LAPACK dgeqrt failed with info={info}")
    # LAPACK leaves the strict lower triangle of T unreferenced.
    return qr, _triu(t), _triu(qr[:nb])


def _couple(r_top: np.ndarray, bottom: np.ndarray, kernel: str) -> QRTileFactor:
    nb = r_top.shape[0]
    stacked = np.empty((2 * nb, nb), order="F")
    stacked[:nb] = _triu(r_top)
    stacked[nb:] = bottom
    qr, t, r = _dgeqrt(stacked, kernel)
    return QRTileFactor(vb=np.ascontiguousarray(qr[nb:]), t=t, r=r, nb=nb, coupled=True)


def geqrt_tile(a_kk: np.ndarray) -> QRTileFactor:
    """GEQRT: QR of one square tile. Returns the compact-WY factor and ``R``."""
    qr, t, r = _dgeqrt(np.array(a_kk, dtype=np.float64, order="F"), "geqrt")
    lower, eye = _masks(a_kk.shape[0])
    # Unit lower triangular V: reflectors below the diagonal, ones on it.
    return QRTileFactor(vb=np.where(lower, qr, eye), t=t, r=r, nb=a_kk.shape[0])


def tsqrt(r_top: np.ndarray, a_bottom: np.ndarray) -> QRTileFactor:
    """TSQRT: eliminate a square tile using a triangular eliminator tile.

    Factors the ``2nb x nb`` stacked matrix ``[R_top; A_bottom]`` where
    ``R_top`` is upper triangular.  The result's ``r`` replaces the
    eliminator tile, while the killed tile conceptually stores the
    reflectors (returned in ``vb``).
    """
    return _couple(r_top, a_bottom, "tsqrt")


def ttqrt(r_top: np.ndarray, r_bottom: np.ndarray) -> QRTileFactor:
    """TTQRT: merge two triangular eliminator tiles (reduction-tree kernel).

    Factors ``[R_top; R_bottom]`` with both blocks upper triangular; used
    when combining the local eliminators of different domains along the
    inter-node reduction tree.
    """
    return _couple(r_top, _triu(r_bottom), "ttqrt")


# --------------------------------------------------------------------------- #
# Applies: in place on the caller's views, one workspace each
# --------------------------------------------------------------------------- #
def _trmm(a: np.ndarray, wt: np.ndarray, lower: int, trans: int, unit: int = 0) -> None:
    """``w <- op(a) w`` in place for a triangular ``a``; ``wt`` is ``w.T``.

    ``w`` is a C-ordered workspace, so ``wt`` is the Fortran-ordered
    ``w^T`` BLAS works on, and the product becomes ``w^T <- w^T op(a)^T``
    (right side).  ``a.T`` is the Fortran-ordered ``a^T``, whose triangle is
    the other one, and ``op(a)^T = op(a^T)`` with the same ``trans``; so
    neither operand is copied for a C-ordered ``a``.  Arguments go to f2py
    positionally (``side, lower, trans_a, diag, overwrite_b``): keyword
    parsing costs as much as a small tile's product.
    """
    dtrmm(1.0, a.T, wt, 1, 1 - lower, trans, unit, 1)


def _workspace(c: np.ndarray) -> np.ndarray:
    return np.array(c, dtype=np.float64, order="C")


def unmqr_inplace(factor: QRTileFactor, c: np.ndarray) -> None:
    """UNMQR, in place: ``C <- Q^T C = C - V T^T V^T C`` for a GEQRT factor.

    ``c`` is any ``nb``-row view (a tile, a tile-row block, an RHS tile);
    ``V`` is unit lower and ``T`` upper triangular, so the three products
    are TRMMs on one workspace.
    """
    w = _workspace(c)
    _trmm(factor.vb, w.T, 1, 1, 1)  # w = V^T C   (unit lower)
    _trmm(factor.t, w.T, 0, 1)  # w = T^T w
    _trmm(factor.vb, w.T, 1, 0, 1)  # w = V w
    c -= w


def tsmqr_inplace(factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray) -> None:
    """TSMQR, in place: apply a TSQRT transformation to a pair of row views.

    ``c_top`` belongs to the eliminator row, ``c_bottom`` to the killed row.
    ``V_b`` is a full square block, so its two products stay GEMMs; only
    ``T^T`` is a TRMM::

        w = T^T (C_top + V_b^T C_bot);   C_top -= w;   C_bot -= V_b w
    """
    w = factor.vb.T @ c_bottom
    w += c_top
    _trmm(factor.t, w.T, 0, 1)  # w = T^T w
    c_top -= w
    c_bottom -= factor.vb @ w


def ttmqr_inplace(factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray) -> None:
    """TTMQR, in place: apply a TTQRT transformation to a pair of row views.

    TTQRT's ``V_b`` is upper triangular (the killed tile was), so all three
    products of the TSMQR formula are TRMMs on one workspace.
    """
    w = _workspace(c_bottom)
    _trmm(factor.vb, w.T, 0, 1)  # w = V_b^T C_bot   (upper)
    w += c_top
    _trmm(factor.t, w.T, 0, 1)  # w = T^T w
    c_top -= w
    _trmm(factor.vb, w.T, 0, 0)  # w = V_b w
    c_bottom -= w


def unmqr(factor: QRTileFactor, c: np.ndarray) -> np.ndarray:
    """UNMQR: apply ``Q^T`` of a GEQRT factorization to a trailing tile.

    Functional form of :func:`unmqr_inplace`: returns a new array.
    """
    out = _workspace(c)
    unmqr_inplace(factor, out)
    return out


def tsmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TSMQR: functional form of :func:`tsmqr_inplace`.

    Returns the updated ``(c_top, c_bottom)`` as new arrays.
    """
    top, bottom = _workspace(c_top), _workspace(c_bottom)
    tsmqr_inplace(factor, top, bottom)
    return top, bottom


def ttmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TTMQR: functional form of :func:`ttmqr_inplace`."""
    top, bottom = _workspace(c_top), _workspace(c_bottom)
    ttmqr_inplace(factor, top, bottom)
    return top, bottom
