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

These are the production kernels, one LAPACK call each, from LAPACK's own
tile-QR family at the inner block size ``ib = min(nb, IB)``: GEQRT is
``dgeqrt``, TSQRT and TTQRT are ``dtpqrt`` (``l = 0`` for the square
bottom tile, ``l = nb`` for the triangular one), UNMQR is ``dgemqrt`` and
TSMQR/TTMQR are ``dtpmqrt`` with the factor's ``l``.  ``T`` is LAPACK's
``ib x nb`` block-T: the upper-triangular ``ib x ib`` factors of the
successive reflector blocks, side by side.

The applies work on the transposed operand: ``Q^T C`` is ``(C^T Q)^T``, so
every apply runs side ``'R'`` on a Fortran-ordered ``C^T``.
:func:`apply_chain` copies the tile rows a chain of applies touches once
into one such workspace, runs every apply in place on it and writes each
row back once; a QR step's sweep (:mod:`repro.kernels.dispatch`) stages
each row's trailing block and RHS tile side by side.  The workspace's row count (the operand's column count) is rounded up to a multiple of
:data:`PAD` and zero-padded: so padded, each column of a wide apply has the
bits it has when its tile is applied on its own, at every tile order.  At
``ib = 8`` every call also gives the same bits at any BLAS thread count;
at ``ib = 16`` the wide applies and at ``ib = 32`` ``dtpqrt`` do not.  The
tests compare every kernel here against a readable pure-NumPy Householder
construction of the same ``(V, T, R)``.

The factorizations return new values; the in-place applies
(``*_inplace``) and the sweeps update the caller's views, and the
functional ``unmqr``/``tsmqr``/``ttmqr`` are copy + in-place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.linalg.lapack import dgemqrt, dgeqrt, dtpmqrt, dtpqrt

__all__ = [
    "QRTileFactor",
    "apply_chain",
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

#: Largest inner block size: the widest at which every call is thread-stable.
IB = 8
#: The applies' workspace row count is a multiple of this.
PAD = 8
#: Most doubles :func:`apply_chain` stages at once (2 MiB): bounds the
#: memory a wide sweep adds.
WORKSPACE = 1 << 18


@dataclass
class QRTileFactor:
    """Compact-WY representation of a tile elimination.

    ``vb`` is the ``nb x nb`` block of reflectors LAPACK returns: for
    GEQRT the whole packed ``dgeqrt`` output, whose strict lower triangle
    holds ``V`` below its unit diagonal (the apply reads nothing else); for
    the coupled kernels (TSQRT/TTQRT) the bottom block of ``V = [I; V_b]``,
    upper triangular for TTQRT.  ``t`` is the ``ib x nb`` block-T and ``l``
    the number of upper-trapezoidal rows of ``V_b`` (``nb`` for TTQRT, else
    0).  ``r`` is the resulting upper-triangular tile, with exact zeros
    below the diagonal.
    """

    vb: np.ndarray
    t: np.ndarray
    r: np.ndarray
    nb: int
    coupled: bool = False
    l: int = 0

    @property
    def v(self) -> np.ndarray:
        """The full reflector matrix (``2*nb`` rows for a coupled factor)."""
        if self.coupled:
            return np.vstack([np.eye(self.nb), self.vb])
        return np.tril(self.vb, -1) + np.eye(self.nb)


@lru_cache(maxsize=None)
def _strictly_lower(nb: int) -> np.ndarray:
    """Strictly-lower mask of order ``nb``, built once (``np.triu`` rebuilds
    its ``np.tri`` mask per call, at more than the ``np.where``)."""
    mask = np.tri(nb, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _strictly_upper(nb: int) -> np.ndarray:
    """Strictly-upper mask of order ``nb``, built once."""
    mask = np.ascontiguousarray(_strictly_lower(nb).T)
    mask.flags.writeable = False
    return mask


def _triu(m: np.ndarray) -> np.ndarray:
    """``np.triu(m)`` for a square ``m``: the same ``np.where``, cached mask."""
    return np.where(_strictly_lower(m.shape[0]), 0.0, m)


def _fortran(a: np.ndarray) -> np.ndarray:
    return np.array(a, dtype=np.float64, order="F")


def _upper(a: np.ndarray) -> np.ndarray:
    """A Fortran copy of a square ``a`` with its strict lower triangle zeroed.

    The zeroing runs on the copy's C-ordered transpose, whose strict upper
    triangle it is: mask and view then share one layout, which keeps
    ``np.copyto`` on its fast path.
    """
    f = _fortran(a)
    np.copyto(f.T, 0.0, where=_strictly_upper(f.shape[0]))
    return f


def _check(info: int, kernel: str, routine: str) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{kernel}: LAPACK {routine} failed with info={info}")


def geqrt_tile(a_kk: np.ndarray) -> QRTileFactor:
    """GEQRT: QR of one square tile. Returns the compact-WY factor and ``R``."""
    nb = a_kk.shape[0]
    # Positional arguments throughout: f2py keyword parsing costs as much
    # as a small tile's kernel.
    qr, t, info = dgeqrt(min(nb, IB), _fortran(a_kk), 1)
    _check(info, "geqrt", "dgeqrt")
    return QRTileFactor(vb=qr, t=t, r=_triu(qr), nb=nb)


def _couple(r_top: np.ndarray, bottom: np.ndarray, l: int, kernel: str) -> QRTileFactor:
    nb = r_top.shape[0]
    # dtpqrt reads and writes only the upper triangle of the top (and, with
    # l = nb, of the bottom) and leaves the strict lower part as it came in:
    # zeroed in the one copy each, r and a TT vb are exactly triangular.
    r, vb, t, info = dtpqrt(l, min(nb, IB), _upper(r_top), bottom, 1, 1)
    _check(info, kernel, "dtpqrt")
    return QRTileFactor(vb=vb, t=t, r=r, nb=nb, coupled=True, l=l)


def tsqrt(r_top: np.ndarray, a_bottom: np.ndarray) -> QRTileFactor:
    """TSQRT: eliminate a square tile using a triangular eliminator tile.

    Factors the ``2nb x nb`` stacked matrix ``[R_top; A_bottom]`` where
    ``R_top`` is upper triangular.  The result's ``r`` replaces the
    eliminator tile, while the killed tile conceptually stores the
    reflectors (returned in ``vb``).
    """
    return _couple(r_top, _fortran(a_bottom), 0, "tsqrt")


def ttqrt(r_top: np.ndarray, r_bottom: np.ndarray) -> QRTileFactor:
    """TTQRT: merge two triangular eliminator tiles (reduction-tree kernel).

    Factors ``[R_top; R_bottom]`` with both blocks upper triangular; used
    when combining the local eliminators of different domains along the
    inter-node reduction tree.
    """
    return _couple(r_top, _upper(r_bottom), r_top.shape[0], "ttqrt")


# --------------------------------------------------------------------------- #
# Applies: one staged workspace per chain, in place on it
# --------------------------------------------------------------------------- #
def apply_chain(
    rows: Sequence[Sequence[np.ndarray]], ops: Sequence[Tuple[QRTileFactor, int, Optional[int]]]
) -> None:
    """Apply a chain of QR transformations, in order, to tile rows in place.

    Each row is a tuple of column parts (say its trailing block and its RHS
    tile): ``nb``-row views, of the same widths in every row; each op
    ``(factor, top, bottom)`` applies ``Q^T`` of ``factor`` to ``rows[top]``
    (GEQRT, ``bottom`` is ``None``) or to the stacked
    ``[rows[top]; rows[bottom]]`` (TSQRT/TTQRT).
    The rows' parts are staged side by side into a C-ordered ``len(rows)*nb x padded-width``
    workspace, whose transpose is the Fortran-ordered ``C^T`` every LAPACK
    call updates in place.  Wide rows go in column chunks of at most
    :data:`WORKSPACE` elements, a multiple of :data:`PAD` wide, which may
    span two parts: that bounds the workspace and, padded, leaves the bits unchanged.
    """
    nb = rows[0][0].shape[0]
    edges = list(accumulate((part.shape[1] for part in rows[0]), initial=0))
    chunk = max(PAD, WORKSPACE // (len(rows) * nb) // PAD * PAD)
    for c0 in range(0, edges[-1], chunk):
        c1 = min(edges[-1], c0 + chunk)
        # (part, its columns a:b, their workspace column) in this chunk.
        pieces = [
            (p, max(c0, e0) - e0, min(c1, e1) - e0, max(c0, e0) - c0)
            for p, (e0, e1) in enumerate(zip(edges, edges[1:])) if max(c0, e0) < min(c1, e1)
        ]
        ws = np.zeros((len(rows) * nb, -(-(c1 - c0) // PAD) * PAD))
        for p, a, b, o in pieces:
            np.concatenate([row[p][:, a:b] for row in rows], out=ws[:, o : o + b - a])
        staged = ws.reshape(len(rows), nb, -1)
        x = staged.transpose(0, 2, 1)  # x[i]: row i's C^T, Fortran-ordered
        for factor, top, bottom in ops:
            if bottom is None:
                info = dgemqrt(factor.vb, factor.t, x[top], "R", "N", 1)[1]
            else:
                info = dtpmqrt(factor.l, factor.vb, factor.t, x[top], x[bottom], "R", "N", 1, 1)[2]
            if info:
                raise np.linalg.LinAlgError(f"QR apply: LAPACK failed with info={info}")
        for row, part in zip(rows, staged):
            for p, a, b, o in pieces:
                row[p][:, a:b] = part[:, o : o + b - a]


def unmqr_inplace(factor: QRTileFactor, c: np.ndarray) -> None:
    """UNMQR, in place: ``C <- Q^T C`` for a GEQRT factor.

    ``c`` is any ``nb``-row view (a tile, a tile-row block, an RHS tile).
    """
    apply_chain(((c,),), ((factor, 0, None),))


def tsmqr_inplace(factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray) -> None:
    """TSMQR, in place: apply a TSQRT transformation to a pair of row views.

    ``c_top`` belongs to the eliminator row, ``c_bottom`` to the killed row.
    """
    apply_chain(((c_top,), (c_bottom,)), ((factor, 0, 1),))


def unmqr(factor: QRTileFactor, c: np.ndarray) -> np.ndarray:
    """UNMQR: apply ``Q^T`` of a GEQRT factorization to a trailing tile.

    Functional form of :func:`unmqr_inplace`: returns a new array.
    """
    out = np.array(c, dtype=np.float64)
    unmqr_inplace(factor, out)
    return out


def tsmqr(
    factor: QRTileFactor, c_top: np.ndarray, c_bottom: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """TSMQR: functional form of :func:`tsmqr_inplace`.

    Returns the updated ``(c_top, c_bottom)`` as new arrays.
    """
    top, bottom = np.array(c_top, dtype=np.float64), np.array(c_bottom, dtype=np.float64)
    tsmqr_inplace(factor, top, bottom)
    return top, bottom


#: TTMQR is the same ``dtpmqrt`` call as TSMQR: the factor's ``l = nb``
#: tells it that ``V_b`` is upper triangular.
ttmqr_inplace = tsmqr_inplace
ttmqr = tsmqr
