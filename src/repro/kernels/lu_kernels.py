"""Tile kernels of the LU elimination step (variant A1 of the paper).

One LU step at panel ``k`` (Algorithm 2 of the paper) is built from four
kernels:

* **Factor**   ``A_kk <- GETRF(A_kk)``: LU with partial pivoting of the
  diagonal tile (or of the whole diagonal domain in the variant used for
  the experiments), producing ``P A = L U`` stored in place.
* **Eliminate** ``A_ik <- TRSM(A_kk, A_ik)``: ``A_ik <- A_ik U_kk^{-1}``.
* **Apply**     ``A_kj <- SWPTRSM(A_kk, A_kj)``: ``A_kj <- L_kk^{-1} P_kk A_kj``.
* **Update**    ``A_ij <- GEMM(A_ik, A_kj, A_ij)``: ``A_ij <- A_ij - A_ik A_kj``.

The kernels below operate on plain numpy arrays (tiles); the step driver in
:mod:`repro.core.lu_step` wires them together over a :class:`~repro.tiles.TileMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from ..linalg.pivoting import getrf, pivot_moves
from ..linalg.triangular import trsm_lower_left_unit, trsm_upper_right

__all__ = [
    "LUPanelFactor",
    "factor_tile_lu",
    "factor_panel_lu",
    "eliminate_trsm",
    "apply_swptrsm",
    "swptrsm_inplace",
    "stacked_row_index",
    "update_gemm",
]


@dataclass
class LUPanelFactor:
    """Result of factoring a (possibly multi-tile) panel with partial pivoting.

    Attributes
    ----------
    lu:
        The packed factors: unit-lower ``L`` below the diagonal of the
        leading ``nb`` columns, ``U`` in the upper triangle of the top
        ``nb`` rows.  Shape ``(d*nb, nb)`` where ``d`` is the number of
        stacked tiles.
    piv:
        LAPACK-style pivot sequence (length ``nb``): row ``j`` of the
        stacked panel was swapped with row ``piv[j]``.
    nb:
        Tile order.

    The triangular solves read ``L``/``U`` straight from the packed top
    block (LAPACK references only the triangle it is told to).
    """

    lu: np.ndarray
    piv: np.ndarray
    nb: int

    @cached_property
    def moves(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(dst, src)`` stacked-row indices of the at most ``2 nb`` rows the
        pivot sequence moves (:func:`repro.linalg.pivoting.pivot_moves`).

        Built on first use, so a domain factor a QR step discards never pays
        for it; whoever hands a factor to concurrent SWPTRSM tasks builds it
        first (the LU planner, the IncPiv factor kernels, :meth:`__setstate__`).
        Not pickled: a shipped factor is exactly ``lu + piv``, as the memory
        and communication certificates declare.
        """
        return pivot_moves(self.piv)

    def __getstate__(self) -> dict:
        return {"lu": self.lu, "piv": self.piv, "nb": self.nb}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.moves  # rebuilt on arrival, before any task of this process reads it

    @property
    def top(self) -> np.ndarray:
        """The packed ``nb x nb`` top block ``L1\\U`` (a view)."""
        return self.lu[: self.nb, : self.nb]

    @property
    def smallest_pivot(self) -> float:
        """Smallest absolute diagonal entry of ``U`` (breakdown indicator)."""
        return float(np.min(np.abs(np.diag(self.top))))


def factor_tile_lu(tile: np.ndarray) -> LUPanelFactor:
    """Factor kernel on the diagonal tile only: ``P A_kk = L U``."""
    lu, piv = getrf(tile)
    return LUPanelFactor(lu=lu, piv=piv, nb=tile.shape[0])


def factor_panel_lu(stacked: np.ndarray, nb: int) -> LUPanelFactor:
    """Factor kernel on the stacked diagonal *domain* (the experimental variant).

    ``stacked`` is the vertical concatenation of all panel tiles owned by
    the diagonal node (diagonal tile first) — a fresh stack the caller hands
    over: a C-contiguous float64 array is factored in place and becomes the
    factor's ``lu`` (every caller builds one with ``vstack``/``panel()``;
    copy first to keep the input).  Searching pivots across the
    whole domain rather than a single tile "increases the smallest singular
    value of the factored region and therefore increases the likelihood of
    an LU step" (Section II-A), without any inter-node communication.

    The kernel is :func:`repro.linalg.pivoting.getrf`, the analogue of
    PLASMA's recursive-LU panel kernel used in the paper's implementation
    (Section IV).
    """
    if stacked.shape[1] != nb:
        raise ValueError(f"stacked panel must have {nb} columns, got {stacked.shape[1]}")
    lu, piv = getrf(stacked, overwrite_a=True)
    return LUPanelFactor(lu=lu, piv=piv, nb=nb)


def eliminate_trsm(factor: LUPanelFactor, a_ik: np.ndarray) -> np.ndarray:
    """Eliminate kernel: ``A_ik <- A_ik U_kk^{-1}`` (in-place semantics by return)."""
    return trsm_upper_right(factor.top, a_ik)


def stacked_row_index(tile_rows: Sequence[int], nb: int) -> np.ndarray:
    """Matrix row indices of the tile rows ``tile_rows`` stacked in order."""
    return (np.asarray(tile_rows, dtype=np.int64)[:, None] * nb + np.arange(nb)).ravel()


def swptrsm_inplace(factor: LUPanelFactor, c: np.ndarray, rows: np.ndarray) -> None:
    """Apply kernel, in place: ``C <- L_kk^{-1} P_kk C`` on rows ``rows`` of ``c``.

    ``c`` is any 2-D array or view (a tile column of the tile storage, the
    attached right-hand side); ``rows`` lists, in stacking order, the rows
    of ``c`` that make up the factored region (:func:`stacked_row_index`;
    strided for the domain rows of a ``p > 1`` grid).  Only the rows the
    pivots move are touched (one gather), then the top ``nb`` rows —
    always contiguous — take the unit-lower solve.
    """
    dst, src = factor.moves
    if dst.size:
        c[rows[dst]] = c[rows[src]]
    top = c[rows[0] : rows[0] + factor.nb]
    top[...] = trsm_lower_left_unit(factor.top, top)


def apply_swptrsm(factor: LUPanelFactor, a_kj: np.ndarray) -> np.ndarray:
    """Apply kernel: ``A_kj <- L_kk^{-1} P_kk A_kj``.

    ``a_kj`` must contain the rows of the *whole factored region* (i.e. the
    stacked domain rows for the domain variant) so the pivot swaps can be
    applied; only the top ``nb`` rows are transformed by the triangular
    solve and the caller is responsible for scattering all rows back.
    The step drivers use :func:`swptrsm_inplace` on views of the tile
    storage instead; this functional form returns a new array.
    """
    c = np.array(a_kj, dtype=np.float64, copy=True)
    if c.shape[0] != factor.lu.shape[0]:
        raise ValueError(
            f"apply_swptrsm expects {factor.lu.shape[0]} rows, got {c.shape[0]}"
        )
    swptrsm_inplace(factor, c, np.arange(c.shape[0]))
    return c


def update_gemm(a_ij: np.ndarray, a_ik: np.ndarray, a_kj: np.ndarray) -> np.ndarray:
    """Update kernel: ``A_ij <- A_ij - A_ik A_kj`` (returns the new tile)."""
    return a_ij - a_ik @ a_kj
