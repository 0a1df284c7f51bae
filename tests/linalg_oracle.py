"""Readable reference forms of the dense linear algebra in ``repro.linalg``.

No production code calls these; the tests compare the LAPACK-backed
routines against them:

* :func:`getrf_reference` — per-column right-looking LU with partial
  pivoting, the oracle of the recursive panel LU ``repro.linalg.getrf``;
* :func:`apply_row_pivots` — a LAPACK pivot sequence applied one swap at a
  time, the oracle of ``pivot_moves`` and of SWPTRSM's single gather;
* :func:`tiled_back_substitution_loop` (with its block solve
  :func:`trsm_upper_left`) — the tile-row by tile-row back-substitution
  with GEMM updates between tiles, the oracle of the single ``dtrtrs`` in
  ``repro.linalg.tiled_back_substitution``.

Import them as ``from linalg_oracle import ...`` inside tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.linalg as sla

from repro.linalg import SingularPanelError


def getrf_reference(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-column right-looking LU with partial pivoting.

    Same contract and storage as ``repro.linalg.getrf`` (equal pivots,
    factors to rounding).
    """
    a = np.array(a, dtype=np.float64, copy=True)
    m, k = a.shape
    if m < k:
        raise ValueError(f"getrf requires m >= k, got shape {a.shape}")
    piv = np.arange(k, dtype=np.int64)

    for j in range(k):
        # Pivot search over the remaining rows of column j.
        p = j + int(np.argmax(np.abs(a[j:, j])))
        piv[j] = p
        if a[p, j] == 0.0:
            raise SingularPanelError(f"zero pivot encountered at column {j}")
        if p != j:
            a[[j, p], :] = a[[p, j], :]
        # Eliminate below the pivot.
        if j + 1 < m:
            a[j + 1 :, j] /= a[j, j]
            if j + 1 < k:
                a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])
    return a, piv


def apply_row_pivots(c: np.ndarray, piv: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Apply a LAPACK-style pivot sequence to the rows of ``c`` (in place).

    With ``inverse=True`` the swaps are undone (applied in reverse order).
    Returns ``c`` for convenience.
    """
    indices = range(len(piv) - 1, -1, -1) if inverse else range(len(piv))
    for j in indices:
        p = int(piv[j])
        if p != j:
            c[[j, p], :] = c[[p, j], :]
    return c


def trsm_upper_left(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U X = B`` for ``X`` with ``U`` upper triangular (back-substitution block)."""
    return sla.solve_triangular(u, b, lower=False)


def tiled_back_substitution_loop(a: np.ndarray, c: np.ndarray, tile_size: int) -> np.ndarray:
    """Solve ``U x = c`` tile row by tile row from the bottom.

    ``U`` is the upper triangle of ``a`` (below-diagonal entries are never
    read: ``lower=False`` reads only the upper triangle of each diagonal
    tile).  GEMM updates between tiles, one triangular solve per diagonal
    tile; ``c`` is never written.  Returns ``x`` with the shape of ``c``.
    """
    n_total = a.shape[0]
    if n_total % tile_size != 0:
        raise ValueError(
            f"matrix order {n_total} is not a multiple of tile_size {tile_size}"
        )
    c = np.asarray(c, dtype=np.float64)
    squeeze = c.ndim == 1
    if squeeze:
        c = c.reshape(-1, 1)

    nb = tile_size
    x = np.zeros_like(c)
    for i in range(n_total // nb - 1, -1, -1):
        rows = slice(i * nb, (i + 1) * nb)
        acc = c[rows].copy()
        for j in range(i + 1, n_total // nb):
            cols = slice(j * nb, (j + 1) * nb)
            acc -= a[rows, cols] @ x[cols]
        x[rows] = trsm_upper_left(a[rows, rows], acc)

    return x[:, 0] if squeeze else x
