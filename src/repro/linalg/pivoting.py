"""LU factorizations with partial pivoting — the substrate of the LU kernels.

The paper's LU step factors the *diagonal domain* (the panel tiles local to
the node owning the diagonal tile) with LU and partial pivoting, using the
multi-threaded *recursive* LU kernel of PLASMA to enlarge the pivot search
space while keeping efficiency (Section IV, "LU ON PANEL").  This module
provides:

* :func:`getrf` — recursive LU with partial pivoting of a rectangular
  ``m``-by-``k`` panel: a fixed column-halving recursion whose leaves are
  single LAPACK ``dgetrf`` calls (the analogue of PLASMA's recursive panel
  kernel),
* :func:`getrf_nopiv` — LU without pivoting (used by the LU NoPiv baseline),
* :func:`pivot_moves` / :func:`pivots_to_permutation` — helpers to apply
  the pivot sequence to trailing columns, as SWPTRSM does: one LAPACK
  ``dlaswp`` composes the swaps into a single row gather.

The readable per-column reference LU and the swap-by-swap pivot
application the tests compare these against live in ``tests/``.

All routines return the pivot sequence in LAPACK convention, 0-based:
``piv[i] = p`` means that row ``i`` was swapped with row ``p`` at
elimination step ``i``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgetrf, dlaswp

__all__ = [
    "getrf",
    "getrf_nopiv",
    "pivot_moves",
    "pivots_to_permutation",
    "SingularPanelError",
]

#: Largest block (in elements) handed to one ``dgetrf`` call.  Not a tuning
#: knob: OpenBLAS switches to its *parallel* LU from 20 000 elements up and
#: the bits of the factors then depend on ``OPENBLAS_NUM_THREADS`` (measured:
#: 768x64, 256x128, 1024x128 and 2048x256 panels hash differently at 1 and 2
#: threads; blocks up to 128x128 and 1024x16 hash equal).  Worker processes
#: run one BLAS thread and the host any number, so a panel kernel above the
#: bound would break executor bit-identity — as ``dtpqrt`` does from an inner
#: block of 32, which is why the QR kernels run at 8.  Below it every leaf is the sequential LAPACK routine, and the
#: pieces between leaves (row gathers, ``dtrsm``, GEMM) are thread-stable.
_LEAF_ELEMENTS = 16384


class SingularPanelError(RuntimeError):
    """Raised when a zero pivot makes an LU factorization impossible.

    The paper observes exactly this failure for LU NoPiv and LUPP on the
    ``fiedler`` matrix ("small values rounded up to 0 and then illegally
    used in a division"); surfacing it as a dedicated exception lets the
    experiment harness record the breakdown instead of silently producing
    NaNs.
    """


def getrf(a: np.ndarray, *, overwrite_a: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting of an ``m``-by-``k`` panel (``m >= k``).

    On return the strictly-lower part of the leading ``k`` columns holds
    ``L`` (unit diagonal implicit) and the upper triangle of the top ``k``
    rows holds ``U``, exactly as LAPACK's ``dgetrf`` stores them.

    The panel is split column-wise in halves: the left half is factored,
    its row swaps and a unit-lower ``dtrsm`` are applied to the right half,
    the lower-right block receives the GEMM Schur update, and the right
    half is factored in turn — the recursive-LU panel kernel of PLASMA
    [Dongarra et al. 2013] used by the paper.  The recursion bottoms out on
    one ``dgetrf`` call per block of at most ``_LEAF_ELEMENTS`` elements
    (or a single column); that bound keeps the factors bit-identical for
    any BLAS thread count (see its comment) and is fixed by design.

    ``a`` is copied unless ``overwrite_a`` is set and ``a`` is already a
    C-contiguous float64 array, in which case it is factored in place.
    Raises :class:`SingularPanelError` naming the first exactly-zero pivot
    column.  Non-finite input is not detected (LAPACK does not flag NaN);
    the solvers reject it before any kernel runs.

    Returns ``(lu, piv)``.
    """
    if overwrite_a:
        a = np.ascontiguousarray(a, dtype=np.float64)
    else:
        a = np.array(a, dtype=np.float64, order="C", copy=True)
    m, k = a.shape
    if m < k:
        raise ValueError(f"getrf requires m >= k, got shape {a.shape}")
    piv = np.empty(k, dtype=np.int64)
    _getrf_columns(a, piv, 0, k)
    return a, piv


def _getrf_columns(a: np.ndarray, piv: np.ndarray, c0: int, c1: int) -> None:
    """Factor columns ``[c0, c1)`` of ``a`` in place over rows ``c0:``.

    Row swaps are applied to those columns only (the caller owns the
    columns on either side).  Columns are finished left to right, so the
    first leaf to meet an exactly-zero pivot names the first such column.
    """
    width = c1 - c0
    if width <= 1 or (a.shape[0] - c0) * width <= _LEAF_ELEMENTS:
        lu, leaf_piv, info = dgetrf(a[c0:, c0:c1])
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrf")
        if info > 0:
            raise SingularPanelError(f"zero pivot encountered at column {c0 + info - 1}")
        a[c0:, c0:c1] = lu
        piv[c0:c1] = leaf_piv + c0
        return

    mid = c0 + width // 2
    _getrf_columns(a, piv, c0, mid)
    _swap_rows(a, piv, c0, mid, slice(mid, c1))
    # A12 <- L11^{-1} A12 (L11 unit lower: dtrsm reads only that triangle),
    # then the Schur update of the lower-right block.
    a[c0:mid, mid:c1] = dtrsm(1.0, a[c0:mid, c0:mid], a[c0:mid, mid:c1], lower=1, diag=1)
    a[mid:, mid:c1] -= a[mid:, c0:mid] @ a[c0:mid, mid:c1]
    _getrf_columns(a, piv, mid, c1)
    # The L columns of the left half follow the right half's row swaps.
    _swap_rows(a, piv, mid, c1, slice(c0, mid))


def _swap_rows(a: np.ndarray, piv: np.ndarray, c0: int, c1: int, cols: slice) -> None:
    """Apply the swaps ``piv[c0:c1]`` to columns ``cols`` of ``a`` in one gather."""
    dst, src = pivot_moves(piv[c0:c1], base=c0)
    if dst.size:
        a[dst, cols] = a[src, cols]


def getrf_nopiv(a: np.ndarray) -> np.ndarray:
    """LU *without* pivoting of a square matrix (the LU NoPiv baseline kernel).

    Raises :class:`SingularPanelError` on a zero diagonal entry.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    m, k = a.shape
    if m != k:
        raise ValueError(f"getrf_nopiv requires a square matrix, got shape {a.shape}")
    for j in range(k):
        if a[j, j] == 0.0:
            raise SingularPanelError(f"zero diagonal entry at column {j} (no pivoting)")
        if j + 1 < m:
            a[j + 1 :, j] /= a[j, j]
            a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j, j + 1 :])
    return a


def pivot_moves(piv: np.ndarray, base: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """The rows a LAPACK pivot sequence actually moves, as one gather.

    ``piv[j]`` swaps row ``base + j`` with row ``piv[j]``.  Returns index
    arrays ``(dst, src)`` (at most ``2 len(piv)`` rows, ``dst`` ascending)
    such that ``c[dst] = c[src]`` equals swapping row ``base + j`` with row
    ``piv[j]`` for ``j = 0, 1, ...`` in turn — every other row stays where
    it is.  The swaps are composed by one ``dlaswp`` on a column of row
    indices (exact in float64); a row whose entry changed moved.
    """
    piv = np.asarray(piv)
    rows = piv.tolist()
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if min(rows) < base:
        raise ValueError(f"pivot {min(rows)} lies above the first swapped row {base}")
    index = np.arange(base, max(max(rows) + 1, base + len(rows)), dtype=np.float64)
    # Positional arguments (k1, k2, off, inc, overwrite_a): f2py keyword
    # parsing costs as much as the call.
    relative = np.subtract(piv, base, dtype=np.int32)
    swapped = dlaswp(index[:, None], relative, 0, len(rows) - 1, 0, 1, 0)[:, 0]
    moved = swapped != index
    return index[moved].astype(np.int64), swapped[moved].astype(np.int64)


def pivots_to_permutation(piv: np.ndarray, m: int) -> np.ndarray:
    """Convert a LAPACK pivot sequence into an explicit permutation vector.

    Returns ``perm`` such that ``(P A)[i] = A[perm[i]]`` where ``P`` is the
    permutation the swap sequence performs (see :func:`pivot_moves`).
    """
    perm = np.arange(m, dtype=np.int64)
    dst, src = pivot_moves(np.asarray(piv))
    perm[dst] = src
    return perm
