"""Backward-error metrics used by the paper's stability evaluation.

The paper measures backward stability with the HPL3 accuracy test of the
High-Performance Linpack benchmark:

    HPL3 = ||A x - b||_inf / (||A||_inf ||x||_inf eps N)

where ``x`` is the computed solution and ``eps`` the machine precision.
Results are reported as the *relative* HPL3: the ratio to the HPL3 value of
the LUPP reference on the same system.  This module implements HPL3, its
two HPL companions (HPL1, HPL2), the normwise relative backward error of
Oettli-Prager/Rigal-Gaches form, and the forward error when the true
solution is known.

Every solve carries a :class:`StabilityReport`, so the report is on the read
path of the serving tier and makes **one pass over** ``A``: the residual
``A x - b`` is formed once (in :func:`_residual`, nowhere else) and shared by
the four metrics, and the two O(n^2) norms of ``A`` come from
:func:`matrix_norms` once per report — or not at all when the caller passes
``a_norms=`` (``SolverSession`` keeps them on its cache entries).
:func:`stability_reports` is the per-column form for a block of right-hand
sides: one ``A @ X`` GEMM instead of one GEMV per column.  The scalar
expressions are the same on every route, so a report does not depend on
whether the norms were cached, and a one-column block reports bit for bit
what the 1-D form does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "hpl1",
    "hpl2",
    "hpl3",
    "normwise_backward_error",
    "forward_error",
    "matrix_norms",
    "StabilityReport",
    "stability_report",
    "stability_reports",
]

_EPS = float(np.finfo(np.float64).eps)


def matrix_norms(a: np.ndarray) -> Tuple[float, float]:
    """``(||A||_1, ||A||_inf)`` — the two O(n^2) norms a report needs of ``A``.

    One ``|A|`` pass feeds both: column sums for the 1-norm, row sums for
    the inf-norm — ``numpy.linalg.norm``'s own reductions, so the values
    are bit-identical to it.
    """
    abs_a = np.abs(a)
    return (
        float(abs_a.sum(axis=0).max(initial=0)),
        float(abs_a.sum(axis=1).max(initial=0)),
    )


def _residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A x - b``; refuses shapes that would broadcast it to an n x n array."""
    r = a @ x
    if r.shape != np.shape(b):
        raise ValueError(f"A @ x has shape {r.shape} but b has shape {np.shape(b)}")
    return r - b


def _check_x_true(x: np.ndarray, x_true: np.ndarray) -> None:
    if np.shape(x) != np.shape(x_true):
        raise ValueError(f"x has shape {np.shape(x)} but x_true has shape {np.shape(x_true)}")


def _norm(v: np.ndarray, order: float) -> float:
    return float(np.linalg.norm(np.ravel(v), order))


def _ratio(num: float, denom: float) -> float:
    return num / denom if denom > 0 else np.inf


def hpl1(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """HPL1 = ||Ax - b||_inf / (eps ||A||_1 N)."""
    return stability_report(a, x, b).hpl1


def hpl2(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """HPL2 = ||Ax - b||_inf / (eps ||A||_1 ||x||_1)."""
    return stability_report(a, x, b).hpl2


def hpl3(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """The paper's accuracy metric.

    ``HPL3 = ||A x - b||_inf / (||A||_inf ||x||_inf eps N)``; values of
    order 1 (say below ~16) indicate a backward-stable solve, large values
    indicate instability.
    """
    return stability_report(a, x, b).hpl3


def normwise_backward_error(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Rigal-Gaches normwise relative backward error.

    ``||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)`` — the smallest
    relative perturbation of ``(A, b)`` for which ``x`` is an exact solution.
    """
    return stability_report(a, x, b).backward_error


def forward_error(x: np.ndarray, x_true: np.ndarray) -> float:
    """Relative forward error ``||x - x_true||_inf / ||x_true||_inf``."""
    _check_x_true(x, x_true)
    denom = _norm(x_true, np.inf)
    if denom == 0.0:
        return _norm(x, np.inf)
    return _norm(np.ravel(x) - np.ravel(x_true), np.inf) / denom


@dataclass(frozen=True)
class StabilityReport:
    """All stability metrics of one solve, for convenience in experiments."""

    hpl1: float
    hpl2: float
    hpl3: float
    backward_error: float
    forward_error: Optional[float] = None

    def relative_to(self, reference: "StabilityReport") -> float:
        """Relative HPL3 w.r.t. a reference run (the paper's y-axis)."""
        if reference.hpl3 == 0.0:
            return np.inf
        return self.hpl3 / reference.hpl3


def _report(
    n: int,
    a_norms: Tuple[float, float],
    res_inf: float,
    x_1: float,
    x_inf: float,
    b_inf: float,
    forward: Optional[float],
) -> StabilityReport:
    """The four metrics from the scalars they share (formulas: see the functions above)."""
    a_1, a_inf = a_norms
    return StabilityReport(
        hpl1=_ratio(res_inf, _EPS * a_1 * n),
        hpl2=_ratio(res_inf, _EPS * a_1 * x_1),
        hpl3=_ratio(res_inf, a_inf * x_inf * _EPS * n),
        backward_error=_ratio(res_inf, a_inf * x_inf + b_inf),
        forward_error=forward,
    )


def stability_report(
    a: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    x_true: Optional[np.ndarray] = None,
    *,
    a_norms: Optional[Tuple[float, float]] = None,
) -> StabilityReport:
    """Compute every metric of :class:`StabilityReport` for one solve.

    ``x`` and ``b`` are two vectors or two blocks of one shape (a block is
    judged as a whole).  ``a_norms`` is a precomputed :func:`matrix_norms`
    of ``a`` — callers vouch for the correspondence, as with the ``key=``
    fingerprint of :meth:`~repro.api.session.SolverSession.solve`.
    """
    return _report(
        a.shape[0],
        matrix_norms(a) if a_norms is None else a_norms,
        _norm(_residual(a, x, b), np.inf),
        _norm(x, 1),
        _norm(x, np.inf),
        _norm(b, np.inf),
        None if x_true is None else forward_error(x, x_true),
    )


def stability_reports(
    a: np.ndarray,
    x: np.ndarray,
    b: np.ndarray,
    x_true: Optional[np.ndarray] = None,
    *,
    a_norms: Optional[Tuple[float, float]] = None,
) -> List[StabilityReport]:
    """One :class:`StabilityReport` per column of the ``(n, nrhs)`` blocks.

    Column ``j`` is judged as ``stability_report(a, x[:, j], b[:, j])``
    would, but the residuals of all columns come from one ``A @ X`` GEMM.
    BLAS may round a GEMM column unlike the GEMV of that column alone, so
    for ``nrhs > 1`` a metric can differ from the per-column value in its
    last bits; a one-column block is bit-identical to the 1-D form.
    """
    if np.ndim(x) != 2:
        raise ValueError(f"x must be an (n, nrhs) block, got shape {np.shape(x)}")
    norms = matrix_norms(a) if a_norms is None else a_norms
    res_inf = np.abs(_residual(a, x, b)).max(axis=0).tolist()
    # Row-wise over the contiguous transpose: numpy then sums each column
    # pairwise, exactly as the 1-norm of that column alone.
    x_abs = np.ascontiguousarray(np.abs(x).T)
    x_1, x_inf = x_abs.sum(axis=1).tolist(), x_abs.max(axis=1).tolist()
    b_inf = np.abs(b).max(axis=0).tolist()
    forward: List[Optional[float]] = [None] * len(res_inf)
    if x_true is not None:
        _check_x_true(x, x_true)
        forward = [forward_error(x[:, j], x_true[:, j]) for j in range(len(res_inf))]
    return [
        _report(a.shape[0], norms, *column)
        for column in zip(res_inf, x_1, x_inf, b_inf, forward)
    ]
