"""Compact-WY Householder QR — the readable reference the QR kernel tests use.

The PLASMA/DPLASMA tile kernels used by the paper (GEQRT, TSQRT, TSMQR,
TTQRT, TTMQR, UNMQR) are all built on blocked Householder reflections in
compact-WY form: a factorization step produces a unit-lower-trapezoidal
matrix ``V`` of reflector vectors and an upper-triangular matrix ``T`` such
that

    Q = I - V T V^T .

This module builds that machinery from scratch on top of numpy, one
reflector per Python loop iteration, following the LAPACK conventions:

* :func:`house` — a single Householder reflector (LAPACK ``dlarfg``),
* :func:`geqrt` — blocked QR of a rectangular matrix returning ``(V, T, R)``
  (LAPACK ``dgeqrt``),
* :func:`larft` — build the triangular factor ``T`` from reflectors
  (LAPACK ``dlarft``, forward/columnwise),
* :func:`apply_q_transpose` / :func:`apply_q` — apply ``Q^T`` or ``Q`` to a
  matrix using the compact-WY form (LAPACK ``dlarfb``).

It is written for clarity, not speed, and tested against
``numpy.linalg.qr``.  The production tile kernels in
:mod:`repro.kernels.qr_kernels` factor with LAPACK ``dgeqrt`` instead (same
sign convention, so ``R`` agrees to rounding) and apply with TRMM/GEMM on
the triangular structure of ``V`` and ``T``; the kernel tests compare them
against this module.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["house", "geqrt", "larft", "apply_q", "apply_q_transpose", "build_q"]


def house(x: np.ndarray) -> Tuple[np.ndarray, float, float]:
    """Compute a Householder reflector annihilating ``x[1:]``.

    Returns ``(v, tau, beta)`` with ``v[0] == 1`` such that

        (I - tau * v v^T) x = [beta, 0, ..., 0]^T .

    Follows the LAPACK ``dlarfg`` convention: ``beta`` has the opposite sign
    of ``x[0]`` so that the computation is backward stable, and ``tau = 0``
    (reflector is the identity) when ``x[1:]`` is already zero.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    v = np.zeros(n)
    v[0] = 1.0
    if n == 1:
        return v, 0.0, float(x[0])

    alpha = float(x[0])
    sigma = float(np.dot(x[1:], x[1:]))
    if sigma == 0.0:
        # Nothing to annihilate.
        return v, 0.0, alpha

    mu = np.sqrt(alpha * alpha + sigma)
    beta = -mu if alpha >= 0 else mu
    v0 = alpha - beta
    v[1:] = x[1:] / v0
    tau = (beta - alpha) / beta
    return v, float(tau), float(beta)


def geqrt(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked Householder QR of an ``m``-by-``k`` matrix (``m >= k``).

    Returns ``(V, T, R)`` where

    * ``V`` is ``m``-by-``k`` unit lower trapezoidal (reflector vectors),
    * ``T`` is ``k``-by-``k`` upper triangular (compact-WY factor),
    * ``R`` is ``k``-by-``k`` upper triangular,

    and ``A = Q [R; 0]`` with ``Q = I - V T V^T`` an ``m``-by-``m``
    orthogonal matrix.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    m, k = a.shape
    if m < k:
        raise ValueError(f"geqrt requires m >= k, got shape {a.shape}")

    v = np.zeros((m, k))
    taus = np.zeros(k)
    for j in range(k):
        vj, tau, beta = house(a[j:, j])
        v[j:, j] = vj
        taus[j] = tau
        # Apply (I - tau v v^T) to the trailing columns of A.
        if tau != 0.0 and j + 1 < k:
            w = vj @ a[j:, j + 1 :]
            a[j:, j + 1 :] -= np.outer(tau * vj, w)
        a[j, j] = beta
        if j + 1 <= m - 1:
            a[j + 1 :, j] = 0.0

    t = larft(v, taus)
    r = np.triu(a[:k, :k])
    return v, t, r


def larft(v: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Build the upper-triangular compact-WY factor ``T``.

    Given reflectors ``V`` (unit lower trapezoidal, one reflector per
    column) and their scalar factors ``taus``, produce ``T`` such that

        Q = H(0) H(1) ... H(k-1) = I - V T V^T .
    """
    v = np.asarray(v, dtype=np.float64)
    taus = np.asarray(taus, dtype=np.float64)
    k = v.shape[1]
    t = np.zeros((k, k))
    for j in range(k):
        tau = taus[j]
        if tau == 0.0:
            continue
        t[j, j] = tau
        if j > 0:
            # T[:j, j] = -tau * T[:j, :j] @ (V[:, :j]^T v_j)
            w = v[:, :j].T @ v[:, j]
            t[:j, j] = -tau * (t[:j, :j] @ w)
    return t


def apply_q_transpose(v: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Compute ``Q^T @ C`` with ``Q = I - V T V^T`` (LAPACK ``dlarfb``)."""
    c = np.asarray(c, dtype=np.float64)
    w = v.T @ c              # (k, ncols)
    return c - v @ (t.T @ w)


def apply_q(v: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Compute ``Q @ C`` with ``Q = I - V T V^T``."""
    c = np.asarray(c, dtype=np.float64)
    w = v.T @ c
    return c - v @ (t @ w)


def build_q(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Explicitly form the orthogonal factor ``Q = I - V T V^T``.

    Intended for testing and for small tiles only (``O(m^2 k)`` work).
    """
    m = v.shape[0]
    return np.eye(m) - v @ (t @ v.T)
