"""Floating-point operation model of the tile kernels (Table I of the paper).

Table I of the paper gives the cost of one elimination step, in units of
``nb^3`` floating-point operations, for an LU step (variant A1) and a QR
step::

                      LU step, var A1            QR step
    factor   A        2/3        GETRF           4/3        GEQRT
    eliminate B       (n-1)      TRSM            2(n-1)     TSQRT
    apply    C        (n-1)      TRSM (SWPTRSM)  2(n-1)     TSMQR
    update   D        2(n-1)^2   GEMM            4(n-1)^2   UNMQR/TSMQR

so a QR step is roughly twice as expensive as an LU step, and a full
factorization costs ``2/3 N^3`` flops if every step is LU and ``4/3 N^3``
flops if every step is QR.

This module provides:

* per-kernel flop counts (functions of the tile size ``nb``),
* per-step totals for LU and QR steps (functions of ``nb`` and the number
  of remaining tiles), reproducing Table I,
* whole-factorization totals, including the *true* flop count of a hybrid
  run given the fraction of LU steps (the formula used in Table II:
  ``(2/3 f_LU + 4/3 (1 - f_LU)) N^3``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = [
    "KernelFlops",
    "kernel_flops",
    "lu_step_flops",
    "qr_step_flops",
    "step_flops_table",
    "factorization_flops_lu",
    "factorization_flops_qr",
    "true_flops",
    "fake_flops",
]


@dataclass(frozen=True)
class KernelFlops:
    """Flop count of every tile kernel for a given tile size ``nb``.

    The counts are the standard LAPACK/PLASMA operation counts (leading
    order in ``nb``); the coefficients match the units-of-``nb^3`` entries
    of Table I.
    """

    nb: int

    # ----------------------- LU-step kernels -------------------------- #
    @property
    def getrf(self) -> float:
        """LU factorization with partial pivoting of one ``nb x nb`` tile."""
        return (2.0 / 3.0) * self.nb**3

    @property
    def trsm(self) -> float:
        """Triangular solve of one tile against a triangular tile."""
        return float(self.nb**3)

    @property
    def swptrsm(self) -> float:
        """Row-swap + unit-lower triangular solve (the Apply kernel of A1)."""
        return float(self.nb**3)

    @property
    def gemm(self) -> float:
        """General tile-tile multiply-accumulate ``C <- C - A B``."""
        return 2.0 * self.nb**3

    # ----------------------- QR-step kernels -------------------------- #
    # The applies in repro.kernels.qr_kernels use the structure these
    # counts assume: TRMMs by the unit-lower V (UNMQR) and the upper V_b
    # (TTMQR), GEMMs only by TSQRT's full V_b.  Each executes its count
    # below plus nb^3 for the TRMM by T, which is full nb x nb here (block
    # size nb) but block diagonal, and negligible, in the paper's
    # inner-blocked kernels.
    @property
    def geqrt(self) -> float:
        """Householder QR of one ``nb x nb`` tile (compact WY)."""
        return (4.0 / 3.0) * self.nb**3

    @property
    def tsqrt(self) -> float:
        """QR of a triangular tile stacked on a square tile (2nb x nb)."""
        return 2.0 * self.nb**3

    @property
    def tsmqr(self) -> float:
        """Apply a TSQRT transformation to a pair of trailing tiles."""
        return 4.0 * self.nb**3

    @property
    def unmqr(self) -> float:
        """Apply a GEQRT transformation to one trailing tile."""
        return 2.0 * self.nb**3

    @property
    def ttqrt(self) -> float:
        """QR of a triangular tile stacked on a triangular tile."""
        return (2.0 / 3.0) * self.nb**3

    @property
    def ttmqr(self) -> float:
        """Apply a TTQRT transformation to a pair of trailing tiles."""
        return 2.0 * self.nb**3

    # ---------------------- Auxiliary kernels -------------------------- #
    @property
    def tile_norm(self) -> float:
        """1-norm of a tile (criterion bookkeeping), ``nb^2`` operations."""
        return float(self.nb**2)

    @property
    def norm_estimate(self) -> float:
        """Hager estimate of ``||A_kk^{-1}||_1`` from LU factors (few solves)."""
        return 10.0 * self.nb**2

    def of(self, name: str) -> float:
        """Flop count of a kernel by (lower-case) name."""
        try:
            return float(getattr(self, name.lower()))
        except AttributeError as exc:
            raise KeyError(f"unknown kernel {name!r}") from exc


def kernel_flops(name: str, nb: int) -> float:
    """Flop count of kernel ``name`` at tile size ``nb``."""
    return KernelFlops(nb).of(name)


def lu_step_flops(nb: int, remaining: int) -> Dict[str, float]:
    """Flop count of one LU step (variant A1) with ``remaining`` tiles left.

    ``remaining`` is the number of tile rows/columns still to eliminate at
    this step, i.e. ``n - k`` so that ``remaining - 1`` matches the
    ``(n - 1)`` factors of Table I for the first step.
    """
    k = KernelFlops(nb)
    r = remaining - 1
    return {
        "factor": k.getrf,
        "eliminate": r * k.trsm,
        "apply": r * k.swptrsm,
        "update": r * r * k.gemm,
        "total": k.getrf + r * k.trsm + r * k.swptrsm + r * r * k.gemm,
    }


def qr_step_flops(nb: int, remaining: int) -> Dict[str, float]:
    """Flop count of one QR step with ``remaining`` tiles left (cf. Table I)."""
    k = KernelFlops(nb)
    r = remaining - 1
    return {
        "factor": k.geqrt,
        "eliminate": r * k.tsqrt,
        "apply": r * k.unmqr,
        "update": r * r * k.tsmqr,
        "total": k.geqrt + r * k.tsqrt + r * k.unmqr + r * r * k.tsmqr,
    }


def step_flops_table(nb: int, remaining: int) -> Dict[str, Dict[str, float]]:
    """Both columns of Table I, in units of ``nb^3``, for a given step size."""
    scale = float(nb**3)
    lu = lu_step_flops(nb, remaining)
    qr = qr_step_flops(nb, remaining)
    return {
        "lu": {key: val / scale for key, val in lu.items()},
        "qr": {key: val / scale for key, val in qr.items()},
    }


def factorization_flops_lu(n_order: int) -> float:
    """Flops of a full LU factorization of an ``N x N`` matrix: ``2/3 N^3``."""
    return (2.0 / 3.0) * float(n_order) ** 3


def factorization_flops_qr(n_order: int) -> float:
    """Flops of a full QR factorization of an ``N x N`` matrix: ``4/3 N^3``."""
    return (4.0 / 3.0) * float(n_order) ** 3


def fake_flops(n_order: int) -> float:
    """The "fake" flop count used to normalise GFLOP/s in the paper.

    Every algorithm is credited ``2/3 N^3`` flops (the LU count) regardless
    of what it actually performs, so that a QR-based run shows roughly half
    the GFLOP/s of an LU-based run of the same duration (Section V-A).
    """
    return factorization_flops_lu(n_order)


def true_flops(n_order: int, lu_fraction: float) -> float:
    """The "true" flop count of a hybrid run (Table II).

    ``(2/3 f_LU + 4/3 (1 - f_LU)) N^3`` where ``f_LU`` is the fraction of
    elimination steps that were LU steps.
    """
    if not 0.0 <= lu_fraction <= 1.0:
        raise ValueError(f"lu_fraction must be in [0, 1], got {lu_fraction}")
    coeff = (2.0 / 3.0) * lu_fraction + (4.0 / 3.0) * (1.0 - lu_fraction)
    return coeff * float(n_order) ** 3
