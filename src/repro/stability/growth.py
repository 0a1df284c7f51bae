"""Growth-factor tracking and the theoretical bounds of Section III.

The stability analysis of the paper bounds the growth of the *norms of the
tiles* of the updated trailing matrix:

* Max criterion:  ``max_{i,j,k} ||A^(k)_ij||_1 / max_{i,j} ||A_ij||_1
  <= (1 + alpha)^(n-1)`` — analogous to the scalar ``2^(n-1)`` bound of
  partial pivoting when ``alpha = 1``.
* Sum criterion (``alpha = 1``): the same ratio is bounded by ``n``
  (linear growth), and by ``2`` for block diagonally dominant matrices.

:class:`GrowthTracker` records the largest tile norm seen after each panel
step so the hybrid driver can report the measured growth factor next to the
theoretical bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = [
    "GrowthTracker",
    "max_criterion_growth_bound",
    "sum_criterion_growth_bound",
    "partial_pivoting_growth_bound",
    "scalar_growth_factor",
]


@dataclass
class GrowthTracker:
    """Track tile-norm growth across the elimination steps.

    Parameters
    ----------
    initial_max_norm:
        ``max_{i,j} ||A_ij||_1`` of the original matrix.
    """

    initial_max_norm: float
    per_step: List[float] = field(default_factory=list)

    def record(self, current_max_norm: float) -> None:
        """Record the largest tile norm after one elimination step.

        A non-finite norm means the factorization overflowed: raises
        ``ValueError`` naming the step.
        """
        value = float(current_max_norm)
        if not np.isfinite(value):
            raise ValueError(
                f"the factorization overflowed at step {len(self.per_step)}: a tile norm is {value}"
            )
        self.per_step.append(value)

    @property
    def growth_factor(self) -> float:
        """``max_k max_{i,j} ||A^(k)_ij||_1 / max_{i,j} ||A_ij||_1``."""
        if self.initial_max_norm == 0.0:
            return np.inf if self.per_step and max(self.per_step) > 0 else 1.0
        peak = max(self.per_step, default=self.initial_max_norm)
        return max(peak, self.initial_max_norm) / self.initial_max_norm


def max_criterion_growth_bound(alpha: float, n_tiles: int) -> float:
    """Upper bound ``(1 + alpha)^(n-1)`` on tile-norm growth under the Max criterion."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    return float((1.0 + alpha) ** (n_tiles - 1))


def sum_criterion_growth_bound(n_tiles: int, diagonally_dominant: bool = False) -> float:
    """Upper bound on tile-norm growth under the Sum criterion with ``alpha = 1``.

    ``n`` in general, reduced to ``2`` for (block) diagonally dominant
    matrices (Section III-B).
    """
    return 2.0 if diagonally_dominant else float(n_tiles)


def partial_pivoting_growth_bound(n_order: int) -> float:
    """Scalar GEPP growth bound ``2^(N-1)`` (for reference/analogy)."""
    return float(2.0 ** (n_order - 1))


def scalar_growth_factor(a_original: np.ndarray, u_factor: np.ndarray) -> float:
    """Classical scalar growth factor ``max|u_ij| / max|a_ij|``."""
    denom = float(np.max(np.abs(a_original)))
    if denom == 0.0:
        return np.inf
    return float(np.max(np.abs(u_factor))) / denom
