"""Panel analysis: gather the information a robustness criterion needs.

This is the "Check" phase of Algorithm 1 and the "LU ON PANEL" stage of the
dataflow (Figure 1): the diagonal domain is factored with LU and partial
pivoting, local tile norms and per-column maxima are computed, and the lot
is (conceptually) all-reduced among the nodes hosting panel tiles so every
node can evaluate the criterion and take the same decision.

The paper's design rests on this check having "a small computational
overhead", so it is kept to: one stacked copy of the domain (the column
maxima are read from it, then :func:`repro.linalg.pivoting.getrf` factors
it in place), one vectorized pass for the sub-diagonal tile norms, and a
few triangular solves of the 1-norm estimator against the packed factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..criteria.base import PanelInfo
from ..kernels.lu_kernels import LUPanelFactor, factor_panel_lu
from ..linalg.pivoting import SingularPanelError
from ..linalg.norm_est import smallest_inverse_norm_from_lu
from ..tiles.distribution import BlockCyclicDistribution
from ..tiles.tile_matrix import TileMatrix

__all__ = ["PanelAnalysis", "analyze_panel"]


@dataclass
class PanelAnalysis:
    """Everything produced by the panel pre-factorization at step ``k``.

    ``factor`` is the LU factorization (with partial pivoting) of the
    stacked diagonal-domain panel; ``info`` is the :class:`PanelInfo`
    consumed by the robustness criteria.  If the criterion later selects a
    QR step, ``factor`` is simply discarded (the original tiles were backed
    up, i.e. never overwritten here).

    When the diagonal domain is exactly singular the factorization does not
    exist; ``factor`` is then ``None``, the criterion data reports a zero
    ``diag_inv_norm_inv`` and zero pivots (so every sensible criterion
    rejects the LU step), and the hybrid driver falls back to a QR step.
    """

    k: int
    domain_rows: List[int]
    factor: "LUPanelFactor | None"
    info: PanelInfo

    @property
    def singular(self) -> bool:
        """True when the diagonal-domain factorization broke down."""
        return self.factor is None


def analyze_panel(
    tiles: TileMatrix,
    dist: BlockCyclicDistribution,
    k: int,
    domain_pivoting: bool = True,
) -> PanelAnalysis:
    """Factor the diagonal domain of panel ``k`` and build the criterion input.

    Parameters
    ----------
    tiles:
        The tile matrix being factored (tiles are *not* modified).
    dist:
        Block-cyclic distribution defining the diagonal domain.
    k:
        Panel index.
    domain_pivoting:
        When True (the paper's experimental variant), the pivot search spans
        every panel tile of the diagonal domain; when False only the
        diagonal tile is factored (the plain A1 variant).
    """
    nb = tiles.nb
    n = tiles.n
    if domain_pivoting:
        domain_rows = dist.diagonal_domain_rows(k)
    else:
        domain_rows = [k]
    domain_set = set(domain_rows)
    off_domain_rows = [i for i in range(k, n) if i not in domain_set]

    # Tile norms of the sub-diagonal panel tiles (pre-factorization values),
    # one vectorized pass over the panel column.
    offdiag_tile_norms = tiles.region_tile_norms(k + 1, n, k, k + 1)[:, 0].tolist()

    # Per-column maxima inside / outside the diagonal domain (MUMPS data).
    # ``local_panel`` is the one stacked copy of the domain: the maxima are
    # read from it, then it is factored in place.
    local_panel = tiles.panel(k, domain_rows)
    local_max = np.max(np.abs(local_panel), axis=0)
    if off_domain_rows:
        away_panel = tiles.panel(k, off_domain_rows)
        away_max = np.max(np.abs(away_panel), axis=0)
    else:
        away_max = np.zeros(nb)

    # LU factorization (partial pivoting) of the stacked diagonal domain.
    # An exactly singular domain cannot be factored; the criteria then see a
    # zero pivot scale and the hybrid driver falls back to a QR step.
    try:
        factor = factor_panel_lu(local_panel, nb)
    except SingularPanelError:
        factor = None

    if factor is not None:
        # ||(A_kk)^{-1}||_1^{-1} where A_kk is the diagonal tile *after*
        # domain pivoting: that tile is exactly L1 @ U of the stacked
        # factorization, so its inverse norm is estimated directly from the
        # packed top block.
        diag_inv_norm_inv = smallest_inverse_norm_from_lu(
            factor.top, np.arange(nb, dtype=np.int64)
        )
        pivots = np.abs(np.diag(factor.top))
    else:
        diag_inv_norm_inv = 0.0
        pivots = np.zeros(nb)

    info = PanelInfo(
        k=k,
        n=n,
        nb=nb,
        diag_inv_norm_inv=diag_inv_norm_inv,
        offdiag_tile_norms=offdiag_tile_norms,
        local_max=local_max,
        away_max=away_max,
        pivots=pivots,
        domain_rows=list(domain_rows),
    )
    return PanelAnalysis(k=k, domain_rows=list(domain_rows), factor=factor, info=info)
