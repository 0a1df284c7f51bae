"""Panel analysis: gather the information a robustness criterion needs.

This is the "Check" phase of Algorithm 1 and the "LU ON PANEL" stage of the
dataflow (Figure 1): the diagonal domain is factored with LU and partial
pivoting, local tile norms and per-column maxima are computed, and the lot
is (conceptually) all-reduced among the nodes hosting panel tiles so every
node can evaluate the criterion and take the same decision.

The paper's design rests on this check having "a small computational
overhead", so it is kept to: one stacked copy of the panel and one |.|
pass over it for the column maxima and the sub-diagonal tile norms (then
:func:`repro.linalg.pivoting.getrf` factors the domain rows of the copy in
place), and a few triangular solves of the 1-norm estimator against the
packed factors.
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

    # One stacked copy of the panel, diagonal domain first, and one |.| pass
    # over it give the per-column maxima inside / outside the domain (MUMPS
    # data) and the sub-diagonal tile 1-norms (the ``region_tile_norms``
    # reduction), all pre-factorization; the domain block is factored below.
    rows = domain_rows + off_domain_rows
    stacked = tiles.panel(k, rows)
    magnitudes = np.abs(stacked)
    split = len(domain_rows) * nb
    local_max = magnitudes[:split].max(axis=0)
    away_max = magnitudes[split:].max(axis=0) if off_domain_rows else np.zeros(nb)
    norms = np.empty(n - k)
    norms[np.subtract(rows, k)] = magnitudes.reshape(-1, nb, nb).sum(axis=1).max(axis=1)
    offdiag_tile_norms = norms[1:].tolist()
    local_panel = stacked[:split]

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
