"""Dense linear-algebra substrate: Householder QR, pivoted LU, norm estimation."""

from .householder import apply_q, apply_q_transpose, build_q, geqrt, house, larft
from .norm_est import (
    hager_norm1_estimate,
    inverse_norm1_estimate,
    inverse_norm1_exact,
    smallest_inverse_norm_from_lu,
)
from .pivoting import (
    SingularPanelError,
    apply_row_pivots,
    getrf,
    getrf_nopiv,
    pivots_to_permutation,
)
from .triangular import (
    tiled_back_substitution,
    trsm_lower_left_unit,
    trsm_upper_left,
    trsm_upper_right,
)

__all__ = [
    "house",
    "geqrt",
    "larft",
    "apply_q",
    "apply_q_transpose",
    "build_q",
    "getrf",
    "getrf_nopiv",
    "apply_row_pivots",
    "pivots_to_permutation",
    "SingularPanelError",
    "inverse_norm1_exact",
    "inverse_norm1_estimate",
    "hager_norm1_estimate",
    "smallest_inverse_norm_from_lu",
    "trsm_upper_right",
    "trsm_lower_left_unit",
    "trsm_upper_left",
    "tiled_back_substitution",
]
