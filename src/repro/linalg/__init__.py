"""Dense linear-algebra substrate: pivoted LU, triangular solves, norm estimation."""

from .norm_est import (
    inverse_norm1_estimate,
    inverse_norm1_exact,
    smallest_inverse_norm_from_lu,
)
from .pivoting import (
    SingularPanelError,
    getrf,
    getrf_nopiv,
    pivots_to_permutation,
)
from .triangular import (
    tiled_back_substitution,
    trsm_lower_left_unit,
    trsm_upper_right,
)

__all__ = [
    "getrf",
    "getrf_nopiv",
    "pivots_to_permutation",
    "SingularPanelError",
    "inverse_norm1_exact",
    "inverse_norm1_estimate",
    "smallest_inverse_norm_from_lu",
    "trsm_upper_right",
    "trsm_lower_left_unit",
    "tiled_back_substitution",
]
