"""Stability metrics (HPL3, backward error) and growth-factor tracking."""

from .growth import (
    GrowthTracker,
    max_criterion_growth_bound,
    partial_pivoting_growth_bound,
    scalar_growth_factor,
    sum_criterion_growth_bound,
)
from .metrics import (
    StabilityReport,
    forward_error,
    hpl1,
    hpl2,
    hpl3,
    matrix_norms,
    normwise_backward_error,
    stability_report,
    stability_reports,
)

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
    "GrowthTracker",
    "max_criterion_growth_bound",
    "sum_criterion_growth_bound",
    "partial_pivoting_growth_bound",
    "scalar_growth_factor",
]
