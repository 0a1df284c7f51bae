"""Tile kernels (LU and QR), their flop model (Table I), the picklable
kernel-descriptor dispatch table used by the multi-process executor, and
the kernel-backend hooks instrumentation plugs into."""

from .backends import KernelBackend, NumpyBackend, resolve_backend
from .dispatch import KERNELS, KernelCall, execute_kernel_call
from .flops import (
    KernelFlops,
    factorization_flops_lu,
    factorization_flops_qr,
    fake_flops,
    kernel_flops,
    lu_step_flops,
    qr_step_flops,
    step_flops_table,
    true_flops,
)
from .lu_kernels import (
    LUPanelFactor,
    apply_swptrsm,
    eliminate_trsm,
    factor_panel_lu,
    factor_tile_lu,
    stacked_row_index,
    swptrsm_inplace,
    update_gemm,
)
from .qr_kernels import (
    QRTileFactor,
    geqrt_tile,
    tsmqr,
    tsmqr_inplace,
    tsqrt,
    ttmqr,
    ttmqr_inplace,
    ttqrt,
    unmqr,
    unmqr_inplace,
)

__all__ = [
    "KernelCall",
    "KERNELS",
    "execute_kernel_call",
    "KernelBackend",
    "NumpyBackend",
    "resolve_backend",
    "KernelFlops",
    "kernel_flops",
    "lu_step_flops",
    "qr_step_flops",
    "step_flops_table",
    "factorization_flops_lu",
    "factorization_flops_qr",
    "fake_flops",
    "true_flops",
    "LUPanelFactor",
    "factor_tile_lu",
    "factor_panel_lu",
    "eliminate_trsm",
    "apply_swptrsm",
    "swptrsm_inplace",
    "stacked_row_index",
    "update_gemm",
    "QRTileFactor",
    "geqrt_tile",
    "unmqr",
    "unmqr_inplace",
    "tsqrt",
    "tsmqr",
    "tsmqr_inplace",
    "ttqrt",
    "ttmqr",
    "ttmqr_inplace",
]
