"""Baseline kernels the paper compares against: cuSPARSE, cuBLAS dense GEMM,
MergeSpmm (Yang et al. 2018), and ASpT (Hong et al. 2019)."""

from .block_sparse import block_sparse_spmm, constrain_to_blocks
from .aspt import (
    aspt_sddmm,
    aspt_spmm,
    heavy_light_split,
    memory_overhead_bytes,
    preprocessing_execution,
)
from .cublas import gemm_execution, transpose_execution
from .cusparse import cusparse_sddmm, cusparse_spmm, sddmm_execution
from .merge import merge_spmm

__all__ = [
    "cusparse_spmm",
    "cusparse_sddmm",
    "sddmm_execution",
    "merge_spmm",
    "aspt_spmm",
    "aspt_sddmm",
    "heavy_light_split",
    "memory_overhead_bytes",
    "preprocessing_execution",
    "gemm_execution",
    "transpose_execution",
    "block_sparse_spmm",
    "constrain_to_blocks",
]
