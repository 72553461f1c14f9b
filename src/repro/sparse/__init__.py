"""Sparse matrix substrate: CSR/CSC/block formats, reference operations,
cached-topology transpose, and explicit row padding."""

from .blocked import BlockSparseMatrix
from .csc import CSCMatrix, csc_to_csr, csr_to_csc
from .csr import INDEX_DTYPE_FOR_VALUES, CSRMatrix
from .ops import (
    sddmm_flops,
    sddmm_reference,
    sparse_softmax_reference,
    spmm_flops,
    spmm_reference,
)
from .padding import pad_rows, padding_overhead
from .transpose import CachedTranspose

__all__ = [
    "CSRMatrix",
    "CSCMatrix",
    "BlockSparseMatrix",
    "INDEX_DTYPE_FOR_VALUES",
    "csr_to_csc",
    "csc_to_csr",
    "spmm_reference",
    "sddmm_reference",
    "sparse_softmax_reference",
    "spmm_flops",
    "sddmm_flops",
    "pad_rows",
    "padding_overhead",
    "CachedTranspose",
]
