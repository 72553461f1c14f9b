"""The CSC/column-major SpMM formulation (Section IV-C).

The paper notes that "computing SpMM as ``B A => C``, where ``A`` is the
sparse matrix stored in compressed sparse column format and ``B`` and ``C``
are stored column-major would be equally efficient". That equivalence is
structural: a CSC matrix's arrays *are* the CSR arrays of its transpose, and
a column-major dense matrix is the row-major layout of its transpose — so
``B A`` maps onto the CSR kernel computing ``A^T B^T = (B A)^T`` with
identical launch geometry, memory transactions, and instruction stream.
This module realizes the mapping (and the tests assert the cost parity).
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from .config import SpmmConfig
from .spmm import SpmmPlan, execute_spmm, plan_spmm
from .types import KernelResult


def csc_as_transposed_csr(a: CSCMatrix) -> CSRMatrix:
    """Reinterpret CSC arrays as the CSR representation of ``A^T`` (free)."""
    return CSRMatrix(
        shape=(a.shape[1], a.shape[0]),
        row_offsets=a.col_offsets,
        column_indices=a.row_indices,
        values=a.values,
    )


def plan_spmm_csc(
    a: CSCMatrix,
    n: int,
    device: DeviceSpec,
    config: SpmmConfig | None = None,
    h: int = 1,
) -> SpmmPlan:
    """Plan ``C = B A`` for a ``(n, rows(A))`` left operand.

    The plan is the CSR plan of the transposed problem (Section IV-C):
    identical launch geometry, memory transactions, and instruction stream.
    """
    return plan_spmm(csc_as_transposed_csr(a), n, device, config, h)


def execute_spmm_csc(
    plan: SpmmPlan, b: np.ndarray, a: CSCMatrix
) -> KernelResult:
    """Run a planned CSC SpMM: numerics via the transposed CSR problem."""
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ValueError(
            f"B shape {b.shape} incompatible with A {a.shape} for B @ A"
        )
    a_t = csc_as_transposed_csr(a)
    # Column-major B is row-major B^T: zero-cost reinterpretation.
    b_t = np.ascontiguousarray(b.T)
    result = execute_spmm(plan, a_t, b_t)
    return KernelResult(
        output=np.ascontiguousarray(result.output.T),
        execution=result.execution,
    )


def spmm_csc(
    b: np.ndarray,
    a: CSCMatrix,
    device: DeviceSpec,
    config: SpmmConfig | None = None,
) -> KernelResult:
    """Compute ``C = B A`` with ``A`` sparse CSC and ``B``/``C`` column-major.

    ``b`` is given in its logical ``(n, rows(A))`` shape with column-major
    storage semantics; the result is the logical ``(n, cols(A))`` output.
    Internally this is one CSR SpMM on the transposed problem — the
    Section IV-C equivalence.
    """
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ValueError(
            f"B shape {b.shape} incompatible with A {a.shape} for B @ A"
        )
    return execute_spmm_csc(plan_spmm_csc(a, b.shape[0], device, config), b, a)
