"""Sparse softmax kernel (Section VII-C1).

The sparse Transformer needs a softmax over the nonzero values of the
attention-score matrix: the paper notes "we additionally wrote a kernel that
computes the softmax function on a sparse matrix". Each warp owns one row
and makes three passes over its values (max, exponentiate-and-sum,
normalize), all through coalesced vector loads — a bandwidth-bound kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, ExecutionResult, KernelLaunch, execute
from ..gpu.occupancy import BlockResources
from ..sparse.csr import CSRMatrix
from ..sparse.ops import (
    sparse_softmax_batched_reference,
    sparse_softmax_reference,
)
from .types import KernelResult

#: Warps (rows) per thread block.
WARPS_PER_BLOCK = 4
#: Instruction cost of one exp evaluation (MUFU.EX2 plus range reduction).
EXP_INSTRUCTIONS = 4.0
#: Value passes over the row: max, exp+sum, normalize.
PASSES = 3


def build_launch(a: CSRMatrix, device: DeviceSpec) -> KernelLaunch:
    """Cost the sparse-softmax launch for matrix ``a``."""
    warp = device.warp_size
    rows_per_block = WARPS_PER_BLOCK
    gy = -(-a.n_rows // rows_per_block)
    lengths = a.row_lengths.astype(np.float64)
    pad = (-a.n_rows) % rows_per_block
    grouped = np.concatenate([lengths, np.zeros(pad)]).reshape(gy, rows_per_block)

    vb = float(a.value_bytes)
    steps = np.ceil(grouped / warp)
    fma = (steps * (1.0 + EXP_INSTRUCTIONS + 1.0)).sum(axis=1)
    # Loads/stores per pass plus two warp reductions (max and sum).
    other = (PASSES * steps + steps + 2.0 * 5.0 + 8.0).sum(axis=1)
    read_bytes = (grouped * vb * 2.0).sum(axis=1)  # values read twice from DRAM
    l2_bytes = (grouped * vb).sum(axis=1)  # third pass hits L2
    write_bytes = (grouped * vb).sum(axis=1)

    return KernelLaunch(
        name="sparse_softmax",
        n_blocks=gy,
        resources=BlockResources(
            threads=warp * WARPS_PER_BLOCK, registers_per_thread=24
        ),
        costs=BlockCosts(
            fma_instructions=fma,
            other_instructions=other,
            dram_bytes=read_bytes + write_bytes,
            l2_bytes=l2_bytes,
        ),
        flops=float(PASSES * a.nnz),
    )


@dataclass
class SparseSoftmaxPlan:
    """Reusable sparse-softmax plan for one (topology, device).

    The kernel is bandwidth-bound and keyed entirely by the matrix's row
    structure, so one plan serves every set of values sharing the topology
    (e.g. attention scores across heads and layers). ``h`` is the stack
    depth: each warp's three row passes tile ``h`` times along z, paying
    one per-launch overhead for the whole ``(nnz, H)`` value matrix."""

    device: DeviceSpec
    launch: KernelLaunch
    execution: ExecutionResult
    shape: tuple[int, int]
    nnz: int
    #: Stack depth: value columns sharing the topology in the one launch.
    h: int = 1


def plan_sparse_softmax(
    a: CSRMatrix, device: DeviceSpec, h: int = 1
) -> SparseSoftmaxPlan:
    """Build the depth-``h`` sparse-softmax plan: costed launch plus
    simulated run."""
    if a.nnz == 0:
        raise ValueError("softmax of an empty sparse matrix is undefined")
    launch = build_launch(a, device).batched(h)
    return SparseSoftmaxPlan(
        device=device,
        launch=launch,
        execution=execute(launch, device),
        shape=a.shape,
        nnz=a.nnz,
        h=h,
    )


def execute_sparse_softmax(
    plan: SparseSoftmaxPlan,
    a: CSRMatrix,
    scale: float = 1.0,
    values: np.ndarray | None = None,
) -> KernelResult:
    """Run a planned sparse softmax on (possibly new) values.

    Without ``values`` the softmax runs over ``a``'s own values and returns
    a CSR matrix; a ``(nnz, H)`` ``values`` matrix at the plan's depth
    returns the ``(nnz, H)`` matrix of its column softmaxes.
    """
    if a.shape != plan.shape or a.nnz != plan.nnz:
        raise ValueError(
            f"matrix {a.shape} (nnz={a.nnz}) does not match the planned "
            f"operand {plan.shape} (nnz={plan.nnz})"
        )
    if values is None:
        if plan.h != 1:
            raise ValueError(f"a depth-{plan.h} plan needs a value matrix")
        output = sparse_softmax_reference(a, scale=scale)
    else:
        values = np.asarray(values)
        if values.shape != (a.nnz, plan.h):
            raise ValueError(
                f"value matrix shape {values.shape} != ({a.nnz}, {plan.h})"
            )
        output = sparse_softmax_batched_reference(a, values, scale=scale)
    return KernelResult(output=output, execution=plan.execution)


def sparse_softmax(
    a: CSRMatrix, device: DeviceSpec, scale: float = 1.0
) -> KernelResult:
    """Row-wise softmax over CSR nonzeros: numerics + simulated cost."""
    return execute_sparse_softmax(plan_sparse_softmax(a, device), a, scale=scale)


# Former names of the depth-``h`` forms, kept as aliases for callers that
# resolve them by name. Each alias is its own object, so a tool that wraps
# functions by identity wraps the alias and the function apart.
plan_sparse_softmax_batched = partial(plan_sparse_softmax)
execute_sparse_softmax_batched = partial(execute_sparse_softmax)
