"""cuSPARSE baseline models: ``cusparseSpMM`` and ``cusparseConstrainedGeMM``.

The paper benchmarks against cuSPARSE 10.1. These models reproduce the
documented algorithmic structure of those kernels and charge the specific
inefficiencies the paper attributes to them:

``cusparseSpMM`` (csrmm2-style):
- row-splitting with a full warp per sparse row (no subwarp tiling, so
  narrow problems waste lanes and small problems under-fill the machine);
- scalar memory operations only (no ROMA; CSR rows cannot be vector-loaded);
- column-major dense matrices, whose tiled transposition in shared memory
  costs extra transactions relative to a row-major streaming access;
- natural row order (no load balancing);
- 32-bit indices even in mixed precision (Section VII-A1);
- a generic, runtime-parameterized inner loop (no compile-time
  specialization, the paper's 1-D-tiling benefit #3).

``cusparseConstrainedGeMM`` (the SDDMM surrogate):
- no support for a transposed right-hand operand: an explicit cuBLAS
  transpose is prepended and included in the timing, exactly as the paper
  measured (Section VII-A1).

The mixed-precision SpMM additionally mirrors the pathology the paper
observed ("extreme slowdowns of as much as 297.5x"): shapes whose N
dimension misses the kernel's wide-tile requirement fall back to a scalar
per-element path.
"""

from __future__ import annotations

import numpy as np

from ..core.config import SddmmConfig
from ..core.sddmm import build_launch as sputnik_sddmm_launch
from ..core.types import KernelResult
from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, ExecutionResult, KernelLaunch, execute
from ..gpu.memory import dram_bytes_with_reuse, l1_hit_fraction
from ..gpu.occupancy import BlockResources
from ..sparse.csr import CSRMatrix
from ..sparse.ops import sddmm_reference, spmm_flops, spmm_reference
from .cublas import transpose_execution

#: Dense-matrix columns processed per thread block.
TILE_N = 32
#: Rows (warps) per thread block.
ROWS_PER_BLOCK = 4
#: Extra transactions from the column-major dense layout (strided tile
#: loads transposed through shared memory touch ~2x the sectors of a
#: row-major stream).
COLUMN_MAJOR_TRAFFIC_FACTOR = 2.3
#: Instruction overhead of the generic runtime-parameterized inner loop
#: relative to a fully specialized one.
GENERIC_LOOP_FACTOR = 2.6
#: Mixed precision: the wide-tile fp16 kernel requires N to be a multiple of
#: this; other shapes take the scalar fallback path.
FP16_TILE_REQUIREMENT = 32
#: Instruction multiplier of the fp16 scalar fallback path.
FP16_FALLBACK_FACTOR = 24.0
#: cuSPARSE stores 32-bit column indices regardless of value precision.
INDEX_BYTES = 4
#: Sustained fraction of issue/math rate (generic sparse gather kernel).
PIPELINE_EFFICIENCY = 0.48


def spmm_launch(
    a: CSRMatrix, n: int, device: DeviceSpec, precision: str = "fp32"
) -> KernelLaunch:
    """Cost model for ``cusparseSpMM`` on ``A @ B``."""
    if precision not in ("fp32", "mixed"):
        raise ValueError(f"unknown precision {precision!r}")
    vb = 2.0 if precision == "mixed" else 4.0
    ib = float(INDEX_BYTES)
    warp = device.warp_size

    gy = -(-a.n_rows // ROWS_PER_BLOCK)
    gx = -(-n // TILE_N)

    lengths = a.row_lengths.astype(np.float64)
    pad = (-a.n_rows) % ROWS_PER_BLOCK
    grouped = np.concatenate([lengths, np.zeros(pad)]).reshape(
        gy, ROWS_PER_BLOCK
    )

    fallback = precision == "mixed" and (n % FP16_TILE_REQUIREMENT != 0)
    instr_factor = GENERIC_LOOP_FACTOR * (
        FP16_FALLBACK_FACTOR if fallback else 1.0
    )

    # One warp per row: each step multiplies one nonzero against TILE_N
    # dense elements (one output per lane; lanes beyond N predicated).
    fma = grouped * instr_factor
    b_loads = grouped  # scalar loads, one warp instruction per step
    a_loads = 2.0 * np.ceil(grouped / warp)
    smem_reads = 2.0 * grouped  # scalar shared-memory re-reads, no unroll
    addressing = grouped  # per-use index scaling (no pre-scale)
    other = (b_loads + a_loads + smem_reads + addressing) * instr_factor + 12.0

    fma_block = fma.sum(axis=1)
    other_block = other.sum(axis=1)
    smem_block = (grouped * warp * (vb + ib) + grouped * (vb + ib)).sum(axis=1)

    rows_sum = grouped.sum(axis=1)
    rows_present = (grouped > 0).sum(axis=1).astype(np.float64)
    widths = np.full(gx, float(TILE_N))
    widths[-1] = n - (gx - 1) * TILE_N

    a_bytes = rows_sum * (vb + ib)
    b_bytes = (
        np.multiply.outer(rows_sum, widths) * vb * COLUMN_MAJOR_TRAFFIC_FACTOR
    )
    c_bytes = np.multiply.outer(rows_present * ROWS_PER_BLOCK, widths) * vb / ROWS_PER_BLOCK

    # L1 locality: CSR indices are sorted, so the block's rows stream B in
    # synchronized column order (same effect as in our kernel), but only
    # ROWS_PER_BLOCK rows share a block and the column-major layout doubles
    # the footprint of every window.
    touched = a.analysis.touched_columns
    resident = 8  # typical for the 128-thread, 40-register kernel
    avg_row = a.nnz / a.n_rows if a.n_rows else 0.0
    rows_per_sm = resident * ROWS_PER_BLOCK
    lpe = rows_per_sm * avg_row / touched if touched else 0.0
    window = rows_per_sm * TILE_N * vb * COLUMN_MAJOR_TRAFFIC_FACTOR * 2.0
    l1_frac = l1_hit_fraction(lpe, window, device.l1_capacity_per_sm)

    l1_block = (b_bytes * l1_frac).reshape(-1)
    store_bytes = c_bytes.reshape(-1)

    # A re-reads across the x grid are consecutive (L2); B misses that
    # escape L1 stream through L2 while the touched slice fits.
    a_block = np.broadcast_to(a_bytes[:, None], (gy, gx)).reshape(-1)
    b_rest = (b_bytes * (1.0 - l1_frac)).reshape(-1)
    b_total = float(b_rest.sum())
    unique_b = min(float(touched * n * vb * COLUMN_MAJOR_TRAFFIC_FACTOR), b_total)
    b_dram = dram_bytes_with_reuse(b_total, unique_b, device.l2_capacity)
    b_ratio = b_dram / b_total if b_total else 0.0

    load_dram = a_block / gx + b_rest * b_ratio
    load_l2 = a_block * (1.0 - 1.0 / gx) + b_rest * (1.0 - b_ratio)

    def expand(per_y: np.ndarray) -> np.ndarray:
        return np.repeat(per_y, gx)

    return KernelLaunch(
        name=f"cusparse_spmm_{precision}",
        n_blocks=gx * gy,
        resources=BlockResources(
            threads=ROWS_PER_BLOCK * warp,
            shared_mem_bytes=int(ROWS_PER_BLOCK * warp * (vb + ib)),
            registers_per_thread=40,
        ),
        costs=BlockCosts(
            fma_instructions=expand(fma_block),
            other_instructions=expand(other_block),
            dram_bytes=load_dram + store_bytes,
            l2_bytes=load_l2,
            l1_bytes=l1_block,
            smem_bytes=expand(smem_block),
        ),
        flops=spmm_flops(a, n),
        pipeline_efficiency=PIPELINE_EFFICIENCY,
    )


def cusparse_spmm(
    a: CSRMatrix,
    b: np.ndarray,
    device: DeviceSpec,
    precision: str = "fp32",
) -> KernelResult:
    """``cusparseSpMM``: exact numerics, cuSPARSE-modelled cost."""
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    launch = spmm_launch(a, b.shape[1], device, precision)
    return KernelResult(
        output=spmm_reference(a, b.astype(a.values.dtype)),
        execution=execute(launch, device),
    )


#: Instruction overhead of constrained GEMM relative to the specialized
#: Sputnik SDDMM structure it is modelled on (generic loops, no subwarps).
SDDMM_GENERIC_FACTOR = 2.2


def sddmm_execution(
    mask: CSRMatrix, k: int, device: DeviceSpec
) -> ExecutionResult:
    """Cost model for ``cusparseConstrainedGeMM`` + the explicit transpose.

    The transpose of the right-hand operand is a separate timed launch, as
    in the paper's benchmark setup. The GEMM part reuses the Sputnik SDDMM
    launch structure with generic-loop instruction inflation.
    """
    config = SddmmConfig(nonzeros_per_block=32, vector_width=1, load_balance=False)
    launch, drag = sputnik_sddmm_launch(mask, k, config, device)
    costs = launch.costs.broadcast(launch.n_blocks)
    costs.fma_instructions = costs.fma_instructions * SDDMM_GENERIC_FACTOR
    costs.other_instructions = costs.other_instructions * SDDMM_GENERIC_FACTOR
    gemm_part = execute(
        KernelLaunch(
            name="cusparse_constrained_gemm",
            n_blocks=launch.n_blocks,
            resources=launch.resources,
            costs=costs,
            flops=launch.flops,
            pipeline_efficiency=PIPELINE_EFFICIENCY,
        ),
        device,
    )
    trans = transpose_execution(mask.n_cols, k, device)
    return ExecutionResult.sequence(
        "cusparse_sddmm+transpose", [trans, gemm_part]
    ).add_overhead(drag)


def cusparse_sddmm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: CSRMatrix,
    device: DeviceSpec,
) -> KernelResult:
    """``cusparseConstrainedGeMM`` + the explicit cuBLAS transpose."""
    lhs = np.asarray(lhs, dtype=np.float32)
    rhs = np.asarray(rhs, dtype=np.float32)
    return KernelResult(
        output=sddmm_reference(lhs, rhs, mask),
        execution=sddmm_execution(mask, lhs.shape[1], device),
    )
