"""MergeSpmm baseline — the row-splitting kernel of Yang, Buluç & Owens
(Euro-Par 2018, "Design Principles for Sparse Matrix Multiplication on the
GPU").

The paper benchmarks against this kernel on the RNN problem set
(Section VII-A2), using the authors' row-splitting variant since every
benchmarked problem sits above their average-row-length threshold for
nonzero-splitting. Structure modelled:

- warp per sparse row, dense matrix row-major with coalesced 32-wide
  accesses (their "memory-access aligned" design principle);
- ILP-oriented but scalar memory operations (no vector loads, no ROMA);
- no load balancing beyond the row split;
- supported only when the batch dimension is a multiple of 32 — the
  constraint the paper notes when choosing the RNN problem set.
"""

from __future__ import annotations

import numpy as np

from ..core.types import KernelResult
from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, KernelLaunch, execute
from ..gpu.memory import dram_bytes_with_reuse, l1_hit_fraction
from ..gpu.occupancy import BlockResources
from ..sparse.csr import CSRMatrix
from ..sparse.ops import spmm_flops, spmm_reference

#: Dense columns covered by one warp's row pass.
TILE_N = 32
#: Warps (rows) per thread block.
ROWS_PER_BLOCK = 8
#: Mild instruction overhead relative to a compile-time-specialized loop:
#: merge-based code keeps its generality (runtime tile bounds).
GENERIC_LOOP_FACTOR = 1.1
#: Sustained fraction of issue/math rate (scalar gather inner loop).
PIPELINE_EFFICIENCY = 0.70


def spmm_launch(a: CSRMatrix, n: int, device: DeviceSpec) -> KernelLaunch:
    """Cost model for the MergeSpmm row-splitting kernel."""
    if n % 32:
        raise ValueError(
            f"MergeSpmm only supports batch sizes divisible by 32, got N={n}"
        )
    warp = device.warp_size
    vb, ib = 4.0, 4.0
    gy = -(-a.n_rows // ROWS_PER_BLOCK)
    gx = n // TILE_N

    lengths = a.row_lengths.astype(np.float64)
    pad = (-a.n_rows) % ROWS_PER_BLOCK
    grouped = np.concatenate([lengths, np.zeros(pad)]).reshape(gy, ROWS_PER_BLOCK)

    # Coalesced scalar loads: one output per lane, one B-load per step.
    fma = grouped
    b_loads = grouped
    a_loads = 2.0 * np.ceil(grouped / warp)
    smem_reads = 1.0 * grouped
    other = (b_loads + a_loads + smem_reads) * GENERIC_LOOP_FACTOR + 10.0

    fma_block = (fma * GENERIC_LOOP_FACTOR).sum(axis=1)
    other_block = other.sum(axis=1)
    smem_block = (grouped * warp * (vb + ib) + grouped * (vb + ib)).sum(axis=1)

    rows_sum = grouped.sum(axis=1)
    rows_present = (grouped >= 0).sum(axis=1).astype(np.float64)
    a_bytes = rows_sum * (vb + ib)
    b_bytes = rows_sum * TILE_N * vb
    c_bytes = rows_present * TILE_N * vb

    # L1 locality: sorted CSR indices give the same synchronized column
    # streaming as our kernel (row-major coalesced loads help here relative
    # to cuSPARSE's column-major layout).
    touched = a.analysis.touched_columns
    resident = 8
    avg_row = a.nnz / a.n_rows if a.n_rows else 0.0
    rows_per_sm = resident * ROWS_PER_BLOCK
    lpe = rows_per_sm * avg_row / touched if touched else 0.0
    window = rows_per_sm * TILE_N * vb * 2.0
    l1_frac = l1_hit_fraction(lpe, window, device.l1_capacity_per_sm)

    l1_bytes = np.repeat(b_bytes * l1_frac, gx)
    store_bytes = np.repeat(c_bytes, gx)
    a_block = np.repeat(a_bytes, gx)
    b_rest = np.repeat(b_bytes * (1.0 - l1_frac), gx)
    b_total = float(b_rest.sum())
    unique_b = min(float(touched * n * vb), b_total)
    b_dram = dram_bytes_with_reuse(b_total, unique_b, device.l2_capacity)
    b_ratio = b_dram / b_total if b_total else 0.0
    load_dram = a_block / gx + b_rest * b_ratio
    load_l2 = a_block * (1.0 - 1.0 / gx) + b_rest * (1.0 - b_ratio)

    return KernelLaunch(
        name="merge_spmm_row_splitting",
        n_blocks=gx * gy,
        resources=BlockResources(
            threads=ROWS_PER_BLOCK * warp,
            shared_mem_bytes=int(ROWS_PER_BLOCK * warp * (vb + ib)),
            registers_per_thread=48,
        ),
        costs=BlockCosts(
            fma_instructions=np.repeat(fma_block, gx),
            other_instructions=np.repeat(other_block, gx),
            dram_bytes=load_dram + store_bytes,
            l2_bytes=load_l2,
            l1_bytes=l1_bytes,
            smem_bytes=np.repeat(smem_block, gx),
        ),
        flops=spmm_flops(a, n),
        pipeline_efficiency=PIPELINE_EFFICIENCY,
    )


def merge_spmm(a: CSRMatrix, b: np.ndarray, device: DeviceSpec) -> KernelResult:
    """MergeSpmm row-splitting SpMM: exact numerics, modelled cost."""
    b = np.asarray(b, dtype=np.float32)
    if b.ndim != 2 or b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    launch = spmm_launch(a, b.shape[1], device)
    return KernelResult(
        output=spmm_reference(a, b), execution=execute(launch, device)
    )
