"""cuBLAS-style dense GEMM model (the dense baseline in Figures 1 and 12).

cuBLAS dispatches among a family of tiled SGEMM kernels — large 128x128
tiles for big problems, smaller tiles and split-K variants to fill the
machine on skinny ones — reaching ~85-90 % of peak at scale and degrading
gracefully on small shapes. The model mirrors that: it enumerates the tile
/ split-K candidates cuBLAS would consider, costs each through the shared
executor (so occupancy and latency-hiding effects emerge naturally), and
returns the fastest — exactly a library heuristic's job.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, ExecutionResult, KernelLaunch, execute
from ..gpu.memory import dram_bytes_with_reuse
from ..gpu.occupancy import BlockResources

#: (tile_m, tile_n, threads, registers) kernel variants in the family.
TILE_VARIANTS = (
    (128, 128, 256, 96),
    (64, 64, 128, 64),
    (32, 32, 64, 40),
)
#: Split-K factors tried when the output grid alone cannot fill the SMs.
SPLIT_K_FACTORS = (1, 2, 4, 8)
#: K-slice staged in shared memory per main-loop iteration.
TILE_K = 32
#: Fraction of issued FMAs that are useful on full tiles — models the
#: epilogue/pipeline overhead that keeps cuBLAS at ~85-90 % of peak.
FMA_EFFICIENCY = 0.88


def _candidate(
    m: int,
    n: int,
    k: int,
    device: DeviceSpec,
    tile_m: int,
    tile_n: int,
    threads: int,
    registers: int,
    split_k: int,
    element_bytes: int,
    name: str,
) -> KernelLaunch | None:
    gx = -(-n // tile_n)
    gy = -(-m // tile_m)
    k_slice = -(-k // split_k)
    if k_slice < TILE_K and split_k > 1:
        return None
    n_blocks = gx * gy * split_k
    warp = device.warp_size

    # Block totals in warp-instruction units; edge tiles still issue
    # full-tile instructions (predicated lanes).
    fma_instructions = tile_m * tile_n * k_slice / FMA_EFFICIENCY / warp
    load_elements = (tile_m + tile_n) * k_slice
    other_instructions = load_elements / (warp * 4) + tile_m * tile_n / (warp * 4)
    smem_bytes = load_elements * element_bytes * 2  # staged then re-read

    widths = np.full(gx, float(tile_n))
    widths[-1] = n - (gx - 1) * tile_n
    heights = np.full(gy, float(tile_m))
    heights[-1] = m - (gy - 1) * tile_m
    a_bytes = np.repeat(heights, gx) * k_slice * element_bytes
    b_bytes = np.tile(widths, gy) * k_slice * element_bytes
    c_bytes = np.repeat(heights, gx) * np.tile(widths, gy) * element_bytes
    if split_k > 1:
        # Partials written per split, then reduced (read + final write).
        c_bytes = c_bytes * 3.0
    a_bytes = np.tile(a_bytes, split_k)
    b_bytes = np.tile(b_bytes, split_k)
    c_bytes = np.tile(c_bytes / split_k, split_k)

    load_bytes = a_bytes + b_bytes
    total = float(load_bytes.sum())
    unique = (m + n) * k * element_bytes
    dram_reads = dram_bytes_with_reuse(total, min(unique, total), device.l2_capacity)
    ratio = dram_reads / total if total else 0.0

    smem_stage = 2 * TILE_K * (tile_m + tile_n) * element_bytes
    return KernelLaunch(
        name=name,
        n_blocks=n_blocks,
        resources=BlockResources(
            threads=threads,
            shared_mem_bytes=smem_stage,
            registers_per_thread=registers,
        ),
        costs=BlockCosts(
            fma_instructions=fma_instructions,
            other_instructions=other_instructions,
            dram_bytes=load_bytes * ratio + c_bytes,
            l2_bytes=load_bytes * (1.0 - ratio),
            smem_bytes=smem_bytes,
        ),
        flops=2.0 * m * n * k,
    )


def gemm_execution(
    m: int, n: int, k: int, device: DeviceSpec, element_bytes: int = 4
) -> ExecutionResult:
    """Simulated execution of a dense ``m x k`` @ ``k x n`` GEMM, using the
    fastest tile / split-K variant (the library's dispatch heuristic)."""
    if min(m, n, k) <= 0:
        raise ValueError("GEMM dimensions must be positive")
    name = "cublas_sgemm" if element_bytes == 4 else "cublas_hgemm"
    best: ExecutionResult | None = None
    for tile_m, tile_n, threads, registers in TILE_VARIANTS:
        # Skip grossly oversized tiles for tiny outputs; keep the smallest.
        if tile_m > 4 * m and tile_m > 32:
            continue
        for split_k in SPLIT_K_FACTORS:
            launch = _candidate(
                m, n, k, device, tile_m, tile_n, threads, registers,
                split_k, element_bytes, name,
            )
            if launch is None:
                continue
            result = execute(launch, device)
            if best is None or result.runtime_s < best.runtime_s:
                best = result
    assert best is not None  # the 32x32/split-1 variant always applies
    return best


def transpose_execution(
    rows: int, cols: int, device: DeviceSpec, element_bytes: int = 4
) -> ExecutionResult:
    """Out-of-place dense transpose (cuBLAS geam) — pure bandwidth.

    The paper's cuSPARSE SDDMM baseline pays this explicitly because
    ``cusparseConstrainedGeMM`` cannot transpose its right-hand operand.
    """
    nbytes = rows * cols * element_bytes
    tiles = max(1, (rows // 32) * (cols // 32))
    launch = KernelLaunch(
        name="cublas_geam_transpose",
        n_blocks=tiles,
        resources=BlockResources(threads=256, shared_mem_bytes=32 * 33 * 4),
        costs=BlockCosts(
            other_instructions=2.0 * 32 * 32 / 32,
            dram_bytes=2.0 * nbytes / tiles,
            smem_bytes=2.0 * 32 * 32 * element_bytes,
        ),
        flops=0.0,
    )
    return execute(launch, device)
