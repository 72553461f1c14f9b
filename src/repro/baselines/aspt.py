"""ASpT baseline — Adaptive Sparse Tiling (Hong et al., PPoPP 2019).

ASpT partitions a CSR matrix into row panels and, within each panel,
re-orders columns so that columns holding many nonzeros group into "heavy"
tiles. Heavy tiles are processed with tiled execution that stages the dense
operand in shared memory and reuses it across the panel's rows; the
remaining "light" nonzeros take a standard row-splitting path.

Costs follow that structure: the heavy fraction of nonzeros (computed from
the actual matrix, per panel) enjoys operand reuse — the dense rows it
touches are fetched once per panel — while the light fraction pays
per-nonzero traffic like any row-split kernel. Everything stays scalar
(the published kernels do not use vector memory operations on the sparse
operand).

The paper's two criticisms are modelled explicitly:

- ``memory_overhead_bytes``: ASpT keeps the original CSR, the re-ordered
  copy, and tile metadata — ~3x the memory (Section VII-A2);
- separate SpMM/SDDMM re-orderings: :func:`preprocessing_execution` is the
  per-topology cost that training loops would pay every iteration to move
  gradients back into the forward pass's order.
"""

from __future__ import annotations

import numpy as np

from ..core.types import KernelResult
from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, ExecutionResult, KernelLaunch, execute
from ..gpu.memory import dram_bytes_with_reuse
from ..gpu.occupancy import BlockResources
from ..sparse.csr import CSRMatrix
from ..sparse.ops import sddmm_flops, sddmm_reference, spmm_flops, spmm_reference

#: Rows per ASpT panel.
PANEL_ROWS = 128
#: A panel column is "heavy" when it holds at least this many nonzeros
#: (enough reuse to amortize the tile machinery).
HEAVY_THRESHOLD = 16
#: Storage factor vs. plain CSR (original + re-ordered copy + metadata).
MEMORY_FACTOR = 3.0
#: Instruction overhead of the tiled path's bookkeeping per nonzero.
TILE_BOOKKEEPING = 0.5


def heavy_light_split(a: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-panel (heavy_nnz, light_nnz) from the actual column occupancy.

    Rows are contiguous in CSR, so panel ``p``'s nonzeros are the slice
    between its first and last row offsets — each panel is one bincount.
    """
    n_panels = -(-a.n_rows // PANEL_ROWS)
    heavy = np.zeros(n_panels, dtype=np.int64)
    light = np.zeros(n_panels, dtype=np.int64)
    heavy_cols = np.zeros(n_panels, dtype=np.int64)
    cols = a.column_indices.astype(np.int64)
    for p in range(n_panels):
        lo = int(a.row_offsets[p * PANEL_ROWS])
        hi = int(a.row_offsets[min((p + 1) * PANEL_ROWS, a.n_rows)])
        if hi == lo:
            continue
        counts = np.bincount(cols[lo:hi], minlength=a.n_cols)
        is_heavy = counts >= HEAVY_THRESHOLD
        heavy[p] = counts[is_heavy].sum()
        light[p] = hi - lo - heavy[p]
        heavy_cols[p] = int(is_heavy.sum())
    return heavy, light, heavy_cols


#: Sustained fraction of issue/math rate (scalar inner loops + tile
#: bookkeeping keep ASpT off the dense pipelines too). The SpMM kernel's
#: per-output predication hits harder than the SDDMM's nonzero-aligned
#: outputs, hence the per-mode values.
PIPELINE_EFFICIENCY = {"spmm": 0.52, "sddmm": 0.47}
#: Dense columns covered per thread block pass (one output per lane).
TILE_N = 32


def _panel_launch(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec,
    name: str,
    flops: float,
    mode: str = "spmm",
) -> KernelLaunch:
    """Shared panel-level cost model for ASpT SpMM and SDDMM.

    Each panel is processed by one block per 32-column tile of the dense
    operand. Heavy nonzeros read their dense rows from a shared-memory
    stage filled once per (panel, tile); light nonzeros read per-use
    through L1/L2 like a row-splitting kernel.
    """
    warp = device.warp_size
    vb, ib = 4.0, 4.0
    heavy, light, n_heavy_cols = heavy_light_split(a)
    n_panels = len(heavy)
    gx = -(-n // TILE_N)
    heavy_f = heavy.astype(np.float64)
    light_f = light.astype(np.float64)
    steps = heavy_f + light_f  # nonzeros processed per panel per x-tile

    # Scalar math: one output per lane, one warp FMA per nonzero per tile.
    fma = steps
    if mode == "sddmm":
        # The inner (k) dimension is contiguous per rhs row, so the staged
        # loads vectorize; outputs are the nonzeros themselves (no output
        # tile predication).
        dense_loads = steps / 4.0
    else:
        dense_loads = steps  # scalar loads (heavy smem, light cache)
    meta = steps * TILE_BOOKKEEPING + 60.0
    other = dense_loads + 2.0 * np.ceil(steps / warp) + meta

    heavy_cols = n_heavy_cols.astype(np.float64)
    # Per (panel, x-tile): heavy columns staged once; light per nonzero.
    b_bytes = (heavy_cols * TILE_N + light_f * TILE_N) * vb
    if mode == "sddmm":
        # Indicator SDDMM: only the mask's indices are read, and the output
        # writes one value per nonzero (once, on the final k-tile).
        a_bytes = steps * ib
        out_bytes = steps * vb / gx
    else:
        a_bytes = steps * (vb + ib)
        out_bytes = np.full(n_panels, float(PANEL_ROWS * TILE_N * vb))
    if mode == "sddmm":
        # Stage re-reads are contiguous in k (vectorized); the column index
        # is consumed once per nonzero, not per element.
        smem_bytes = (
            heavy_f * warp * vb
            + heavy_cols * TILE_N * vb
            + steps * ib
        )
    else:
        smem_bytes = (
            heavy_f * warp * (vb + ib)  # per-nonzero re-reads of the stage
            + heavy_cols * TILE_N * vb  # filling the stage
            + steps * (vb + ib)  # sparse metadata staging
        )

    # Light-path loads see the same synchronized-column L1 locality as any
    # row-split kernel (sorted indices, similar row lengths).
    touched = a.analysis.touched_columns
    avg_row = a.nnz / a.n_rows if a.n_rows else 0.0
    rows_per_sm = 4 * PANEL_ROWS // 4  # ~4 resident worker blocks
    lpe = rows_per_sm * avg_row / touched if touched else 0.0
    window = rows_per_sm * TILE_N * vb * 2.0
    from ..gpu.memory import l1_hit_fraction

    l1_frac = l1_hit_fraction(
        lpe, window, device.l1_capacity_per_sm - 24 * 1024
    )
    light_bytes = light_f * TILE_N * vb
    l1_bytes = light_bytes * l1_frac

    # Per-operand reuse: the sparse metadata streams once (re-reads across
    # x-tiles are consecutive, i.e. L2 hits); the dense stage re-reads hit
    # L2 while the touched slice fits.
    b_rest = b_bytes - l1_bytes
    b_total = float(b_rest.sum()) * gx
    unique_b = min(float(touched * n * vb), b_total)
    b_dram = dram_bytes_with_reuse(b_total, unique_b, device.l2_capacity)
    b_ratio = b_dram / b_total if b_total else 0.0
    load_dram = a_bytes / gx + b_rest * b_ratio
    load_l2 = a_bytes * (1.0 - 1.0 / gx) + b_rest * (1.0 - b_ratio)

    # Each panel's work is carried by several worker blocks (the published
    # kernels launch one block per panel sub-tile); shard its costs so the
    # scheduler sees realistic parallelism.
    split = 4

    def expand(per_panel: np.ndarray) -> np.ndarray:
        return np.tile(np.repeat(per_panel / split, split), gx)

    return KernelLaunch(
        name=name,
        n_blocks=n_panels * split * gx,
        resources=BlockResources(
            threads=128,
            shared_mem_bytes=24 * 1024,
            registers_per_thread=56,
        ),
        costs=BlockCosts(
            fma_instructions=expand(fma),
            other_instructions=expand(other),
            dram_bytes=expand(load_dram + out_bytes),
            l2_bytes=expand(load_l2),
            l1_bytes=expand(l1_bytes),
            smem_bytes=expand(smem_bytes),
        ),
        flops=flops,
        pipeline_efficiency=PIPELINE_EFFICIENCY[mode],
    )


def aspt_spmm(a: CSRMatrix, b: np.ndarray, device: DeviceSpec) -> KernelResult:
    """ASpT SpMM: exact numerics, adaptive-tiling cost model."""
    b = np.asarray(b, dtype=np.float32)
    if b.ndim != 2 or b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    if a.n_rows % 256:
        raise ValueError(
            "the published ASpT kernels require the sparse row count to be "
            f"divisible by 256, got {a.n_rows} (Section VII-A2)"
        )
    launch = _panel_launch(
        a, b.shape[1], device, "aspt_spmm", spmm_flops(a, b.shape[1])
    )
    return KernelResult(
        output=spmm_reference(a, b), execution=execute(launch, device)
    )


def aspt_sddmm(
    lhs: np.ndarray, rhs: np.ndarray, mask: CSRMatrix, device: DeviceSpec
) -> KernelResult:
    """ASpT SDDMM: exact numerics, adaptive-tiling cost model."""
    lhs = np.asarray(lhs, dtype=np.float32)
    rhs = np.asarray(rhs, dtype=np.float32)
    if mask.n_rows % 256:
        raise ValueError(
            "the published ASpT kernels require the sparse row count to be "
            f"divisible by 256, got {mask.n_rows} (Section VII-A2)"
        )
    k = lhs.shape[1]
    launch = _panel_launch(
        mask, k, device, "aspt_sddmm", sddmm_flops(mask, k), mode="sddmm"
    )
    return KernelResult(
        output=sddmm_reference(lhs, rhs, mask),
        execution=execute(launch, device),
    )


def memory_overhead_bytes(a: CSRMatrix) -> int:
    """Storage ASpT needs for this matrix (~3x CSR, Section VII-A2)."""
    return int(MEMORY_FACTOR * a.memory_bytes())


def preprocessing_execution(a: CSRMatrix, device: DeviceSpec) -> ExecutionResult:
    """Cost of ASpT's column re-ordering pass (excluded from kernel timings,
    as in the paper's benchmarks, but paid per training step when gradients
    must be restored to the forward pass's ordering)."""
    nbytes = float(a.memory_bytes())
    launch = KernelLaunch(
        name="aspt_preprocessing",
        n_blocks=max(1, a.n_rows // PANEL_ROWS),
        resources=BlockResources(threads=256),
        costs=BlockCosts(
            other_instructions=8.0 * a.nnz / max(1, a.n_rows // PANEL_ROWS) / 32,
            dram_bytes=4.0 * nbytes / max(1, a.n_rows // PANEL_ROWS),
        ),
        flops=0.0,
    )
    return execute(launch, device)
