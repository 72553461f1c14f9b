"""Sputnik-style SpMM: ``A (sparse, CSR) @ B (dense) => C (dense)``.

This is the paper's Figure 8 kernel, executed numerically in numpy and
costed block-by-block on the GPU model:

- hierarchical 1-D tiling with subwarp tiling (Sections V-A, V-B1),
- reverse-offset memory alignment for vector loads on CSR rows (V-B2),
- row-swizzle load balancing (V-C),
- index pre-scaling, split/unrolled residue handling, and the mixed
  fp16/fp32 regime with int16 metadata (V-D).

Warp divergence is charged faithfully: subwarps in a warp execute in
lockstep, so a warp's main loop runs for the *longest* of its rows and
shorter rows ride along predicated off — exactly the imbalance row bundling
exists to remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, ExecutionResult, KernelLaunch, execute
from ..gpu.memory import dram_bytes_with_reuse, l1_hit_fraction
from ..gpu.occupancy import BlockResources, compute_occupancy
from ..sparse.csr import CSRMatrix
from ..sparse.ops import spmm_batched_reference, spmm_flops, spmm_reference
from .config import SpmmConfig
from .roma import (
    ROMA_MASK_INSTRUCTIONS,
    ROMA_PRELUDE_INSTRUCTIONS,
    AlignedRows,
    align_rows,
    unaligned_rows,
)
from .repair import TopologyDelta
from .swizzle import swizzled_row_groups
from .tiling import SpmmTiling, derive_tiling
from .types import KernelResult

#: Prelude instructions every subwarp executes (offset loads, index math).
BASE_PRELUDE_INSTRUCTIONS = 10
#: Extra prelude load when the row swizzle indirection is enabled (Fig. 8).
SWIZZLE_LOAD_INSTRUCTIONS = 1
#: Per-element instruction penalty in the residue loop without the
#: split-and-unroll optimization (bounds checks + scalar shared loads).
RESIDUE_SCALAR_PENALTY = 3.0
#: Whole-kernel pipeline factor without residue unrolling: the bounds-
#: checked scalar tail inhibits the compiler's scheduling of the entire
#: main loop (registers, dual issue), an effect Table II measures at
#: ~6-12% and that per-instruction counting alone cannot capture.
RESIDUE_PIPELINE_FACTOR = 0.92
#: Width (elements) of one 128-bit shared-memory load of fp32 values.
SMEM_WIDE_LOAD_ELEMENTS = 4
#: Sustained fraction of the SM's issue/math rate: sparse gathers keep the
#: kernel off the dense pipelines (calibrated once, see DESIGN.md Sec. 5).
PIPELINE_EFFICIENCY = 0.62
#: How far the column-synchronized subwarp streams drift apart, in units of
#: each row's B-tile footprint (sizes the L1 reuse window).
COLUMN_DESYNC_SPREAD = 2.0


def _validate(a: CSRMatrix, b: np.ndarray, config: SpmmConfig) -> np.ndarray:
    if a.values.dtype != config.value_dtype:
        raise TypeError(
            f"sparse values are {a.values.dtype} but config precision "
            f"{config.precision!r} needs {config.value_dtype}"
        )
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    if b.dtype != config.value_dtype:
        raise TypeError(
            f"dense operand is {b.dtype}, expected {config.value_dtype}"
        )
    n = b.shape[1]
    if config.vector_width > 1 and n % config.vector_width:
        raise ValueError(
            f"N={n} not divisible by vector width {config.vector_width}; "
            "pad the batch (Section VII-A1) or resolve a config via "
            "repro.tune"
        )
    return b


def _analyze(
    a: CSRMatrix, config: SpmmConfig, device: DeviceSpec
) -> tuple[SpmmTiling, np.ndarray, np.ndarray, AlignedRows]:
    """Derive the per-matrix execution structure: tiling geometry, the
    swizzled row order/groups, and the (ROMA-aligned) row extents.

    This is the values-independent part of launch construction — exactly
    what a cached :class:`SpmmPlan` amortizes across calls. The order is
    the matrix's memoized swizzle order (Section V-C).
    """
    tiling = derive_tiling(config, device.warp_size)
    order, groups = swizzled_row_groups(
        a, tiling.block_items_y, config.load_balance
    )
    use_vector_a = config.vector_width > 1 and config.roma
    extents = (
        align_rows(a, config.vector_width) if use_vector_a else unaligned_rows(a)
    )
    return tiling, order, groups, extents


def _launch_from_analysis(
    a: CSRMatrix,
    n: int,
    config: SpmmConfig,
    device: DeviceSpec,
    tiling: SpmmTiling,
    groups: np.ndarray,
    extents: AlignedRows,
    touched_cols: int,
) -> KernelLaunch:
    """Cost the SpMM launch from a precomputed analysis (see ``_analyze``)
    and ``touched_cols``, the count of distinct referenced columns."""
    gx, gy = tiling.grid(a.n_rows, n)
    vb = config.element_bytes
    ib = config.index_bytes
    b_vb = vb

    use_vector_a = config.vector_width > 1 and config.roma
    lengths = np.where(groups >= 0, extents.lengths[groups], 0).astype(np.float64)

    # (gy, warps, subwarps): lockstep execution means a warp runs for its
    # longest row; actual bytes moved follow the true row lengths.
    per_warp = lengths.reshape(gy, tiling.warps_per_block, tiling.subwarps_per_warp)
    warp_max = per_warp.max(axis=2)
    warp_sum = per_warp.sum(axis=2)

    bik = float(config.block_items_k)
    residue = np.mod(warp_max, bik)
    full_steps = warp_max - residue

    tix = float(tiling.thread_items_x)
    vw = float(config.vector_width)
    a_chunk = tiling.subwarp_threads * (vw if use_vector_a else 1.0)

    fma = warp_max * tix
    b_loads = warp_max * (tix / vw)
    a_loads = 2.0 * np.ceil(warp_max / a_chunk)
    c_stores = np.full_like(warp_max, tix / vw)

    smem_reads = 2.0 * full_steps / SMEM_WIDE_LOAD_ELEMENTS
    if config.residue_unroll:
        smem_reads += 2.0 * residue / SMEM_WIDE_LOAD_ELEMENTS
        residue_penalty = 0.0 * residue
    else:
        smem_reads += 2.0 * residue
        residue_penalty = RESIDUE_SCALAR_PENALTY * residue

    prescale_cost = (
        0.5 * a_loads if config.index_prescale else b_loads
    )

    prelude = float(BASE_PRELUDE_INSTRUCTIONS)
    if config.load_balance:
        prelude += SWIZZLE_LOAD_INSTRUCTIONS
    if use_vector_a:
        prelude += ROMA_PRELUDE_INSTRUCTIONS + ROMA_MASK_INSTRUCTIONS

    other = (
        b_loads
        + a_loads
        + c_stores
        + smem_reads
        + residue_penalty
        + prescale_cost
        + prelude
    )

    fma_block = fma.sum(axis=1)
    other_block = other.sum(axis=1)

    # Shared-memory traffic: each lockstep step every lane reads one value
    # and one (pre-scaled) index; stages are written once per real element.
    lane_read_bytes = device.warp_size * (vb + 4.0 if config.index_prescale else vb + ib)
    smem_block = (warp_max * lane_read_bytes + warp_sum * (vb + ib)).sum(axis=1)

    # Global-memory traffic follows the true (not lockstep) row lengths.
    rows_sum_block = warp_sum.sum(axis=1)
    rows_present = (groups >= 0).sum(axis=1).astype(np.float64)

    widths = np.full(gx, float(tiling.block_items_x))
    widths[-1] = n - (gx - 1) * tiling.block_items_x

    a_bytes_y = rows_sum_block * (vb + ib)
    b_bytes = np.multiply.outer(rows_sum_block, widths) * b_vb
    c_bytes = np.multiply.outer(rows_present, widths) * vb

    smem_staging = (
        tiling.block_items_y
        * config.block_items_k
        * ((4 if config.index_prescale else ib) + vb)
    )
    resources = BlockResources(
        threads=tiling.threads_per_block,
        shared_mem_bytes=int(smem_staging),
        registers_per_thread=32 + 2 * int(tix),
    )

    # Dense-operand locality (Section V-B1): CSR column indices are sorted,
    # so the lockstep subwarps of every resident block stream through B's
    # rows in roughly synchronized column order. Re-reads of a B row by
    # other resident rows land inside a small sliding window that the L1
    # easily holds — the "locality serviced through caches" the paper
    # predicts for subwarp tiling.
    occ = compute_occupancy(resources, device)
    resident = min(occ.blocks_per_sm, -(-gx * gy // device.num_sms))
    rows_per_sm = resident * tiling.block_items_y
    avg_row = a.nnz / a.n_rows if a.n_rows else 0.0
    loads_per_elem = (
        rows_per_sm * avg_row / touched_cols if touched_cols else 0.0
    )
    window = rows_per_sm * tiling.block_items_x * b_vb * COLUMN_DESYNC_SPREAD
    l1_cap = max(0, device.l1_capacity_per_sm - resident * smem_staging)
    l1_frac = l1_hit_fraction(loads_per_elem, window, l1_cap)

    l1_block = (b_bytes * l1_frac).reshape(-1)
    store_bytes = c_bytes.reshape(-1)

    # A is re-read once per x-tile, but consecutively (block_idx sweeps x
    # fastest), so re-reads hit L2; only the first pass reaches DRAM. The
    # B misses that escape L1 hit L2 as long as B's touched slice fits.
    a_block = np.broadcast_to(a_bytes_y[:, None], (gy, gx)).reshape(-1)
    b_rest = (b_bytes * (1.0 - l1_frac)).reshape(-1)
    b_total = float(b_rest.sum())
    unique_b = min(float(touched_cols * n * b_vb), b_total)
    b_dram = dram_bytes_with_reuse(b_total, unique_b, device.l2_capacity)
    b_ratio = b_dram / b_total if b_total else 0.0

    dram_block = a_block / gx + b_rest * b_ratio + store_bytes
    l2_block = a_block * (1.0 - 1.0 / gx) + b_rest * (1.0 - b_ratio)

    # Expand per-y costs over the x grid: block_idx = x + y * gx, so each
    # y's costs repeat gx times consecutively (instruction costs do not
    # depend on x thanks to predication).
    def expand(per_y: np.ndarray) -> np.ndarray:
        return np.repeat(per_y, gx)

    costs = BlockCosts(
        fma_instructions=expand(fma_block),
        other_instructions=expand(other_block),
        dram_bytes=dram_block,
        l2_bytes=l2_block,
        l1_bytes=l1_block,
        smem_bytes=expand(smem_block),
    )
    return KernelLaunch(
        name=f"sputnik_spmm_{config.precision}",
        n_blocks=gx * gy,
        resources=resources,
        costs=costs,
        flops=spmm_flops(a, n),
        pipeline_efficiency=PIPELINE_EFFICIENCY
        * (1.0 if config.residue_unroll else RESIDUE_PIPELINE_FACTOR),
    )


def build_launch(
    a: CSRMatrix, n: int, config: SpmmConfig, device: DeviceSpec
) -> KernelLaunch:
    """Cost the SpMM launch for ``A @ B`` with ``B`` having ``n`` columns.

    Separated from :func:`spmm` so benchmarks can cost a problem without
    paying for the numeric multiply.
    """
    tiling, _, groups, extents = _analyze(a, config, device)
    return _launch_from_analysis(
        a, n, config, device, tiling, groups, extents,
        a.analysis.touched_columns,
    )


@dataclass
class SpmmPlan:
    """Reusable execution plan for SpMM on one (topology, config, device).

    Everything here depends only on the sparse operand's *structure* (and
    precision), never on its values — so a plan stays valid across weight
    updates with a fixed topology and can be cached per matrix (the
    ``repro.ops`` plan cache does exactly that).

    ``h`` is the stack depth: ``h`` products sharing the topology go down
    as ONE launch scaled along the grid's z axis
    (:meth:`~repro.gpu.executor.KernelLaunch.batched`), paying one
    per-launch overhead for the whole stack (Section VII-C1). A depth-``h``
    plan (``h > 1``) keeps only its costed launch: the analysis fields are
    ``None``.
    """

    config: SpmmConfig
    n: int
    device: DeviceSpec
    tiling: SpmmTiling | None
    #: The row-processing order the launch was costed with (Section V-C):
    #: ``analysis.swizzle_order``, or identity without load balancing.
    row_order: np.ndarray | None
    #: Rows per thread block in scheduling order, ``-1``-padded.
    row_groups: np.ndarray | None
    #: ROMA-aligned (or raw) per-row extents (Section V-B2).
    extents: AlignedRows | None
    launch: KernelLaunch
    execution: ExecutionResult
    #: Shape of the planned sparse operand, for execute-time validation.
    m: int
    k: int
    #: Stack depth: products sharing the topology in the one launch.
    h: int = 1


def plan_spmm(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec,
    config: SpmmConfig | None = None,
    h: int = 1,
) -> SpmmPlan:
    """Build the full depth-``h`` SpMM plan: analysis, costed launch,
    simulated run, all read from ``a.analysis``.

    The plan is pure derived state — :func:`execute_spmm` adds only the
    numeric multiply.
    """
    if config is None:
        from ..tune import default_spmm_config

        config = default_spmm_config(a, n)
    tiling, order, groups, extents = _analyze(a, config, device)
    launch = _launch_from_analysis(
        a, n, config, device, tiling, groups, extents,
        a.analysis.touched_columns,
    ).batched(h)
    single = h == 1
    return SpmmPlan(
        config=config,
        n=n,
        device=device,
        tiling=tiling if single else None,
        row_order=order if single else None,
        row_groups=groups if single else None,
        extents=extents if single else None,
        launch=launch,
        execution=execute(launch, device),
        m=a.n_rows,
        k=a.n_cols,
        h=h,
    )


def repair_spmm_plan(
    plan: SpmmPlan, a: CSRMatrix, delta: TopologyDelta
) -> SpmmPlan:
    """Repair a parent plan for the edited topology ``a`` (DESIGN.md §17).

    Validates that ``a`` fits the parent plan (shape, value dtype), then
    rebuilds at the parent's ``n``, depth, device and config from the
    child's memoized analysis — so the result is a cold plan of the same
    depth, field for field. ``delta`` names the lineage; the rebuild needs
    nothing from it. Inconsistencies raise
    :class:`~repro.reliability.errors.PlanRepairError`, which the dispatch
    layer converts into a cold re-plan.
    """
    from ..reliability.errors import PlanRepairError

    if a.shape != (plan.m, plan.k):
        raise PlanRepairError(
            f"edited topology {a.shape} does not match the parent plan's "
            f"operand ({plan.m}, {plan.k})"
        )
    config = plan.config
    if a.values.dtype != config.value_dtype:
        raise PlanRepairError(
            f"edited topology holds {a.values.dtype} values but the parent "
            f"plan is {config.precision}"
        )
    return plan_spmm(a, plan.n, plan.device, config, plan.h)


def execute_spmm(
    plan: SpmmPlan,
    a: CSRMatrix,
    b: np.ndarray,
    values: np.ndarray | None = None,
) -> KernelResult:
    """Run a planned SpMM: exact numerics plus the plan's simulated cost.

    A ``(k, n)`` ``b`` gives the ``(m, n)`` product. A ``(H, k, n)`` stack
    at the plan's depth gives the ``(H, m, n)`` stack of products; with
    ``values`` of shape ``(H, nnz)`` each item multiplies its own value
    set against the shared structure (per-head attention probabilities),
    otherwise all items share ``a``'s values (a weight matrix applied
    across a batch).
    """
    if a.shape != (plan.m, plan.k):
        raise ValueError(
            f"matrix {a.shape} does not match the planned operand "
            f"({plan.m}, {plan.k})"
        )
    b = np.asarray(b)
    stacked = b.ndim == 3
    if values is not None and not stacked:
        raise ValueError("per-item values need an (H, k, n) B stack")
    if (b.shape[0] if stacked else 1) != plan.h:
        raise ValueError(
            f"B shape {b.shape} does not carry the planned depth H={plan.h}"
        )
    # Per-item validation, vectorized: every slab shares shape and dtype.
    slab = _validate(a, b[0] if stacked else b, plan.config)
    if slab.shape[1] != plan.n:
        raise ValueError(
            f"B has {slab.shape[1]} columns but the plan has N={plan.n}"
        )
    if not stacked:
        output = spmm_reference(a, b)
    else:
        if values is not None:
            values = np.asarray(values)
            if values.shape != (plan.h, a.nnz):
                raise ValueError(
                    f"per-head values shape {values.shape} != "
                    f"({plan.h}, {a.nnz})"
                )
            if values.dtype != plan.config.value_dtype:
                raise TypeError(
                    f"per-head values are {values.dtype}, expected "
                    f"{plan.config.value_dtype}"
                )
        output = spmm_batched_reference(a, b, values)
    return KernelResult(output=output, execution=plan.execution)


def spmm(
    a: CSRMatrix,
    b: np.ndarray,
    device: DeviceSpec,
    config: SpmmConfig | None = None,
) -> KernelResult:
    """Run Sputnik SpMM: exact numerics plus simulated execution cost."""
    if config is None:
        from ..tune import default_spmm_config

        config = default_spmm_config(a, np.asarray(b).shape[1])
    b = _validate(a, b, config)
    return execute_spmm(plan_spmm(a, b.shape[1], device, config), a, b)


# Former names of the depth-``h`` forms, kept as aliases for callers that
# resolve them by name. Each alias is its own object, so a tool that wraps
# functions by identity wraps the alias and the function apart.
plan_spmm_batched = partial(plan_spmm)
execute_spmm_batched = partial(execute_spmm)
