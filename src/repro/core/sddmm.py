"""Sputnik-style SDDMM: ``(A @ B^T) ∘ I[C] => D`` (Section VI).

The output is sparse, so thread blocks map to 1-D strips of consecutive
nonzeros rather than output tiles: block ``(x, y)`` owns nonzeros
``[x*T, (x+1)*T)`` of row ``y``. Because the number of nonzeros per row is
unknown at launch time, the kernel launches the *maximum* grid that could be
needed (one x-slot per possible strip) and unneeded blocks exit early; the
paper measures that overhead as negligible and so do we — it is charged as
an analytic scheduler-drag term rather than materialized block-by-block.

The transposed right-hand operand is handled the way the paper chose: each
thread computes a slice of every output in the strip and the strip is
finished with warp-shuffle reductions, trading registers for shared memory
to preserve L1 capacity (Section VI-A).
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
from ..sparse.ops import sddmm_batched_reference, sddmm_flops, sddmm_reference
from .config import SddmmConfig
from .repair import TopologyDelta
from .swizzle import row_order
from .types import KernelResult

#: Instructions an unneeded thread block executes before returning early.
EARLY_EXIT_INSTRUCTIONS = 8
#: Warp-shuffle + add instructions to reduce one output's 32 partials.
SHUFFLE_REDUCE_INSTRUCTIONS = 10
#: Prelude: offsets, strip bounds check, output addressing.
PRELUDE_INSTRUCTIONS = 8
#: Sustained fraction of the SM's issue/math rate (gather-dependent loads
#: and shuffle chains); calibrated once per kernel family.
PIPELINE_EFFICIENCY = 0.62


def _validate(
    lhs: np.ndarray, rhs: np.ndarray, mask: CSRMatrix, config: SddmmConfig
) -> tuple[np.ndarray, np.ndarray]:
    if config.precision != "fp32":
        raise NotImplementedError(
            "the paper's SDDMM kernels are single-precision only"
        )
    lhs = np.asarray(lhs, dtype=np.float32)
    rhs = np.asarray(rhs, dtype=np.float32)
    if not config.transposed_rhs:
        # General variant (footnote 1): rhs arrives as (k, n_cols).
        if rhs.ndim != 2:
            raise ValueError("rhs must be 2-D")
        rhs = np.ascontiguousarray(rhs.T)
    if lhs.ndim != 2 or rhs.ndim != 2 or lhs.shape[1] != rhs.shape[1]:
        raise ValueError(
            f"operands {lhs.shape} x {rhs.shape}^T must share the inner dim"
        )
    if lhs.shape[0] != mask.n_rows or rhs.shape[0] != mask.n_cols:
        raise ValueError(
            f"operands {lhs.shape} x {rhs.shape}^T incompatible with mask "
            f"{mask.shape}"
        )
    k = lhs.shape[1]
    if config.vector_width > 1 and k % config.vector_width:
        raise ValueError(
            f"K={k} not divisible by vector width {config.vector_width}"
        )
    return lhs, rhs


def build_launch(
    mask: CSRMatrix, k: int, config: SddmmConfig, device: DeviceSpec
) -> tuple[KernelLaunch, float]:
    """Cost the SDDMM launch; returns ``(real-work launch, early-exit drag)``.

    The drag term (seconds) accounts for the over-provisioned grid's empty
    blocks flowing through the scheduler. Strips are scheduled in the
    mask's memoized swizzle order and B traffic is sized by its touched
    column count (``mask.analysis``).
    """
    order = row_order(mask, config.load_balance)
    touched_cols = mask.analysis.touched_columns
    t = config.nonzeros_per_block
    vw = float(config.vector_width)
    warp = device.warp_size

    lengths = mask.row_lengths[order]

    # Strips per row, flattened in block_idx order (x fastest, then y).
    strips_per_row = -(-lengths // t)
    n_real = int(strips_per_row.sum())
    if n_real == 0:
        raise ValueError("mask has no nonzeros; nothing to compute")
    row_of_strip = np.repeat(np.arange(mask.n_rows), strips_per_row)
    strip_in_row = np.arange(n_real) - np.repeat(
        np.cumsum(strips_per_row) - strips_per_row, strips_per_row
    )
    strip_nnz = np.minimum(
        lengths[row_of_strip] - strip_in_row * t, t
    ).astype(np.float64)

    fma = strip_nnz * k / warp
    lhs_loads = np.full(n_real, k / (warp * vw))
    rhs_loads = strip_nnz * k / (warp * vw)
    if config.transposed_rhs:
        # Per-output partial sums across the warp need a shuffle reduction
        # (the register-based transpose handling of Section VI-A).
        reduce_instr = strip_nnz * SHUFFLE_REDUCE_INSTRUCTIONS / 1.0
    else:
        # Footnote 1: a non-transposed right operand is trivially coalesced
        # — one output per lane, no cross-lane reduction.
        reduce_instr = np.zeros(n_real)
    io_instr = 4.0 + PRELUDE_INSTRUCTIONS  # indices load + output store + prelude
    if config.scale_by_values:
        # Footnote 1: element-wise scaling adds 1 load and 1 multiply per
        # output prior to the store.
        io_instr += 2.0 * t / warp
    other = lhs_loads + rhs_loads + reduce_instr + io_instr

    # Honor the config's precision regime: mixed configs load/store fp16
    # values (the index bytes already follow the mask's operand dtype).
    eb = float(config.value_dtype.itemsize)
    lhs_bytes = np.full(n_real, k * eb)
    rhs_bytes = strip_nnz * k * eb
    out_bytes = strip_nnz * (eb + mask.index_bytes)
    if config.scale_by_values:
        out_bytes = out_bytes + strip_nnz * eb  # read the mask's values

    resources = BlockResources(
        threads=warp,
        shared_mem_bytes=0,
        # Partials for a whole strip live in registers (the paper's explicit
        # choice over a shared-memory transpose, Section VI-A).
        registers_per_thread=32 + t,
    )

    # L1 locality — the reason the kernel avoids a shared-memory transpose
    # (Section VI-A: "we found L1 cache capacity to be important"):
    # consecutive strips of a row reuse the lhs row, and strips resident on
    # one SM reference overlapping rhs rows.
    occ = compute_occupancy(resources, device)
    resident = min(occ.blocks_per_sm, -(-n_real // device.num_sms))
    strip_mean = float(strip_nnz.mean())
    l1_cap = float(device.l1_capacity_per_sm)

    # lhs: consecutive strips of a row reuse the same lhs row.
    lhs_lpe = min(float(strips_per_row.mean()), float(resident))
    lhs_l1 = l1_hit_fraction(lhs_lpe, resident * k * eb, l1_cap)

    # rhs: the strips resident on an SM come from nearby mask rows at
    # similar strip offsets; with sorted indices and the low row-length
    # variation of DL matrices their column windows overlap, so each rhs
    # row in the window is read ~(resident x density) times before moving
    # on. The live window is the distinct columns currently in flight.
    density = (
        mask.nnz / (mask.n_rows * touched_cols) if touched_cols else 0.0
    )
    rhs_lpe = resident * density
    distinct_in_flight = (
        resident * strip_mean / rhs_lpe if rhs_lpe > 0 else 0.0
    )
    rhs_l1 = l1_hit_fraction(rhs_lpe, distinct_in_flight * k * eb, l1_cap)

    l1_bytes = lhs_bytes * lhs_l1 + rhs_bytes * rhs_l1
    load_bytes = lhs_bytes * (1.0 - lhs_l1) + rhs_bytes * (1.0 - rhs_l1)
    total_loads = float(load_bytes.sum())
    unique_loads = min(
        (mask.n_rows + touched_cols) * k * eb, total_loads
    )
    dram_reads = dram_bytes_with_reuse(total_loads, unique_loads, device.l2_capacity)
    ratio = dram_reads / total_loads if total_loads else 0.0

    costs = BlockCosts(
        fma_instructions=fma,
        other_instructions=other,
        dram_bytes=load_bytes * ratio + out_bytes,
        l2_bytes=load_bytes * (1.0 - ratio),
        l1_bytes=l1_bytes,
        smem_bytes=0.0,
    )
    launch = KernelLaunch(
        name="sputnik_sddmm",
        n_blocks=n_real,
        resources=resources,
        costs=costs,
        flops=sddmm_flops(mask, k),
        pipeline_efficiency=PIPELINE_EFFICIENCY,
    )

    if config.dynamic_parallelism:
        # The Section VI-A alternative: per-row child grids replace the
        # over-provisioned launch — no empty blocks, one extra API launch.
        drag = device.launch_overhead_s
    else:
        # Over-provisioned grid: one x-slot per possible strip per row.
        max_strips = -(-mask.n_cols // t)
        n_empty = mask.n_rows * max_strips - n_real
        slots = device.num_sms * device.max_blocks_per_sm
        exit_time = EARLY_EXIT_INSTRUCTIONS / (
            device.issue_width * device.core_clock_hz
        )
        drag = n_empty * exit_time / slots
    return launch, drag


@dataclass
class SddmmPlan:
    """Reusable execution plan for SDDMM on one (topology, config, device).

    Depends only on the mask's structure and the inner dimension ``k`` —
    never on operand values — so it can be cached per mask and reused
    across attention heads/layers sharing one connectivity pattern.

    ``h`` is the stack depth: the real-work grid tiles ``h`` times along z
    (identical strips per batch item — the mask is shared) and the
    early-exit drag of the over-provisioned grid scales with it, but only
    ONE per-launch overhead is paid for the whole stack.
    """

    config: SddmmConfig
    k: int
    device: DeviceSpec
    launch: KernelLaunch
    #: Early-exit scheduler drag of the over-provisioned grid (seconds),
    #: scaled to the stack depth.
    drag: float
    #: Simulated execution, drag included.
    execution: ExecutionResult
    #: Shape of the planned mask, for execute-time validation.
    mask_shape: tuple[int, int]
    nnz: int
    #: The strip scheduling order the launch was costed with (Section
    #: V-C): ``analysis.swizzle_order``, or identity without load
    #: balancing. ``None`` on depth-``h`` plans (``h > 1``), which keep
    #: only their costed launch.
    row_order: np.ndarray | None = None
    #: Stack depth: products sharing the mask in the one launch.
    h: int = 1


def plan_sddmm(
    mask: CSRMatrix,
    k: int,
    device: DeviceSpec,
    config: SddmmConfig,
    h: int = 1,
) -> SddmmPlan:
    """Build the full depth-``h`` SDDMM plan: costed launch plus simulated
    run, both read from ``mask.analysis``."""
    launch, drag = build_launch(mask, k, config, device)
    launch = launch.batched(h)
    drag *= h
    return SddmmPlan(
        config=config,
        k=k,
        device=device,
        launch=launch,
        drag=drag,
        execution=execute(launch, device).add_overhead(drag),
        mask_shape=mask.shape,
        nnz=mask.nnz,
        row_order=row_order(mask, config.load_balance) if h == 1 else None,
        h=h,
    )


def repair_sddmm_plan(
    plan: SddmmPlan, mask: CSRMatrix, delta: TopologyDelta
) -> SddmmPlan:
    """Repair a parent plan for the edited mask (DESIGN.md §17).

    Validates that ``mask`` fits the parent plan's mask shape, then
    rebuilds at the parent's ``k``, depth, device and config from the
    mask's memoized analysis — a cold plan of the same depth, field for
    field. ``delta`` names the lineage; the rebuild needs nothing from it.
    Inconsistencies raise ``PlanRepairError`` (dispatch falls back to a
    cold re-plan).
    """
    from ..reliability.errors import PlanRepairError

    if mask.shape != plan.mask_shape:
        raise PlanRepairError(
            f"edited mask {mask.shape} does not match the parent plan's "
            f"mask {plan.mask_shape}"
        )
    return plan_sddmm(mask, plan.k, plan.device, plan.config, plan.h)


def execute_sddmm(
    plan: SddmmPlan, lhs: np.ndarray, rhs: np.ndarray, mask: CSRMatrix
) -> KernelResult:
    """Run a planned SDDMM: exact numerics plus the plan's simulated cost.

    ``(rows, k)``/``(cols, k)`` operands give the sampled CSR matrix.
    ``(H, rows, k)``/``(H, cols, k)`` stacks at the plan's depth give the
    column-stacked ``(nnz, H)`` value matrix (one column per item, all
    sharing ``mask``'s topology).
    """
    if mask.shape != plan.mask_shape or mask.nnz != plan.nnz:
        raise ValueError(
            f"mask {mask.shape} (nnz={mask.nnz}) does not match the planned "
            f"mask {plan.mask_shape} (nnz={plan.nnz})"
        )
    lhs = np.asarray(lhs)
    stacked = lhs.ndim == 3
    if (lhs.shape[0] if stacked else 1) != plan.h:
        raise ValueError(
            f"lhs shape {lhs.shape} does not carry the planned depth "
            f"H={plan.h}"
        )
    if stacked and not plan.config.transposed_rhs:
        raise NotImplementedError(
            "stacked SDDMM implements the paper's deep-learning variant "
            "(transposed rhs) only"
        )
    # Per-item validation on the first slab; the stack shares its shape.
    rhs = np.asarray(rhs)
    first_lhs, first_rhs = _validate(
        lhs[0] if stacked else lhs, rhs[0] if stacked else rhs, mask,
        plan.config,
    )
    if first_lhs.shape[1] != plan.k:
        raise ValueError(
            f"inner dim {first_lhs.shape[1]} but the plan has K={plan.k}"
        )
    scale = plan.config.scale_by_values
    if stacked:
        output = sddmm_batched_reference(
            lhs, rhs, mask, scale_by_values=scale
        )
    else:
        output = sddmm_reference(
            first_lhs, first_rhs, mask, scale_by_values=scale
        )
    return KernelResult(output=output, execution=plan.execution)


# Former names of the depth-``h`` forms, kept as aliases for callers that
# resolve them by name. Each alias is its own object, so a tool that wraps
# functions by identity wraps the alias and the function apart.
plan_sddmm_batched = partial(plan_sddmm)
execute_sddmm_batched = partial(execute_sddmm)
