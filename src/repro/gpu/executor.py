"""Kernel-launch executor: turns per-block cost vectors into a runtime.

A kernel implementation (ours or a baseline) describes one launch as a
:class:`KernelLaunch` — a grid of thread blocks, per-block resource usage,
and per-block counted costs (FMA instructions, warp instructions issued,
DRAM/L2/shared-memory bytes). The executor:

1. computes occupancy (resident blocks per SM),
2. converts each block's costs into a duration using a roofline with a
   latency-hiding factor tied to occupancy,
3. schedules the blocks with the Volta scheduler model, and
4. rolls everything up into an :class:`ExecutionResult`.

This is the single place where counted work becomes time; every experiment
in the paper is regenerated through this path, so relative results across
kernels come from their counted work, never from per-experiment constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .device import DeviceSpec
from .memory import latency_hiding_factor
from .occupancy import BlockResources, Occupancy, compute_occupancy
from .scheduler import ScheduleResult, simulate_schedule


@dataclass
class BlockCosts:
    """Per-thread-block counted costs, vectorized over the whole grid.

    Every field is either a scalar (uniform across blocks) or an array of
    shape ``(n_blocks,)``.

    - ``fma_instructions``: warp-level FMA instructions issued (predicated
      lanes still occupy the instruction, so divergence is charged here).
    - ``other_instructions``: every non-FMA warp instruction issued (loads,
      stores, integer/address arithmetic, prelude, masking, reductions).
    - ``dram_bytes`` / ``l2_bytes``: bytes serviced by DRAM / by L2 hits.
    - ``l1_bytes``: bytes serviced by L1 hits (on Volta the L1 shares the
      shared-memory data path, so these are charged together).
    - ``smem_bytes``: shared-memory bytes moved (stores + loads).
    """

    fma_instructions: np.ndarray | float = 0.0
    other_instructions: np.ndarray | float = 0.0
    dram_bytes: np.ndarray | float = 0.0
    l2_bytes: np.ndarray | float = 0.0
    l1_bytes: np.ndarray | float = 0.0
    smem_bytes: np.ndarray | float = 0.0

    def broadcast(self, n_blocks: int) -> "BlockCosts":
        """Return a copy with every field as a float64 ``(n_blocks,)`` array."""
        def expand(v: np.ndarray | float) -> np.ndarray:
            arr = np.asarray(v, dtype=np.float64)
            if arr.ndim == 0:
                return np.full(n_blocks, float(arr))
            if arr.shape != (n_blocks,):
                raise ValueError(
                    f"cost vector shape {arr.shape} != grid size ({n_blocks},)"
                )
            return arr

        return BlockCosts(
            fma_instructions=expand(self.fma_instructions),
            other_instructions=expand(self.other_instructions),
            dram_bytes=expand(self.dram_bytes),
            l2_bytes=expand(self.l2_bytes),
            l1_bytes=expand(self.l1_bytes),
            smem_bytes=expand(self.smem_bytes),
        )


@dataclass
class KernelLaunch:
    """One kernel launch: a grid of blocks plus their costs and resources."""

    name: str
    n_blocks: int
    resources: BlockResources
    costs: BlockCosts
    #: Useful floating-point operations (for throughput reporting only).
    flops: float = 0.0
    #: Fraction of the SM's issue/math rate an irregular kernel sustains
    #: once latency is hidden: gather-dependent loads, address chains, and
    #: divergence keep sparse kernels off the dense kernels' pipelines.
    #: Calibrated once per kernel family, never per experiment.
    pipeline_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.n_blocks <= 0:
            raise ValueError("a launch needs at least one thread block")
        if not 0.0 < self.pipeline_efficiency <= 1.0:
            raise ValueError("pipeline_efficiency must be in (0, 1]")

    def batched(self, h: int) -> "KernelLaunch":
        """Scale the grid along z for ``h`` shared-topology batch items.

        Each item contributes an identical slab of thread blocks (same
        per-block costs and resources — the topology is shared, so the work
        distribution repeats exactly), so the cost vectors tile ``h`` times
        and the grid grows to ``h * n_blocks``. The whole stack goes down
        in ONE launch: ``h - 1`` per-launch overheads are amortized away
        relative to dispatching the items one by one, which is exactly the
        paper's Section VII-C1 batching argument.
        """
        if h <= 0:
            raise ValueError("batch size must be positive")
        if h == 1:
            return self
        costs = self.costs.broadcast(self.n_blocks)
        return KernelLaunch(
            name=f"{self.name}_x{h}",
            n_blocks=self.n_blocks * h,
            resources=self.resources,
            costs=BlockCosts(
                fma_instructions=np.tile(costs.fma_instructions, h),
                other_instructions=np.tile(costs.other_instructions, h),
                dram_bytes=np.tile(costs.dram_bytes, h),
                l2_bytes=np.tile(costs.l2_bytes, h),
                l1_bytes=np.tile(costs.l1_bytes, h),
                smem_bytes=np.tile(costs.smem_bytes, h),
            ),
            flops=self.flops * h,
            pipeline_efficiency=self.pipeline_efficiency,
        )


#: Phase names, in attribution-priority order (ties go to the earliest).
PHASE_NAMES = ("compute", "l1", "l2", "dram", "imbalance", "overhead")


@dataclass(frozen=True)
class PhaseTimes:
    """Attribution of one launch's simulated runtime to kernel phases.

    Each block's serial time is charged entirely to its bottleneck phase
    (the roofline term that set its duration): ``compute`` (FMA issue /
    instruction issue), ``l1`` (shared-memory/L1 data path), ``l2``, or
    ``dram``. Dividing the per-phase busy time by the number of execution
    slots gives the perfectly-balanced share of the makespan; whatever the
    scheduler adds on top is ``imbalance`` (load-imbalance idle time,
    Figure 7's quantity), and the fixed launch cost is ``overhead``.

    Invariant: the six components sum to the launch's ``runtime_s`` exactly
    (up to float rounding) — the report layer asserts this within 1%.
    """

    compute_s: float = 0.0
    l1_s: float = 0.0
    l2_s: float = 0.0
    dram_s: float = 0.0
    imbalance_s: float = 0.0
    overhead_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.compute_s + self.l1_s + self.l2_s + self.dram_s
            + self.imbalance_s + self.overhead_s
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "compute": self.compute_s,
            "l1": self.l1_s,
            "l2": self.l2_s,
            "dram": self.dram_s,
            "imbalance": self.imbalance_s,
            "overhead": self.overhead_s,
        }

    def __add__(self, other: "PhaseTimes") -> "PhaseTimes":
        return PhaseTimes(
            compute_s=self.compute_s + other.compute_s,
            l1_s=self.l1_s + other.l1_s,
            l2_s=self.l2_s + other.l2_s,
            dram_s=self.dram_s + other.dram_s,
            imbalance_s=self.imbalance_s + other.imbalance_s,
            overhead_s=self.overhead_s + other.overhead_s,
        )

    def with_overhead(self, seconds: float) -> "PhaseTimes":
        """Copy with extra serial (non-kernel) time in the overhead phase."""
        from dataclasses import replace

        return replace(self, overhead_s=self.overhead_s + seconds)

    def bottleneck(self) -> str:
        """Coarse classification of where this launch's time went:
        ``"compute"`` (FMA/issue), ``"memory"`` (l1 + l2 + dram data
        paths), or ``"overhead"`` (imbalance + launch cost) — whichever
        bucket dominates. Ties break toward memory, then compute: on a
        roofline, a balanced kernel is the memory-bound regime's edge."""
        memory = self.l1_s + self.l2_s + self.dram_s
        other = self.imbalance_s + self.overhead_s
        if memory >= self.compute_s and memory >= other:
            return "memory"
        if self.compute_s >= other:
            return "compute"
        return "overhead"


@dataclass
class ExecutionResult:
    """Simulated outcome of one or more kernel launches."""

    name: str
    runtime_s: float
    flops: float
    dram_bytes: float
    l2_bytes: float
    smem_bytes: float
    n_blocks: int
    occupancy: Occupancy | None
    l1_bytes: float = 0.0
    schedule: ScheduleResult | None = None
    #: Individual launch results when this aggregates a multi-kernel op.
    children: list["ExecutionResult"] = field(default_factory=list)
    #: Per-phase attribution of ``runtime_s`` (None for results built
    #: outside the executor, e.g. a sharded aggregate).
    phases: PhaseTimes | None = None

    @property
    def throughput_flops(self) -> float:
        """Useful FLOP/s (0 when runtime is 0)."""
        return self.flops / self.runtime_s if self.runtime_s > 0 else 0.0

    def peak_fraction(self, device: DeviceSpec) -> float:
        return self.throughput_flops / device.fp32_peak_flops

    def add_overhead(self, seconds: float) -> "ExecutionResult":
        """Copy with extra serial time (e.g. early-exit scheduler drag)."""
        if seconds < 0:
            raise ValueError("overhead must be non-negative")
        from dataclasses import replace

        phases = getattr(self, "phases", None)
        return replace(
            self,
            runtime_s=self.runtime_s + seconds,
            phases=phases.with_overhead(seconds) if phases is not None else None,
        )

    @staticmethod
    def sequence(name: str, parts: list["ExecutionResult"]) -> "ExecutionResult":
        """Combine launches executed back-to-back (e.g. transpose + SDDMM)."""
        if not parts:
            raise ValueError("need at least one launch to sequence")
        part_phases = [getattr(p, "phases", None) for p in parts]
        phases = None
        if all(p is not None for p in part_phases):
            phases = part_phases[0]
            for p in part_phases[1:]:
                phases = phases + p
        return ExecutionResult(
            name=name,
            runtime_s=sum(p.runtime_s for p in parts),
            flops=sum(p.flops for p in parts),
            dram_bytes=sum(p.dram_bytes for p in parts),
            l2_bytes=sum(p.l2_bytes for p in parts),
            smem_bytes=sum(p.smem_bytes for p in parts),
            l1_bytes=sum(p.l1_bytes for p in parts),
            n_blocks=sum(p.n_blocks for p in parts),
            occupancy=parts[0].occupancy,
            children=list(parts),
            phases=phases,
        )


#: Observers called at the top of every :func:`execute` with
#: ``(launch, device)``. The reliability layer's fault injector registers
#: here to fail or perturb launches *inside* the simulated executor (its
#: ``site="executor"`` faults) — an observer may raise
#: :class:`~repro.reliability.errors.KernelLaunchError` to abort the launch
#: exactly where a real ``cudaLaunchKernel`` would fail.
_LAUNCH_OBSERVERS: list[Callable[[KernelLaunch, DeviceSpec], None]] = []


def register_launch_observer(
    observer: Callable[[KernelLaunch, DeviceSpec], None],
) -> None:
    """Install a callback invoked before every simulated launch."""
    if observer not in _LAUNCH_OBSERVERS:
        _LAUNCH_OBSERVERS.append(observer)


def unregister_launch_observer(
    observer: Callable[[KernelLaunch, DeviceSpec], None],
) -> None:
    """Remove a previously installed launch observer (missing is a no-op)."""
    try:
        _LAUNCH_OBSERVERS.remove(observer)
    except ValueError:
        pass


def execute(launch: KernelLaunch, device: DeviceSpec) -> ExecutionResult:
    """Simulate one kernel launch on ``device`` and return its result."""
    for observer in tuple(_LAUNCH_OBSERVERS):
        observer(launch, device)
    occ = compute_occupancy(launch.resources, device)
    costs = launch.costs.broadcast(launch.n_blocks)

    # Blocks actually resident per SM: capped by how many the grid provides.
    waves = -(-launch.n_blocks // device.num_sms)
    resident = min(occ.blocks_per_sm, waves)
    resident_warps = resident * occ.warps_per_block
    hide = latency_hiding_factor(resident_warps, device)

    clock = device.core_clock_hz
    warp_fma_per_cycle = device.fma_per_sm_per_cycle / device.warp_size
    math_t = costs.fma_instructions / (warp_fma_per_cycle * clock)
    issue_t = (costs.fma_instructions + costs.other_instructions) / (
        device.issue_width * clock
    )
    smem_t = (costs.smem_bytes + costs.l1_bytes) / device.shared_bandwidth_per_sm
    dram_t = costs.dram_bytes * device.num_sms / device.effective_dram_bandwidth
    l2_t = costs.l2_bytes * device.num_sms / device.l2_bandwidth

    rate = hide * launch.pipeline_efficiency
    serial = np.maximum.reduce([math_t, issue_t, smem_t, dram_t, l2_t]) / rate
    # An SM time-shares its resident blocks, so its finish time is the sum
    # of their serial times at the SM's full rate: schedule at SM
    # granularity (occupancy already shaped the rate via latency hiding).
    # This is what makes guided self-scheduling work — a heavy block
    # sharing an SM with light ones drains as a unit of SM time, not as an
    # independent slot.
    sched = simulate_schedule(serial, device, 1)
    runtime = sched.makespan + device.launch_overhead_s

    # Phase attribution: charge each block's serial time to its bottleneck
    # roofline term, normalized by the schedule's slot count; the makespan's
    # excess over that balanced share is scheduler-imbalance idle time.
    per_phase = np.stack([np.maximum(math_t, issue_t), smem_t, l2_t, dram_t])
    bottleneck = np.argmax(per_phase, axis=0)
    busy = np.bincount(bottleneck, weights=serial, minlength=4)
    n_slots = device.num_sms  # simulate_schedule(serial, device, 1) slots
    balanced = float(np.sum(serial)) / n_slots
    phases = PhaseTimes(
        compute_s=float(busy[0]) / n_slots,
        l1_s=float(busy[1]) / n_slots,
        l2_s=float(busy[2]) / n_slots,
        dram_s=float(busy[3]) / n_slots,
        imbalance_s=max(0.0, sched.makespan - balanced),
        overhead_s=device.launch_overhead_s,
    )

    return ExecutionResult(
        name=launch.name,
        runtime_s=runtime,
        flops=launch.flops,
        dram_bytes=float(np.sum(costs.dram_bytes)),
        l2_bytes=float(np.sum(costs.l2_bytes)),
        smem_bytes=float(np.sum(costs.smem_bytes)),
        l1_bytes=float(np.sum(costs.l1_bytes)),
        n_blocks=launch.n_blocks,
        occupancy=occ,
        schedule=sched,
        phases=phases,
    )
