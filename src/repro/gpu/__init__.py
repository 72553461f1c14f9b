"""GPU substrate: device models, occupancy, memory transactions, the Volta
thread-block scheduler, and the kernel-launch executor.

This package is the hardware stand-in described in DESIGN.md Section 2: the
paper's kernels are CUDA on a V100; here they are costed, scheduled, and
timed on a transaction-level model of the same machine, while their numerics
run exactly in numpy.
"""

from .device import GTX1080, V100, DeviceSpec, get_device
from .executor import (
    BlockCosts,
    ExecutionResult,
    KernelLaunch,
    PhaseTimes,
    execute,
    register_launch_observer,
    unregister_launch_observer,
)
from .memory import (
    VECTOR_WIDTHS,
    aligned_extent,
    dram_bytes_with_reuse,
    latency_hiding_factor,
    validate_vector_width,
)
from .interconnect import (
    INTERCONNECTS,
    NVLINK2,
    PCIE3,
    CollectiveCost,
    InterconnectSpec,
    all_gather,
    all_reduce,
    broadcast,
    get_interconnect,
    reduce_scatter,
)
from .occupancy import BlockResources, Occupancy, compute_occupancy
from .scheduler import (
    ScheduleResult,
    simulate_schedule,
    simulate_schedule_reference,
    volta_first_wave_sm,
)

# The allocator imports the reliability error taxonomy, which imports the
# executor; keep it last so a bare ``import repro.gpu`` resolves the loop
# against already-initialized submodules.
from .allocator import (  # noqa: E402
    CAP_ENV_VAR,
    Allocation,
    DeviceAllocator,
    aligned_nbytes,
    capacity_from_env,
    estimate_nbytes,
    format_capacity,
    parse_capacity,
)

__all__ = [
    "DeviceSpec",
    "V100",
    "GTX1080",
    "get_device",
    "BlockCosts",
    "KernelLaunch",
    "ExecutionResult",
    "PhaseTimes",
    "execute",
    "register_launch_observer",
    "unregister_launch_observer",
    "BlockResources",
    "Occupancy",
    "compute_occupancy",
    "ScheduleResult",
    "simulate_schedule",
    "simulate_schedule_reference",
    "volta_first_wave_sm",
    "VECTOR_WIDTHS",
    "validate_vector_width",
    "aligned_extent",
    "dram_bytes_with_reuse",
    "latency_hiding_factor",
    "DeviceAllocator",
    "Allocation",
    "CAP_ENV_VAR",
    "aligned_nbytes",
    "capacity_from_env",
    "estimate_nbytes",
    "parse_capacity",
    "format_capacity",
    "InterconnectSpec",
    "CollectiveCost",
    "NVLINK2",
    "PCIE3",
    "INTERCONNECTS",
    "get_interconnect",
    "all_gather",
    "reduce_scatter",
    "all_reduce",
    "broadcast",
]
