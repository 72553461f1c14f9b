"""Multi-GPU sharded execution over simulated devices.

Scales past one simulated V100 (ROADMAP item 3): cost-balanced row and
2-D sharding of SpMM/SDDMM across a :class:`DeviceGroup` of K devices —
each with its own plan cache and :class:`~repro.gpu.allocator.DeviceAllocator`
— with collective communication priced by the
:class:`~repro.gpu.interconnect.InterconnectSpec` fabric model and
overlap-aware combined runtimes (see DESIGN.md Section 15).

This package is the one route to sharded dispatch: ``sharded_spmm``,
``sharded_spmm_cost``, ``sharded_sddmm`` and ``sharded_sddmm_cost`` each
call :mod:`repro.ops` once per device through one shared function.

Quick start::

    from repro.dist import DeviceGroup, sharded_spmm_cost

    group = DeviceGroup(4)                   # 4 x V100 on NVLink
    result = sharded_spmm_cost(a, 64, group)
    result.runtime_s                          # max compute + exposed comm
    result.interconnect_bound_fraction        # how much the fabric costs
"""

from .group import DeviceGroup, collective_execution
from .partition import (
    DEFAULT_BUNDLE_SIZE,
    STRATEGIES,
    ShardPlan,
    cost_balanced_partition,
    partition_loads,
    partition_stats,
    plan_shards,
    repair_shard_plan,
    row_block_partition,
)
from .sharded import (
    ShardedExecution,
    sharded_sddmm,
    sharded_sddmm_cost,
    sharded_spmm,
    sharded_spmm_cost,
)

__all__ = [
    "DeviceGroup",
    "collective_execution",
    "ShardPlan",
    "plan_shards",
    "repair_shard_plan",
    "cost_balanced_partition",
    "row_block_partition",
    "partition_loads",
    "partition_stats",
    "DEFAULT_BUNDLE_SIZE",
    "STRATEGIES",
    "ShardedExecution",
    "sharded_spmm",
    "sharded_spmm_cost",
    "sharded_sddmm",
    "sharded_sddmm_cost",
]
