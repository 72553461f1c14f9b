"""CUDA occupancy calculator.

Occupancy — how many thread blocks are resident per SM — controls how well a
kernel can hide memory latency. The paper's 1-D tiling argument is an
occupancy argument: sharding the output into more, smaller blocks lets small
problems fill the machine. This module reproduces the standard occupancy
computation from the CUDA occupancy calculator: resident blocks are limited
by the per-SM thread, warp, block, register, and shared-memory budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec


@dataclass(frozen=True)
class BlockResources:
    """Per-thread-block resource requirements of a compiled kernel."""

    threads: int
    shared_mem_bytes: int = 0
    registers_per_thread: int = 32

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ValueError("a thread block needs at least one thread")
        if self.shared_mem_bytes < 0 or self.registers_per_thread < 0:
            raise ValueError("resources must be non-negative")

    def warps(self, device: DeviceSpec) -> int:
        """Warps per block (partial warps round up to a full scheduler slot)."""
        return -(-self.threads // device.warp_size)


@dataclass(frozen=True)
class Occupancy:
    """Result of the occupancy computation for one kernel on one device."""

    blocks_per_sm: int
    warps_per_block: int
    limiting_factor: str


def compute_occupancy(res: BlockResources, device: DeviceSpec) -> Occupancy:
    """Resident blocks per SM for a kernel with the given resource usage."""
    if res.threads > device.max_threads_per_block:
        raise ValueError(
            f"{res.threads} threads/block exceeds device limit "
            f"{device.max_threads_per_block}"
        )
    if res.shared_mem_bytes > device.shared_mem_per_sm:
        raise ValueError(
            f"{res.shared_mem_bytes}B shared memory exceeds per-SM capacity "
            f"{device.shared_mem_per_sm}B"
        )

    warps = res.warps(device)
    limits = {
        "blocks": device.max_blocks_per_sm,
        "threads": device.max_threads_per_sm // res.threads,
        "warps": device.max_warps_per_sm // warps,
    }
    if res.shared_mem_bytes > 0:
        limits["shared_memory"] = device.shared_mem_per_sm // res.shared_mem_bytes
    if res.registers_per_thread > 0:
        limits["registers"] = device.registers_per_sm // (
            res.registers_per_thread * res.threads
        )

    limiting = min(limits, key=lambda k: limits[k])
    blocks = limits[limiting]
    if blocks <= 0:
        raise ValueError(
            f"kernel cannot run: zero occupancy (limited by {limiting})"
        )
    return Occupancy(
        blocks_per_sm=blocks, warps_per_block=warps, limiting_factor=limiting
    )
