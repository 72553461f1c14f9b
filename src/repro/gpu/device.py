"""GPU device specifications for the performance simulator.

The simulator charges costs against a :class:`DeviceSpec`, which captures the
architectural quantities the paper's analysis depends on: SM count, warp
width, peak math throughput, memory bandwidth, cache and shared-memory sizes,
occupancy limits, and allocation alignment (the CUDA 256-byte guarantee that
makes the first CSR row vector-aligned, see paper footnote 3).

Two presets are provided, matching the hardware used in the paper's
evaluation: the Nvidia V100 (all kernel benchmarks) and the GTX 1080 (the
memory-constrained sparse-Transformer experiment in Table III).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural description of a CUDA-class GPU.

    All bandwidths are in bytes/second and capacities in bytes. Peak FLOP
    rates count fused multiply-adds as two operations, matching vendor specs.
    """

    name: str
    num_sms: int
    warp_size: int = 32
    core_clock_hz: float = 1.53e9
    #: Peak single-precision throughput in FLOP/s (FMA counted as 2).
    fp32_peak_flops: float = 15.7e12
    #: Sustainable DRAM bandwidth (vendor peak; efficiency applied separately).
    dram_bandwidth: float = 900e9
    dram_capacity: int = 16 * 1024**3
    #: Host-to-device link bandwidth (PCIe 3.0 x16 on both paper devices);
    #: charged when an evicted operand has to be re-uploaded.
    pcie_bandwidth: float = 16e9
    l2_capacity: int = 6 * 1024**2
    #: Aggregate L2 bandwidth across the device.
    l2_bandwidth: float = 2.5e12
    #: Per-SM shared-memory bandwidth (128 bytes/cycle on Volta). On Volta
    #: the L1 cache shares this data path, so L1 hits are charged here too.
    shared_bandwidth_per_sm: float = 128 * 1.53e9
    shared_mem_per_sm: int = 96 * 1024
    #: Unified L1/shared storage per SM; carving out shared memory shrinks
    #: the L1 (the paper's Section VI-A trade-off).
    l1_capacity_per_sm: int = 128 * 1024
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 32
    registers_per_sm: int = 65536
    max_threads_per_block: int = 1024
    #: CUDA allocation guarantee: every cudaMalloc is at least 256B aligned.
    allocation_alignment: int = 256
    #: Memory transaction granularity (one L2 sector).
    sector_bytes: int = 32
    #: Warp instructions issued per SM per cycle (4 schedulers on Volta).
    issue_width: int = 4
    #: Resident warps per SM needed to hide DRAM latency / reach peak BW.
    warps_to_saturate: int = 16
    #: Fraction of vendor-peak DRAM bandwidth achievable by tuned kernels.
    dram_efficiency: float = 0.82
    #: Fixed cost to launch a kernel (driver + grid setup), in seconds.
    launch_overhead_s: float = 2.0e-6
    #: Number of SMs addressed round-robin by the first scheduling wave
    #: before wrapping to the second block per SM (Volta: 40 TPCs x 2).
    scheduler_row_width: int = field(default=0)

    def __post_init__(self) -> None:
        if self.scheduler_row_width == 0:
            object.__setattr__(self, "scheduler_row_width", self.num_sms // 2)

    @property
    def fma_per_sm_per_cycle(self) -> float:
        """FP32 FMA lanes per SM per cycle implied by the peak rating."""
        return self.fp32_peak_flops / (2.0 * self.num_sms * self.core_clock_hz)

    @property
    def effective_dram_bandwidth(self) -> float:
        """DRAM bandwidth achievable by a well-tuned streaming kernel."""
        return self.dram_bandwidth * self.dram_efficiency

    def peak_fraction(self, flops: float, seconds: float) -> float:
        """Fraction of single-precision peak achieved by ``flops`` in ``seconds``."""
        if seconds <= 0.0:
            return 0.0
        return flops / seconds / self.fp32_peak_flops


#: Nvidia Tesla V100-SXM2-16GB — the paper's primary benchmarking device.
V100 = DeviceSpec(
    name="Tesla V100-SXM2-16GB",
    num_sms=80,
    core_clock_hz=1.53e9,
    fp32_peak_flops=15.7e12,
    dram_bandwidth=900e9,
    dram_capacity=16 * 1024**3,
    l2_capacity=6 * 1024**2,
)

#: Nvidia GeForce GTX 1080 — used in Table III to show the sparse Transformer
#: fits where the dense model runs out of memory.
GTX1080 = DeviceSpec(
    name="GeForce GTX 1080",
    num_sms=20,
    core_clock_hz=1.73e9,
    fp32_peak_flops=8.87e12,
    dram_bandwidth=320e9,
    dram_capacity=8 * 1024**3,
    l2_capacity=2 * 1024**2,
    l2_bandwidth=1.0e12,
    shared_bandwidth_per_sm=128 * 1.73e9,
    shared_mem_per_sm=96 * 1024,
    max_blocks_per_sm=32,
    warps_to_saturate=16,
    scheduler_row_width=20,
)


def get_device(name: str) -> DeviceSpec:
    """Look up a device preset by its ``name`` or a (case-insensitive)
    short name."""
    table = {"v100": V100, "gtx1080": GTX1080, "1080": GTX1080}
    for spec in (V100, GTX1080):
        if name == spec.name:
            return spec
    try:
        return table[name.lower().replace(" ", "").replace("-", "")]
    except KeyError as exc:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(table)}"
        ) from exc
