"""Interconnect cost model: NVLink/PCIe-class links between simulated GPUs.

Single-device execution charges every byte to the HBM roofline; past one
device the binding constraint shifts to the links *between* devices
("At-Scale Sparse Deep Neural Network Inference", PAPERS.md). This module
prices the three collectives sharded SpMM/SDDMM execution needs —
all-gather, reduce-scatter, all-reduce — on the simulated clock, using the
standard ring-algorithm cost model (the same shape NCCL's rings follow):

- a ring collective over ``k`` devices moves ``(k - 1)`` chunks of
  ``nbytes / k`` through each device's link budget, paying the link
  latency once per step;
- an all-reduce is a reduce-scatter followed by an all-gather, i.e. twice
  the volume of either.

Topology matters only through contention: on a switched point-to-point
fabric (``"ring"``: NVLink) every device drives its full link budget
concurrently, while on a shared bus (``"shared"``: PCIe through one host
bridge) all ``k`` devices split the same pipe, so per-device bandwidth is
divided by the participant count.

``k == 1`` is exactly free — zero seconds, zero steps — so single-device
sharded dispatch stays bit-identical in cost to the unsharded path.
"""

from __future__ import annotations

from dataclasses import dataclass

TOPOLOGIES = ("ring", "shared")


@dataclass(frozen=True)
class InterconnectSpec:
    """One class of device-to-device fabric.

    ``link_bandwidth`` is bytes/s per link per direction; a device's total
    egress budget is ``link_bandwidth * links_per_device``. ``kind`` is the
    short label used for telemetry/backend attribution ("nvlink", "pcie").
    """

    name: str
    kind: str
    link_bandwidth: float
    links_per_device: int = 1
    link_latency_s: float = 2.0e-6
    topology: str = "ring"

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; expected one of "
                f"{TOPOLOGIES}"
            )
        if self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self.links_per_device < 1:
            raise ValueError("links_per_device must be >= 1")

    @property
    def device_bandwidth(self) -> float:
        """Total per-device egress bandwidth in bytes/s."""
        return self.link_bandwidth * self.links_per_device

    def effective_bandwidth(self, k: int) -> float:
        """Per-device bandwidth available during a k-way collective."""
        if self.topology == "shared" and k > 1:
            return self.device_bandwidth / k
        return self.device_bandwidth


#: V100-class NVLink 2.0: six 25 GB/s links per device, switched fabric.
NVLINK2 = InterconnectSpec(
    name="NVLink 2.0 (6x25GB/s)",
    kind="nvlink",
    link_bandwidth=25e9,
    links_per_device=6,
    link_latency_s=2.0e-6,
    topology="ring",
)

#: PCIe 3.0 x16 through one host bridge: every device shares the pipe.
PCIE3 = InterconnectSpec(
    name="PCIe 3.0 x16 (shared bridge)",
    kind="pcie",
    link_bandwidth=16e9,
    links_per_device=1,
    link_latency_s=5.0e-6,
    topology="shared",
)

INTERCONNECTS = {"nvlink": NVLINK2, "pcie": PCIE3}


def get_interconnect(name: str | InterconnectSpec) -> InterconnectSpec:
    """Resolve an interconnect by kind string (or pass a spec through)."""
    if isinstance(name, InterconnectSpec):
        return name
    try:
        return INTERCONNECTS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown interconnect {name!r}; expected one of "
            f"{sorted(INTERCONNECTS)}"
        ) from None


@dataclass(frozen=True)
class CollectiveCost:
    """One priced collective: what moved, over how many devices, how long."""

    op: str
    nbytes: int
    k: int
    seconds: float
    steps: int


def _ring_cost(
    op: str, spec: InterconnectSpec, nbytes: int, k: int, passes: int
) -> CollectiveCost:
    """``passes`` rounds of (k-1) ring steps, each moving nbytes/k."""
    if k < 1:
        raise ValueError("collective needs at least one device")
    if nbytes < 0:
        raise ValueError("collective payload must be non-negative")
    if k == 1 or nbytes == 0:
        # A one-device "collective" is a no-op: the data is already where
        # it needs to be, and no link traffic may be charged.
        return CollectiveCost(op=op, nbytes=int(nbytes), k=k, seconds=0.0, steps=0)
    steps = passes * (k - 1)
    chunk = nbytes / k
    bandwidth = spec.effective_bandwidth(k)
    seconds = steps * (chunk / bandwidth + spec.link_latency_s)
    return CollectiveCost(
        op=op, nbytes=int(nbytes), k=k, seconds=seconds, steps=steps
    )


def all_gather(spec: InterconnectSpec, nbytes: int, k: int) -> CollectiveCost:
    """Every device ends with the full ``nbytes`` payload (each contributed
    ``nbytes / k``): one ring pass."""
    return _ring_cost("all_gather", spec, nbytes, k, passes=1)


def reduce_scatter(
    spec: InterconnectSpec, nbytes: int, k: int
) -> CollectiveCost:
    """Element-wise reduction of ``nbytes`` per device, each device keeping
    its ``nbytes / k`` shard: one ring pass."""
    return _ring_cost("reduce_scatter", spec, nbytes, k, passes=1)


def all_reduce(spec: InterconnectSpec, nbytes: int, k: int) -> CollectiveCost:
    """Every device ends with the full reduced ``nbytes``: reduce-scatter
    then all-gather, i.e. two ring passes."""
    return _ring_cost("all_reduce", spec, nbytes, k, passes=2)


def broadcast(spec: InterconnectSpec, nbytes: int, k: int) -> CollectiveCost:
    """Pipelined ring broadcast of ``nbytes`` from one root to all."""
    if k <= 1 or nbytes == 0:
        return CollectiveCost(
            op="broadcast", nbytes=int(nbytes), k=k, seconds=0.0, steps=0
        )
    bandwidth = spec.effective_bandwidth(k)
    seconds = nbytes / bandwidth + (k - 1) * spec.link_latency_s
    return CollectiveCost(
        op="broadcast", nbytes=int(nbytes), k=k, seconds=seconds, steps=k - 1
    )
