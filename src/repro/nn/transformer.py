"""The sparse Transformer of Section VII-C (Table III).

Architecture from the paper's experimental setup: 3 layers, 8 attention
heads, hidden dimension 1,024, filter size 4,096, sequence length 12,288
(ImageNet-64x64 image generation), batch size 8, single-precision forward
pass. The sparse variant uses the fixed banded+random attention mask of
Figure 11, shared by all heads and layers.

Model quality (bits per dimension) is carried as a paper-reference constant
— training ImageNet-64x64 for 140k steps is out of scope for a CPU
reproduction (DESIGN.md Section 2); runtime and memory are measured on the
simulator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .. import ops
from ..datasets.attention import banded_random_mask
from ..gpu.allocator import DeviceAllocator
from ..gpu.device import DeviceSpec
from ..reliability.errors import DeviceOOMError
from ..sparse.csr import CSRMatrix
from .attention import dense_attention_cost, sparse_attention_cost
from .profile import Profile

#: Quality from Table III (bits per dimension; lower is better).
REFERENCE_BITS_PER_DIM = {"dense": 3.76, "sparse": 3.77}


@dataclass(frozen=True)
class TransformerConfig:
    """The Table III model."""

    n_layers: int = 3
    n_heads: int = 8
    d_model: int = 1024
    d_ffn: int = 4096
    sequence_length: int = 12288
    batch_size: int = 8
    attention_band: int = 256
    off_diagonal_sparsity: float = 0.95

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads:
            raise ValueError("d_model must divide evenly across heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def tokens(self) -> int:
        return self.batch_size * self.sequence_length

    def attention_mask(self, seed: int = 0) -> CSRMatrix:
        return banded_random_mask(
            self.sequence_length,
            band=self.attention_band,
            off_diagonal_sparsity=self.off_diagonal_sparsity,
            seed=seed,
        )

    def weight_bytes(self) -> int:
        per_layer = 4 * self.d_model**2 + 2 * self.d_model * self.d_ffn
        return 4 * per_layer * self.n_layers


@dataclass
class TransformerReport:
    """One row of Table III."""

    variant: str
    device_name: str
    runtime_s: float
    tokens_per_second: float
    memory_bytes: int
    fits: bool
    bits_per_dim: float

    @property
    def memory_gb(self) -> float:
        return self.memory_bytes / 1024**3


def _projection_costs(
    config: TransformerConfig, context: ops.ExecutionContext, profile: Profile
) -> None:
    """QKV/output projections and the FFN for one layer (cuBLAS GEMMs)."""
    t, d, f = config.tokens, config.d_model, config.d_ffn
    for _ in range(4):  # q, k, v, output projections
        profile.add(ops.matmul_cost(t, d, d, context=context))
    profile.add(ops.matmul_cost(t, f, d, context=context))
    profile.add(ops.matmul_cost(t, d, f, context=context))


@functools.lru_cache(maxsize=None)
def _cost_context(device: DeviceSpec) -> ops.ExecutionContext:
    """The context of a cost pass, one per device so repeated passes reuse
    its plan cache. It keeps no HBM ledger: the pass is cost-model
    bookkeeping, and :func:`benchmark` decides the memory columns at the
    device's capacity, so a harness ``REPRO_HBM_CAP`` cannot abort it."""
    return ops.ExecutionContext(device, memory=False)


def profile_dense(config: TransformerConfig, device: DeviceSpec) -> Profile:
    """Cost-only forward pass of the dense Transformer."""
    profile = Profile()
    profile.add_weights(config.weight_bytes())
    seq, dk = config.sequence_length, config.head_dim
    instances = config.batch_size * config.n_heads
    context = _cost_context(device)
    for _ in range(config.n_layers):
        _projection_costs(config, context, profile)
        dense_attention_cost(seq, dk, instances, context, profile)
    return profile


def _dense_activations(config: TransformerConfig) -> tuple[int, ...]:
    """Live activation bytes of the dense pass, in allocation order.

    The residual stream plus the per-batch-item attention working set: the
    dense implementation keeps all heads' seq x seq scores live for one
    batch item, and the dense softmax materializes a separate probability
    buffer (it cannot run in place while the mask-and-shift needs the
    original logits).
    """
    seq = config.sequence_length
    return (
        config.tokens * config.d_model * 4,
        2 * config.n_heads * seq * seq * 4,
    )


def profile_sparse(
    config: TransformerConfig,
    device: DeviceSpec,
    mask: CSRMatrix | None = None,
) -> Profile:
    """Cost-only forward pass of the sparse Transformer."""
    profile = Profile()
    profile.add_weights(config.weight_bytes())
    if mask is None:
        mask = config.attention_mask()
    if mask.shape != (config.sequence_length, config.sequence_length):
        raise ValueError("mask must be seq x seq")
    instances = config.batch_size * config.n_heads
    context = _cost_context(device)
    for _ in range(config.n_layers):
        _projection_costs(config, context, profile)
        sparse_attention_cost(
            mask, config.head_dim, instances, context, profile
        )
    return profile


def _sparse_activations(
    config: TransformerConfig, mask: CSRMatrix
) -> tuple[int, ...]:
    """Live activation bytes of the sparse pass, in allocation order.

    Sparse scores share the mask's topology (indices stored once for all
    heads) and the sparse softmax runs in place on the CSR values, so the
    working set is one value buffer per head plus the shared indices —
    the source of Table III's 12.8x memory saving.
    """
    return (
        config.tokens * config.d_model * 4,
        config.n_heads * mask.nnz * 4,
        mask.nnz * mask.index_bytes + 8 * (mask.n_rows + 1),
    )


def benchmark(
    config: TransformerConfig,
    device: DeviceSpec,
    variant: str,
    mask: CSRMatrix | None = None,
) -> TransformerReport:
    """Produce one Table III row (throughput, memory, OOM status).

    The weights and then each activation are allocated on one
    :class:`~repro.gpu.allocator.DeviceAllocator` at the device's DRAM
    capacity; an OOM there is the verdict. When the pass fits,
    ``memory_bytes`` is the allocator's peak *reserved* high-water mark
    (alignment and segment rounding included); when it does not, the raw
    byte demand is reported instead — the allocator stops at the failing
    allocation, so its peak understates the model's true footprint.
    """
    if variant == "dense":
        profile = profile_dense(config, device)
        activations = _dense_activations(config)
    elif variant == "sparse":
        if mask is None:
            mask = config.attention_mask()
        profile = profile_sparse(config, device, mask)
        activations = _sparse_activations(config, mask)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    allocator = DeviceAllocator(device, capacity=device.dram_capacity)
    try:
        allocator.allocate(profile.weight_bytes, tag="weights")
        for nbytes in activations:
            allocator.allocate(nbytes, tag="activation")
        fits = True
    except DeviceOOMError:
        fits = False
    runtime = profile.runtime_s
    return TransformerReport(
        variant=variant,
        device_name=device.name,
        runtime_s=runtime,
        tokens_per_second=config.tokens / runtime if fits else 0.0,
        memory_bytes=(
            int(allocator.peak_reserved_bytes)
            if fits
            else profile.weight_bytes + sum(activations)
        ),
        fits=fits,
        bits_per_dim=REFERENCE_BITS_PER_DIM[variant],
    )
