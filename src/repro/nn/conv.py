"""Convolutions for the MobileNetV1 and ResNet benchmarks.

The paper computes 1x1 convolutions as matrix multiplication over CHW data
(Section VII-D) and benchmarks ResNet's other convolutions "as an im2col
transform on the input data followed by SpMM" (Section VII-A1). Depthwise
convolutions get dedicated bandwidth-bound kernels with fused bias/ReLU.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec
from ..gpu.executor import BlockCosts, ExecutionResult, KernelLaunch, execute
from ..gpu.occupancy import BlockResources
from .profile import Profile


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold ``(C, H, W)`` input into ``(C * k * k, out_h * out_w)`` patches.

    The output's columns enumerate output pixels row-major, so a GEMM with a
    ``(C_out, C*k*k)`` filter matrix yields CHW output directly.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError("im2col expects a (C, H, W) tensor")
    c, h, w = x.shape
    if padding:
        x = np.pad(x, [(0, 0), (padding, padding), (padding, padding)])
        h, w = h + 2 * padding, w + 2 * padding
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError("kernel larger than padded input")
    # Strided sliding-window view, then reshape (no data copies until the
    # final ascontiguousarray).
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * kernel * kernel, out_h * out_w)
    return np.ascontiguousarray(cols)


def depthwise_conv_execution(
    channels: int, out_pixels: int, kernel: int, device: DeviceSpec
) -> ExecutionResult:
    """The paper's depthwise-convolution kernel with fused bias + ReLU.

    One output per lane; each output reads a k x k window per channel —
    bandwidth-bound with good L1 reuse across overlapping windows.
    """
    n_out = channels * out_pixels
    per_block = 256 * 8
    blocks = max(1, -(-n_out // per_block))
    taps = kernel * kernel
    launch = KernelLaunch(
        name="depthwise_conv_fused",
        n_blocks=blocks,
        resources=BlockResources(threads=256, registers_per_thread=32),
        costs=BlockCosts(
            fma_instructions=per_block * taps / 32,
            other_instructions=per_block * (taps / 4 + 2) / 32,
            # Overlapping windows: each input element is read ~1x from DRAM
            # and re-used through L1 for the remaining taps.
            dram_bytes=per_block * 4.0 * 2.0,
            l1_bytes=per_block * 4.0 * (taps - 1),
        ),
        flops=2.0 * n_out * taps,
        pipeline_efficiency=0.7,
    )
    return execute(launch, device)


def depthwise_conv(
    x: np.ndarray,
    filters: np.ndarray,
    bias: np.ndarray,
    device: DeviceSpec,
    stride: int = 1,
    profile: Profile | None = None,
) -> np.ndarray:
    """Depthwise 3x3 convolution with fused bias + ReLU (numerics + cost).

    ``x`` is ``(C, H, W)``; ``filters`` is ``(C, k, k)``; same padding.
    """
    x = np.asarray(x, dtype=np.float32)
    filters = np.asarray(filters, dtype=np.float32)
    c, h, w = x.shape
    if filters.shape[0] != c or filters.shape[1] != filters.shape[2]:
        raise ValueError("filters must be (C, k, k)")
    k = filters.shape[1]
    pad = k // 2
    out = np.empty((c, -(-h // stride), -(-w // stride)), dtype=np.float32)
    xp = np.pad(x, [(0, 0), (pad, pad), (pad, pad)])
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    out = np.einsum("chwij,cij->chw", windows, filters, dtype=np.float32)
    out = np.maximum(out + np.asarray(bias, np.float32)[:, None, None], 0)
    if profile is not None:
        profile.add(
            depthwise_conv_execution(c, out.shape[1] * out.shape[2], k, device)
        )
    return out.astype(np.float32)

