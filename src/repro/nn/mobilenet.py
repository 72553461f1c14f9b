"""Sparse MobileNetV1 (Section VII-D, Table IV, Figure 12).

MobileNetV1 alternates depthwise 3x3 and pointwise 1x1 convolutions, each
followed by batch norm and ReLU; a width multiplier scales every channel
count. Following the paper's setup:

- the 1x1 convolutions (the vast majority of FLOPs) are magnitude-pruned to
  90 % sparsity and run through the Sputnik SpMM as CHW GEMMs;
- the first (full 3x3) convolution stays dense — the paper found it
  bandwidth-bound by the activations;
- batch norm is fused into the preceding convolution at inference time;
  bias+ReLU is fused into the sparse 1x1s, while the dense baseline runs
  cuBLAS followed by the fused bias+ReLU kernel;
- inference uses batch size 1, as in online-inference deployments;
- an oracle kernel selector can replace the heuristic for the 1x1s
  (Section VII-D1 uses it on four layers).

Top-1 accuracies are paper-reference constants (Table IV) — training
ImageNet is out of scope (DESIGN.md Section 2); runtimes are simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ops
from ..core.selection import pad_batch_for_vectors
from ..gpu.device import DeviceSpec
from ..sparse.csr import CSRMatrix
from .activation import bias_relu
from .batchnorm import BatchNorm, fuse_into_dense, fuse_into_depthwise, fuse_into_sparse
from .conv import depthwise_conv, im2col
from .profile import Profile
from .pruning import prune_to_csr

#: (stride, output channels) of the 13 depthwise-separable blocks.
BLOCKS = [
    (1, 64),
    (2, 128),
    (1, 128),
    (2, 256),
    (1, 256),
    (2, 512),
    (1, 512),
    (1, 512),
    (1, 512),
    (1, 512),
    (1, 512),
    (2, 1024),
    (1, 1024),
]
FIRST_CONV_CHANNELS = 32
NUM_CLASSES = 1000
INPUT_SIZE = 224

#: Table IV reference accuracies (ImageNet top-1), keyed by (variant, width).
REFERENCE_ACCURACY = {
    ("dense", 1.0): 0.727,
    ("dense", 1.2): 0.738,
    ("dense", 1.4): 0.748,
    ("sparse", 1.3): 0.729,
    ("sparse", 1.4): 0.733,
    ("sparse", 1.5): 0.738,
    ("sparse", 1.6): 0.741,
    ("sparse", 1.7): 0.744,
    ("sparse", 1.8): 0.749,
}


def scaled_channels(base: int, width: float) -> int:
    """Apply the width multiplier, rounding to a multiple of 8 (min 8)."""
    if width <= 0:
        raise ValueError("width multiplier must be positive")
    return max(8, int(round(base * width / 8)) * 8)


def reference_accuracy(variant: str, width: float) -> float:
    """Table IV accuracy, linearly interpolated between measured widths."""
    points = sorted(
        (w, acc) for (v, w), acc in REFERENCE_ACCURACY.items() if v == variant
    )
    if not points:
        raise ValueError(f"unknown variant {variant!r}")
    widths = np.array([p[0] for p in points])
    accs = np.array([p[1] for p in points])
    return float(np.interp(width, widths, accs))


class MobileNetV1:
    """A runnable MobileNetV1 with random (BN-fused) weights.

    Weights are random because the benchmark measures kernels, not ImageNet
    accuracy; shapes, sparsity, and kernel sequence match the paper's setup.
    """

    def __init__(
        self,
        width: float = 1.0,
        sparse: bool = False,
        sparsity: float = 0.9,
        use_oracle: bool = False,
        seed: int = 0,
    ) -> None:
        self.width = width
        self.sparse = sparse
        self.sparsity = sparsity
        self.use_oracle = use_oracle
        rng = np.random.default_rng(seed)

        def bn(ch: int) -> BatchNorm:
            return BatchNorm(
                gamma=rng.uniform(0.5, 1.5, ch),
                beta=rng.uniform(-0.1, 0.1, ch),
                running_mean=rng.standard_normal(ch) * 0.1,
                running_var=rng.uniform(0.5, 1.5, ch),
            )

        c0 = scaled_channels(FIRST_CONV_CHANNELS, width)
        scale0 = np.sqrt(2.0 / (3 * 9))
        first_w = rng.standard_normal((c0, 3 * 9)).astype(np.float32) * scale0
        self.first_conv, self.first_bias = fuse_into_dense(first_w, None, bn(c0))

        self.blocks: list[dict] = []
        in_ch = c0
        for stride, base_out in BLOCKS:
            out_ch = scaled_channels(base_out, width)
            dw = rng.standard_normal((in_ch, 3, 3)).astype(np.float32) * np.sqrt(2.0 / 9)
            dw_f, dw_b = fuse_into_depthwise(dw, None, bn(in_ch))
            pw = rng.standard_normal((out_ch, in_ch)).astype(np.float32) * np.sqrt(
                2.0 / in_ch
            )
            block: dict = {"stride": stride, "dw": dw_f, "dw_bias": dw_b}
            if sparse:
                pruned = prune_to_csr(pw, sparsity)
                fused_w, fused_b = fuse_into_sparse(pruned, None, bn(out_ch))
                block["pw_sparse"] = fused_w
                block["pw_bias"] = fused_b
            else:
                fused_w, fused_b = fuse_into_dense(pw, None, bn(out_ch))
                block["pw_dense"] = fused_w
                block["pw_bias"] = fused_b
            self.blocks.append(block)
            in_ch = out_ch
        fc_scale = np.sqrt(1.0 / in_ch)
        self.fc = (
            rng.standard_normal((NUM_CLASSES, in_ch)) * fc_scale
        ).astype(np.float32)

    # ------------------------------------------------------------------
    def weight_bytes(self) -> int:
        total = self.first_conv.nbytes + self.fc.nbytes
        for b in self.blocks:
            total += b["dw"].nbytes + b["pw_bias"].nbytes
            if "pw_sparse" in b:
                total += b["pw_sparse"].memory_bytes()
            else:
                total += b["pw_dense"].nbytes
        return total

    def _pointwise(
        self,
        weight: CSRMatrix | np.ndarray,
        bias: np.ndarray,
        x_stack: np.ndarray,
        device: DeviceSpec,
        profile: Profile | None,
    ) -> np.ndarray:
        """Pointwise 1x1 conv over a ``(B, C, spatial)`` activation stack.

        The sparse path dispatches the whole batch as ONE stacked
        :func:`~repro.ops.spmm` call — the weight topology (and
        values) are shared, so one plan and one z-scaled launch cover all
        ``B`` spatial GEMMs. The dense path folds the batch into a single
        wide cuBLAS GEMM.
        """
        batch, _, spatial = x_stack.shape
        if isinstance(weight, CSRMatrix):
            # Vector memory instructions need N % 4 == 0 (Section VII-A1);
            # spatial sizes are padded like the paper's benchmarks. Every
            # slab shares the spatial size, so pad the stack in one shot.
            pad = pad_batch_for_vectors(x_stack[0]).shape[1] - spatial
            b_stack = np.ascontiguousarray(
                np.pad(x_stack.astype(np.float32), ((0, 0), (0, 0), (0, pad)))
            )
            # The oracle selection (Section VII-D1) is cached per weight
            # topology by the execution context.
            selector = "oracle" if self.use_oracle else "heuristic"
            result = ops.spmm(weight, b_stack, device, selector=selector)
            if profile is not None:
                profile.add(result.execution)
            out = result.output[:, :, :spatial]
            # Bias + ReLU fused into the sparse kernel's epilogue.
            return np.maximum(out + bias[None, :, None], 0)
        wide = np.ascontiguousarray(
            x_stack.astype(np.float32).transpose(1, 0, 2).reshape(
                x_stack.shape[1], batch * spatial
            )
        )
        result = ops.matmul(weight, wide, device)
        if profile is not None:
            profile.add(result.execution)
        out, epilogue = bias_relu(result.output, bias, device)
        if profile is not None:
            profile.add(epilogue)
        return np.ascontiguousarray(
            out.reshape(-1, batch, spatial).transpose(1, 0, 2)
        )

    def forward(
        self,
        images: np.ndarray,
        device: DeviceSpec,
        profile: Profile | None = None,
    ) -> np.ndarray:
        """Inference on one ``(3, 224, 224)`` CHW image or a
        ``(B, 3, 224, 224)`` batch; returns ``(classes,)`` or
        ``(B, classes)``.

        The sparse 1x1 convolutions — the vast majority of the FLOPs —
        run as stacked SpMMs across the batch (one launch per layer for
        the whole batch); the first conv and the dense pointwise path fold
        into single wide GEMMs. One image is a batch of one.
        """
        images = np.asarray(images, dtype=np.float32)
        stack = images if images.ndim == 4 else images[None]
        if stack.ndim != 4 or stack.shape[1:] != (3, INPUT_SIZE, INPUT_SIZE):
            raise ValueError(
                f"expected (3, {INPUT_SIZE}, {INPUT_SIZE}) or "
                f"(B, 3, {INPUT_SIZE}, {INPUT_SIZE}), got {images.shape}"
            )
        batch = stack.shape[0]
        if profile is not None:
            profile.add_weights(self.weight_bytes())

        # First conv: one wide GEMM over the horizontally-stacked patches.
        cols = np.concatenate(
            [im2col(img, kernel=3, stride=2, padding=1) for img in stack],
            axis=1,
        )
        r = ops.matmul(self.first_conv, cols, device)
        if profile is not None:
            profile.add(r.execution)
        x2d, epilogue = bias_relu(r.output, self.first_bias, device)
        if profile is not None:
            profile.add(epilogue)
        side = INPUT_SIZE // 2
        x = np.ascontiguousarray(
            x2d.reshape(-1, batch, side, side).transpose(1, 0, 2, 3)
        )

        for block in self.blocks:
            # Depthwise 3x3 stays per-image (bandwidth-bound, dense).
            x = np.stack([
                depthwise_conv(
                    xi, block["dw"], block["dw_bias"], device,
                    stride=block["stride"], profile=profile,
                )
                for xi in x
            ])
            weight = block.get("pw_sparse", block.get("pw_dense"))
            x_stack = self._pointwise(
                weight, block["pw_bias"], x.reshape(batch, x.shape[1], -1),
                device, profile,
            )
            x = x_stack.reshape(batch, x_stack.shape[1], *x.shape[2:])

        pooled = x.mean(axis=(2, 3))
        logits = ops.matmul(self.fc, pooled.T, device)
        if profile is not None:
            profile.add(logits.execution)
        return logits.output.T if images.ndim == 4 else logits.output[:, 0]


@dataclass
class MobileNetReport:
    """One row of Table IV."""

    variant: str
    width: float
    accuracy: float
    runtime_s: float

    @property
    def throughput_fps(self) -> float:
        return 1.0 / self.runtime_s if self.runtime_s > 0 else 0.0


def benchmark(
    width: float,
    sparse: bool,
    device: DeviceSpec,
    use_oracle: bool = True,
    seed: int = 0,
) -> MobileNetReport:
    """Produce one Table IV row: batch-1 inference on random input."""
    model = MobileNetV1(
        width=width, sparse=sparse, use_oracle=use_oracle and sparse, seed=seed
    )
    profile = Profile()
    rng = np.random.default_rng(seed + 1)
    image = rng.standard_normal((3, INPUT_SIZE, INPUT_SIZE)).astype(np.float32)
    model.forward(image, device, profile)
    variant = "sparse" if sparse else "dense"
    return MobileNetReport(
        variant=variant,
        width=width,
        accuracy=reference_accuracy(variant, width),
        runtime_s=profile.runtime_s,
    )
