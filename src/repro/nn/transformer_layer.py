"""A numerically-executable Transformer layer with sparse or dense attention.

The Table III benchmark costs the full-size model analytically
(:mod:`repro.nn.transformer`); this module is the runnable counterpart for
realistic-but-smaller sizes: multi-head attention (dense causal or masked
sparse), residual connections, layer norm, and the two-matmul FFN — every
matrix multiply routed through the simulated kernels and profiled.

One layer body runs over a tuple of execution contexts, one per device
(Megatron-style tensor parallelism): attention heads and FFN hidden units
split across them — column-parallel first projections, row-parallel
second projections. :meth:`TransformerLayer.forward` is the one-device
case on the device's default context, with all heads in one stacked
attention. :meth:`TransformerLayer.forward_sharded` runs the body across
a :class:`~repro.dist.DeviceGroup` and adds the two all-reduces per layer,
priced on the group's interconnect. The complementary *data*-parallel axis
(replicas over independent problems) is the sweep runner's ``devices=``
dimension.
"""

from __future__ import annotations

import numpy as np

from .. import ops
from ..gpu.device import DeviceSpec
from ..sparse.csr import CSRMatrix
from .attention import dense_attention, sparse_attention
from .profile import Profile


def layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Per-token layer normalization over the feature axis (axis 1)."""
    x = np.asarray(x, dtype=np.float32)
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


class TransformerLayer:
    """One pre-norm Transformer layer: attention + FFN with residuals.

    Args:
        d_model: model width.
        n_heads: attention heads (must divide ``d_model``).
        d_ffn: hidden width of the feed-forward network.
        attention_mask: a CSR connectivity mask for sparse attention, or
            ``None`` for dense causal attention.
        seed: weight initialization seed.
        selector: config-selection policy for the sparse attention
            kernels (``"heuristic"``, ``"oracle"``, ``"tuned"``, or a
            :class:`~repro.tune.Selector` instance).
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        d_ffn: int,
        attention_mask: CSRMatrix | None = None,
        seed: int = 0,
        selector: str = "heuristic",
    ) -> None:
        if d_model % n_heads:
            raise ValueError("d_model must divide evenly across heads")
        self.d_model = d_model
        self.n_heads = n_heads
        self.head_dim = d_model // n_heads
        self.mask = attention_mask
        self.selector = selector
        rng = np.random.default_rng(seed)

        def init(rows: int, cols: int) -> np.ndarray:
            return (rng.standard_normal((rows, cols)) / np.sqrt(cols)).astype(
                np.float32
            )

        self.w_q = init(d_model, d_model)
        self.w_k = init(d_model, d_model)
        self.w_v = init(d_model, d_model)
        self.w_o = init(d_model, d_model)
        self.w_ffn_in = init(d_ffn, d_model)
        self.w_ffn_out = init(d_model, d_ffn)
        self.d_ffn = d_ffn
        #: Filled by :meth:`forward_sharded`: the last call's model-parallel
        #: timing breakdown (per-stage max compute, comm, bound fraction).
        self.last_shard_report: dict | None = None

    def _forward(
        self,
        x: np.ndarray,
        contexts,
        profile: Profile | None,
        all_reduce=None,
    ) -> tuple[np.ndarray, list[float], list[float]]:
        """The layer body over ``k = len(contexts)`` devices.

        Device ``d`` owns heads ``[d·H/k, (d+1)·H/k)`` — a column-parallel
        slice of the QKV projections plus one stacked attention over those
        heads — and ``d_ffn/k`` FFN hidden units. The output projections
        are row-parallel: each device contributes a partial
        ``(seq, d_model)`` sum, and ``all_reduce`` (if given) is called
        once after each of the two sums. Returns the output and the
        simulated seconds each device spent in the attention and in the
        FFN stage.
        """
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.d_model:
            raise ValueError(f"expected (seq, {self.d_model}), got {x.shape}")
        if self.mask is not None and self.mask.n_rows != x.shape[0]:
            raise ValueError("attention mask must be seq x seq")
        k = len(contexts)
        if self.n_heads % k:
            raise ValueError("n_heads must divide evenly across the group")
        if self.d_ffn % k:
            raise ValueError("d_ffn must divide evenly across the group")
        heads = self.n_heads // k
        width = heads * self.head_dim
        ffn = self.d_ffn // k
        seq = x.shape[0]
        attn_stage, ffn_stage = [0.0] * k, [0.0] * k

        def run(w, inp, ctx, stage, d):
            result = ops.matmul(w, inp.T.copy(), context=ctx)
            if profile is not None:
                profile.add(result.execution)
            stage[d] += result.execution.runtime_s
            return result.output.T

        h = layer_norm(x)
        parts = []
        for d, ctx in enumerate(contexts):
            lo, hi = d * width, (d + 1) * width
            # This device's heads as (heads, seq, hd) stacks: one plan and
            # one z-scaled launch per kernel stage for all of them
            # (Section VII-C1 batching).
            q, key, v = (
                np.ascontiguousarray(
                    run(w[lo:hi], h, ctx, attn_stage, d)
                    .reshape(seq, heads, self.head_dim)
                    .transpose(1, 0, 2)
                )
                for w in (self.w_q, self.w_k, self.w_v)
            )
            attn_profile = Profile()
            if self.mask is None:
                att = dense_attention(
                    q, key, v, ctx.device, attn_profile, context=ctx
                )
            else:
                att = sparse_attention(
                    q, key, v, self.mask, ctx.device, attn_profile,
                    selector=self.selector, context=ctx,
                )
            attn_stage[d] += attn_profile.runtime_s
            if profile is not None:
                for record in attn_profile.records:
                    profile.add(record)
            attended = np.ascontiguousarray(att.transpose(1, 0, 2)).reshape(
                seq, width
            )
            parts.append(run(self.w_o[:, lo:hi], attended, ctx, attn_stage, d))
        if all_reduce is not None:
            all_reduce()
        x = x + sum(parts[1:], parts[0])

        h = layer_norm(x)
        parts = []
        for d, ctx in enumerate(contexts):
            lo, hi = d * ffn, (d + 1) * ffn
            hidden = np.maximum(run(self.w_ffn_in[lo:hi], h, ctx, ffn_stage, d), 0)
            parts.append(run(self.w_ffn_out[:, lo:hi], hidden, ctx, ffn_stage, d))
        if all_reduce is not None:
            all_reduce()
        return x + sum(parts[1:], parts[0]), attn_stage, ffn_stage

    def forward(
        self,
        x: np.ndarray,
        device: DeviceSpec,
        profile: Profile | None = None,
    ) -> np.ndarray:
        """``x`` is ``(seq, d_model)``; returns the same shape. Runs on the
        device's default context."""
        return self._forward(x, (ops.default_context(device),), profile)[0]

    def forward_sharded(
        self,
        x: np.ndarray,
        group,
        profile: Profile | None = None,
    ) -> np.ndarray:
        """Model-parallel forward across a :class:`~repro.dist.DeviceGroup`.

        The layer body runs on the group's contexts, so the whole layer
        costs exactly two all-reduces on the group's interconnect: one
        after attention, one after the FFN. Per-head attention is
        independent, so the result matches :meth:`forward` up to
        accumulation order (``allclose``; the partial-sum reductions
        reorder float adds — bit-identical when ``group.k == 1``).

        Timing: stages run concurrently across devices, so compute counts
        as the per-stage max over devices; both all-reduces gate the
        residual adds and are fully exposed. The breakdown lands in
        :attr:`last_shard_report`. ``profile`` (if given) receives every
        per-device kernel plus both collectives — its serial ``runtime_s``
        is total *device-seconds*, not the model-parallel wall clock.
        """
        from ..dist.group import collective_execution
        from ..dist.sharded import _dist_span
        from ..gpu.interconnect import all_reduce

        k = group.k
        ar_bytes = np.asarray(x).shape[0] * self.d_model * 4
        with _dist_span(group, "transformer_layer_sharded") as span:
            collectives = []

            def reduce_partials():
                cost = all_reduce(group.interconnect, ar_bytes, k)
                group.charge_collective(cost, span)
                collectives.append(cost)

            x, attn_stage, ffn_stage = self._forward(
                x, group.contexts, profile, reduce_partials
            )
            ar1, ar2 = collectives
            if profile is not None:
                for cost in collectives:
                    if cost.steps:
                        profile.add(
                            collective_execution(cost, group.interconnect)
                        )
            comm_s = ar1.seconds + ar2.seconds
            compute_s = max(attn_stage) + max(ffn_stage)
            runtime = compute_s + comm_s
            self.last_shard_report = {
                "k": k,
                "interconnect": group.interconnect.name,
                "attention_max_compute_s": max(attn_stage),
                "ffn_max_compute_s": max(ffn_stage),
                "compute_s": compute_s,
                "device_seconds": sum(attn_stage) + sum(ffn_stage),
                "comm_s": comm_s,
                "comm_bytes": (ar1.nbytes + ar2.nbytes) if ar1.steps else 0,
                "runtime_s": runtime,
                "interconnect_bound_fraction": (
                    comm_s / runtime if runtime > 0 else 0.0
                ),
                "per_device_compute_s": [
                    a + f for a, f in zip(attn_stage, ffn_stage)
                ],
            }
            span.set(
                runtime_s=runtime,
                interconnect_bound=(
                    self.last_shard_report["interconnect_bound_fraction"]
                ),
            )
            # Per-device op spans already carry their compute; the layer
            # span adds only the comm critical path it introduces.
            span.add_sim(comm_s)
        return x


class TransformerStack:
    """A stack of layers sharing one attention mask (Section VII-C1: the
    mask 'is shared by all attention heads and layers')."""

    def __init__(
        self,
        n_layers: int,
        d_model: int,
        n_heads: int,
        d_ffn: int,
        attention_mask: CSRMatrix | None = None,
        seed: int = 0,
        selector: str = "heuristic",
    ) -> None:
        if n_layers <= 0:
            raise ValueError("need at least one layer")
        self.layers = [
            TransformerLayer(
                d_model, n_heads, d_ffn, attention_mask, seed=seed + i,
                selector=selector,
            )
            for i in range(n_layers)
        ]
        self.last_shard_report: dict | None = None

    def forward(
        self,
        x: np.ndarray,
        device: DeviceSpec,
        profile: Profile | None = None,
    ) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, device, profile)
        return x

    def forward_sharded(
        self,
        x: np.ndarray,
        group,
        profile: Profile | None = None,
    ) -> np.ndarray:
        """Model-parallel forward of the whole stack; sums the per-layer
        :attr:`TransformerLayer.last_shard_report` breakdowns into
        :attr:`last_shard_report`."""
        for layer in self.layers:
            x = layer.forward_sharded(x, group, profile)
        reports = [layer.last_shard_report for layer in self.layers]
        total = {
            key: sum(r[key] for r in reports)
            for key in (
                "compute_s", "device_seconds", "comm_s", "comm_bytes",
                "runtime_s",
            )
        }
        total["k"] = group.k
        total["interconnect"] = group.interconnect.name
        total["n_layers"] = len(self.layers)
        total["interconnect_bound_fraction"] = (
            total["comm_s"] / total["runtime_s"]
            if total["runtime_s"] > 0
            else 0.0
        )
        self.last_shard_report = total
        return x
