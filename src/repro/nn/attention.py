"""Multi-head attention: dense and sparse (Section VII-C).

Dense attention computes ``Softmax(Q K^T / sqrt(dk)) V`` with cuBLAS
matmuls; memory and compute grow quadratically with sequence length. Sparse
attention computes only a subset of ``Q K^T`` — an SDDMM against the fixed
connectivity mask — followed by a sparse softmax and an SpMM against ``V``.

Both take one head ``(seq, dk)`` or a stack of heads ``(H, seq, dk)`` and,
like the ops they call, read the stack depth from the operands' rank. All
heads share one mask (Section VII-C1), so a stack costs one launch per
kernel stage for all heads.

Numerics run at any size; the Table III benchmark uses the cost-only
entry points (:func:`dense_attention_cost`, :func:`sparse_attention_cost`)
so a 12,288-token forward pass does not require terabytes of numpy work.
"""

from __future__ import annotations

import functools

import numpy as np

from .. import ops
from ..core.config import SddmmConfig
from ..gpu.device import DeviceSpec
from ..sparse.csr import CSRMatrix
from .profile import Profile


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable dense softmax (reference)."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def dense_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    device: DeviceSpec,
    profile: Profile | None = None,
    causal: bool = True,
    *,
    context: ops.ExecutionContext | None = None,
) -> np.ndarray:
    """Dense attention with numerics and simulated cost.

    ``q``/``k``/``v`` are ``(seq, dk)`` or ``(H, seq, dk)`` stacks; returns
    the shape of ``q``. A stack goes down as strided-batched cuBLAS GEMMs,
    one launch per matmul stage for all heads, costed in ``context``
    (default: the device's).
    """
    q, k, v = (np.asarray(t, np.float32) for t in (q, k, v))
    if q.ndim not in (2, 3):
        raise ValueError(f"expected (seq, dk) or (H, seq, dk), got {q.shape}")
    h = q.shape[0] if q.ndim == 3 else 1
    seq, dk = q.shape[-2:]
    scores = ops.matmul_cost(h * seq, seq, dk, device, context=context)
    k_t = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    logits = (q @ k_t) / np.sqrt(dk)
    if causal:
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        logits = np.where(mask, -np.inf, logits)
    probs = softmax(logits, axis=-1)
    out = ops.matmul_cost(h * seq, dk, seq, device, context=context)
    if profile is not None:
        from .activation import elementwise_execution

        profile.add(scores)
        # Dense softmax: bandwidth-bound passes over the seq x seq scores.
        profile.add(
            elementwise_execution(logits.size, device, "dense_softmax", reads=2)
        )
        profile.add(out)
    return (probs @ v).astype(np.float32)


def sparse_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: CSRMatrix,
    device: DeviceSpec,
    profile: Profile | None = None,
    *,
    policy=None,
    validate: bool = False,
    selector: str = "heuristic",
    reports: list | None = None,
    context: ops.ExecutionContext | None = None,
) -> np.ndarray:
    """Sparse attention: SDDMM -> sparse softmax -> SpMM.

    ``q``/``k``/``v`` are ``(seq, dk)`` or ``(H, seq, dk)`` stacks; returns
    the shape of ``q``. The mask's nonzeros define which query/key
    similarities are computed (``Q K^T ∘ I[Y]``, Section IV-B); causality
    lives in the mask itself. A stack shares the mask's topology across
    heads: the SDDMM produces the ``(nnz, H)`` score matrix, and each
    stage resolves ONE plan and costs ONE z-scaled launch. A 2-D call
    dispatches unstacked, so backends that take no stacks serve it.

    ``policy`` (a backend chain or FallbackPolicy) and ``validate`` route
    all three kernels through the reliability layer; ``selector`` picks
    the config-selection policy for the SDDMM and SpMM stages; when
    ``reports`` is a list, each kernel's DispatchReport is appended so
    callers can inspect retries/fallbacks/degraded-mode completions per
    stage. ``context`` is the execution context of all three kernels
    (default: the device's).
    """
    q, k, v = (np.asarray(t, np.float32) for t in (q, k, v))
    stacked = q.ndim == 3
    kwargs = {
        "backend": policy if policy is not None else "sputnik",
        "validate": validate,
        "context": context,
    }
    scores = ops.sddmm(q, k, mask, device, selector=selector, **kwargs)
    # A stack's per-head values ride on the mask's topology; one head's
    # ride on its CSR result.
    a, values = (mask, scores.output) if stacked else (scores.output, None)
    probs = ops.sparse_softmax(
        a, device, scale=1.0 / np.sqrt(q.shape[-1]), values=values, **kwargs
    )
    a, values = (
        (mask, np.ascontiguousarray(probs.output.T))
        if stacked
        else (probs.output, None)
    )
    out = ops.spmm(a, v, device, selector=selector, values=values, **kwargs)
    if reports is not None:
        reports.extend(
            r.reliability
            for r in (scores, probs, out)
            if r.reliability is not None
        )
    if profile is not None:
        profile.add(scores.execution)
        profile.add(probs.execution)
        profile.add(out.execution)
    return out.output


# Former name of the stacked form, kept because benchmarks/e2e/layers.py
# names it. A ``functools.partial`` is an object of its own, so wrapping
# functions by identity wraps it apart from :func:`sparse_attention`.
sparse_attention_batched = functools.partial(sparse_attention)


def dense_attention_cost(
    seq: int, dk: int, n_instances: int, context: ops.ExecutionContext,
    profile: Profile,
) -> None:
    """Cost-only dense attention for ``n_instances`` (batch x head) passes,
    costed in ``context``."""
    from .activation import elementwise_execution

    qk = ops.matmul_cost(seq, seq, dk, context=context)
    sm = elementwise_execution(
        seq * seq, context.device, "dense_softmax", reads=2
    )
    av = ops.matmul_cost(seq, dk, seq, context=context)
    for part in (qk, sm, av):
        scaled = part.add_overhead(0.0)
        scaled.runtime_s *= n_instances
        scaled.flops *= n_instances
        profile.add(scaled)


def sparse_attention_cost(
    mask: CSRMatrix, dk: int, n_instances: int,
    context: ops.ExecutionContext, profile: Profile,
) -> None:
    """Cost-only sparse attention for ``n_instances`` (batch x head) passes,
    costed in ``context``.

    The mask is shared across heads and layers (Section VII-C1), so one
    launch is costed and scaled.
    """
    sddmm_cfg = SddmmConfig(vector_width=4 if dk % 4 == 0 else 1)
    sddmm_r = ops.sddmm_cost(mask, dk, config=sddmm_cfg, context=context)
    sm_r = ops.sparse_softmax_cost(mask, context=context)
    spmm_r = ops.spmm_cost(mask, dk, context=context)
    for part in (sddmm_r, sm_r, spmm_r):
        scaled = part.add_overhead(0.0)
        scaled.runtime_s *= n_instances
        scaled.flops *= n_instances
        profile.add(scaled)
