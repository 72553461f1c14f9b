"""Multi-head attention: dense and sparse (Section VII-C).

Dense attention computes ``Softmax(Q K^T / sqrt(dk)) V`` with cuBLAS
matmuls; memory and compute grow quadratically with sequence length. Sparse
attention computes only a subset of ``Q K^T`` — an SDDMM against the fixed
connectivity mask — followed by a sparse softmax and an SpMM against ``V``.

Numerics run at any size; the Table III benchmark uses the cost-only
entry points (:func:`dense_attention_cost`, :func:`sparse_attention_cost`)
so a 12,288-token forward pass does not require terabytes of numpy work.
"""

from __future__ import annotations

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
) -> np.ndarray:
    """Single-head dense attention with numerics and simulated cost.

    ``q``/``k``/``v`` are ``(seq, dk)``; returns ``(seq, dk)``.
    """
    q = np.asarray(q, np.float32)
    k = np.asarray(k, np.float32)
    v = np.asarray(v, np.float32)
    dk = q.shape[1]
    scores = ops.matmul(q, k.T.copy(), device)
    logits = scores.output / np.sqrt(dk)
    if causal:
        mask = np.triu(np.ones(logits.shape, dtype=bool), k=1)
        logits = np.where(mask, -np.inf, logits)
    probs = softmax(logits, axis=1)
    out = ops.matmul(probs, v, device)
    if profile is not None:
        profile.add(scores.execution)
        # Dense softmax: bandwidth-bound passes over the seq x seq scores.
        from .activation import elementwise_execution

        profile.add(
            elementwise_execution(logits.size, device, "dense_softmax", reads=2)
        )
        profile.add(out.execution)
    return out.output


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
) -> np.ndarray:
    """Single-head sparse attention: SDDMM -> sparse softmax -> SpMM.

    The mask's nonzeros define which query/key similarities are computed
    (``Q K^T ∘ I[Y]``, Section IV-B); causality lives in the mask itself.

    ``policy`` (a backend chain or FallbackPolicy) and ``validate`` route
    all three kernels through the reliability layer; ``selector`` picks
    the config-selection policy for the SDDMM and SpMM stages; when
    ``reports`` is a list, each kernel's DispatchReport is appended so
    callers can inspect retries/fallbacks/degraded-mode completions per
    stage.
    """
    q = np.asarray(q, np.float32)
    k = np.asarray(k, np.float32)
    v = np.asarray(v, np.float32)
    dk = q.shape[1]
    backend = policy if policy is not None else "sputnik"
    scores = ops.sddmm(
        q, k, mask, device, backend=backend, selector=selector,
        validate=validate,
    )
    probs = ops.sparse_softmax(
        scores.output, device, scale=1.0 / np.sqrt(dk),
        backend=backend, validate=validate,
    )
    out = ops.spmm(
        probs.output, v, device, backend=backend, selector=selector,
        validate=validate,
    )
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


def dense_attention_batched(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    device: DeviceSpec,
    profile: Profile | None = None,
    causal: bool = True,
) -> np.ndarray:
    """Multi-head dense attention over ``(H, seq, dk)`` stacks.

    All heads go down as strided-batched cuBLAS GEMMs — one launch per
    matmul stage for the whole stack instead of one per head.
    """
    q = np.asarray(q, np.float32)
    k = np.asarray(k, np.float32)
    v = np.asarray(v, np.float32)
    if q.ndim != 3:
        raise ValueError(f"expected (H, seq, dk) stacks, got {q.shape}")
    h, seq, dk = q.shape
    scores_exec = ops.matmul_cost(h * seq, seq, dk, device)
    logits = np.einsum("hsd,htd->hst", q, k) / np.sqrt(dk)
    if causal:
        causal_mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        logits = np.where(causal_mask[None], -np.inf, logits)
    probs = softmax(logits, axis=2)
    out_exec = ops.matmul_cost(h * seq, dk, seq, device)
    out = np.einsum("hst,htd->hsd", probs, v).astype(np.float32)
    if profile is not None:
        from .activation import elementwise_execution

        profile.add(scores_exec)
        profile.add(
            elementwise_execution(logits.size, device, "dense_softmax", reads=2)
        )
        profile.add(out_exec)
    return out


def sparse_attention_batched(
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
) -> np.ndarray:
    """Multi-head sparse attention over ``(H, seq, dk)`` stacks.

    All heads share ``mask``'s topology (Section VII-C1), so the whole
    stack is three stacked dispatches — SDDMM producing the ``(nnz, H)``
    score matrix, one softmax over it, and one SpMM with per-head
    probability values against ``V`` — each resolving ONE plan and costing
    ONE z-scaled launch. A policy-routed call yields one DispatchReport
    per stage covering the whole stack.
    """
    q = np.asarray(q, np.float32)
    k = np.asarray(k, np.float32)
    v = np.asarray(v, np.float32)
    if q.ndim != 3:
        raise ValueError(f"expected (H, seq, dk) stacks, got {q.shape}")
    dk = q.shape[2]
    backend = policy if policy is not None else "sputnik"
    scores = ops.sddmm(
        q, k, mask, device, backend=backend, selector=selector,
        validate=validate,
    )
    probs = ops.sparse_softmax(
        mask, device, scale=1.0 / np.sqrt(dk), values=scores.output,
        backend=backend, validate=validate,
    )
    out = ops.spmm(
        mask, v, device, backend=backend, selector=selector,
        validate=validate,
        values=np.ascontiguousarray(probs.output.T),
    )
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


def dense_attention_cost(
    seq: int, dk: int, n_instances: int, device: DeviceSpec, profile: Profile
) -> None:
    """Cost-only dense attention for ``n_instances`` (batch x head) passes."""
    from .activation import elementwise_execution

    qk = ops.matmul_cost(seq, seq, dk, device)
    sm = elementwise_execution(seq * seq, device, "dense_softmax", reads=2)
    av = ops.matmul_cost(seq, dk, seq, device)
    for part in (qk, sm, av):
        scaled = part.add_overhead(0.0)
        scaled.runtime_s *= n_instances
        scaled.flops *= n_instances
        profile.add(scaled)


def sparse_attention_cost(
    mask: CSRMatrix, dk: int, n_instances: int, device: DeviceSpec, profile: Profile
) -> None:
    """Cost-only sparse attention for ``n_instances`` (batch x head) passes.

    The mask is shared across heads and layers (Section VII-C1), so one
    launch is costed and scaled.
    """
    sddmm_cfg = SddmmConfig(vector_width=4 if dk % 4 == 0 else 1)
    sddmm_r = ops.sddmm_cost(mask, dk, device, sddmm_cfg)
    sm_r = ops.sparse_softmax_cost(mask, device)
    spmm_r = ops.spmm_cost(mask, dk, device)
    for part in (sddmm_r, sm_r, spmm_r):
        scaled = part.add_overhead(0.0)
        scaled.runtime_s *= n_instances
        scaled.flops *= n_instances
        profile.add(scaled)
