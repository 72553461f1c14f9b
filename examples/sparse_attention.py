"""Sparse attention: the Section VII-C Transformer workload.

Builds the paper's banded + distance-decayed-random attention mask
(Figure 11), then runs a full multi-head sparse attention layer on an
``(H, seq, dk)`` head stack: all heads share the mask's topology (Section
VII-C1), so the stack goes down as three stacked dispatches — SDDMM for
the sampled Q K^T, one sparse softmax, one SpMM against V — each a single
plan and a single z-scaled launch. The same functions take one
``(seq, dk)`` head; the per-head loop is kept only as the comparison
baseline. This is the
computation that gives the sparse Transformer its 2.1x speedup and
12.8x memory saving (Table III).

Run:  python examples/sparse_attention.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import V100
from repro.datasets import banded_random_mask, dense_causal_mask, mask_statistics
from repro.nn import (
    Profile,
    TransformerConfig,
    benchmark_transformer,
    dense_attention,
    sparse_attention,
)

#: Interleaved (per-head loop, stack) wall-time pairs.
PAIRS = 9


def multi_head_demo() -> None:
    seq, heads, dk = 1024, 8, 64
    rng = np.random.default_rng(1)
    mask = banded_random_mask(seq, band=64, off_diagonal_sparsity=0.95, seed=7)
    stats = mask_statistics(mask, band=64)
    print(f"attention mask: seq={seq}, nnz={mask.nnz:,} "
          f"(causal sparsity {stats['causal_sparsity']:.2%}, "
          f"off-band density {stats['off_band_density']:.3f})")

    q, k, v = (
        rng.standard_normal((heads, seq, dk)).astype(np.float32)
        for _ in range(3)
    )

    # Dense vs sparse, both stacked across all heads.
    dense_profile, sparse_profile = Profile(), Profile()
    dense_out = dense_attention(q, k, v, V100, dense_profile)
    sparse_out = sparse_attention(q, k, v, mask, V100, sparse_profile)

    print(f"\n{heads}-head attention layer (seq {seq}, head dim {dk}):")
    print(f"  dense : {dense_profile.runtime_s * 1e6:8.1f} us "
          f"({', '.join(dense_profile.by_kernel())})")
    print(f"  sparse: {sparse_profile.runtime_s * 1e6:8.1f} us "
          f"({', '.join(sparse_profile.by_kernel())})")
    print(f"  speedup: {dense_profile.runtime_s / sparse_profile.runtime_s:.2f}x")

    # The stack vs the per-head loop: identical numerics, one launch (and
    # one plan lookup, one dispatch) per stage instead of one per head.
    def run_loop(profile=None):
        return np.stack([
            sparse_attention(q[i], k[i], v[i], mask, V100, profile)
            for i in range(heads)
        ])

    loop_profile = Profile()
    loop_out = run_loop(loop_profile)
    assert np.array_equal(sparse_out, loop_out)
    # Wall time as interleaved (loop, stack) pairs: a burst of host
    # contention lands on both sides of a pair, and the median of the
    # per-pair ratios ignores a few contended pairs.
    walls = []
    for _ in range(PAIRS):
        t0 = time.perf_counter()
        run_loop()
        t1 = time.perf_counter()
        sparse_attention(q, k, v, mask, V100)
        walls.append((t1 - t0, time.perf_counter() - t1))
    wall_loop, wall_stack = np.median(walls, axis=0)
    ratio = np.median([loop / stack for loop, stack in walls])
    print(f"  stack vs per-head loop: {len(sparse_profile.records)} "
          f"launches vs {len(loop_profile.records)}, simulated "
          f"{sparse_profile.runtime_s * 1e6:.1f} us vs "
          f"{loop_profile.runtime_s * 1e6:.1f} us, wall "
          f"{wall_stack * 1e3:.2f} ms vs {wall_loop * 1e3:.2f} ms "
          f"(median of {PAIRS} interleaved pairs: {ratio:.2f}x)")

    # Sanity: with a *full* causal mask, sparse attention is exact.
    full = dense_causal_mask(256)
    qq, kk, vv = (rng.standard_normal((256, dk)).astype(np.float32) for _ in range(3))
    exact = sparse_attention(qq, kk, vv, full, V100)
    ref = dense_attention(qq, kk, vv, V100)
    assert np.allclose(exact, ref, atol=1e-3)
    print("  exactness check vs dense causal attention: OK")
    del dense_out


def full_model_table() -> None:
    print("\nTable III reproduction (3 layers, 8 heads, seq 12,288, batch 8):")
    config = TransformerConfig()
    mask = config.attention_mask()
    for variant in ("dense", "sparse"):
        r = benchmark_transformer(
            config, V100, variant, mask=mask if variant == "sparse" else None
        )
        mem = f"{r.memory_gb:.2f} GB" if r.fits else "OOM"
        print(f"  {variant:6s}: {r.tokens_per_second:9,.0f} tokens/s, {mem}")


if __name__ == "__main__":
    multi_head_demo()
    full_model_table()
