"""Batched operator execution benchmark.

Headline for stacked dispatch, recorded in ``BENCH_batched.json`` at the
repo root: 8-head sequence-512 sparse attention run as THREE stacked
dispatches (SDDMM -> sparse softmax -> SpMM over ``(H, ...)`` stacks, one
plan and one z-scaled launch each) versus the per-head loop (3 dispatches
x 8 heads). Measures:

1. **Wall-time speedup** — harness wall clock of the full attention pass,
   warm plan cache. Loop and batch run as ``pairs`` interleaved pairs and
   the speedup is the median of the per-pair ratios, so a burst of host
   contention lands on both sides of a pair and a few contended pairs
   cannot move the median. The full run asserts >= 3x: the loop pays 3H
   dispatches (plan lookups, span + policy plumbing, numpy fixed costs)
   where the batch pays 3.
2. **Simulated amortization** — on the simulated device the batch retires
   (H - 1) launch overheads per stage; the report records the simulated
   speedup and the launch-overhead amortization ratio (loop overhead
   seconds / batched overhead seconds, == H with a clean amortization).

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_batched.py            # full
    PYTHONPATH=src python benchmarks/bench_batched.py --smoke    # CI

``--smoke`` shrinks the problem and relaxes the wall-clock floor (CI
machines are noisy); correctness and simulated-time checks stay strict.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from repro import ops
from repro.datasets.attention import banded_random_mask
from repro.gpu import V100
from repro.nn import Profile, sparse_attention

from conftest import paired_median

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "BENCH_batched.json"


def bench_attention(seq: int, heads: int, dk: int, band: int, pairs: int) -> dict:
    """Batched vs per-head-loop sparse attention on one shared mask."""
    device = V100
    mask = banded_random_mask(seq, band=band, seed=2020)
    rng = np.random.default_rng(11)
    q, k, v = (
        rng.standard_normal((heads, seq, dk)).astype(np.float32)
        for _ in range(3)
    )

    def run_loop(profile=None):
        return np.stack(
            [
                sparse_attention(q[i], k[i], v[i], mask, device, profile)
                for i in range(heads)
            ]
        )

    def run_batched(profile=None):
        return sparse_attention(q, k, v, mask, device, profile)

    # Correctness first: the batch must reproduce the loop bit-for-all-
    # practical-purposes, and the profiles carry the simulated story.
    loop_profile, batched_profile = Profile(), Profile()
    out_loop = run_loop(loop_profile)
    out_batched = run_batched(batched_profile)
    np.testing.assert_allclose(out_batched, out_loop, rtol=1e-5, atol=1e-5)

    sim_loop = loop_profile.runtime_s
    sim_batched = batched_profile.runtime_s
    launches_loop = len(loop_profile.records)
    launches_batched = len(batched_profile.records)
    overhead_loop = launches_loop * device.launch_overhead_s
    overhead_batched = launches_batched * device.launch_overhead_s
    batched_names = sorted({r.name for r in batched_profile.records})
    assert launches_loop == 3 * heads, launches_loop
    assert launches_batched == 3, launches_batched
    assert all(name.endswith(f"_x{heads}") for name in batched_names), (
        batched_names
    )
    assert sim_batched <= sim_loop, (sim_batched, sim_loop)

    # Wall clock over a warm plan cache (both paths were just run once).
    wall_loop, wall_batched, wall_speedup = paired_median(
        run_loop, run_batched, pairs
    )

    result = {
        "seq": seq,
        "heads": heads,
        "dk": dk,
        "band": band,
        "mask_nnz": mask.nnz,
        "pairs": pairs,
        "wall_loop_s": wall_loop,
        "wall_batched_s": wall_batched,
        "wall_speedup": wall_speedup,
        "sim_loop_s": sim_loop,
        "sim_batched_s": sim_batched,
        "sim_speedup": sim_loop / sim_batched,
        "launches_loop": launches_loop,
        "launches_batched": launches_batched,
        "overhead_loop_s": overhead_loop,
        "overhead_batched_s": overhead_batched,
        "amortization_ratio": overhead_loop / overhead_batched,
        "batched_kernels": batched_names,
    }
    print(
        f"attention seq={seq} H={heads} dk={dk} nnz={mask.nnz}: "
        f"wall loop {wall_loop * 1e3:7.2f} ms vs batched "
        f"{wall_batched * 1e3:7.2f} ms ({result['wall_speedup']:.2f}x); "
        f"sim {sim_loop * 1e6:8.2f} us vs {sim_batched * 1e6:7.2f} us "
        f"({result['sim_speedup']:.2f}x); launch overhead amortized "
        f"{result['amortization_ratio']:.1f}x"
    )
    return result


def bench_cost_path(seq: int, heads: int, dk: int, band: int) -> dict:
    """Cost-only amortization: one batched plan vs H single plans."""
    device = V100
    mask = banded_random_mask(seq, band=band, seed=2021)
    single = ops.spmm_cost(mask, dk, device)
    batched = ops.spmm_cost(mask, dk, device, h=heads)
    result = {
        "single_runtime_s": single.runtime_s,
        "loop_runtime_s": heads * single.runtime_s,
        "batched_runtime_s": batched.runtime_s,
        "sim_speedup": heads * single.runtime_s / batched.runtime_s,
        "saved_overhead_s": (heads - 1) * device.launch_overhead_s,
    }
    assert batched.runtime_s <= heads * single.runtime_s
    print(
        f"spmm cost path H={heads}: loop "
        f"{result['loop_runtime_s'] * 1e6:8.2f} us vs batched "
        f"{result['batched_runtime_s'] * 1e6:8.2f} us "
        f"({result['sim_speedup']:.2f}x simulated)"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small problem, relaxed wall assert (CI)")
    parser.add_argument("--pairs", type=int, default=None,
                        help="interleaved loop/batch timing pairs "
                        "(default 9, smoke 15)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON})")
    args = parser.parse_args()

    if args.smoke:
        seq, heads, dk, band = 128, 4, 32, 32
        min_wall = 1.2
    else:
        seq, heads, dk, band = 512, 8, 64, 64
        min_wall = 3.0
    pairs = args.pairs or (15 if args.smoke else 9)

    attention = bench_attention(seq, heads, dk, band, pairs)
    cost_path = bench_cost_path(seq, heads, dk, band)

    report = {
        "benchmark": "batched operator execution",
        "mode": "smoke" if args.smoke else "full",
        "criteria": {"attention_min_wall_speedup": min_wall},
        "attention": attention,
        "spmm_cost_path": cost_path,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    assert attention["wall_speedup"] >= min_wall, (
        f"wall speedup {attention['wall_speedup']:.2f}x below {min_wall}x"
    )
    print(
        f"PASS: batched attention {attention['wall_speedup']:.2f}x wall "
        f"(>= {min_wall}x), {attention['sim_speedup']:.2f}x simulated, "
        f"overhead amortized {attention['amortization_ratio']:.1f}x"
    )


if __name__ == "__main__":
    main()
