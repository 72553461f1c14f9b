"""Memory-pressure benchmark: graceful degradation under finite HBM.

Headline for the finite-HBM tentpole, recorded in
``bench_out/BENCH_memory.json``. Two workloads run against the
capacity-aware device allocator at a ladder of HBM caps:

1. **Sustained SpMM sweep** — 200 distinct ~38 MB CSR topologies (about
   8 GB of aggregate device residency) timed back-to-back under 4/8/16/32
   GB caps plus an uncapped reference. Caps below the unconstrained peak
   force the context's eviction ladder (cache flush -> LRU tensor/plan
   eviction); every row must still complete (``status == "ok"``, zero
   crashes). Evicted operands that return are charged a PCIe re-upload,
   so the report carries a throughput-vs-cap curve in *effective* FLOP/s:
   ``flops / (simulated_s + bytes_reuploaded / pcie_bandwidth)``.
2. **Batched sparse attention** — the Table III attention stack (batched
   SDDMM -> batched sparse softmax -> batched SpMM, 64 stacked heads,
   d_k = 128) at sequence lengths 6144/9216/12288, capped just above the
   largest dispatch's pinned working set (~3.9 GiB) and below the ~6 GiB
   unconstrained peak, so earlier sequence lengths' residency must be
   evicted for the later ones to fit.

A third section A/Bs the allocator's bookkeeping overhead: warm-cache
SpMM dispatch with accounting disabled vs. enabled (uncapped) must stay
within 5% wall time.

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_memory_pressure.py          # full
    PYTHONPATH=src python benchmarks/bench_memory_pressure.py --smoke  # CI

``--smoke`` shrinks the matrix count/sizes and uses MB-scale caps so the
eviction machinery is exercised in seconds; the zero-crash assertions
stay strict, the overhead bound is recorded but relaxed (CI wall clocks
are noisy).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import ops
from repro.bench.runner import _measure, sputnik_spmm_time
from repro.datasets.attention import banded_random_mask
from repro.gpu import V100
from repro.sparse.csr import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "bench_out" / "BENCH_memory.json"

GiB = 1024**3


def random_csr(rows: int, cols: int, k: int, seed: int) -> CSRMatrix:
    """A uniform-random CSR topology with ~``k`` nonzeros per row.

    O(nnz) construction: draw ``k`` column indices per row, sort each row,
    and drop duplicates with a diff mask — no dense intermediate, so
    generating hundreds of multi-MB matrices stays cheap.
    """
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.integers(cols, size=(rows, k)), axis=1)
    keep = np.ones_like(idx, dtype=bool)
    keep[:, 1:] = idx[:, 1:] != idx[:, :-1]
    counts = keep.sum(axis=1)
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = idx[keep].astype(np.int32)
    values = rng.standard_normal(flat.size).astype(np.float32)
    return CSRMatrix((rows, cols), offsets, flat, values)


def _fresh_context(cap: int | None) -> ops.ExecutionContext:
    """Install a fresh default context at ``cap`` bytes (None = device cap)."""
    ops.reset_default_contexts()
    ctx = ops.ExecutionContext(V100, memory=cap if cap is not None else None)
    ops.set_default_context(ctx)
    return ctx


def _cap_label(cap: int | None) -> str:
    if cap is None:
        return "uncapped"
    if cap >= GiB:
        return f"{cap / GiB:g}GiB"
    return f"{cap / 2**20:g}MiB"


def sweep_under_cap(
    matrices: list[tuple[str, CSRMatrix]], n: int, cap: int | None
) -> dict:
    """Time every matrix twice under one HBM cap; one summary dict.

    The second pass re-touches operands the first pass may have evicted,
    so capped runs pay PCIe re-uploads where the uncapped run stays
    resident — that difference is the throughput-vs-cap curve.
    """
    ctx = _fresh_context(cap)
    wall0 = time.perf_counter()
    rows = [
        _measure(sputnik_spmm_time, label, "sputnik", a, n, V100)
        for _pass in range(2)
        for label, a in matrices
    ]
    wall_s = time.perf_counter() - wall0
    ctx.emit_memory_span()
    snap = ctx.memory_snapshot()
    statuses = sorted({r.status for r in rows})
    sim_s = sum(r.runtime_s for r in rows if r.status == "ok")
    flops = sum(r.flops for r in rows if r.status == "ok")
    reupload_s = ctx.bytes_reuploaded / V100.pcie_bandwidth
    return {
        "cap": _cap_label(cap),
        "cap_bytes": cap,
        "rows": len(rows),
        "statuses": statuses,
        "failed": sum(1 for r in rows if r.status == "failed"),
        "oom_rows": sum(1 for r in rows if r.status == "oom"),
        "sim_s": sim_s,
        "wall_s": wall_s,
        "flops": flops,
        "throughput_gflops": flops / sim_s / 1e9 if sim_s else 0.0,
        "bytes_reuploaded": int(ctx.bytes_reuploaded),
        "reupload_s": reupload_s,
        "effective_gflops": (
            flops / (sim_s + reupload_s) / 1e9 if sim_s else 0.0
        ),
        "peak_reserved_bytes": int(snap["peak_reserved_bytes"]),
        "oom_events": int(snap["oom_events"]),
        "tensor_evictions": int(snap["tensor_evictions"]),
        "plan_evictions": int(snap["plan_evictions"]),
        "bytes_evicted": int(snap["bytes_evicted"]),
        "fragmentation": float(snap["fragmentation"]),
    }


def attention_under_cap(
    masks: list[tuple[int, CSRMatrix]], heads: int, dk: int, cap: int | None
) -> dict:
    """Batched attention stack per sequence length under one HBM cap."""
    ctx = _fresh_context(cap)
    per_seq = []
    for seq, mask in masks:
        sim = 0.0
        sim += ops.sddmm_cost(mask, dk, V100, h=heads).runtime_s
        sim += ops.sparse_softmax_cost(mask, V100, h=heads).runtime_s
        sim += ops.spmm_cost(mask, dk, V100, h=heads).runtime_s
        per_seq.append({"seq": seq, "nnz": mask.nnz, "sim_s": sim})
    ctx.emit_memory_span()
    snap = ctx.memory_snapshot()
    return {
        "cap": _cap_label(cap),
        "cap_bytes": cap,
        "heads": heads,
        "dk": dk,
        "per_seq": per_seq,
        "sim_s": sum(e["sim_s"] for e in per_seq),
        "peak_reserved_bytes": int(snap["peak_reserved_bytes"]),
        "oom_events": int(snap["oom_events"]),
        "tensor_evictions": int(snap["tensor_evictions"]),
        "plan_evictions": int(snap["plan_evictions"]),
        "bytes_evicted": int(snap["bytes_evicted"]),
    }


def bench_overhead(repeats: int, calls: int) -> dict:
    """Warm-cache dispatch wall time: accounting off vs. on (uncapped).

    Both contexts are built and warmed up front and the timed loops
    alternate off/on within each repeat, so drift (frequency scaling,
    allocator warm-up in numpy) hits both sides equally.
    """
    a = random_csr(2048, 2048, 256, seed=777)
    contexts = {
        "off": ops.ExecutionContext(V100, memory=False),
        # Default accounting: allocator at the device's DRAM capacity.
        "on": ops.ExecutionContext(V100, memory=None),
    }
    for ctx in contexts.values():  # warm plan caches outside the clock
        ops.spmm_cost(a, 64, context=ctx)
        ops.spmm_cost(a, 64, context=ctx)
    best = {"off": float("inf"), "on": float("inf")}
    for _ in range(repeats):
        for name, ctx in contexts.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                ops.spmm_cost(a, 64, context=ctx)
            best[name] = min(best[name], time.perf_counter() - t0)
    off, on = best["off"], best["on"]
    return {
        "calls": calls,
        "repeats": repeats,
        "wall_off_s": off,
        "wall_on_s": on,
        "overhead": on / off - 1.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small problems, MB-scale caps (CI)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON}; "
                             f"--out {OUT_JSON.name} rewrites the committed "
                             "report)")
    args = parser.parse_args()

    if args.smoke:
        n_matrices, rows, k, n = 24, 1024, 192, 32
        caps = [8 * 2**20, 16 * 2**20, 64 * 2**20, None]
        att_seqs, heads, dk = [512, 768], 8, 64
        att_caps = [16 * 2**20, None]
        ov_repeats, ov_calls = 3, 30
        max_overhead = None  # recorded, not asserted: CI walls are noisy
    else:
        n_matrices, rows, k, n = 200, 4096, 1440, 64
        caps = [4 * GiB, 8 * GiB, 16 * GiB, 32 * GiB, None]
        att_seqs, heads, dk = [6144, 9216, 12288], 64, 128
        # The seq=12288 batched SDDMM pins ~3.9 GiB of operands +
        # workspace + plan while it is on the dispatch stack — nothing
        # the ladder can evict — so the tightest feasible cap is ~5 GiB;
        # 5.5 GiB sits safely above that and below the ~6 GiB
        # unconstrained peak, forcing eviction of the earlier sequence
        # lengths' residency.
        att_caps = [11 * GiB // 2, 8 * GiB, None]
        ov_repeats, ov_calls = 5, 100
        max_overhead = 0.05

    print(f"generating {n_matrices} matrices ({rows}x{rows}, ~{k}/row)...")
    matrices = [
        (f"m{i:03d}", random_csr(rows, rows, k, seed=i))
        for i in range(n_matrices)
    ]
    total_mb = sum(a.memory_bytes() for _, a in matrices) / 2**20
    print(f"aggregate operand footprint: {total_mb:.0f} MiB")

    sweep = []
    for cap in caps:
        entry = sweep_under_cap(matrices, n, cap)
        sweep.append(entry)
        print(
            f"sweep cap={entry['cap']:>9s}: {entry['rows']} rows "
            f"statuses={entry['statuses']} "
            f"peak={entry['peak_reserved_bytes'] / GiB:.2f}GiB "
            f"evictions={entry['tensor_evictions']}+{entry['plan_evictions']} "
            f"oom={entry['oom_events']} "
            f"eff={entry['effective_gflops']:.1f} GFLOP/s"
        )

    print(f"generating attention masks (seq={att_seqs}, H={heads})...")
    masks = [
        (seq, banded_random_mask(seq, band=max(32, seq // 24),
                                 off_diagonal_sparsity=0.97, seed=seq))
        for seq in att_seqs
    ]
    attention = []
    for cap in att_caps:
        entry = attention_under_cap(masks, heads, dk, cap)
        attention.append(entry)
        print(
            f"attention cap={entry['cap']:>9s}: "
            f"sim={entry['sim_s'] * 1e3:.2f}ms "
            f"peak={entry['peak_reserved_bytes'] / GiB:.2f}GiB "
            f"evictions={entry['tensor_evictions']}+{entry['plan_evictions']} "
            f"oom={entry['oom_events']}"
        )

    overhead = bench_overhead(ov_repeats, ov_calls)
    print(
        f"accounting overhead: off {overhead['wall_off_s'] * 1e3:.2f}ms vs "
        f"on {overhead['wall_on_s'] * 1e3:.2f}ms "
        f"({overhead['overhead']:+.1%} for {overhead['calls']} calls)"
    )

    ops.reset_default_contexts()

    report = {
        "benchmark": "memory pressure / graceful degradation",
        "mode": "smoke" if args.smoke else "full",
        "device": V100.name,
        "pcie_bandwidth": V100.pcie_bandwidth,
        "criteria": {
            "zero_crashes": True,
            "max_accounting_overhead": max_overhead,
        },
        "sweep": sweep,
        "attention": attention,
        "overhead": overhead,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    # -- acceptance -----------------------------------------------------
    # 1. Zero crashes: every row of every capped sweep completed.
    for entry in sweep:
        assert entry["failed"] == 0 and entry["oom_rows"] == 0, entry
        assert entry["statuses"] == ["ok"], entry
    # 2. The tightest cap sits below the unconstrained peak and completed
    #    via eviction (the degradation story, not oversized hardware).
    uncapped = next(e for e in sweep if e["cap_bytes"] is None)
    tightest = min(
        (e for e in sweep if e["cap_bytes"] is not None),
        key=lambda e: e["cap_bytes"],
    )
    assert tightest["cap_bytes"] < uncapped["peak_reserved_bytes"], (
        tightest["cap_bytes"], uncapped["peak_reserved_bytes"])
    assert tightest["peak_reserved_bytes"] <= tightest["cap_bytes"]
    assert tightest["oom_events"] > 0, tightest
    assert tightest["tensor_evictions"] > 0, tightest
    assert tightest["bytes_evicted"] > 0, tightest
    # 3. Attention's transient workspaces also complete at every cap.
    for entry in attention:
        assert all(e["sim_s"] > 0 for e in entry["per_seq"]), entry
        if entry["cap_bytes"] is not None:
            assert entry["peak_reserved_bytes"] <= entry["cap_bytes"], entry
    # 4. Accounting overhead stays under the bound (full mode only).
    if max_overhead is not None:
        assert overhead["overhead"] < max_overhead, overhead
    print(
        f"PASS: {len(matrices)}-matrix sweep + {heads}-head attention "
        f"completed at every cap (tightest {tightest['cap']} < uncapped "
        f"peak {uncapped['peak_reserved_bytes'] / GiB:.2f}GiB, "
        f"{tightest['tensor_evictions']} evictions, zero crashes); "
        f"accounting overhead {overhead['overhead']:+.1%}"
    )


if __name__ == "__main__":
    main()
