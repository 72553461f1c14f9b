"""Multi-GPU scaling benchmark: sharded execution vs the interconnect.

Headline for the multi-GPU tentpole, recorded in
``bench_out/BENCH_multigpu.json``. Three sections:

1. **Corpus scaling curve** — a corpus of large power-law CSR topologies
   (4096x4096, 720-2160 nonzeros/row) costed through row-sharded SpMM at
   K in {1, 2, 4, 8} simulated V100s on NVLink, outputs left sharded
   (the steady-state regime of a chained sparse pipeline). Per K the
   report carries effective throughput (total FLOPs over summed sharded
   runtime), speedup vs K=1, the interconnect-bound fraction
   (``exposed_comm / runtime``), and compute imbalance. Asserted:
   **>= 3x aggregate speedup at K=4** and K=1 *bit-identical* in cost to
   plain single-device dispatch. A PCIe-fabric contrast at K=4 shows the
   same work turning interconnect-bound on a shared host bridge.
2. **Model-parallel Transformer layer** — the runnable sparse-attention
   layer sharded Megatron-style (heads + FFN split, two all-reduces per
   layer) at the same K ladder, numerics checked allclose against the
   single-device forward.
3. **Sharded sweep under per-device HBM caps** — the full corpus driven
   through the sweep executor with ``devices=4`` and a per-device
   ``REPRO_HBM_CAP``; every row must complete (zero crashes, zero OOM
   failures) because each device's eviction ladder only has to hold its
   own shard.

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_multi_gpu.py          # full
    PYTHONPATH=src python benchmarks/bench_multi_gpu.py --smoke  # CI

``--smoke`` keeps the 4096-row matrix shape (so the K=4 speedup bar
stays meaningful) but shrinks the corpus and the transformer sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import ops
from repro.bench.sweep import reset_worker_state, run_sweep
from repro.datasets import MatrixSpec, banded_random_mask
from repro.dist import DeviceGroup, sharded_spmm_cost
from repro.gpu import V100
from repro.gpu.allocator import CAP_ENV_VAR
from repro.nn.transformer_layer import TransformerLayer
from repro.sparse.csr import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "bench_out" / "BENCH_multigpu.json"

K_LADDER = (1, 2, 4, 8)
#: Aggregate effective-throughput bar at K=4 (the acceptance criterion).
MIN_SPEEDUP_K4 = 3.0


def random_csr(rows: int, cols: int, k: int, seed: int) -> CSRMatrix:
    """~``k`` nonzeros/row, O(nnz) construction (no dense intermediate)."""
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.integers(cols, size=(rows, k)), axis=1)
    keep = np.ones_like(idx, dtype=bool)
    keep[:, 1:] = idx[:, 1:] != idx[:, :-1]
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    flat = idx[keep].astype(np.int32)
    values = rng.standard_normal(flat.size).astype(np.float32)
    return CSRMatrix((rows, cols), offsets, flat, values)


def build_corpus(n_matrices: int, rows: int, seed: int) -> list[CSRMatrix]:
    """Power-law-ish corpus: per-matrix nnz/row drawn from [720, 2160]."""
    rng = np.random.default_rng(seed)
    return [
        random_csr(rows, rows, int(rng.integers(720, 2161)), seed=100 + i)
        for i in range(n_matrices)
    ]


# ----------------------------------------------------------------------
# Section 1: corpus scaling curve
# ----------------------------------------------------------------------
def corpus_scaling(
    matrices: list[CSRMatrix], n: int, interconnect: str, k_ladder=K_LADDER
) -> list[dict]:
    points = []
    for k in k_ladder:
        group = DeviceGroup(k, V100, interconnect=interconnect)
        runtime = flops = exposed = comm_bytes = 0.0
        worst_imbalance = 1.0
        wall0 = time.perf_counter()
        for a in matrices:
            sharded = sharded_spmm_cost(a, n, group, gather_output=False)
            runtime += sharded.runtime_s
            flops += sharded.flops
            exposed += sharded.exposed_comm_s
            comm_bytes += sharded.comm_bytes
            worst_imbalance = max(worst_imbalance, sharded.compute_imbalance)
        points.append(
            {
                "k": k,
                "interconnect": interconnect,
                "runtime_s": runtime,
                "flops": flops,
                "throughput_flops": flops / runtime,
                "exposed_comm_s": exposed,
                "interconnect_bound_fraction": exposed / runtime,
                "comm_bytes": comm_bytes,
                "worst_compute_imbalance": worst_imbalance,
                "wall_s": time.perf_counter() - wall0,
            }
        )
        base = points[0]["throughput_flops"]
        points[-1]["speedup_vs_k1"] = points[-1]["throughput_flops"] / base
    return points


def k1_bit_identical(matrices: list[CSRMatrix], n: int) -> list[dict]:
    """K=1 sharded cost must equal plain dispatch exactly (not approx)."""
    checks = []
    for i, a in enumerate(matrices[:3]):
        single = ops.spmm_cost(a, n, context=ops.ExecutionContext(V100))
        sharded = sharded_spmm_cost(a, n, DeviceGroup(1))
        checks.append(
            {
                "matrix": i,
                "single_runtime_s": single.runtime_s,
                "sharded_runtime_s": sharded.runtime_s,
                "identical": sharded.runtime_s == single.runtime_s
                and sharded.exposed_comm_s == 0.0
                and not sharded.collectives,
            }
        )
    return checks


# ----------------------------------------------------------------------
# Section 2: model-parallel Transformer layer
# ----------------------------------------------------------------------
def transformer_scaling(
    seq: int, d_model: int, n_heads: int, d_ffn: int, k_ladder=K_LADDER
) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((seq, d_model)).astype(np.float32)
    mask = banded_random_mask(seq, band=seq // 8, off_diagonal_sparsity=0.9)
    layer = TransformerLayer(d_model, n_heads, d_ffn, attention_mask=mask)
    reference = layer.forward(x, V100)

    points = []
    for k in k_ladder:
        if n_heads % k or d_ffn % k:
            continue
        out = layer.forward_sharded(x, DeviceGroup(k))
        report = dict(layer.last_shard_report)
        report["allclose"] = bool(
            np.allclose(out, reference, rtol=1e-3, atol=1e-4)
        )
        del report["per_device_compute_s"]
        points.append(report)
        base = points[0]["runtime_s"]
        points[-1]["speedup_vs_k1"] = base / points[-1]["runtime_s"]
    return {
        "seq": seq,
        "d_model": d_model,
        "n_heads": n_heads,
        "d_ffn": d_ffn,
        "points": points,
    }


# ----------------------------------------------------------------------
# Section 3: sharded sweep under per-device HBM caps
# ----------------------------------------------------------------------
def sharded_sweep_under_caps(
    n_specs: int, rows: int, cap: str, tmp_store: Path
) -> dict:
    specs = [
        MatrixSpec(
            f"mg{i}", "multigpu", "sweep", rows, rows, 0.7, 0.8, seed=i
        )
        for i in range(n_specs)
    ]
    previous = os.environ.get(CAP_ENV_VAR)
    os.environ[CAP_ENV_VAR] = cap  # read per-device by each allocator
    reset_worker_state()
    try:
        rows_out, report = run_sweep(
            specs, ["sputnik"], V100, n=[64], devices=[4],
            store_path=tmp_store,
        )
    finally:
        reset_worker_state()
        if previous is None:
            os.environ.pop(CAP_ENV_VAR, None)
        else:
            os.environ[CAP_ENV_VAR] = previous
    statuses = sorted({r["status"] for r in rows_out})
    return {
        "n_specs": n_specs,
        "rows": rows,
        "per_device_cap": cap,
        "n_rows": len(rows_out),
        "failed": report.failed,
        "oom": report.oom,
        "statuses": statuses,
        "wall_s": report.wall_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, small transformer (CI)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON}; "
                             f"--out {OUT_JSON.name} rewrites the committed "
                             "report)")
    args = parser.parse_args()

    if args.smoke:
        n_matrices, rows, n = 8, 4096, 128
        seq, d_model, n_heads, d_ffn = 256, 512, 8, 2048
        sweep_specs, sweep_rows, cap = 12, 1024, "64M"
    else:
        n_matrices, rows, n = 200, 4096, 128
        seq, d_model, n_heads, d_ffn = 512, 1024, 16, 4096
        sweep_specs, sweep_rows, cap = 200, 1024, "128M"

    print(f"building {n_matrices}-matrix corpus ({rows}x{rows})...")
    matrices = build_corpus(n_matrices, rows, seed=0)

    print("section 1: corpus scaling over NVLink...")
    nvlink = corpus_scaling(matrices, n, "nvlink")
    for point in nvlink:
        print(
            f"  K={point['k']}: x{point['speedup_vs_k1']:.2f} "
            f"({point['throughput_flops'] / 1e12:.2f} TFLOP/s eff, "
            f"interconnect-bound {point['interconnect_bound_fraction']:.1%})"
        )
    print("  PCIe contrast at K=4...")
    pcie = corpus_scaling(matrices[: min(25, n_matrices)], n, "pcie", (1, 4))
    identity = k1_bit_identical(matrices, n)

    print("section 2: model-parallel transformer layer...")
    transformer = transformer_scaling(seq, d_model, n_heads, d_ffn)
    for point in transformer["points"]:
        print(
            f"  K={point['k']}: x{point['speedup_vs_k1']:.2f} "
            f"(interconnect-bound "
            f"{point['interconnect_bound_fraction']:.1%}, "
            f"allclose={point['allclose']})"
        )

    print(f"section 3: {sweep_specs}-matrix sharded sweep under "
          f"{cap}/device cap...")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sweep = sharded_sweep_under_caps(
            sweep_specs, sweep_rows, cap, Path(tmp) / "plans"
        )
    print(f"  {sweep['n_rows']} rows, failed={sweep['failed']}, "
          f"oom={sweep['oom']}")

    report = {
        "config": {
            "smoke": args.smoke,
            "n_matrices": n_matrices,
            "matrix_rows": rows,
            "n": n,
            "k_ladder": list(K_LADDER),
            "min_speedup_k4": MIN_SPEEDUP_K4,
        },
        "corpus_scaling_nvlink": nvlink,
        "corpus_scaling_pcie": pcie,
        "k1_bit_identical": identity,
        "transformer_model_parallel": transformer,
        "sharded_sweep_under_caps": sweep,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    # ---- acceptance assertions -------------------------------------
    k4 = next(p for p in nvlink if p["k"] == 4)
    assert k4["speedup_vs_k1"] >= MIN_SPEEDUP_K4, (
        f"K=4 speedup {k4['speedup_vs_k1']:.2f} below "
        f"{MIN_SPEEDUP_K4}x bar"
    )
    assert all(c["identical"] for c in identity), identity
    for point in nvlink:
        assert 0.0 <= point["interconnect_bound_fraction"] < 1.0, point
    pcie4 = next(p for p in pcie if p["k"] == 4)
    assert (
        pcie4["interconnect_bound_fraction"]
        >= k4["interconnect_bound_fraction"]
    ), "shared PCIe fabric should be at least as interconnect-bound"
    assert all(p["allclose"] for p in transformer["points"])
    assert sweep["failed"] == 0 and sweep["oom"] == 0, sweep
    assert sweep["statuses"] == ["ok"], sweep
    assert sweep["n_rows"] == sweep_specs, sweep
    print(
        f"PASS: K=4 x{k4['speedup_vs_k1']:.2f} on NVLink "
        f"(bar {MIN_SPEEDUP_K4}x), K=1 bit-identical, "
        f"{sweep['n_rows']}-row sharded sweep clean under {cap}/device"
    )


if __name__ == "__main__":
    main()
