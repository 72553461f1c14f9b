"""Sweep-scale performance engine benchmark.

Measures the two tentpole speedups of the performance engine and records
them in ``bench_out/BENCH_sweep.json`` so the perf trajectory is
tracked from this PR onward:

1. **Vectorized scheduler** — :func:`repro.gpu.simulate_schedule` (round
   -based numpy) vs :func:`repro.gpu.simulate_schedule_reference` (per-block
   heapq oracle) on launches near the ``SATURATION_ROUNDS`` boundary, using
   realistic duration distributions: lognormal block costs with the corpus's
   row-length CoV, both in natural order and sorted descending (what the
   row-swizzle transformation feeds the hardware scheduler).
2. **End-to-end corpus sweep** — a 200-matrix SpMM sweep run the seed way
   (sequential, cold cache, no store) vs the engine way (parallel executor,
   4 workers, warm persistent plan store).

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_sweep_engine.py            # full
    PYTHONPATH=src python benchmarks/bench_sweep_engine.py --smoke    # CI

``--smoke`` shrinks the corpus and relaxes the assertions (CI machines are
noisy and oversubscribed); the full run asserts the PR's acceptance
criteria: >= 3x scheduler speedup and >= 5x sweep speedup.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench import run_sweep
from repro.datasets import MatrixSpec
from repro.gpu import V100
from repro.gpu.scheduler import (
    SATURATION_ROUNDS,
    simulate_schedule,
    simulate_schedule_reference,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "bench_out" / "BENCH_sweep.json"


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_scheduler(repeats: int) -> dict:
    """Vectorized vs heapq scheduler near the saturation boundary."""
    device = V100
    blocks_per_sm = 4
    n_slots = device.num_sms * blocks_per_sm
    # Just under the saturated closed-form cutover: the deepest launch that
    # still runs the discrete-event remainder, i.e. the worst case.
    n_blocks = (SATURATION_ROUNDS - 2) * n_slots
    rng = np.random.default_rng(2020)

    cases = {}
    for label, cov, swizzled in (
        ("corpus_cov0.3", 0.3, False),
        ("swizzled_cov0.3", 0.3, True),
    ):
        sigma = np.sqrt(np.log1p(cov**2))
        durations = rng.lognormal(mean=0.0, sigma=sigma, size=n_blocks)
        if swizzled:
            durations = np.sort(durations)[::-1].copy()
        ref = simulate_schedule_reference(durations, device, blocks_per_sm)
        vec = simulate_schedule(durations, device, blocks_per_sm)
        assert ref.makespan == vec.makespan
        assert np.array_equal(ref.slot_busy, vec.slot_busy)
        assert np.array_equal(ref.block_finish, vec.block_finish)
        t_ref = _best_of(
            lambda: simulate_schedule_reference(durations, device, blocks_per_sm),
            repeats,
        )
        t_vec = _best_of(
            lambda: simulate_schedule(durations, device, blocks_per_sm), repeats
        )
        cases[label] = {
            "n_blocks": int(n_blocks),
            "n_slots": int(n_slots),
            "heapq_s": t_ref,
            "vectorized_s": t_vec,
            "speedup": t_ref / t_vec,
        }
        print(
            f"scheduler {label:18s} heapq {t_ref * 1e3:8.2f} ms  "
            f"vectorized {t_vec * 1e3:7.2f} ms  speedup {t_ref / t_vec:5.2f}x"
        )
    return cases


def build_specs(n_matrices: int) -> list[MatrixSpec]:
    """A deterministic corpus slice: transformer-ish layer shapes across the
    sparsity and row-CoV ranges of the paper's DNN corpus."""
    shapes = [(2048, 1024), (1024, 1024), (3072, 768), (512, 2048)]
    sparsities = (0.8, 0.9, 0.95, 0.98)
    covs = (0.1, 0.2, 0.3, 0.4)
    specs = []
    for i in range(n_matrices):
        rows, cols = shapes[i % len(shapes)]
        specs.append(
            MatrixSpec(
                name=f"sweep{i:04d}",
                model="bench",
                layer=f"l{i}",
                rows=rows,
                cols=cols,
                sparsity=sparsities[i % len(sparsities)],
                row_cov=covs[(i // 4) % len(covs)],
                seed=7_000 + i,
            )
        )
    return specs


def bench_sweep(n_matrices: int, workers: int) -> dict:
    kernels = ["sputnik", "cusparse", "dense"]
    specs = build_specs(n_matrices)
    device = V100

    tmp = Path(tempfile.mkdtemp(prefix="bench-sweep-"))
    try:
        # Seed path: sequential, no persistent store, cold per-process cache.
        t0 = time.perf_counter()
        cold_rows, cold_rep = run_sweep(
            specs, kernels, device, n=128, workers=1, chunk_size=8
        )
        t_cold = time.perf_counter() - t0

        # Populate the store once (not timed), then measure the warm engine.
        store = tmp / "store"
        run_sweep(
            specs, kernels, device, n=128, workers=workers,
            chunk_size=16, store_path=store,
        )
        t0 = time.perf_counter()
        warm_rows, warm_rep = run_sweep(
            specs, kernels, device, n=128, workers=workers,
            chunk_size=16, store_path=store,
        )
        t_warm = time.perf_counter() - t0

        cold_by_key = {r["row_key"]: r["runtime_s"] for r in cold_rows}
        warm_by_key = {r["row_key"]: r["runtime_s"] for r in warm_rows}
        assert cold_by_key == warm_by_key, "warm rows diverge from cold rows"
        assert warm_rep.from_store == len(warm_rows)

        result = {
            "n_matrices": n_matrices,
            "n_rows": len(cold_rows),
            "workers": workers,
            "cold_sequential_s": t_cold,
            "warm_parallel_s": t_warm,
            "speedup": t_cold / t_warm,
            "cold_rows_per_s": cold_rep.rows_per_s,
            "warm_rows_per_s": warm_rep.rows_per_s,
            "warm_store_counters": warm_rep.store_counters,
        }
        print(
            f"sweep {n_matrices} matrices x {len(kernels)} kernels: "
            f"cold sequential {t_cold:6.2f} s, warm parallel({workers}) "
            f"{t_warm:6.2f} s, speedup {t_cold / t_warm:5.2f}x"
        )
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, relaxed asserts (CI)")
    parser.add_argument("--matrices", type=int, default=None,
                        help="corpus size (default 200, smoke 24)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default 4, smoke 2)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON}; "
                             f"--out {OUT_JSON.name} rewrites the committed "
                             "report)")
    args = parser.parse_args()

    n_matrices = args.matrices or (24 if args.smoke else 200)
    workers = args.workers or (2 if args.smoke else 4)
    sched_repeats = 3 if args.smoke else 5
    min_sched = 1.5 if args.smoke else 3.0
    min_sweep = 1.2 if args.smoke else 5.0

    scheduler = bench_scheduler(sched_repeats)
    sweep = bench_sweep(n_matrices, workers)

    report = {
        "benchmark": "sweep-scale performance engine",
        "mode": "smoke" if args.smoke else "full",
        "criteria": {
            "scheduler_min_speedup": min_sched,
            "sweep_min_speedup": min_sweep,
        },
        "scheduler": scheduler,
        "sweep": sweep,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    best_sched = max(c["speedup"] for c in scheduler.values())
    assert best_sched >= min_sched, (
        f"scheduler speedup {best_sched:.2f}x below {min_sched}x"
    )
    assert sweep["speedup"] >= min_sweep, (
        f"sweep speedup {sweep['speedup']:.2f}x below {min_sweep}x"
    )
    print(
        f"PASS: scheduler {best_sched:.2f}x (>= {min_sched}x), "
        f"sweep {sweep['speedup']:.2f}x (>= {min_sweep}x)"
    )


if __name__ == "__main__":
    main()
