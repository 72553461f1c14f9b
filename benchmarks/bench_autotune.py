"""Cost-model plan autotuner benchmark.

Headline for the config-selection tentpole, recorded in
``bench_out/BENCH_autotune.json``: the ``tuned`` selector
(heuristic-seeded hill climb over the SpmmConfig knob space, costed on the
simulator) versus the paper's static heuristic, across a stratified sample
of the DNN corpus. Measures:

1. **Quality** — per-problem simulated SpMM runtime under the tuned config
   vs the heuristic config; asserts a geomean speedup (tuned can never
   lose on a problem — the heuristic seed is costed first — so the
   geomean floor is a real search-wins bar, not a no-regression bar).
2. **Overhead** — a ``selector="tuned"`` corpus sweep against a plan store
   pre-warmed with the tuned winners: search time during the warm sweep
   must stay under 10% of the sweep's wall clock (the store serves the
   winners; tuning only ever pays cold). The warm sweep is then resumed
   from its JSONL to prove tuned row keys round-trip through resume.

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_autotune.py            # full
    PYTHONPATH=src python benchmarks/bench_autotune.py --smoke    # CI

``--smoke`` shrinks the corpus sample and relaxes the geomean floor
(fewer strata to win on); the overhead bound stays strict.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import tempfile
import time
from pathlib import Path

from repro import ops
from repro.bench import build_tasks, reset_worker_state, run_sweep
from repro.datasets import dnn_corpus
from repro.gpu import V100
from repro.tune import reset_tuning_seconds, tuning_seconds

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "bench_out" / "BENCH_autotune.json"


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def bench_quality(tasks, store_path: Path) -> dict:
    """Tuned vs heuristic simulated runtime per (matrix, n) problem.

    Tuned costing runs against ``store_path`` so the winners it persists
    warm the overhead stage's sweep.
    """
    heuristic_ctx = ops.ExecutionContext(V100)
    tuned_ctx = ops.ExecutionContext(V100, store=str(store_path))

    reset_tuning_seconds()
    matrices: dict = {}
    rows = []
    t0 = time.perf_counter()
    for task in tasks:
        a = matrices.get(task.spec)
        if a is None:
            a = matrices[task.spec] = task.spec.materialize()
        t_heur = ops.spmm_cost(
            a, task.n, context=heuristic_ctx, selector="heuristic"
        ).runtime_s
        t_tuned = ops.spmm_cost(
            a, task.n, context=tuned_ctx, selector="tuned"
        ).runtime_s
        assert t_tuned <= t_heur * (1 + 1e-12), (task.row_key, t_tuned, t_heur)
        rows.append(
            {
                "problem": task.spec.name,
                "n": task.n,
                "nnz": a.nnz,
                "heuristic_s": t_heur,
                "tuned_s": t_tuned,
                "speedup": t_heur / t_tuned,
            }
        )
    wall = time.perf_counter() - t0
    cold_tuning = tuning_seconds()

    geo = geomean([r["speedup"] for r in rows])
    wins = sum(1 for r in rows if r["speedup"] > 1.0 + 1e-9)
    print(
        f"quality: {len(rows)} problems, geomean tuned speedup {geo:.3f}x, "
        f"{wins} strict wins, cold tuning {cold_tuning:.2f}s "
        f"of {wall:.2f}s wall"
    )
    return {
        "problems": len(rows),
        "geomean_speedup": geo,
        "max_speedup": max(r["speedup"] for r in rows),
        "strict_wins": wins,
        "cold_tuning_s": cold_tuning,
        "wall_s": wall,
        "rows": rows,
    }


def bench_overhead(specs, n: int, store_path: Path, tmp: Path) -> dict:
    """Warm-store tuned sweep: search time must be noise, resume must work."""
    reset_worker_state()
    _, heur_report = run_sweep(
        specs, ["sputnik"], V100, n=n, workers=1,
        out_path=tmp / "sweep_heuristic.jsonl",
    )

    reset_worker_state()
    reset_tuning_seconds()
    out = tmp / "sweep_tuned.jsonl"
    tuned_rows, tuned_report = run_sweep(
        specs, ["sputnik"], V100, n=n, selector="tuned", workers=1,
        store_path=store_path, out_path=out,
    )
    warm_tuning = tuning_seconds()
    overhead = warm_tuning / tuned_report.wall_s if tuned_report.wall_s else 0.0

    assert all(r["selector"] == "tuned" for r in tuned_rows)
    assert all(r["row_key"].endswith("|sel:tuned") for r in tuned_rows)

    # Resume: every tuned row key must round-trip through the JSONL.
    reset_worker_state()
    resumed_rows, resumed_report = run_sweep(
        specs, ["sputnik"], V100, n=n, selector="tuned", workers=1,
        store_path=store_path, out_path=out, resume=True,
    )
    assert resumed_report.resumed == tuned_report.total_tasks, (
        resumed_report.resumed, tuned_report.total_tasks
    )
    assert resumed_report.measured == 0 and resumed_report.from_store == 0
    assert len(resumed_rows) == len(tuned_rows)

    print(
        f"overhead: tuned sweep {tuned_report.wall_s:.2f}s wall "
        f"({tuned_report.measured} measured), warm tuning {warm_tuning:.4f}s "
        f"({100 * overhead:.2f}% of wall); resume skipped all "
        f"{resumed_report.resumed} tasks"
    )
    return {
        "sweep_tasks": tuned_report.total_tasks,
        "heuristic_wall_s": heur_report.wall_s,
        "tuned_wall_s": tuned_report.wall_s,
        "warm_tuning_s": warm_tuning,
        "warm_tuning_fraction": overhead,
        "store_counters": tuned_report.store_counters,
        "resumed": resumed_report.resumed,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus sample, relaxed geomean floor (CI)")
    parser.add_argument("--sample", type=int, default=None,
                        help="corpus specs to sample (default 32, smoke 10)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON}; "
                             f"--out {OUT_JSON.name} rewrites the committed "
                             "report)")
    args = parser.parse_args()

    sample = args.sample or (10 if args.smoke else 32)
    min_geomean = 1.02 if args.smoke else 1.05
    max_overhead = 0.10
    n = 64

    specs = dnn_corpus.sample_corpus(sample)
    # One batch size for the whole study: batch_columns stay on the specs
    # for real sweeps, but here the quality stage must pre-warm exactly the
    # (matrix, n) pairs the overhead sweep dispatches.
    specs = [dataclasses.replace(s, batch_columns=()) for s in specs]
    tasks = build_tasks(specs, ["sputnik"], n=n, selector="tuned")

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        store = tmp / "plan_store"
        quality = bench_quality(tasks, store)
        overhead = bench_overhead(specs, n, store, tmp)

    report = {
        "benchmark": "cost-model plan autotuner",
        "mode": "smoke" if args.smoke else "full",
        "criteria": {
            "min_geomean_speedup": min_geomean,
            "max_warm_tuning_fraction": max_overhead,
        },
        "quality": {k: v for k, v in quality.items() if k != "rows"},
        "per_problem": quality["rows"],
        "overhead": overhead,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    assert quality["geomean_speedup"] >= min_geomean, (
        f"geomean {quality['geomean_speedup']:.3f}x below {min_geomean}x"
    )
    assert overhead["warm_tuning_fraction"] < max_overhead, (
        f"warm tuning {100 * overhead['warm_tuning_fraction']:.1f}% of sweep "
        f"wall exceeds {100 * max_overhead:.0f}%"
    )
    print(
        f"PASS: tuned {quality['geomean_speedup']:.3f}x geomean over "
        f"heuristic (>= {min_geomean}x), warm tuning "
        f"{100 * overhead['warm_tuning_fraction']:.2f}% of sweep wall "
        f"(< {100 * max_overhead:.0f}%)"
    )


if __name__ == "__main__":
    main()
