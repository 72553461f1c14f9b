"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts one worker per workload, with the environment pinned;
see ``README.md``. A run sets the workload up ``SETUPS`` times, keeps the
last set-up, and measures closed-loop iterations with tracing off. With
``--trace 1`` it then installs the layer spans and measures again, and the
per-layer metrics come from that second phase.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from repro.gpu.executor import PHASE_NAMES
from repro.nn.profile import Profile
from repro.obs.report import build_report
from repro.obs.tracing import read_jsonl, validate_trace_records

from layers import LayerTrace
from workloads import WORKLOADS

SETUPS = 3
#: The traced phase measures for half the run, and at least this often.
TRACE_MIN_ITERS = 20
#: A phase stops at ``seconds * PHASE_CAP`` even short of its minimum.
PHASE_CAP = 4
MIN_ATTRIBUTED = 0.9
MAX_TRACEBACKS = 3


@dataclass
class Phase:
    """What one measured phase saw, iteration by iteration."""

    attempted: int = 0
    times: list[float] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    #: Simulated seconds and phase seconds over the first ``window``
    #: iterations, and the memory peaks when that window closed: fixed by
    #: the seed, however many iterations the host managed.
    sim_s: list[float] = field(default_factory=list)
    phases_s: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(PHASE_NAMES, 0.0)
    )
    hbm_peak_bytes: int = 0
    rss_peak_kib: int = 0


def measure(workload, first: int, seconds: float, min_iters: int,
            window: int = 0, trace: LayerTrace | None = None) -> Phase:
    """Closed loop: each iteration starts once the previous one returned."""
    phase = Phase()
    gc.collect()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = phase.attempted
        if elapsed >= seconds and done >= min_iters:
            break
        if elapsed >= seconds * PHASE_CAP:
            break
        i = first + done
        profile = Profile()
        scope = trace.iteration(i, profile) if trace else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                out = workload.iterate(i, profile)
        except Exception:
            if len(phase.failed) < MAX_TRACEBACKS:
                traceback.print_exc()
            phase.failed.append(i)
        else:
            phase.times.append(time.perf_counter() - t0)
            workload.record(i, out)
        if done < window:
            phase.sim_s.append(profile.runtime_s)
            for result in profile.records:
                if result.phases is not None:
                    for name, value in result.phases.as_dict().items():
                        phase.phases_s[name] += value
        phase.attempted += 1
        if phase.attempted == window:
            snapshot_memory(workload, phase)
    if window and phase.attempted < window:
        snapshot_memory(workload, phase)
    return phase


def snapshot_memory(workload, phase: Phase) -> None:
    phase.hbm_peak_bytes = workload.hbm_peak_bytes()
    phase.rss_peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(workload, setup_s: list[float], run: Phase) -> dict:
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "iter_ms_p50": (float(np.median(run.times)) * 1e3, "ms"),
        "host_work_per_s": (
            workload.work_per_iter * len(run.times) / sum(run.times), "1/s"
        ),
        "sim_ms_per_iter": (float(np.mean(run.sim_s)) * 1e3, "ms"),
        "peak_rss_mb": (run.rss_peak_kib / 1024, "MiB"),
        "hbm_peak_mb": (run.hbm_peak_bytes / 2**20, "MiB"),
    }


def per_layer(trace: LayerTrace, traced: Phase, run: Phase,
              before: dict, after: dict) -> dict:
    n = traced.attempted
    layer_metrics, attributed = trace.summary(n)
    metrics = {k: (v, "ms/iter" if k.endswith("self_ms") else "count/iter")
               for k, v in layer_metrics.items()}
    delta = {k: after[k] - before[k] for k in after}
    lookups = delta["cache_hits"] + delta["cache_misses"]
    built = delta["cache_misses"] - delta["store_hits"] - delta["plan_repairs"]
    evictions = (trace.lru_evictions + delta["plan_invalidations"]
                 + delta["plan_evictions"])
    metrics.update({
        "ops.plan_cache.hit_ratio": (
            delta["cache_hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "ops.plan_cache.built": (built / n, "count/iter"),
        "ops.plan_cache.repaired": (delta["plan_repairs"] / n, "count/iter"),
        "ops.plan_cache.evictions": (evictions / n, "count/iter"),
        "core.repair.rows": (delta["plan_repair_rows"] / n, "count/iter"),
        "reliability.retries": (delta["retries"] / n, "count/iter"),
        "reliability.fallbacks": (delta["fallbacks"] / n, "count/iter"),
    })
    window = len(run.sim_s)
    for name in PHASE_NAMES:
        metrics[f"gpu.sim.{name}_us"] = (
            run.phases_s[name] * 1e6 / window, "us/iter"
        )
    metrics["bench.trace_overhead"] = (
        float(np.median(traced.times) / np.median(run.times)), "ratio"
    )
    metrics["bench.attributed_frac"] = (attributed, "ratio")
    return metrics


def as_records(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def check_trace(path: Path) -> list[str]:
    """The trace must pass the schema check and load in the report CLI."""
    records = read_jsonl(path)
    problems = validate_trace_records(records)
    if not problems:
        build_report(records)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)

    run = measure(workload, 0, args.seconds, workload.min_iters,
                  window=workload.min_iters)
    if not run.times:
        print(f"{args.workload}: every iteration failed", file=sys.stderr)
        return 1
    e2e = end_to_end(workload, setup_s, run)
    phases = [run]
    problems: list[str] = []
    layer_metrics: dict = {}
    trace_path = None
    if args.trace:
        trace = LayerTrace(process=f"e2e:{args.workload}")
        trace.install()
        before = workload.telemetry_totals()
        traced = measure(workload, run.attempted, args.seconds / 2,
                         TRACE_MIN_ITERS, trace=trace)
        phases.append(traced)
        if not traced.times:
            print(f"{args.workload}: every traced iteration failed",
                  file=sys.stderr)
            return 1
        layer_metrics = per_layer(
            trace, traced, run, before, workload.telemetry_totals()
        )
        attributed = layer_metrics["bench.attributed_frac"][0]
        if attributed < MIN_ATTRIBUTED:
            problems.append(
                f"layer spans cover {attributed:.3f} of iteration time, "
                f"below {MIN_ATTRIBUTED}"
            )
        trace_path = args.out / f"{args.workload}-seed{args.seed}.trace.jsonl"
        trace.tracer.write_jsonl(trace_path)
        problems += check_trace(trace_path)

    workload.verify()
    problems += workload.problems
    failed = set(workload.bad).union(*(p.failed for p in phases))
    p90 = float(np.percentile(run.times, 90))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not failed and not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(failed),
        "problems": problems,
        "end_to_end": as_records(e2e),
        "per_layer": as_records(layer_metrics),
        # Printed, not gated: on a shared machine the p90 swings with load
        # from outside the process by more than any bound it could have.
        "reported": as_records({"iter_ms_p90": (p90 * 1e3, "ms")}),
        "info": {
            "iterations": len(run.times),
            "beyond_p90": sum(t > p90 for t in run.times),
            "work_unit": workload.work_unit,
            "work_per_iter": workload.work_per_iter,
            "sim_window": len(run.sim_s),
            "setup_s_samples": setup_s,
            "trace_path": str(trace_path) if trace_path else None,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
