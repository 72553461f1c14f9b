"""Tests for repro.obs — tracing, metrics, and kernel-phase profiling."""

import json

import numpy as np
import pytest

from repro import ops
from repro.bench.runner import SPMM_KERNELS
from repro.bench.sweep import reset_worker_state, run_sweep
from repro.datasets.spec import MatrixSpec
from repro.gpu import V100, BlockCosts, execute
from repro.nn.mobilenet import MobileNetV1
from repro.nn.profile import Profile
from repro.obs import (
    NO_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    Tracer,
    build_report,
    chrome_trace_from_records,
    format_report,
    read_jsonl,
    validate_chrome_trace,
)
from repro.obs import report as report_cli
from repro.ops.context import TELEMETRY_SCHEMA
from repro.reliability import FallbackPolicy, FaultInjector, FaultSpec

from tests.conftest import random_sparse
from tests.test_executor import make_launch


@pytest.fixture(autouse=True)
def _fresh_contexts():
    ops.reset_default_contexts()
    reset_worker_state()
    yield
    ops.reset_default_contexts()
    reset_worker_state()


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_parent_ids(self):
        tracer = Tracer("t")
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert tracer.current is None
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert tracer.spans[1].dur_s >= tracer.spans[0].dur_s

    def test_attrs_events_and_sim_time(self):
        tracer = Tracer("t")
        with tracer.span("op", backend="sputnik") as span:
            span.set(plan_cache="hit")
            span.event("retry", backend="sputnik", attempt=1)
            span.add_sim(1e-5)
        record = span.to_record()
        assert record["args"] == {"backend": "sputnik", "plan_cache": "hit"}
        assert record["events"][0]["name"] == "retry"
        assert record["sim_s"] == pytest.approx(1e-5)

    def test_exception_marks_error(self):
        tracer = Tracer("t")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.spans[0].attrs["error"] == "ValueError"
        assert tracer.current is None

    def test_noop_span_api(self):
        with NO_SPAN as span:
            span.set(a=1)
            span.event("e")
            span.add_sim(1.0)
        assert span is NO_SPAN

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            Tracer("t", clock="gps")

    def test_complete_span_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Tracer("t").add_complete_span("s", ts_s=0.0, dur_s=-1.0)


class TestExport:
    def _traced(self):
        tracer = Tracer("t", pid=42)
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                inner.event("tick")
        return tracer

    def test_chrome_trace_valid(self):
        trace = self._traced().to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert all(e["pid"] == 42 for e in complete)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert instants and instants[0]["name"] == "tick"
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "t"

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        bad_event = {"traceEvents": [{"ph": "X", "pid": 0, "tid": 0}]}
        assert any("name" in p for p in validate_chrome_trace(bad_event))
        nan_ts = {
            "traceEvents": [
                {
                    "name": "x",
                    "ph": "X",
                    "pid": 0,
                    "tid": 0,
                    "ts": float("nan"),
                    "dur": 1.0,
                }
            ]
        }
        assert validate_chrome_trace(nan_ts) != []

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = self._traced()
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        records = read_jsonl(path)
        assert records[0]["type"] == "meta"
        assert sum(1 for r in records if r["type"] == "span") == 2
        assert validate_chrome_trace(chrome_trace_from_records(records)) == []

    def test_read_jsonl_skips_truncated_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._traced().write_jsonl(path)
        with path.open("a") as fh:
            fh.write('{"type": "span", "trunca')
        records = read_jsonl(path)
        assert sum(1 for r in records if r["type"] == "span") == 2

    def test_merge_records_preserves_worker_rows(self):
        parent = Tracer("driver", pid=1)
        worker = Tracer("worker", pid=2)
        with worker.span("task"):
            pass
        added = parent.merge_records(worker.to_jsonl_records())
        assert added == 1  # meta records are not merged
        trace = parent.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {2}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        c = reg.counter("launches", labelnames=("op",))
        c.labels("spmm").inc()
        c.labels("spmm").inc(2)
        c.labels(op="sddmm").inc()
        assert c.value == 4
        assert reg.snapshot()["launches"]["samples"] == {
            "op=sddmm": 1.0,
            "op=spmm": 3.0,
        }

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.labels().dec(2)
        assert g.value == 3

    def test_unlabeled_access_on_labeled_metric_rejected(self):
        c = MetricsRegistry().counter("c", labelnames=("op",))
        with pytest.raises(ValueError):
            c.inc()
        with pytest.raises(ValueError):
            c.labels("a", "b")

    def test_histogram_buckets(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0, 0.1):
            h.observe(v)
        sample = h.labels().sample()
        assert sample["counts"] == [2, 1, 1]
        assert sample["count"] == 4
        assert sample["sum"] == pytest.approx(55.6)

    def test_histogram_bad_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(3.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("h2", buckets=())

    def test_name_reuse_same_type_ok_conflict_raises(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_reset_zeroes_pushed_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.reset()
        assert reg.counter("c").value == 0

    def test_collector_samples_in_snapshot(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda: [("ext", {"k": "v"}, 7.0)])
        assert reg.snapshot()["ext"]["samples"] == {"k=v": 7.0}


class TestTelemetryBinding:
    def test_context_metrics_relabel_opstats(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm_cost(a, 32, context=ctx)
        snap = ctx.metrics.snapshot()
        assert snap["op_launches"]["samples"]["op=spmm,backend=sputnik"] == 1
        assert "op_simulated_seconds" in snap

    def test_context_metrics_histogram_fed_by_dispatch(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 64, 48, 0.3)
        reg = ctx.metrics  # lazily binds + attaches the histogram
        ops.spmm_cost(a, 32, context=ctx)
        ops.spmm_cost(a, 32, context=ctx)
        snap = reg.snapshot()
        hist = snap["sim_launch_seconds"]["samples"]["op=spmm,backend=sputnik"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(
            ctx.telemetry.simulated_seconds
        )
        assert snap["plan_cache_entries"]["samples"][
            f"device={device.name}"
        ] >= 1
        assert ctx.metrics_snapshot().keys() == snap.keys()


# ----------------------------------------------------------------------
# Telemetry snapshot contract (satellite: typing/reset semantics)
# ----------------------------------------------------------------------
class TestTelemetryContract:
    def test_snapshot_matches_schema_types_exactly(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm_cost(a, 32, context=ctx)
        for row in ctx.telemetry_snapshot().values():
            assert set(row) == set(TELEMETRY_SCHEMA)
            for key, value in row.items():
                assert type(value) is TELEMETRY_SCHEMA[key], key

    def test_reset_also_resets_store_counters(self, rng, device, tmp_path):
        ctx = ops.ExecutionContext(device, store=tmp_path / "plans")
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm_cost(a, 32, context=ctx, selector="tuned")
        assert ctx.store.stats.misses > 0 and ctx.store.stats.writes > 0
        ctx.reset_telemetry()
        assert ctx.telemetry_snapshot() == {}
        assert ctx.store.stats.as_dict() == {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "evictions": 0,
        }


# ----------------------------------------------------------------------
# Phase attribution
# ----------------------------------------------------------------------
class TestPhaseAttribution:
    @pytest.mark.parametrize(
        "costs",
        [
            BlockCosts(fma_instructions=1e5),
            BlockCosts(dram_bytes=1e6),
            BlockCosts(smem_bytes=5e5, l2_bytes=2e5),
            BlockCosts(
                fma_instructions=5e4, dram_bytes=3e5, l2_bytes=1e5,
                smem_bytes=1e5,
            ),
        ],
    )
    def test_phases_sum_to_runtime(self, costs):
        result = execute(make_launch(costs=costs, n_blocks=321), V100)
        assert result.phases is not None
        total = sum(result.phases.as_dict().values())
        assert total == pytest.approx(result.runtime_s, rel=0.01)

    def test_dram_bound_kernel_charges_dram(self):
        result = execute(
            make_launch(costs=BlockCosts(dram_bytes=1e6), n_blocks=8000), V100
        )
        phases = result.phases.as_dict()
        assert phases["dram"] == max(
            v for k, v in phases.items() if k not in ("imbalance", "overhead")
        )

    def test_add_overhead_charges_overhead_phase(self):
        result = execute(make_launch(), V100)
        bumped = result.add_overhead(1e-4)
        assert bumped.phases.overhead_s == pytest.approx(
            result.phases.overhead_s + 1e-4
        )
        assert sum(bumped.phases.as_dict().values()) == pytest.approx(
            bumped.runtime_s, rel=0.01
        )

    def test_sequence_sums_phases(self):
        a = execute(make_launch(), V100)
        b = execute(make_launch(costs=BlockCosts(dram_bytes=1e6)), V100)
        seq = type(a).sequence("pair", [a, b])
        assert seq.phases.total_s == pytest.approx(
            a.phases.total_s + b.phases.total_s
        )


class TestPhaseProfiler:
    def test_collects_and_aggregates(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 128, 96, 0.25)
        with PhaseProfiler() as prof:
            ops.spmm_cost(a, 32, context=ctx)
            ops.sddmm_cost(a, 32, context=ctx)
        assert len(prof.records) >= 2
        kernels = prof.by_kernel()
        assert all(stats.launches >= 1 for stats in kernels.values())
        for record in prof.records:
            assert sum(record.phases.values()) == pytest.approx(
                record.runtime_s, rel=0.01
            )

    def test_stops_collecting_after_exit(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 64, 48, 0.3)
        with PhaseProfiler() as prof:
            ops.spmm_cost(a, 32, context=ctx)
        n = len(prof.records)
        ops.sddmm_cost(a, 16, context=ctx)
        assert len(prof.records) == n

    def test_roofline_and_report(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 128, 96, 0.25)
        with PhaseProfiler() as prof:
            ops.spmm_cost(a, 32, context=ctx)
        points = prof.roofline(device)
        assert points and points[0]["bound"] in ("memory", "compute")
        assert 0 < points[0]["roof_fraction"] <= 1.5
        report = prof.report(device)
        assert report["launches"] == len(prof.records)
        assert "roofline" in report
        assert prof.summary().splitlines()

    def test_device_filter(self, rng, device):
        from repro.gpu import GTX1080

        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 64, 48, 0.3)
        with PhaseProfiler(device=GTX1080) as prof:
            ops.spmm_cost(a, 32, context=ctx)
        assert prof.records == []


# ----------------------------------------------------------------------
# Traced dispatch
# ----------------------------------------------------------------------
class TestTracedDispatch:
    def test_span_per_dispatch_with_cache_annotations(self, rng, device):
        ctx = ops.ExecutionContext(device, tracer=Tracer("t"))
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm_cost(a, 32, context=ctx)
        ops.spmm_cost(a, 32, context=ctx)
        spans = ctx.tracer.spans
        assert [s.name for s in spans] == ["spmm", "spmm"]
        assert spans[0].attrs["plan_cache"] == "miss"
        assert spans[0].attrs["plan_source"] == "built"
        assert spans[1].attrs["plan_cache"] == "hit"
        assert spans[1].attrs["plan_source"] == "memory"
        assert spans[0].attrs["backend"] == "sputnik"
        assert spans[0].sim_s > 0

    def test_store_tier_annotated(self, rng, device, tmp_path):
        a = random_sparse(rng, 64, 48, 0.3)
        warm = ops.ExecutionContext(device, store=tmp_path / "plans")
        warm.spmm_config(a, 32, selector="tuned")
        cold = ops.ExecutionContext(
            device, store=tmp_path / "plans", tracer=Tracer("t")
        )
        with cold.tracer.span("select"):
            cold.spmm_config(a, 32, selector="tuned")
        assert cold.tracer.spans[0].attrs["plan_source"] == "store"

    def test_untraced_context_records_nothing(self, rng, device):
        ctx = ops.ExecutionContext(device)
        a = random_sparse(rng, 64, 48, 0.3)
        result = ops.spmm_cost(a, 32, context=ctx)
        assert ctx.tracer is None
        assert result.runtime_s > 0

    def test_policy_events_on_span(self, rng, device):
        injector = FaultInjector(
            [FaultSpec("launch", backend="sputnik", every=1, max_faults=5)],
            seed=7,
        )
        ctx = ops.ExecutionContext(device, tracer=Tracer("t"))
        ctx.injector = injector
        a = random_sparse(rng, 64, 48, 0.3)
        chain = FallbackPolicy(("sputnik", "cusparse"), max_attempts=2)
        ops.spmm_cost(a, 32, context=ctx, backend=chain)
        span = ctx.tracer.spans[-1]
        names = [e["name"] for e in span.events]
        assert "retry" in names and "fallback" in names
        assert span.attrs["backend_used"] == "cusparse"
        assert span.attrs["fallbacks"] == 1

    def test_traced_chain_exports_valid_chrome_trace(self, rng, device):
        tracer = Tracer("chain")
        ctx = ops.ExecutionContext(device, tracer=tracer)
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm(a, np.ones((48, 8), dtype=np.float32), context=ctx,
                 backend=["sputnik", "dense"], validate=True)
        assert validate_chrome_trace(tracer.to_chrome_trace()) == []


# ----------------------------------------------------------------------
# Traced sweep + report CLI (acceptance: 20 matrices, valid Chrome JSON)
# ----------------------------------------------------------------------
def _sweep_specs(count: int) -> list[MatrixSpec]:
    return [
        MatrixSpec(
            name=f"m{i}",
            model="test",
            layer=f"l{i}",
            rows=64 + 8 * (i % 5),
            cols=48 + 8 * (i % 3),
            sparsity=0.6 + 0.05 * (i % 4),
            row_cov=0.3,
            seed=i,
        )
        for i in range(count)
    ]


class TestTracedSweep:
    def test_twenty_matrix_sweep_trace(self, device, tmp_path):
        trace_path = tmp_path / "sweep_trace.jsonl"
        rows, report = run_sweep(
            _sweep_specs(20),
            ["sputnik"],
            device,
            n=16,
            workers=1,
            trace_path=trace_path,
        )
        assert len(rows) == 20 and report.failed == 0
        records = read_jsonl(trace_path)
        assert records[0]["type"] == "meta"
        task_spans = [
            r
            for r in records
            if r["type"] == "span" and r["name"] == "sweep.task"
        ]
        assert len(task_spans) == 20
        # Per-kernel phase attributions sum to each launch's total.
        launches = [r for r in records if r["type"] == "launch"]
        assert launches
        for launch in launches:
            assert sum(launch["phases"].values()) == pytest.approx(
                launch["runtime_s"], rel=0.01
            )
        # The merged stream exports a valid Chrome trace.
        trace = chrome_trace_from_records(records)
        assert validate_chrome_trace(trace) == []
        names = {
            e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"sweep.task", "spmm"} <= names

    def test_untraced_sweep_writes_no_trace(self, device, tmp_path):
        rows, _ = run_sweep(
            _sweep_specs(2), ["sputnik"], device, n=16, workers=1
        )
        assert len(rows) == 2
        assert not (tmp_path / "sweep_trace.jsonl").exists()

    def test_report_cli_on_sweep_trace(self, device, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        run_sweep(
            _sweep_specs(3), ["sputnik"], device, n=16, workers=1,
            trace_path=trace_path,
        )
        assert report_cli.main([str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "span categories" in out and "sweep" in out
        assert report_cli.main([str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_spans"] > 0 and payload["kernels"]

    def test_report_cli_missing_trace(self, tmp_path, capsys):
        assert report_cli.main([str(tmp_path / "nope.jsonl")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_build_report_rollups(self, device, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        run_sweep(
            _sweep_specs(2), ["sputnik"], device, n=16, workers=1,
            trace_path=trace_path,
        )
        report = build_report(read_jsonl(trace_path))
        assert report["categories"]["sweep"]["count"] == 2
        assert format_report(report)


# ----------------------------------------------------------------------
# Profile.to_trace (acceptance: traced MobileNet forward)
# ----------------------------------------------------------------------
class TestProfileToTrace:
    def test_mobilenet_forward_trace(self, device):
        model = MobileNetV1(width=0.25, sparse=True, seed=0)
        profile = Profile()
        rng = np.random.default_rng(0)
        model.forward(
            rng.random((3, 224, 224)).astype(np.float32), device, profile
        )
        tracer = profile.to_trace("mobilenet")
        assert tracer.clock == "sim"
        trace = tracer.to_chrome_trace()
        assert validate_chrome_trace(trace) == []
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # Root span plus one child per profiled kernel.
        assert len(complete) == len(profile.records) + 1
        root = next(e for e in complete if e["name"] == "mobilenet")
        assert root["dur"] == pytest.approx(profile.runtime_s * 1e6)
        # Children tile the simulated timeline back-to-back.
        kernels = sorted(
            (e for e in complete if e is not root), key=lambda e: e["ts"]
        )
        assert kernels[0]["ts"] == 0.0
        assert kernels[-1]["ts"] + kernels[-1]["dur"] == pytest.approx(
            root["dur"], rel=1e-6
        )
        # Phase attributions ride along and sum to each launch's runtime.
        launches = tracer.to_jsonl_records()
        launches = [r for r in launches if r["type"] == "launch"]
        assert launches
        for launch in launches:
            assert sum(launch["phases"].values()) == pytest.approx(
                launch["runtime_s"], rel=0.01
            )


# ----------------------------------------------------------------------
# Bench rows (satellite: wall clock + telemetry deltas)
# ----------------------------------------------------------------------
class TestBenchRowTelemetry:
    def test_rows_carry_wall_and_deltas(self, rng, device):
        from repro.bench.runner import run_spmm_suite

        a = random_sparse(rng, 96, 64, 0.3)
        rows = run_spmm_suite(
            [("p", a, 32)], {"sputnik": SPMM_KERNELS["sputnik"]}, device
        )
        row = rows[0]
        assert row.wall_s > 0
        assert row.telemetry["launches"] == 1
        assert row.telemetry["cache_misses"] >= 1
        assert row.telemetry["simulated_seconds"] == pytest.approx(
            row.runtime_s
        )
        # A second pass over the same problem hits the plan cache.
        again = run_spmm_suite(
            [("p", a, 32)], {"sputnik": SPMM_KERNELS["sputnik"]}, device
        )[0]
        assert again.telemetry["cache_hits"] >= 1
        assert again.telemetry["cache_misses"] == 0

    def test_failed_row_still_measured(self, device, rng):
        def broken(a, n, dev):
            raise RuntimeError("kaput")

        from repro.bench.runner import run_spmm_suite

        a = random_sparse(rng, 64, 48, 0.3)
        row = run_spmm_suite([("p", a, 16)], {"bad": broken}, device)[0]
        assert row.failed and row.wall_s >= 0
        assert row.telemetry["launches"] == 0
