"""Tests for the continuous-observability layer: flight recorder,
Prometheus/JSON metrics export, perf-regression gate, and the report
CLI's bottleneck classifier / trace diffing."""

import json
import os
import tempfile

import numpy as np
import pytest

from repro import ops
from repro.datasets.spec import MatrixSpec
from repro.gpu import V100
from repro.gpu.executor import PhaseTimes
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    Tracer,
    bind_context_metrics,
    bind_group_metrics,
    build_report,
    chrome_trace_from_records,
    classify_phases,
    diff_traces,
    flight_capacity_from_env,
    read_jsonl,
    render_prometheus,
    validate_chrome_trace,
    validate_prometheus_text,
    validate_trace_records,
)
from repro.obs import export as export_cli
from repro.obs import regress
from repro.obs import report as report_cli
from repro.ops import ExecutionContext
from repro.reliability import (
    DeviceOOMError,
    FallbackExhaustedError,
    FallbackPolicy,
    FaultInjector,
    FaultSpec,
)
from tests.conftest import random_sparse

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))


@pytest.fixture(autouse=True)
def _fresh_contexts():
    ops.reset_default_contexts()
    yield
    ops.reset_default_contexts()


def problem(rng, rows=96, cols=64, density=0.3, n=16):
    a = random_sparse(rng, rows, cols, density)
    b = rng.standard_normal((cols, n)).astype(np.float32)
    return a, b


# ----------------------------------------------------------------------
# Flight recorder mechanics
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounds_and_dropped_count(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record("tick", f"e{i}")
        assert len(flight) == 4
        assert flight.total_events == 10
        assert flight.dropped_events == 6
        names = [name for _, _, name, _, _ in flight._events]
        assert names == ["e6", "e7", "e8", "e9"]

    def test_attr_named_kind_survives(self):
        # record()'s own parameters are positional-only, so event attrs
        # may legitimately be called kind/name/sim_s.
        flight = FlightRecorder(capacity=4)
        flight.record("oom_evict", "oom_evict", kind="tensor", name="t0")
        record = flight.to_records()[-1]
        assert record["args"]["kind"] == "tensor"
        assert record["args"]["name"] == "t0"

    def test_records_validate_and_export_chrome(self):
        flight = FlightRecorder(capacity=8, device_id=3)
        flight.record("retry", "spmm", 0.0, backend="sputnik", attempt=1)

        class FakeExec:
            name = "sputnik_spmm_fp32"
            runtime_s = 1.5e-6

        flight.record_launch("spmm", "sputnik", FakeExec())
        records = flight.to_records(reason="unit")
        assert validate_trace_records(records) == []
        assert records[0]["flight"]["reason"] == "unit"
        span = next(r for r in records if r["type"] == "span")
        assert span["args"]["device_id"] == 3
        trace = chrome_trace_from_records(records)
        assert validate_chrome_trace(trace) == []

    def test_dump_writes_jsonl(self, tmp_path):
        flight = FlightRecorder(capacity=8)
        flight.record("tick", "a")
        path = flight.dump(tmp_path / "window.jsonl", reason="unit")
        records = read_jsonl(path)
        assert validate_trace_records(records) == []
        assert records[0]["flight"]["events"] == 1

    def test_attach_sets_error_attributes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        flight = FlightRecorder(capacity=8)
        flight.record("failure", "spmm", error="KernelLaunchError")
        err = flight.attach(RuntimeError("boom"), reason="unit")
        assert isinstance(err, RuntimeError)
        assert validate_trace_records(err.flight_records) == []
        assert err.flight_dump is not None
        assert read_jsonl(err.flight_dump)

    def test_env_capacity_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLIGHT", raising=False)
        assert flight_capacity_from_env() == 256
        monkeypatch.setenv("REPRO_FLIGHT", "32")
        assert flight_capacity_from_env() == 32
        monkeypatch.setenv("REPRO_FLIGHT", "off")
        assert flight_capacity_from_env() is None
        monkeypatch.setenv("REPRO_FLIGHT", "0")
        assert flight_capacity_from_env() is None
        monkeypatch.setenv("REPRO_FLIGHT", "garbage")
        assert flight_capacity_from_env() == 256

    def test_signature_is_wall_time_free(self):
        a = FlightRecorder(capacity=4)
        b = FlightRecorder(capacity=4)
        for flight in (a, b):
            flight.record("tick", "x", 1e-6, op="spmm")
        assert a.signature() == b.signature()


# ----------------------------------------------------------------------
# Context + policy integration
# ----------------------------------------------------------------------
class TestContextFlight:
    def test_default_context_records_launches(self, rng):
        ctx = ExecutionContext(V100)
        assert ctx.flight is not None
        a, b = problem(rng)
        ops.spmm(a, b, context=ctx)
        kinds = [kind for _, kind, _, _, _ in ctx.flight._events]
        assert "launch" in kinds

    def test_flight_false_disables(self):
        assert ExecutionContext(V100, flight=False).flight is None

    def test_flight_true_uses_default_capacity(self):
        assert ExecutionContext(V100, flight=True).flight.capacity == 256

    def test_env_off_disables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT", "off")
        assert ExecutionContext(V100).flight is None

    def test_oom_error_carries_flight_dump(self, rng, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        ctx = ExecutionContext(V100, memory=64 * 1024)
        a, b = problem(rng, rows=512, cols=512, density=0.5, n=64)
        with pytest.raises(DeviceOOMError) as excinfo:
            ops.spmm(a, b, context=ctx, backend="sputnik")
        err = excinfo.value
        records = err.flight_records
        assert validate_trace_records(records) == []
        kinds = {r["args"]["kind"] for r in records if r["type"] == "span"}
        assert "oom" in kinds
        assert err.flight_dump is not None
        dumped = read_jsonl(err.flight_dump)
        assert validate_trace_records(dumped) == []

    def test_exhausted_chain_carries_flight_window(self, rng):
        a, b = problem(rng)
        ctx = ExecutionContext(V100)
        injector = FaultInjector(
            [FaultSpec("launch", rate=1.0)], seed=CHAOS_SEED
        )
        chain = FallbackPolicy(("sputnik", "cusparse"), max_attempts=2)
        with injector.attached(ctx):
            with pytest.raises(FallbackExhaustedError) as excinfo:
                ops.spmm(a, b, context=ctx, backend=chain)
        records = excinfo.value.flight_records
        assert validate_trace_records(records) == []
        kinds = [r["args"]["kind"] for r in records if r["type"] == "span"]
        assert "retry" in kinds
        assert "fallback" in kinds
        assert kinds.count("failure") == 1  # terminal event, once

    def test_flight_window_deterministic_under_seeded_faults(self, rng):
        def run_once() -> list[tuple]:
            chaos_rng = np.random.default_rng(7)
            a, b = problem(chaos_rng)
            ctx = ExecutionContext(V100)
            injector = FaultInjector(
                [FaultSpec("launch", backend="sputnik", every=1,
                           max_faults=2)],
                seed=CHAOS_SEED,
            )
            chain = FallbackPolicy(("sputnik", "cusparse"), max_attempts=3)
            with injector.attached(ctx):
                ops.spmm(a, b, context=ctx, backend=chain)
            return ctx.flight.signature()

        first = run_once()
        second = run_once()
        assert first == second
        assert any(kind == "retry" for kind, _, _, _ in first)


# ----------------------------------------------------------------------
# One event vocabulary: counters, span events and the flight ring agree
# ----------------------------------------------------------------------
MiB = 1024 * 1024


def _inject(ctx, rng, spec, warm=False, chain=("sputnik", "cusparse")):
    a, b = problem(rng)
    if warm:
        ops.spmm(a, b, context=ctx)
    injector = FaultInjector([spec], seed=CHAOS_SEED)
    with injector.attached(ctx):
        try:
            ops.spmm(a, b, context=ctx, backend=FallbackPolicy(chain))
        except FallbackExhaustedError:
            pass


def _allocator_oom(ctx, rng):
    # Demand nearly the whole 8 MiB device: tensors, then plans, go.
    ops.spmm_cost(random_sparse(rng, 256, 256, 0.125), 16, context=ctx)
    ctx.memory.free(ctx.try_allocate(15 * MiB // 2, "workspace", "test", "x"))


def _mutated(rng):
    from repro.nn.dynamic import drop_grow_update, select_rows

    parent = random_sparse(rng, 96, 96, 0.2)
    grad = rng.standard_normal((96, 96)).astype(np.float32)
    child, delta = drop_grow_update(
        parent, grad, select_rows(parent, 0.1, rng), 0.3
    )
    return parent, child, delta


def _repair_and_invalidate(ctx, rng):
    parent, child, delta = _mutated(rng)
    ctx.spmm_plan(parent, 8)
    ctx.register_topology_delta(delta)
    ctx.spmm_plan(child, 8)
    ctx.invalidate_topology(delta.parent)


def _repair_fault(ctx, rng):
    parent, child, delta = _mutated(rng)
    ctx.spmm_plan(parent, 8)
    ctx.register_topology_delta(delta)
    with FaultInjector([FaultSpec("repair", every=1)]).attached(ctx):
        ctx.spmm_plan(child, 8)


def _fp16_degraded(ctx, rng):
    from repro.sparse.csr import CSRMatrix

    a = CSRMatrix.from_dense(
        np.full((8, 64), 64.0, dtype=np.float32), dtype=np.float16
    )
    b = np.full((64, 4), 64.0, dtype=np.float16)
    ops.spmm(a, b, context=ctx, validate=True)


def _store_lookups(ctx, rng):
    a = random_sparse(rng, 64, 64, 0.2)
    with tempfile.TemporaryDirectory() as root:
        ctx.attach_store(root)
        ctx.spmm_config(a, 16, selector="oracle")
        ctx.clear()
        ctx.spmm_config(a, 16, selector="oracle")
        ctx.attach_store(None)
    assert ctx.telemetry.store_misses == ctx.telemetry.store_hits == 1


#: (scenario, context kwargs, driver, event kinds it must emit).
EVENT_SCENARIOS = [
    ("allocator_oom", {"memory": 8 * MiB}, _allocator_oom,
     {"oom", "oom_flush", "oom_evict"}),
    ("injected_oom", {}, lambda ctx, rng: _inject(
        ctx, rng, FaultSpec("oom", backend="sputnik", every=1, max_faults=3),
        warm=True,
    ), {"fault", "oom", "oom_flush", "oom_evict", "retry", "fallback"}),
    ("launch", {}, lambda ctx, rng: _inject(
        ctx, rng, FaultSpec("launch", backend="sputnik", every=1,
                            max_faults=1),
    ), {"fault", "retry"}),
    ("latency", {}, lambda ctx, rng: _inject(
        ctx, rng, FaultSpec("latency", every=1, max_faults=1),
    ), {"fault", "injected_latency"}),
    ("bitflip", {}, lambda ctx, rng: _inject(
        ctx, rng, FaultSpec("bitflip", op="spmm", every=1, max_faults=1),
    ), {"fault", "retry"}),
    ("plan_poison", {}, lambda ctx, rng: _inject(
        ctx, rng, FaultSpec("plan_poison", op="spmm", every=1, max_faults=1),
        warm=True,
    ), {"fault", "retry"}),
    ("exhausted_chain", {}, lambda ctx, rng: _inject(
        ctx, rng, FaultSpec("launch", rate=1.0),
    ), {"fault", "retry", "fallback", "failure"}),
    ("repair_fault", {}, _repair_fault, {"fault", "plan_repair_failed"}),
    ("repair_invalidate", {}, _repair_and_invalidate,
     {"plan_repair", "plan_invalidate"}),
    ("fp16_degraded", {}, _fp16_degraded, {"degraded"}),
    ("store_lookups", {}, _store_lookups, set()),
]


class TestEventProjections:
    @pytest.mark.parametrize(
        "kwargs, drive, kinds",
        [scenario[1:] for scenario in EVENT_SCENARIOS],
        ids=[scenario[0] for scenario in EVENT_SCENARIOS],
    )
    def test_counters_spans_and_flight_agree(self, rng, kwargs, drive, kinds):
        """Every event lands in each store its EVENTS row names, with the
        same count and amounts, so the counter totals can be rebuilt from
        the span events and from the flight ring alike."""
        from repro.obs.report import rollup_memory
        from repro.ops.context import EVENTS, TELEMETRY_SCHEMA

        tracer = Tracer(process="test")
        ctx = ExecutionContext(
            V100, tracer=tracer, flight=FlightRecorder(4096), **kwargs
        )
        with tracer.span("scenario"):
            drive(ctx, rng)
        projected = {
            "span": [
                (ev["name"], ev["args"])
                for span in tracer.spans
                for ev in span.events
            ],
            "flight": [
                (kind, attrs)
                for _, kind, _, _, attrs in ctx.flight._window()
                if kind != "launch"
            ],
        }
        assert kinds <= {kind for kind, _ in projected["flight"]}
        for where, events in projected.items():
            routed = {k for k, e in EVENTS.items() if getattr(e, where)}
            assert {kind for kind, _ in events} <= routed
            implied = dict.fromkeys(TELEMETRY_SCHEMA, 0)
            for kind, attrs in events:
                for counter, attr in EVENTS[kind].counters.items():
                    implied[counter] += 1 if attr is None else attrs.get(
                        attr, 0
                    )
            for counter in TELEMETRY_SCHEMA:
                feeders = {
                    k for k, e in EVENTS.items() if counter in e.counters
                }
                if feeders and feeders <= routed:
                    assert implied[counter] == pytest.approx(
                        getattr(ctx.telemetry, counter)
                    ), (where, counter)
        both = {k for k, e in EVENTS.items() if e.span and e.flight}
        for kind in both:
            assert [a for k, a in projected["span"] if k == kind] == [
                a for k, a in projected["flight"] if k == kind
            ], kind
        memory = rollup_memory(tracer.to_jsonl_records()) or {}
        assert memory.get("oom_events", 0) == ctx.telemetry.oom_events


# ----------------------------------------------------------------------
# Device groups: merged windows, device_id labels
# ----------------------------------------------------------------------
class TestGroupFlight:
    def test_group_flight_records_are_device_stamped(self, rng, tmp_path):
        from repro.dist.group import DeviceGroup
        from repro.dist.sharded import sharded_spmm

        group = DeviceGroup(2)
        a = random_sparse(rng, 128, 128, 0.3)
        b = rng.standard_normal((128, 16)).astype(np.float32)
        sharded_spmm(a, b, group)
        records = group.flight_records(reason="unit")
        assert validate_trace_records(records) == []
        metas = [r for r in records if r["type"] == "meta"]
        assert len(metas) == 2
        path = group.dump_flight(tmp_path / "group.jsonl")
        assert validate_trace_records(read_jsonl(path)) == []

    def test_group_metrics_carry_device_id_labels(self, rng):
        from repro.dist.group import DeviceGroup
        from repro.dist.sharded import sharded_spmm

        group = DeviceGroup(2)
        a = random_sparse(rng, 128, 128, 0.3)
        b = rng.standard_normal((128, 16)).astype(np.float32)
        sharded_spmm(a, b, group)
        snapshot = group.metrics_snapshot()
        launch_keys = snapshot["op_launches"]["samples"].keys()
        devices = {
            key.split("device_id=")[1].split(",")[0]
            for key in launch_keys
            if "device_id=" in key
        }
        assert {"0", "1"} <= devices
        text = render_prometheus(snapshot)
        assert validate_prometheus_text(text) == []
        assert 'device_id="1"' in text

    def test_device_id_spans_round_trip_merge_and_chrome(self, rng):
        """device_id-stamped spans survive merge_records into a foreign
        tracer and still export a valid Chrome trace with per-device
        rollups intact."""
        from repro.dist.group import DeviceGroup
        from repro.dist.sharded import sharded_spmm

        tracer = Tracer(process="group")
        group = DeviceGroup(2, tracer=tracer)
        a = random_sparse(rng, 128, 128, 0.3)
        b = rng.standard_normal((128, 16)).astype(np.float32)
        sharded_spmm(a, b, group)
        group.emit_memory_spans()
        records = tracer.to_jsonl_records()

        merged = Tracer(process="collector")
        added = merged.merge_records(records)
        assert added > 0
        merged_records = merged.to_jsonl_records()
        assert validate_trace_records(merged_records) == []
        assert validate_chrome_trace(
            chrome_trace_from_records(merged_records)
        ) == []
        devices = report_cli.rollup_devices(merged_records)
        assert set(devices) == {0, 1}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestExport:
    def _snapshot(self, rng):
        ctx = ExecutionContext(V100)
        registry = bind_context_metrics(MetricsRegistry(), ctx)
        a, b = problem(rng)
        ops.spmm(a, b, context=ctx)
        ops.spmm(a, b, context=ctx)
        return registry.snapshot()

    def test_exposition_validates(self, rng):
        text = render_prometheus(self._snapshot(rng))
        assert validate_prometheus_text(text) == []

    def test_counter_naming_and_values(self, rng):
        text = render_prometheus(self._snapshot(rng))
        assert "# TYPE op_launches_total counter" in text
        assert (
            'op_launches_total{op="spmm",backend="sputnik"} 2' in text
        )

    def test_histogram_cumulative_with_inf(self, rng):
        text = render_prometheus(self._snapshot(rng))
        lines = [
            line for line in text.splitlines()
            if line.startswith("sim_launch_seconds_bucket")
        ]
        assert lines[-1].split()[0].endswith('le="+Inf"}')
        counts = [float(line.split()[-1]) for line in lines]
        assert counts == sorted(counts)
        assert "sim_launch_seconds_sum" in text
        assert "sim_launch_seconds_count" in text

    def test_gauge_reclassification(self, rng):
        text = render_prometheus(self._snapshot(rng))
        assert "# TYPE hbm_allocated_bytes gauge" in text
        assert "hbm_allocated_bytes_total" not in text

    def test_label_escaping(self):
        snapshot = {
            "weird": {
                "type": "counter",
                "help": "x",
                "samples": {'op=a"b\\c': 1.0},
            }
        }
        text = render_prometheus(snapshot)
        assert validate_prometheus_text(text) == []
        assert r"a\"b\\c" in text

    def test_validator_catches_broken_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        problems = validate_prometheus_text(text)
        assert any("+Inf" in p for p in problems)

    def test_validator_catches_malformed_sample(self):
        assert validate_prometheus_text("not a sample line\n")

    def test_cli_snapshot_file_and_json(self, rng, tmp_path, capsys):
        snapshot_path = tmp_path / "snap.json"
        snapshot_path.write_text(json.dumps(self._snapshot(rng)))
        assert export_cli.main([str(snapshot_path), "--check"]) == 0
        text = capsys.readouterr().out
        assert validate_prometheus_text(text) == []
        out_path = tmp_path / "snap.prom"
        assert export_cli.main(
            [str(snapshot_path), "--out", str(out_path)]
        ) == 0
        assert validate_prometheus_text(out_path.read_text()) == []
        assert export_cli.main([str(snapshot_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)

    def test_cli_rejects_bad_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert export_cli.main([str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert export_cli.main([str(missing)]) == 1
        capsys.readouterr()


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
class TestRegress:
    #: Copies of the BENCH artifacts the gate reads and of their history,
    #: so a benchmark run that rewrites the live files cannot move these
    #: tests. The CI obs-regress job checks the live files.
    FIXTURE_ROOT = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "fixtures", "regress"
    )

    def test_committed_baselines_pass(self, capsys):
        """The fixture BENCH artifacts pass against the fixture history."""
        code = regress.main(["--check", "--root", self.FIXTURE_ROOT])
        out = capsys.readouterr()
        assert code == 0, out.out + out.err

    def test_injected_slowdown_fails_every_metric(self, capsys):
        """A 20% injected slowdown in any single headline metric must
        flip the gate to a nonzero exit."""
        for metric in regress.METRICS:
            factor = 0.8 if metric.higher_better else 1.2
            code = regress.main(
                ["--check", "--root", self.FIXTURE_ROOT,
                 "--scale", f"{metric.key}={factor}"]
            )
            capsys.readouterr()
            assert code == 1, f"{metric.key} slowdown not caught"

    def test_within_noise_change_passes(self, capsys):
        code = regress.main(
            ["--check", "--root", self.FIXTURE_ROOT,
             "--scale", "batched.attention_sim_speedup=0.98"]
        )
        capsys.readouterr()
        assert code == 0

    def test_improvements_pass(self, capsys):
        code = regress.main(
            ["--check", "--root", self.FIXTURE_ROOT,
             "--scale", "autotune.geomean_speedup=1.5",
             "--scale", "obs.tracing_off_ratio=0.9"]
        )
        capsys.readouterr()
        assert code == 0

    def test_ingest_then_check_roundtrip(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert regress.main(
            ["--ingest", "--root", self.FIXTURE_ROOT,
             "--history", str(history), "--note", "unit"]
        ) == 0
        entry = json.loads(history.read_text().splitlines()[0])
        assert entry["note"] == "unit"
        assert len(entry["metrics"]) == len(regress.METRICS)
        assert regress.main(
            ["--check", "--root", self.FIXTURE_ROOT,
             "--history", str(history)]
        ) == 0
        capsys.readouterr()

    def test_no_history_exits_2(self, tmp_path, capsys):
        code = regress.main(
            ["--check", "--root", self.FIXTURE_ROOT,
             "--history", str(tmp_path / "none.jsonl")]
        )
        capsys.readouterr()
        assert code == 2

    def test_missing_metric_is_a_failure(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        history.write_text(json.dumps(
            {"metrics": {m.key: 1.0 for m in regress.METRICS}}
        ) + "\n")
        # Point --root at an empty dir: every BENCH file is missing, so
        # every metric the history knows about is now unresolvable.
        code = regress.main(
            ["--check", "--root", str(tmp_path), "--history", str(history)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "missing" in out

    def test_median_baseline_damps_one_noisy_ingest(self):
        history = [
            {"metrics": {"m": 10.0}},
            {"metrics": {"m": 10.2}},
            {"metrics": {"m": 99.0}},  # one bad ingest
        ]
        base = regress.baseline_from_history(history)
        assert base["m"] == pytest.approx(10.2)

    def test_path_resolution(self):
        data = {"a": {"b.c": [0, {"d": 3.5}]}}
        assert regress.resolve_path(data, "a/b.c/1/d") == 3.5
        assert regress.resolve_path(data, "a/missing") is None
        assert regress.resolve_path(data, "a/b.c/9/d") is None


# ----------------------------------------------------------------------
# Report: bottleneck classifier, dist rollup, diff, strict exits
# ----------------------------------------------------------------------
class TestClassifier:
    def test_phase_times_bottleneck(self):
        assert PhaseTimes(compute_s=5, dram_s=1).bottleneck() == "compute"
        assert PhaseTimes(compute_s=1, dram_s=5).bottleneck() == "memory"
        assert PhaseTimes(l1_s=2, l2_s=2, compute_s=3).bottleneck() == "memory"
        assert (
            PhaseTimes(imbalance_s=4, overhead_s=2, compute_s=5).bottleneck()
            == "overhead"
        )
        assert PhaseTimes().bottleneck() == "memory"  # tie -> memory

    def test_classify_phases_matches_phase_times(self):
        times = PhaseTimes(compute_s=3, dram_s=1, imbalance_s=0.5)
        assert classify_phases(times.as_dict()) == times.bottleneck()

    def test_interconnect_override(self):
        phases = {"compute": 10.0}
        assert classify_phases(phases, 0.6) == "interconnect"
        assert classify_phases(phases, 0.4) == "compute"

    def test_report_tags_kernels_and_devices(self, rng):
        from repro.dist.group import DeviceGroup
        from repro.dist.sharded import sharded_spmm

        tracer = Tracer()
        group = DeviceGroup(2, tracer=tracer)
        a = random_sparse(rng, 256, 256, 0.3)
        b = rng.standard_normal((256, 32)).astype(np.float32)
        sharded_spmm(a, b, group)
        report = build_report(tracer.to_jsonl_records())
        assert report["dist"] is not None
        assert report["dist"]["spans"] == 1
        assert report["dist"]["exposed_comm_s"] >= 0
        assert report["bottleneck"] in (
            "compute", "memory", "overhead", "interconnect"
        )
        for entry in report["devices"].values():
            assert entry["bound"] == report["bottleneck"]

    def test_single_device_report_has_no_dist(self, rng):
        tracer = Tracer()
        ctx = ExecutionContext(V100, tracer=tracer)
        a, b = problem(rng)
        ops.spmm(a, b, context=ctx)
        report = build_report(tracer.to_jsonl_records())
        assert report["dist"] is None


class TestReportDiff:
    def _trace(self, rng, path, n_ops):
        tracer = Tracer()
        ctx = ExecutionContext(V100, tracer=tracer)
        for _ in range(n_ops):
            a, b = problem(rng)
            ops.spmm(a, b, context=ctx)
        tracer.write_jsonl(path)
        return path

    def test_diff_reports_sim_deltas(self, rng, tmp_path):
        old = self._trace(rng, tmp_path / "old.jsonl", 1)
        new = self._trace(rng, tmp_path / "new.jsonl", 3)
        diff = diff_traces(read_jsonl(old), read_jsonl(new))
        row = next(r for r in diff["rows"] if r["name"] == "spmm")
        assert row["old_count"] == 1 and row["new_count"] == 3
        assert row["delta_sim_s"] > 0
        assert diff["total_delta_sim_s"] > 0

    def test_diff_cli(self, rng, tmp_path, capsys):
        old = self._trace(rng, tmp_path / "old.jsonl", 1)
        new = self._trace(rng, tmp_path / "new.jsonl", 2)
        assert report_cli.main(["--diff", str(old), str(new)]) == 0
        assert "total sim" in capsys.readouterr().out
        assert report_cli.main(
            ["--diff", str(old), str(new), "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["rows"]

    def test_diff_cli_rejects_bad_trace(self, rng, tmp_path, capsys):
        good = self._trace(rng, tmp_path / "good.jsonl", 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n" + json.dumps({"type": "meta"}) + "\n")
        assert report_cli.main(["--diff", str(good), str(bad)]) == 1
        capsys.readouterr()


class TestReportStrictness:
    def test_invalid_schema_exits_nonzero(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"type": "meta", "schema": 999}) + "\n"
        )
        assert report_cli.main([str(trace)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_undecodable_middle_line_exits_nonzero(
        self, rng, tmp_path, capsys
    ):
        tracer = Tracer()
        ctx = ExecutionContext(V100, tracer=tracer)
        a, b = problem(rng)
        ops.spmm(a, b, context=ctx)
        trace = tmp_path / "trace.jsonl"
        tracer.write_jsonl(trace)
        lines = trace.read_text().splitlines()
        lines.insert(1, "{broken")
        trace.write_text("\n".join(lines) + "\n")
        assert report_cli.main([str(trace)]) == 1
        assert "undecodable" in capsys.readouterr().err

    def test_truncated_tail_is_tolerated(self, rng, tmp_path, capsys):
        tracer = Tracer()
        ctx = ExecutionContext(V100, tracer=tracer)
        a, b = problem(rng)
        ops.spmm(a, b, context=ctx)
        trace = tmp_path / "trace.jsonl"
        tracer.write_jsonl(trace)
        with trace.open("a") as fh:
            fh.write('{"type": "span", "nam')  # interrupted writer
        assert report_cli.main([str(trace)]) == 0
        capsys.readouterr()

    def test_valid_flight_dump_reports_cleanly(
        self, rng, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        ctx = ExecutionContext(V100, memory=64 * 1024)
        a, b = problem(rng, rows=512, cols=512, density=0.5, n=64)
        with pytest.raises(DeviceOOMError) as excinfo:
            ops.spmm(a, b, context=ctx, backend="sputnik")
        assert report_cli.main([excinfo.value.flight_dump]) == 0
        capsys.readouterr()
