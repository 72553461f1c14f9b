"""Observability: tracing, metrics, profiling, and continuous operation.

Cooperating pieces (DESIGN.md Sections 11 and 16):

- :mod:`repro.obs.tracing` — hierarchical spans over wall *and* simulated
  device time, exported as JSONL streams or Chrome-trace JSON;
- :mod:`repro.obs.metrics` — a label-aware registry (counters, gauges,
  histograms) that absorbs the dispatch layer's ``Telemetry`` counters via
  pull-mode collectors, keeping ``telemetry_snapshot()`` as a shim;
- :mod:`repro.obs.profiler` — per-launch phase attribution
  (compute/L1/L2/DRAM/imbalance/overhead) and roofline points, hooked into
  the executor's completion observers;
- :mod:`repro.obs.flight` — the always-on bounded flight recorder every
  execution context carries; terminal faults dump their last-N-events
  window as a trace-schema JSONL artifact;
- :mod:`repro.obs.export` — Prometheus text exposition / JSON snapshots
  over a metrics registry (``python -m repro.obs.export``);
- :mod:`repro.obs.regress` — the perf-regression gate over BENCH_*.json
  headline metrics (``python -m repro.obs.regress --check``).

``python -m repro.obs.report trace.jsonl`` summarizes a captured trace
(``--diff old new`` compares two).
"""

from ..gpu.executor import PHASE_NAMES, PhaseTimes
from .export import (
    render_json,
    render_prometheus,
    validate_prometheus_text,
)
from .flight import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    flight_capacity_from_env,
    flight_from_env,
)
from .metrics import (
    SIM_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_context_metrics,
    bind_group_metrics,
)
from .profiler import KernelStats, LaunchRecord, PhaseProfiler
from .report import (
    build_report,
    classify_phases,
    diff_traces,
    format_diff,
    format_report,
)
from .tracing import (
    NO_SPAN,
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    chrome_trace_from_records,
    read_jsonl,
    validate_chrome_trace,
    validate_trace_records,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "Span",
    "NO_SPAN",
    "read_jsonl",
    "chrome_trace_from_records",
    "validate_chrome_trace",
    "validate_trace_records",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "SIM_SECONDS_BUCKETS",
    "bind_context_metrics",
    "bind_group_metrics",
    "PhaseProfiler",
    "LaunchRecord",
    "KernelStats",
    "PhaseTimes",
    "PHASE_NAMES",
    "build_report",
    "format_report",
    "classify_phases",
    "diff_traces",
    "format_diff",
    "FlightRecorder",
    "DEFAULT_CAPACITY",
    "flight_capacity_from_env",
    "flight_from_env",
    "render_prometheus",
    "render_json",
    "validate_prometheus_text",
]
