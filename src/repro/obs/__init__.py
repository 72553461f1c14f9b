"""Observability: tracing, metrics, phase reports, and continuous operation.

Cooperating pieces (DESIGN.md Sections 11 and 16):

- :mod:`repro.obs.tracing` — hierarchical spans over wall *and* simulated
  device time, exported as JSONL streams or Chrome-trace JSON, plus one
  ``launch`` record per dispatched launch (its
  compute/L1/L2/DRAM/imbalance/overhead phase attribution), written by
  ``Telemetry.record_launch`` through :func:`~repro.obs.tracing.launch_record`;
- :mod:`repro.obs.metrics` — a label-aware registry (counters, gauges,
  histograms) that absorbs the dispatch layer's ``Telemetry`` counters via
  pull-mode collectors, keeping ``telemetry_snapshot()`` as a shim;
- :mod:`repro.obs.flight` — the always-on bounded flight recorder every
  execution context carries; terminal faults dump their last-N-events
  window as a trace-schema JSONL artifact;
- :mod:`repro.obs.export` — Prometheus text exposition / JSON snapshots
  over a metrics registry (``python -m repro.obs.export``);
- :mod:`repro.obs.regress` — the perf-regression gate over BENCH_*.json
  headline metrics (``python -m repro.obs.regress --check``).

``python -m repro.obs.report trace.jsonl`` summarizes a captured trace:
span rollups, per-kernel phase tables and roofline points rebuilt from its
launch records (:func:`build_report`; ``--diff old new`` compares two).
"""

from importlib import import_module

from ..gpu.executor import PHASE_NAMES, PhaseTimes
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

#: Names re-exported from the CLI modules, which load on first use: a
#: package that imported them would already hold ``repro.obs.report``
#: (or ``.export``) when ``python -m`` comes to run it as ``__main__``.
_CLI_EXPORTS = {
    "render_json": "export",
    "render_prometheus": "export",
    "validate_prometheus_text": "export",
    "build_report": "report",
    "classify_phases": "report",
    "diff_traces": "report",
    "format_diff": "report",
    "format_report": "report",
}


def __getattr__(name: str):
    module = _CLI_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


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
