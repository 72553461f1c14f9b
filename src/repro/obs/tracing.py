"""Hierarchical tracing over wall time and simulated device time.

A :class:`Span` is one timed region — an operator dispatch, a sweep task, a
model forward pass — carrying two clocks at once:

- **wall time**: ``ts_s``/``dur_s``, measured with ``time.perf_counter``
  relative to the tracer's epoch (what the harness actually spent);
- **simulated device time**: ``sim_s``, accumulated by the dispatch layer
  from each kernel's :class:`~repro.gpu.executor.ExecutionResult` (what the
  modelled GPU spent).

Spans nest: ``tracer.span(...)`` is a context manager that pushes onto the
tracer's stack, so instrumentation deep in the stack (the plan cache, the
fallback policy) can annotate whatever span is currently open via
``tracer.current`` without threading span objects through every call.

Two export formats:

- **JSONL** (:meth:`Tracer.write_jsonl`) — one record per line (``meta``,
  ``span``, ``launch``), the streaming/merging format: sweep workers ship
  their records to the parent, which appends them to one file;
  ``python -m repro.obs.report`` consumes it.
- **Chrome trace** (:meth:`Tracer.to_chrome_trace`) — the
  ``chrome://tracing`` / Perfetto JSON object format, built from the same
  records by :func:`chrome_trace_from_records`;
  :func:`validate_chrome_trace` checks the invariants the viewers require.

Tracing is strictly opt-in: call sites consult ``context.tracer`` and use
:data:`NO_SPAN` when it is ``None``, so the tracing-off dispatch path costs
one attribute check and a no-op context manager.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable

from ..gpu.executor import ExecutionResult, PhaseTimes

#: Bumped when the JSONL record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Record types a trace JSONL stream may contain.
RECORD_TYPES = ("meta", "span", "launch")


def launch_record(execution: ExecutionResult, device: str = "") -> dict:
    """The ``launch`` record of one simulated kernel launch: its totals,
    its Section V phase attribution (all overhead when the result has
    none) and the name of the device it was costed on, whose roofs the
    report's roofline reads."""
    phases = execution.phases or PhaseTimes(overhead_s=execution.runtime_s)
    schedule = execution.schedule
    return {
        "name": execution.name,
        "device": device,
        "runtime_s": execution.runtime_s,
        "flops": execution.flops,
        "dram_bytes": execution.dram_bytes,
        "l2_bytes": execution.l2_bytes,
        "n_blocks": execution.n_blocks,
        "phases": phases.as_dict(),
        "imbalance": schedule.imbalance if schedule is not None else 1.0,
    }


class _NoopSpan:
    """Shared do-nothing span for tracing-off call sites (zero state)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass

    def add_sim(self, seconds: float) -> None:
        pass


#: The singleton no-op span: ``with op_span_or(NO_SPAN) as span`` costs a
#: single context-manager protocol round trip when tracing is disabled.
NO_SPAN = _NoopSpan()


class Span:
    """One timed, attributed region of a trace (context-manager API)."""

    __slots__ = (
        "name",
        "category",
        "span_id",
        "parent_id",
        "ts_s",
        "dur_s",
        "sim_s",
        "attrs",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.span_id = span_id
        self.parent_id = parent_id
        self.ts_s = 0.0
        self.dur_s = 0.0
        self.sim_s = 0.0
        self.attrs = attrs
        self.events: list[dict[str, Any]] = []

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self.ts_s = self._tracer._now()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_s = self._tracer._now() - self.ts_s
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    # -- annotation API -------------------------------------------------
    def set(self, **attrs) -> None:
        """Attach (or overwrite) key/value attributes on this span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event inside this span (retry, fallback,
        degraded completion, ...)."""
        self.events.append(
            {"name": name, "ts": self._tracer._now(), "args": attrs}
        )

    def add_sim(self, seconds: float) -> None:
        """Accumulate simulated device seconds attributed to this span."""
        self.sim_s += seconds

    def to_record(self) -> dict[str, Any]:
        """The span as one JSONL record."""
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "id": self.span_id,
            "parent": self.parent_id,
            "pid": self._tracer.pid,
            "tid": self._tracer.tid,
            "ts": self.ts_s,
            "dur": self.dur_s,
            "sim_s": self.sim_s,
            "args": dict(self.attrs),
            "events": list(self.events),
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.dur_s * 1e3:.3f}ms, sim={self.sim_s * 1e6:.1f}us)"
        )


class Tracer:
    """Collects spans and launch records; exports JSONL and Chrome traces.

    ``clock`` names what ``ts``/``dur`` mean: ``"wall"`` for live tracing
    (perf_counter relative to the tracer's construction) or ``"sim"`` for
    traces laid out on the simulated-device timeline (e.g.
    :meth:`repro.nn.profile.Profile.to_trace`).
    """

    def __init__(
        self,
        process: str = "repro",
        pid: int | None = None,
        tid: int = 0,
        clock: str = "wall",
    ) -> None:
        if clock not in ("wall", "sim"):
            raise ValueError(f"unknown clock {clock!r}; expected wall|sim")
        self.process = process
        self.pid = os.getpid() if pid is None else pid
        self.tid = tid
        self.clock = clock
        self.spans: list[Span] = []
        self.launches: list[dict[str, Any]] = []
        #: Records merged from other tracers (sweep workers) — exported
        #: verbatim, keeping their own pid/tid rows.
        self.foreign_records: list[dict[str, Any]] = []
        self._epoch = time.perf_counter()
        self._stack: list[Span] = []
        self._next_id = 0

    # -- internals -------------------------------------------------------
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Tolerate exotic unwind orders; normal use pops the top.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - defensive
            try:
                self._stack.remove(span)
            except ValueError:
                pass
        self.spans.append(span)

    # -- span API --------------------------------------------------------
    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, category: str = "span", **attrs) -> Span:
        """Open a new child span of the current one (context manager)."""
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, name, category, self._next_id, parent, attrs)

    def add_complete_span(
        self,
        name: str,
        ts_s: float,
        dur_s: float,
        category: str = "span",
        sim_s: float = 0.0,
        parent: Span | int | None = None,
        **attrs,
    ) -> Span:
        """Record an already-timed span (for simulated timelines)."""
        if dur_s < 0:
            raise ValueError("span duration must be non-negative")
        self._next_id += 1
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(self, name, category, self._next_id, parent_id, attrs)
        span.ts_s = ts_s
        span.dur_s = dur_s
        span.sim_s = sim_s
        self.spans.append(span)
        return span

    def add_launch(self, record: dict[str, Any]) -> None:
        """Attach one kernel-launch record (see :func:`launch_record`)."""
        self.launches.append(dict(record, type="launch"))

    def merge_records(self, records: Iterable[dict[str, Any]]) -> int:
        """Absorb JSONL records produced by another tracer (e.g. a sweep
        worker); their pid/tid rows are preserved. Returns the count."""
        added = 0
        for record in records:
            if record.get("type") in ("span", "launch"):
                self.foreign_records.append(record)
                added += 1
        return added

    # -- export ----------------------------------------------------------
    def meta_record(self) -> dict[str, Any]:
        return {
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "process": self.process,
            "pid": self.pid,
            "clock": self.clock,
        }

    def to_jsonl_records(self, include_meta: bool = True) -> list[dict]:
        records: list[dict] = [self.meta_record()] if include_meta else []
        records.extend(span.to_record() for span in self.spans)
        records.extend(self.launches)
        records.extend(self.foreign_records)
        return records

    def write_jsonl(self, path: str | Path, append: bool = False) -> Path:
        path = Path(path)
        mode = "a" if append else "w"
        with path.open(mode) as fh:
            for record in self.to_jsonl_records():
                fh.write(json.dumps(record) + "\n")
        return path

    def to_chrome_trace(self) -> dict[str, Any]:
        return chrome_trace_from_records(self.to_jsonl_records())


# ----------------------------------------------------------------------
# JSONL <-> Chrome trace
# ----------------------------------------------------------------------
def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a trace JSONL file, skipping blank/truncated trailing lines."""
    records: list[dict[str, Any]] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated tail of an interrupted stream
        if isinstance(record, dict):
            records.append(record)
    return records


def validate_trace_records(records: Iterable[dict]) -> list[str]:
    """Check JSONL trace records against the schema; returns problems.

    An empty list means the stream is valid: every record is a dict whose
    ``type`` is one of :data:`RECORD_TYPES`, at least one ``meta`` record
    declares a supported ``schema`` version, spans carry numeric
    ``ts``/``dur``/``sim_s`` (``dur`` non-negative) plus ``name``/``pid``/
    ``tid``, and launches carry a ``name`` and a non-negative numeric
    ``runtime_s``. Flight-recorder dumps and report-CLI inputs are both
    validated through this.
    """
    problems: list[str] = []
    saw_meta = False
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"record {i} is not a dict")
            continue
        rtype = record.get("type")
        if rtype not in RECORD_TYPES:
            problems.append(f"record {i}: unknown type {rtype!r}")
            continue
        if rtype == "meta":
            saw_meta = True
            schema = record.get("schema")
            if schema != TRACE_SCHEMA_VERSION:
                problems.append(
                    f"record {i}: meta schema {schema!r} != "
                    f"{TRACE_SCHEMA_VERSION}"
                )
        elif rtype == "span":
            name = record.get("name")
            if not isinstance(name, str) or not name:
                problems.append(f"record {i}: span needs a non-empty name")
                name = "?"
            for key in ("pid", "tid"):
                if not isinstance(record.get(key), int):
                    problems.append(
                        f"record {i} ({name}): {key} must be an int"
                    )
            for key in ("ts", "dur", "sim_s"):
                value = record.get(key)
                if not isinstance(value, (int, float)) or value != value:
                    problems.append(
                        f"record {i} ({name}): {key} must be numeric"
                    )
                elif key != "ts" and value < 0:
                    problems.append(
                        f"record {i} ({name}): {key}={value} negative"
                    )
            events = record.get("events", [])
            if not isinstance(events, list):
                problems.append(f"record {i} ({name}): events must be a list")
        else:  # launch
            name = record.get("name")
            if not isinstance(name, str) or not name:
                problems.append(f"record {i}: launch needs a non-empty name")
                name = "?"
            runtime = record.get("runtime_s")
            if not isinstance(runtime, (int, float)) or runtime != runtime:
                problems.append(
                    f"record {i} ({name}): runtime_s must be numeric"
                )
            elif runtime < 0:
                problems.append(
                    f"record {i} ({name}): runtime_s={runtime} negative"
                )
    if not saw_meta:
        problems.append("no meta record declares a schema version")
    return problems


def chrome_trace_from_records(records: Iterable[dict]) -> dict[str, Any]:
    """Build a ``chrome://tracing`` JSON object from trace records.

    Spans become complete (``ph="X"``) events with microsecond ``ts`` /
    ``dur``; span events become thread-scoped instants (``ph="i"``); each
    distinct pid gets a ``process_name`` metadata event.
    """
    events: list[dict[str, Any]] = []
    processes: dict[int, str] = {}
    clock = "wall"
    for record in records:
        rtype = record.get("type")
        if rtype == "meta":
            clock = record.get("clock", clock)
            pid = record.get("pid")
            if isinstance(pid, int):
                processes.setdefault(pid, str(record.get("process", "repro")))
        elif rtype == "span":
            pid = int(record.get("pid", 0))
            tid = int(record.get("tid", 0))
            processes.setdefault(pid, "repro")
            args = dict(record.get("args") or {})
            args["sim_s"] = record.get("sim_s", 0.0)
            events.append(
                {
                    "name": str(record.get("name", "?")),
                    "cat": str(record.get("cat", "span")),
                    "ph": "X",
                    "ts": float(record.get("ts", 0.0)) * 1e6,
                    "dur": float(record.get("dur", 0.0)) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            for ev in record.get("events") or ():
                events.append(
                    {
                        "name": str(ev.get("name", "event")),
                        "cat": str(record.get("cat", "span")),
                        "ph": "i",
                        "s": "t",
                        "ts": float(ev.get("ts", 0.0)) * 1e6,
                        "pid": pid,
                        "tid": tid,
                        "args": dict(ev.get("args") or {}),
                    }
                )
        elif rtype == "launch":
            # Launch records are phase data, not timeline events; they
            # ride along in otherData for tools that want them.
            continue
    for pid, name in sorted(processes.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA_VERSION,
            "clock": clock,
            "launches": [r for r in records if r.get("type") == "launch"],
        },
    }


def validate_chrome_trace(trace: Any) -> list[str]:
    """Check the invariants chrome://tracing requires; returns problems.

    An empty list means the trace is valid: a JSON-serializable dict with a
    ``traceEvents`` list whose entries all carry ``name``/``ph``/``pid``/
    ``tid``, with finite non-negative microsecond ``ts``/``dur`` on every
    complete (``ph="X"``) event.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a dict, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        problems.append(f"trace is not JSON-serializable: {exc}")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i} is not a dict")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i} missing {key!r}")
        ph = ev.get("ph")
        if ph == "X":
            for key in ("ts", "dur"):
                value = ev.get(key)
                if not isinstance(value, (int, float)):
                    problems.append(f"event {i} ({ev.get('name')}): "
                                    f"{key} must be numeric")
                elif not (value == value) or value < 0:  # NaN or negative
                    problems.append(f"event {i} ({ev.get('name')}): "
                                    f"{key}={value} invalid")
    return problems
