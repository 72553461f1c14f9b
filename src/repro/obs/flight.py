"""Always-on flight recorder: the last N events before a failure.

Tracing (:mod:`repro.obs.tracing`) is opt-in and unbounded — great for
benchmarks, wrong for continuous operation: a long-running service cannot
keep every span, and the runs that crash are exactly the ones nobody
thought to trace. A :class:`FlightRecorder` is the complement: a bounded
ring buffer (``collections.deque(maxlen=capacity)``) of recent events that
every :class:`~repro.ops.context.ExecutionContext` carries by default,
costing one deque append per recorded launch on the hot path and dropping
the oldest events as it fills. Besides launches, the ring holds every
``Telemetry.emit`` event whose :data:`~repro.ops.context.EVENTS` row sends
it here (faults, OOMs and reclaim steps, retries, fallbacks, repairs,
invalidations), with the same attributes its span event carries.

When something terminal happens — a :class:`DeviceOOMError` that survived
the reclaim ladder, a :class:`FallbackExhaustedError`, a sweep-worker
crash — the window is rendered as trace-schema records (the same ``meta``
/ ``span`` / ``launch`` JSONL layout the report CLI reads, validated by
:func:`~repro.obs.tracing.validate_trace_records`) and attached to the
raised error as ``flight_records``; with ``REPRO_FLIGHT_DIR`` set, it is
also dumped to a JSONL artifact whose path lands on ``flight_dump``. Every
postmortem ships its own trace.

Environment knobs:

- ``REPRO_FLIGHT``: ring capacity in events (default
  :data:`DEFAULT_CAPACITY`), or ``off``/``0`` to disable recording;
- ``REPRO_FLIGHT_DIR``: directory for dump artifacts (unset = attach
  records to the error but write no file).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any

from .tracing import TRACE_SCHEMA_VERSION

#: Default ring capacity (events). Sized so a dump covers the dispatches
#: leading up to a fault without the ring itself becoming a trace.
DEFAULT_CAPACITY = 256

#: Hard cap on dump files written per process, so a chaos suite that
#: exhausts hundreds of fallback chains cannot flood ``REPRO_FLIGHT_DIR``.
MAX_DUMPS_PER_PROCESS = 64

_dump_counter = itertools.count()


def flight_capacity_from_env(default: int = DEFAULT_CAPACITY) -> int | None:
    """Ring capacity from ``REPRO_FLIGHT``: ``None`` disables recording."""
    raw = os.environ.get("REPRO_FLIGHT", "").strip().lower()
    if raw in ("", "on", "true", "default"):
        return default
    if raw in ("off", "0", "false", "none"):
        return None
    try:
        return max(int(raw), 1)
    except ValueError:
        return default


def flight_dump_dir() -> Path | None:
    """The dump-artifact directory from ``REPRO_FLIGHT_DIR`` (or ``None``)."""
    raw = os.environ.get("REPRO_FLIGHT_DIR", "").strip()
    return Path(raw) if raw else None


class FlightRecorder:
    """Bounded ring of recent launch/fault events, dumpable as a trace.

    Events read back as ``(ts, kind, name, sim_s, attrs)`` tuples; ``ts``
    is wall seconds since the recorder's epoch (excluded from
    :meth:`signature`, so determinism checks compare only the
    simulated/semantic payload).
    ``kind`` is ``"launch"`` for recorded kernel launches and the
    :data:`~repro.ops.context.EVENTS` kind (``"oom"``, ``"retry"``,
    ``"fault"``, ...) for everything else; ``name`` is the op.
    """

    __slots__ = ("capacity", "process", "device_id", "total_events", "_events",
                 "_epoch")

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        process: str = "flight",
        device_id: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = int(capacity)
        self.process = process
        self.device_id = device_id
        #: Total events ever recorded (``total_events - len(self)`` have
        #: been dropped by the ring).
        self.total_events = 0
        self._events: deque = deque(maxlen=self.capacity)
        self._epoch = time.perf_counter()

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"events={len(self._events)}, total={self.total_events})"
        )

    @property
    def dropped_events(self) -> int:
        return self.total_events - len(self._events)

    # -- recording (hot path) -------------------------------------------
    def record(
        self, kind: str, name: str, sim_s: float = 0.0, /, **attrs
    ) -> None:
        """Append one event to the ring (oldest events fall off)."""
        self._events.append((time.perf_counter(), kind, name, sim_s, attrs))
        self.total_events += 1

    def record_launch(self, op: str, backend: str, execution) -> None:
        """One dispatched launch (fed by ``Telemetry.record_launch``).

        Runs once per dispatch, so it stores the raw clock and the
        ``(op, backend)`` pair; :meth:`_window` makes them the event's
        epoch-relative time and attrs when the window is read.
        """
        self._events.append(
            (
                time.perf_counter(),
                "launch",
                execution.name,
                execution.runtime_s,
                (op, backend),
            )
        )
        self.total_events += 1

    # -- export ----------------------------------------------------------
    def _window(self):
        """The ring's events as ``(ts, kind, name, sim_s, attrs)``, with
        ``ts`` in seconds since the recorder's epoch."""
        epoch = self._epoch
        for ts, kind, name, sim_s, attrs in self._events:
            if isinstance(attrs, tuple):
                attrs = {"op": attrs[0], "backend": attrs[1]}
            yield ts - epoch, kind, name, sim_s, attrs

    def signature(self) -> list[tuple]:
        """Wall-time-free projection of the window, for determinism checks:
        two runs with the same seeds produce identical signatures even
        though their wall timestamps differ."""
        return [
            (kind, name, round(sim_s, 12), tuple(sorted(attrs.items())))
            for _, kind, name, sim_s, attrs in self._window()
        ]

    def to_records(self, reason: str = "dump") -> list[dict[str, Any]]:
        """The window as trace-schema JSONL records (meta + spans + launches).

        Launch events become ``type="launch"`` records; everything else
        becomes a zero-duration ``cat="flight"`` span whose ``kind`` field
        is the event kind and whose ``args`` are the event's own
        attributes, so neither can hide the other. The output passes
        :func:`~repro.obs.tracing.validate_trace_records` and feeds
        :func:`~repro.obs.tracing.chrome_trace_from_records` unchanged.
        """
        pid = os.getpid()
        records: list[dict[str, Any]] = [
            {
                "type": "meta",
                "schema": TRACE_SCHEMA_VERSION,
                "process": self.process,
                "pid": pid,
                "clock": "wall",
                "flight": {
                    "reason": reason,
                    "capacity": self.capacity,
                    "events": len(self._events),
                    "dropped": self.dropped_events,
                },
            }
        ]
        for span_id, (ts, kind, name, sim_s, attrs) in enumerate(
            self._window(), start=1
        ):
            args = dict(attrs)
            if self.device_id is not None:
                args.setdefault("device_id", self.device_id)
            if kind == "launch":
                records.append(
                    {"type": "launch", "name": name, "runtime_s": sim_s,
                     "ts": ts, **args}
                )
            else:
                records.append(
                    {
                        "type": "span",
                        "name": name,
                        "kind": kind,
                        "cat": "flight",
                        "id": span_id,
                        "parent": None,
                        "pid": pid,
                        "tid": 0,
                        "ts": ts,
                        "dur": 0.0,
                        "sim_s": sim_s,
                        "args": args,
                        "events": [],
                    }
                )
        return records

    def dump(
        self, path: str | Path | None = None, reason: str = "dump"
    ) -> Path | None:
        """Write the window as a JSONL artifact; returns the path.

        With ``path=None`` the file goes to ``REPRO_FLIGHT_DIR`` (returns
        ``None`` when that is unset, or once
        :data:`MAX_DUMPS_PER_PROCESS` files have been written).
        """
        if path is None:
            directory = flight_dump_dir()
            if directory is None:
                return None
            serial = next(_dump_counter)
            if serial >= MAX_DUMPS_PER_PROCESS:
                return None
            directory.mkdir(parents=True, exist_ok=True)
            device = "" if self.device_id is None else f"_dev{self.device_id}"
            path = directory / (
                f"flight_{reason}_{os.getpid()}{device}_{serial}.jsonl"
            )
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.to_records(reason=reason):
                fh.write(json.dumps(record) + "\n")
        return path

    def attach(self, error: BaseException, reason: str) -> BaseException:
        """Attach the window to a raised error (and dump it, if configured).

        Sets ``error.flight_records`` to the trace-schema record list and
        ``error.flight_dump`` to the artifact path (``None`` when no dump
        directory is configured). Returns the error for raise-site chaining.
        """
        records = self.to_records(reason=reason)
        error.flight_records = records
        dump_path = self.dump(reason=reason)
        error.flight_dump = None if dump_path is None else str(dump_path)
        return error


def flight_from_env(
    capacity: int | None = None,
    process: str = "flight",
    device_id: int | None = None,
) -> FlightRecorder | None:
    """Build the default per-context recorder, honouring ``REPRO_FLIGHT``.

    ``capacity=None`` takes the environment's capacity (or the default);
    an explicit capacity only yields to the environment's kill switch.
    """
    env_capacity = flight_capacity_from_env()
    if env_capacity is None:
        return None
    if capacity is None:
        capacity = env_capacity
    return FlightRecorder(capacity, process=process, device_id=device_id)
