"""Offline trace reporting: ``python -m repro.obs.report trace.jsonl``.

Consumes the JSONL stream written by :meth:`repro.obs.tracing.Tracer.
write_jsonl` (and appended to by sweep workers) and prints:

- per-category span rollups (count, wall time, simulated time);
- the top spans by wall duration;
- per-kernel phase attribution tables rebuilt from ``launch`` records,
  with roofline points against the recorded device's roofs;
- a memory-pressure section (peak/high-water HBM, fragmentation,
  OOM/flush/eviction counts per op) rebuilt from ``oom``/``oom_flush``/
  ``oom_evict`` span events and ``category="memory"`` summary spans
  (see :meth:`repro.ops.context.ExecutionContext.emit_memory_span`);
- a per-device rollup for multi-device (sharded) traces, keyed on the
  ``device_id`` the sharded dispatch stamps on op and memory spans.

``--json`` emits the same content as one JSON object for scripting (the
CI ``obs-smoke`` job archives it next to the trace).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable

from .tracing import TRACE_SCHEMA_VERSION, validate_trace_records

PHASE_KEYS = ("compute", "l1", "l2", "dram", "imbalance", "overhead")

#: A trace (or device) whose exposed-communication share reaches this
#: fraction of critical-path time is called interconnect-bound outright.
INTERCONNECT_BOUND_THRESHOLD = 0.5


def classify_phases(
    phases: dict[str, float], interconnect_fraction: float = 0.0
) -> str:
    """Bottleneck class for a phase-attribution dict: ``"interconnect"``
    when the exposed-comm share reaches
    :data:`INTERCONNECT_BOUND_THRESHOLD`, else ``"memory"`` /
    ``"compute"`` / ``"overhead"`` by dominant bucket (the same grouping
    as :meth:`repro.gpu.executor.PhaseTimes.bottleneck`: l1+l2+dram vs
    compute vs imbalance+overhead, ties toward memory)."""
    if interconnect_fraction >= INTERCONNECT_BOUND_THRESHOLD:
        return "interconnect"
    compute = float(phases.get("compute", 0.0))
    memory = (
        float(phases.get("l1", 0.0))
        + float(phases.get("l2", 0.0))
        + float(phases.get("dram", 0.0))
    )
    other = (
        float(phases.get("imbalance", 0.0))
        + float(phases.get("overhead", 0.0))
    )
    if memory >= compute and memory >= other:
        return "memory"
    if compute >= other:
        return "compute"
    return "overhead"


def rollup_spans(records: Iterable[dict]) -> dict[str, dict[str, float]]:
    """Aggregate span records by category: count, wall seconds, sim seconds."""
    out: dict[str, dict[str, float]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        cat = str(record.get("cat", "span"))
        entry = out.setdefault(
            cat, {"count": 0, "wall_s": 0.0, "sim_s": 0.0, "errors": 0}
        )
        entry["count"] += 1
        entry["wall_s"] += float(record.get("dur", 0.0))
        entry["sim_s"] += float(record.get("sim_s", 0.0))
        if (record.get("args") or {}).get("error"):
            entry["errors"] += 1
    return out


def rollup_launches(records: Iterable[dict]) -> dict[str, dict[str, Any]]:
    """Aggregate launch records by kernel name: phase sums and totals."""
    out: dict[str, dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "launch":
            continue
        name = str(record.get("name", "?"))
        entry = out.setdefault(
            name,
            {
                "launches": 0,
                "runtime_s": 0.0,
                "flops": 0.0,
                "dram_bytes": 0.0,
                "device": record.get("device", "?"),
                "phases_s": {k: 0.0 for k in PHASE_KEYS},
            },
        )
        entry["launches"] += 1
        entry["runtime_s"] += float(record.get("runtime_s", 0.0))
        entry["flops"] += float(record.get("flops", 0.0))
        entry["dram_bytes"] += float(record.get("dram_bytes", 0.0))
        phases = record.get("phases") or {}
        for key in PHASE_KEYS:
            entry["phases_s"][key] += float(phases.get(key, 0.0))
    return out


def rollup_memory(records: Iterable[dict]) -> dict[str, Any] | None:
    """Aggregate memory-pressure evidence from a trace, or None if the
    trace ran without HBM accounting (no events, no memory spans).

    Counts ``oom`` / ``oom_flush`` / ``oom_evict`` span events (the
    eviction ladder's breadcrumbs), attributes them to the op span they
    fired inside, and folds in ``category="memory"`` summary spans whose
    attrs carry the allocator snapshot. Evictions are the per-entry
    ``oom_evict`` events (``entry="tensor"|"plan"``); the policy ladder's
    summary event (``entry="ladder"``) repeats what they freed, so it is
    not counted again.
    """
    ooms = 0
    flushes = 0
    flush_bytes = 0.0
    evictions: dict[str, dict[str, float]] = {}
    by_op: dict[str, dict[str, int]] = {}
    snapshots: list[dict[str, Any]] = []
    for record in records:
        if record.get("type") != "span":
            continue
        if record.get("cat") == "memory":
            snapshots.append(dict(record.get("args") or {}))
            continue
        name = str(record.get("name", "?"))
        for ev in record.get("events") or ():
            ev_name = ev.get("name")
            args = ev.get("args") or {}
            if ev_name == "oom":
                ooms += 1
                op = str(args.get("op", name))
                entry = by_op.setdefault(op, {"oom": 0, "evictions": 0})
                entry["oom"] += 1
            elif ev_name == "oom_flush":
                flushes += 1
                flush_bytes += float(args.get("bytes_freed", 0))
            elif ev_name == "oom_evict" and args.get("entry") != "ladder":
                bucket = evictions.setdefault(
                    str(args.get("entry", "?")), {"count": 0, "bytes": 0.0}
                )
                bucket["count"] += 1
                bucket["bytes"] += float(args.get("bytes", 0))
                entry = by_op.setdefault(name, {"oom": 0, "evictions": 0})
                entry["evictions"] += 1
    if not (ooms or flushes or evictions or snapshots):
        return None
    out: dict[str, Any] = {
        "oom_events": ooms,
        "flushes": flushes,
        "flush_bytes_freed": flush_bytes,
        "evictions": evictions,
        "by_op": by_op,
    }
    if snapshots:
        # The last summary span is the end-of-run state; peaks are maxed
        # across all summaries (multi-context traces emit one each).
        out["snapshot"] = snapshots[-1]
        for key in ("peak_allocated_bytes", "peak_reserved_bytes"):
            out[key] = max(float(s.get(key, 0) or 0) for s in snapshots)
    return out


def rollup_devices(records: Iterable[dict]) -> dict[int, dict[str, Any]] | None:
    """Per-device rollup of a multi-device (sharded) trace, or None when
    no span carries a ``device_id``.

    Sharded dispatch stamps every op span and ``category="memory"``
    summary span with the owning device's id (launch records carry no
    device attribution, so the rollup keys on spans): per device it sums
    simulated op time, breaks it down by op name, counts OOM/eviction
    events, and keeps the peak reserved HBM from that device's memory
    summary span.
    """
    out: dict[int, dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        args = record.get("args") or {}
        device_id = args.get("device_id")
        if device_id is None:
            continue
        entry = out.setdefault(
            int(device_id),
            {
                "spans": 0,
                "sim_s": 0.0,
                "by_op": {},
                "oom_events": 0,
                "evictions": 0,
                "peak_reserved_bytes": 0.0,
            },
        )
        if record.get("cat") == "memory":
            entry["peak_reserved_bytes"] = max(
                entry["peak_reserved_bytes"],
                float(args.get("peak_reserved_bytes", 0) or 0),
            )
            continue
        entry["spans"] += 1
        sim_s = float(record.get("sim_s", 0.0))
        entry["sim_s"] += sim_s
        op = entry["by_op"].setdefault(
            str(record.get("name", "?")), {"count": 0, "sim_s": 0.0}
        )
        op["count"] += 1
        op["sim_s"] += sim_s
        for ev in record.get("events") or ():
            ev_name = ev.get("name")
            if ev_name == "oom":
                entry["oom_events"] += 1
            elif (
                ev_name == "oom_evict"
                and (ev.get("args") or {}).get("entry") != "ladder"
            ):
                entry["evictions"] += 1
    return out or None


def rollup_dist(records: Iterable[dict]) -> dict[str, Any] | None:
    """Interconnect exposure from ``category="dist"`` wrapper spans, or
    ``None`` for single-device traces.

    Each sharded dispatch span carries ``exposed_comm_s`` (critical-path
    communication not hidden behind compute) and ``interconnect_bound``
    (that span's exposed-comm fraction). The trace-level fraction is
    rebuilt from totals: per-span critical-path time is recovered as
    ``exposed / fraction`` where the fraction is nonzero, so the aggregate
    is time-weighted rather than a mean of per-call ratios.
    """
    spans = 0
    exposed = 0.0
    critical = 0.0
    for record in records:
        if record.get("type") != "span" or record.get("cat") != "dist":
            continue
        args = record.get("args") or {}
        spans += 1
        span_exposed = float(args.get("exposed_comm_s", 0.0) or 0.0)
        fraction = float(args.get("interconnect_bound", 0.0) or 0.0)
        exposed += span_exposed
        if fraction > 0:
            critical += span_exposed / fraction
    if spans == 0:
        return None
    return {
        "spans": spans,
        "exposed_comm_s": exposed,
        "interconnect_bound_fraction": (
            exposed / critical if critical > 0 else 0.0
        ),
    }


def _roofline(kernels: dict[str, dict[str, Any]]) -> list[dict[str, Any]]:
    """Roofline points per kernel against each record's own device roofs."""
    from ..gpu.device import get_device

    points: list[dict[str, Any]] = []
    for name, entry in sorted(kernels.items()):
        if entry["runtime_s"] <= 0:
            continue
        achieved = entry["flops"] / entry["runtime_s"]
        point: dict[str, Any] = {
            "kernel": name,
            "achieved_flops": achieved,
            "intensity_flops_per_byte": (
                entry["flops"] / entry["dram_bytes"]
                if entry["dram_bytes"] > 0
                else None
            ),
        }
        try:
            device = get_device(str(entry["device"]))
        except (KeyError, ValueError):
            device = None
        if device is not None and entry["dram_bytes"] > 0:
            memory_roof = (
                entry["flops"] / entry["dram_bytes"]
            ) * device.effective_dram_bandwidth
            roof = min(device.fp32_peak_flops, memory_roof)
            point["roof_flops"] = roof
            point["bound"] = (
                "memory" if memory_roof < device.fp32_peak_flops else "compute"
            )
            point["roof_fraction"] = achieved / roof if roof > 0 else 0.0
        points.append(point)
    return points


def build_report(records: list[dict], top: int = 10) -> dict[str, Any]:
    """Assemble the full report object from loaded trace records."""
    meta = next((r for r in records if r.get("type") == "meta"), {})
    spans = [r for r in records if r.get("type") == "span"]
    kernels = rollup_launches(records)
    dist = rollup_dist(records)
    interconnect_fraction = (
        dist["interconnect_bound_fraction"] if dist else 0.0
    )
    phase_totals = {key: 0.0 for key in PHASE_KEYS}
    for entry in kernels.values():
        entry["bound"] = classify_phases(entry["phases_s"])
        for key in PHASE_KEYS:
            phase_totals[key] += entry["phases_s"][key]
    devices = rollup_devices(records)
    if devices:
        # Launch records carry no device attribution, so per-device
        # classification reuses the trace-level interconnect fraction and
        # global phase totals — an approximation that is exact for the
        # homogeneous shard plans the dist layer produces.
        device_bound = classify_phases(phase_totals, interconnect_fraction)
        for entry in devices.values():
            entry["bound"] = device_bound
    top_spans = sorted(
        spans, key=lambda r: float(r.get("dur", 0.0)), reverse=True
    )[:top]
    return {
        "schema": meta.get("schema", TRACE_SCHEMA_VERSION),
        "clock": meta.get("clock", "wall"),
        "process": meta.get("process", "repro"),
        "n_records": len(records),
        "n_spans": len(spans),
        "categories": rollup_spans(records),
        "kernels": kernels,
        "roofline": _roofline(kernels),
        "memory": rollup_memory(records),
        "devices": devices,
        "dist": dist,
        "bottleneck": classify_phases(phase_totals, interconnect_fraction),
        "top_spans": [
            {
                "name": r.get("name"),
                "cat": r.get("cat"),
                "wall_s": float(r.get("dur", 0.0)),
                "sim_s": float(r.get("sim_s", 0.0)),
                "args": r.get("args") or {},
            }
            for r in top_spans
        ],
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable text rendering of :func:`build_report` output."""
    lines = [
        f"trace: schema v{report['schema']} clock={report['clock']} "
        f"process={report['process']} "
        f"({report['n_spans']} spans, {report['n_records']} records)",
        "",
        "span categories:",
        f"  {'category':20s} {'count':>7s} {'wall':>10s} "
        f"{'sim':>10s} {'errors':>7s}",
    ]
    for cat, entry in sorted(report["categories"].items()):
        lines.append(
            f"  {cat:20s} {entry['count']:7d} "
            f"{entry['wall_s'] * 1e3:8.2f}ms "
            f"{entry['sim_s'] * 1e3:8.3f}ms {entry['errors']:7d}"
        )
    if report["kernels"]:
        lines += [
            "",
            "kernel phases (share of simulated time):",
            f"  {'kernel':28s} {'launches':>8s} {'sim':>10s} "
            f"{'compute':>8s} {'l1':>6s} {'l2':>6s} {'dram':>6s} "
            f"{'imbal':>6s} {'ovh':>6s}  bound",
        ]
        for name, entry in sorted(report["kernels"].items()):
            total = entry["runtime_s"] or 1.0
            p = entry["phases_s"]
            lines.append(
                f"  {name[:28]:28s} {entry['launches']:8d} "
                f"{entry['runtime_s'] * 1e6:8.1f}us "
                f"{p['compute'] / total:7.1%} {p['l1'] / total:5.1%} "
                f"{p['l2'] / total:5.1%} {p['dram'] / total:5.1%} "
                f"{p['imbalance'] / total:5.1%} {p['overhead'] / total:5.1%}"
                f"  {entry.get('bound', '?')}"
            )
    if report["roofline"]:
        lines += ["", "roofline:"]
        for point in report["roofline"]:
            intensity = point.get("intensity_flops_per_byte")
            frac = point.get("roof_fraction")
            lines.append(
                f"  {point['kernel'][:28]:28s} "
                f"{point['achieved_flops'] / 1e9:8.2f} GFLOP/s"
                + (f" @ {intensity:6.2f} flop/B" if intensity else "")
                + (
                    f"  ({frac:.1%} of {point['bound']} roof)"
                    if frac is not None
                    else ""
                )
            )
    memory = report.get("memory")
    if memory:
        lines += ["", "memory pressure:"]
        snap = memory.get("snapshot") or {}
        capacity = float(snap.get("capacity_bytes", 0) or 0)
        peak = float(
            memory.get("peak_reserved_bytes", 0)
            or snap.get("peak_reserved_bytes", 0)
            or 0
        )
        if peak or capacity:
            line = f"  peak reserved: {peak / 2**30:.2f} GiB"
            if capacity:
                line += (
                    f" / {capacity / 2**30:.2f} GiB cap"
                    f" ({peak / capacity:.1%} high-water)"
                )
            lines.append(line)
        if "fragmentation" in snap:
            lines.append(
                f"  fragmentation: {float(snap['fragmentation']):.1%}"
            )
        lines.append(
            f"  oom events: {memory['oom_events']}  "
            f"flushes: {memory['flushes']} "
            f"(freed {memory['flush_bytes_freed'] / 2**20:.1f} MiB)"
        )
        if memory["evictions"]:
            parts = [
                f"{kind} {int(entry['count'])} "
                f"({entry['bytes'] / 2**20:.1f} MiB)"
                for kind, entry in sorted(memory["evictions"].items())
            ]
            lines.append("  evictions: " + ", ".join(parts))
        if memory["by_op"]:
            lines.append(
                f"  {'op':24s} {'oom':>6s} {'evictions':>10s}"
            )
            for op, entry in sorted(memory["by_op"].items()):
                lines.append(
                    f"  {op[:24]:24s} {entry['oom']:6d} "
                    f"{entry['evictions']:10d}"
                )
    dist = report.get("dist")
    if dist:
        lines += [
            "",
            "interconnect:",
            f"  dist spans: {dist['spans']}  exposed comm: "
            f"{dist['exposed_comm_s'] * 1e6:.1f}us  "
            f"bound fraction: {dist['interconnect_bound_fraction']:.1%}",
        ]
    if report.get("bottleneck"):
        lines += ["", f"trace bottleneck: {report['bottleneck']}"]
    devices = report.get("devices")
    if devices:
        lines += [
            "",
            "per-device rollup:",
            f"  {'device':>6s} {'spans':>7s} {'sim':>10s} {'oom':>5s} "
            f"{'evict':>6s} {'peak rsvd':>10s} {'bound':>7s}  top ops",
        ]
        for device_id, entry in sorted(devices.items(), key=lambda kv: int(kv[0])):
            top_ops = sorted(
                entry["by_op"].items(),
                key=lambda kv: kv[1]["sim_s"],
                reverse=True,
            )[:3]
            ops_text = ", ".join(
                f"{name} {op['sim_s'] * 1e6:.1f}us x{op['count']}"
                for name, op in top_ops
            )
            peak = float(entry["peak_reserved_bytes"])
            peak_text = f"{peak / 2**20:8.1f}MiB" if peak else f"{'-':>10s}"
            lines.append(
                f"  {device_id!s:>6s} {entry['spans']:7d} "
                f"{entry['sim_s'] * 1e6:8.1f}us {entry['oom_events']:5d} "
                f"{entry['evictions']:6d} {peak_text} "
                f"{entry.get('bound', '?'):>7s}  {ops_text}"
            )
    if report["top_spans"]:
        lines += ["", "top spans by wall time:"]
        for span in report["top_spans"]:
            lines.append(
                f"  {span['name'][:40]:40s} [{span['cat']}] "
                f"wall={span['wall_s'] * 1e3:.3f}ms "
                f"sim={span['sim_s'] * 1e6:.1f}us"
            )
    return "\n".join(lines)


def _load_trace(path: str) -> tuple[list[dict] | None, str | None]:
    """Strictly load + validate one trace; ``(records, None)`` or
    ``(None, error)``.

    A single undecodable line at the very end is tolerated (the truncated
    tail of an interrupted stream); bad lines anywhere else, schema
    violations, and empty files are errors — the report CLI is the
    gatekeeper CI relies on, so it must not quietly summarize garbage.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return None, f"cannot read {path}: {exc}"
    records: list[dict] = []
    raw_lines = [
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    for position, (lineno, line) in enumerate(raw_lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if position == len(raw_lines) - 1:
                continue  # truncated tail of an interrupted stream
            return None, f"{path}:{lineno}: undecodable JSONL line"
        if not isinstance(record, dict):
            return None, f"{path}:{lineno}: record is not an object"
        records.append(record)
    if not records:
        return None, f"no trace records found in {path}"
    problems = validate_trace_records(records)
    if problems:
        detail = "; ".join(problems[:5])
        if len(problems) > 5:
            detail += f"; ... ({len(problems) - 5} more)"
        return None, f"{path}: invalid trace: {detail}"
    return records, None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=(
            "Summarize a repro trace JSONL file. "
            "Exits nonzero on unreadable or schema-invalid traces."
        ),
    )
    parser.add_argument("trace", help="path to a trace .jsonl file")
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    parser.add_argument(
        "--top", type=int, default=10, help="number of top spans to show"
    )
    args = parser.parse_args(argv)

    records, error = _load_trace(args.trace)
    if error:
        print(error, file=sys.stderr)
        return 1
    report = build_report(records, top=args.top)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
