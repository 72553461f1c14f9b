"""Metrics exposition: Prometheus text format + JSON snapshots.

``python -m repro.obs.export`` turns a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot into something a
monitoring stack can actually consume:

- :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4): ``# HELP``/``# TYPE`` headers, counters suffixed
  ``_total``, histograms expanded into *cumulative* ``_bucket`` series
  with the mandatory ``le="+Inf"`` bucket plus ``_sum``/``_count``;
- :func:`render_json` — the raw snapshot as pretty JSON, for scripting;
- :func:`validate_prometheus_text` — a line-level parser/validator used by
  the tests and the CLI's ``--check`` flag, so "parses as Prometheus text
  format" is an asserted property instead of a hope.

Label values flow straight from the registry's ``k=v,k=v`` sample keys, so
everything :func:`~repro.obs.metrics.bind_context_metrics` stamps on — ``op``,
``backend``, ``selector``, ``device``, ``device_id`` — comes out as proper
Prometheus labels.

Snapshot sources for the CLI: a saved snapshot JSON file, or ``--demo``
(the default when no file is given), which runs a small deterministic
workload and scrapes its context registry.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Any

#: Collector-fed samples arrive untyped (the registry defaults them to
#: ``counter``). Names matching these rules are re-typed as gauges for
#: exposition: point-in-time quantities whose value can go down.
_GAUGE_NAME_HINTS = (
    "_bytes", "_ratio", "_entries", "_fraction", "capacity",
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def prometheus_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus grammar."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def parse_label_key(key: str) -> dict[str, str]:
    """Parse a registry sample key (``op=spmm,backend=sputnik``) to a dict.

    Splits on the first ``=`` of each comma-separated part; a malformed
    part becomes a ``label_<i>`` entry rather than being dropped.
    """
    labels: dict[str, str] = {}
    if not key:
        return labels
    for i, part in enumerate(key.split(",")):
        name, eq, value = part.partition("=")
        if eq and _NAME_RE.match(name.strip()):
            labels[name.strip()] = value
        else:
            labels[f"label_{i}"] = part
    return labels


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{prometheus_name(k)}="{_escape_label(v)}"'
        for k, v in labels.items()
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _exposition_kind(name: str, kind: str) -> str:
    """The exposition type for one snapshot entry (gauge-hint re-typing)."""
    if kind in ("gauge", "histogram"):
        return kind
    if kind == "counter":
        if name.endswith("_total") or name.endswith("_count"):
            return "counter"
        if any(hint in name for hint in _GAUGE_NAME_HINTS):
            return "gauge"
        return "counter"
    return "untyped"


def render_prometheus(snapshot: dict[str, dict[str, Any]]) -> str:
    """Render a registry snapshot as Prometheus text exposition format.

    ``snapshot`` is :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
    output: ``name -> {type, help, samples}`` with histogram samples as
    ``{buckets, counts, sum, count}`` dicts (per-bucket counts, which are
    accumulated here — Prometheus buckets are cumulative and always end at
    ``le="+Inf"``).
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = _exposition_kind(name, str(entry.get("type", "untyped")))
        base = prometheus_name(name)
        if kind == "counter" and not base.endswith("_total"):
            base = base + "_total"
        help_text = str(entry.get("help", "") or "").replace("\n", " ")
        if help_text:
            lines.append(f"# HELP {base} {help_text}")
        lines.append(f"# TYPE {base} {kind}")
        for key in sorted(entry.get("samples", {})):
            value = entry["samples"][key]
            labels = parse_label_key(key)
            if kind == "histogram" and isinstance(value, dict):
                cumulative = 0
                for upper, count in zip(value["buckets"], value["counts"]):
                    cumulative += count
                    bucket_labels = dict(labels, le=_format_value(upper))
                    lines.append(
                        f"{base}_bucket{_format_labels(bucket_labels)} "
                        f"{_format_value(cumulative)}"
                    )
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{base}_bucket{_format_labels(inf_labels)} "
                    f"{_format_value(value['count'])}"
                )
                lines.append(
                    f"{base}_sum{_format_labels(labels)} "
                    f"{_format_value(value['sum'])}"
                )
                lines.append(
                    f"{base}_count{_format_labels(labels)} "
                    f"{_format_value(value['count'])}"
                )
            else:
                lines.append(
                    f"{base}{_format_labels(labels)} "
                    f"{_format_value(float(value))}"
                )
    return "\n".join(lines) + "\n"


def render_json(snapshot: dict[str, dict[str, Any]]) -> str:
    """The snapshot as pretty-printed JSON (stable key order)."""
    return json.dumps(snapshot, indent=2, sort_keys=True, default=str)


def _parse_value(raw: str) -> float | None:
    if raw in ("+Inf", "Inf"):
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        return None


def validate_prometheus_text(text: str) -> list[str]:
    """Check text against the Prometheus exposition grammar; returns
    problems (empty = valid).

    Validates line structure (``# HELP``/``# TYPE`` comments, samples as
    ``name{labels} value``), label syntax, numeric values, and the
    histogram contract: every ``<name>_bucket`` series has an
    ``le="+Inf"`` bucket whose count equals ``<name>_count``, bucket
    counts are non-decreasing in ``le``, and ``_sum``/``_count`` exist.
    """
    problems: list[str] = []
    typed: dict[str, str] = {}
    # histogram name -> labelkey(without le) -> list[(le, count)]
    buckets: dict[str, dict[str, list[tuple[float, float]]]] = {}
    counts: dict[str, dict[str, float]] = {}
    sums: dict[str, set[str]] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {lineno}: malformed comment {line!r}")
                continue
            if parts[1] == "TYPE":
                if parts[2] != prometheus_name(parts[2]):
                    problems.append(
                        f"line {lineno}: invalid metric name {parts[2]!r}"
                    )
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                typed[parts[2]] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name, labelblob, raw_value = match.groups()
        value = _parse_value(raw_value)
        if value is None:
            problems.append(
                f"line {lineno}: non-numeric value {raw_value!r}"
            )
            continue
        labels: dict[str, str] = {}
        if labelblob:
            inner = labelblob[1:-1].rstrip(",")
            if inner:
                matched = _LABEL_RE.findall(inner)
                rebuilt = ",".join(f'{k}="{v}"' for k, v in matched)
                if rebuilt != inner:
                    problems.append(
                        f"line {lineno}: malformed labels {labelblob!r}"
                    )
                    continue
                labels = dict(matched)
        base, _, suffix = name.rpartition("_")
        if suffix == "bucket" and typed.get(base) == "histogram":
            if "le" not in labels:
                problems.append(
                    f"line {lineno}: histogram bucket without le label"
                )
                continue
            le = _parse_value(labels["le"])
            if le is None:
                problems.append(
                    f"line {lineno}: invalid le value {labels['le']!r}"
                )
                continue
            rest = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items()) if k != "le"
            )
            buckets.setdefault(base, {}).setdefault(rest, []).append(
                (le, value)
            )
        elif suffix == "count" and typed.get(base) == "histogram":
            rest = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            counts.setdefault(base, {})[rest] = value
        elif suffix == "sum" and typed.get(base) == "histogram":
            sums.setdefault(base, set()).add(
                ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            )

    for base, series in buckets.items():
        for labelkey, pairs in series.items():
            pairs.sort(key=lambda p: p[0])
            if not pairs or not math.isinf(pairs[-1][0]):
                problems.append(
                    f"histogram {base}{{{labelkey}}}: no +Inf bucket"
                )
                continue
            values = [count for _, count in pairs]
            if values != sorted(values):
                problems.append(
                    f"histogram {base}{{{labelkey}}}: bucket counts decrease"
                )
            total = counts.get(base, {}).get(labelkey)
            if total is None:
                problems.append(
                    f"histogram {base}{{{labelkey}}}: missing _count"
                )
            elif total != pairs[-1][1]:
                problems.append(
                    f"histogram {base}{{{labelkey}}}: +Inf bucket "
                    f"{pairs[-1][1]} != _count {total}"
                )
            if labelkey not in sums.get(base, set()):
                problems.append(
                    f"histogram {base}{{{labelkey}}}: missing _sum"
                )
    return problems


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _demo_snapshot() -> dict[str, dict[str, Any]]:
    """Scrape a small deterministic workload (the CLI's default source)."""
    import numpy as np

    from .. import ops
    from ..datasets.spec import MatrixSpec

    from .metrics import MetricsRegistry, bind_context_metrics

    ctx = ops.ExecutionContext()
    registry = bind_context_metrics(MetricsRegistry(), ctx)
    for name, rows, cols, sparsity in (
        ("demo_a", 256, 256, 0.9),
        ("demo_b", 384, 128, 0.8),
    ):
        spec = MatrixSpec(name, "demo", "l0", rows, cols, sparsity, 0.3, seed=7)
        a = spec.materialize()
        dense = np.ones((a.shape[1], 32), dtype=np.float32)
        ops.spmm(a, dense, context=ctx)
        ops.spmm(a, dense, context=ctx)  # warm hit for cache counters
    return registry.snapshot()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description=(
            "Export a MetricsRegistry snapshot as Prometheus text "
            "exposition format (default) or JSON."
        ),
    )
    parser.add_argument(
        "snapshot",
        nargs="?",
        help=(
            "snapshot JSON file (MetricsRegistry.snapshot() output); "
            "omitted = run the built-in demo workload and scrape it"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the JSON snapshot instead"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the Prometheus output; nonzero exit on problems",
    )
    parser.add_argument("--out", help="write to this file instead of stdout")
    args = parser.parse_args(argv)

    if args.snapshot:
        try:
            snapshot = json.loads(open(args.snapshot).read())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read snapshot: {exc}", file=sys.stderr)
            return 1
        if not isinstance(snapshot, dict):
            print("error: snapshot must be a JSON object", file=sys.stderr)
            return 1
    else:
        snapshot = _demo_snapshot()

    if args.json:
        output = render_json(snapshot)
    else:
        output = render_prometheus(snapshot)
        if args.check:
            problems = validate_prometheus_text(output)
            if problems:
                for problem in problems:
                    print(f"invalid exposition: {problem}", file=sys.stderr)
                return 1

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
