"""Perf-regression gate over the repo's committed BENCH_*.json headlines.

Every benchmark driver in ``benchmarks/`` writes a ``BENCH_<name>.json``
artifact; each has a handful of *headline* metrics (speedups, overhead
ratios, effective GFLOP/s) that summarize whether the performance story of
the paper reproduction still holds. This module turns those headlines into
a gate:

- :data:`METRICS` names each headline once — bench file, a ``/``-separated
  path into its JSON (numeric segments index lists, so keys containing
  dots like ``corpus_cov0.3`` stay addressable), direction
  (higher-is-better or lower-is-better), and a per-metric noise threshold;
- ``--ingest`` appends the current headline values as one JSON line to the
  history file (:data:`DEFAULT_HISTORY`, committed to the repo);
- ``--check`` compares the current values against the per-metric **median**
  of the history and exits nonzero when any metric moved past its noise
  threshold in the bad direction, or disappeared outright.

The median baseline makes the gate robust to a single noisy ingest; the
per-metric thresholds are all below 0.20 so a genuine 20% slowdown in any
headline is always flagged. ``--scale key=factor`` multiplies a current
value before comparison — the injection hook the tests and CI use to prove
the gate actually fires.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Default history file, relative to the repo root (committed).
DEFAULT_HISTORY = "BASELINES.jsonl"

#: Noise threshold for metrics derived purely from the simulator's cost
#: model (bit-deterministic across machines).
SIM_NOISE = 0.05

#: Noise threshold for wall-clock-derived metrics (scheduler timings,
#: sweep throughput, tracer overhead ratios) — generous, but still below
#: the 0.20 slowdown the gate must always catch.
WALL_NOISE = 0.15


@dataclass(frozen=True)
class Metric:
    """One headline metric: where it lives and how to judge a delta."""

    key: str            #: stable identifier used in history lines and CLI
    file: str           #: BENCH artifact, relative to the repo root
    path: str           #: ``/``-separated path; numeric segments index lists
    higher_better: bool
    noise: float        #: relative change tolerated before flagging
    shift: float = 0.0  #: added to the raw value before comparison

    # ``shift`` exists for overhead-style measurements (traced/untraced-1)
    # that legitimately hover around zero and can even go negative on a
    # noisy run. A relative delta against a near-zero baseline is
    # meaningless, and a negative baseline inverts the direction of a
    # multiplicative injection. Shifting by 1.0 turns the overhead back
    # into the underlying runtime ratio, which is structurally positive
    # and compares stably.


METRICS: tuple[Metric, ...] = (
    Metric("sweep.scheduler_speedup", "BENCH_sweep.json",
           "scheduler/corpus_cov0.3/speedup", True, WALL_NOISE),
    Metric("sweep.swizzled_scheduler_speedup", "BENCH_sweep.json",
           "scheduler/swizzled_cov0.3/speedup", True, WALL_NOISE),
    Metric("sweep.warm_speedup", "BENCH_sweep.json",
           "sweep/speedup", True, WALL_NOISE),
    Metric("batched.attention_wall_speedup", "BENCH_batched.json",
           "attention/wall_speedup", True, WALL_NOISE),
    Metric("batched.attention_sim_speedup", "BENCH_batched.json",
           "attention/sim_speedup", True, SIM_NOISE),
    Metric("batched.amortization_ratio", "BENCH_batched.json",
           "attention/amortization_ratio", True, SIM_NOISE),
    Metric("batched.spmm_cost_sim_speedup", "BENCH_batched.json",
           "spmm_cost_path/sim_speedup", True, SIM_NOISE),
    Metric("autotune.geomean_speedup", "BENCH_autotune.json",
           "quality/geomean_speedup", True, SIM_NOISE),
    Metric("memory.effective_gflops", "BENCH_memory.json",
           "sweep/0/effective_gflops", True, WALL_NOISE),
    Metric("memory.accounting_ratio", "BENCH_memory.json",
           "overhead/overhead", False, WALL_NOISE, shift=1.0),
    Metric("multigpu.speedup_k4", "BENCH_multigpu.json",
           "corpus_scaling_nvlink/2/speedup_vs_k1", True, SIM_NOISE),
    Metric("multigpu.speedup_k8", "BENCH_multigpu.json",
           "corpus_scaling_nvlink/3/speedup_vs_k1", True, SIM_NOISE),
    Metric("obs.tracing_off_ratio", "BENCH_obs.json",
           "dispatch/tracing_off_overhead", False, WALL_NOISE, shift=1.0),
    Metric("obs.sweep_tracing_ratio", "BENCH_obs.json",
           "sweep/tracing_on_overhead", False, WALL_NOISE, shift=1.0),
)

_BY_KEY = {metric.key: metric for metric in METRICS}


def resolve_path(data: Any, path: str) -> float | None:
    """Follow a ``/``-separated path; ``None`` when any hop is missing."""
    current = data
    for part in path.split("/"):
        try:
            if isinstance(current, list):
                current = current[int(part)]
            elif isinstance(current, dict):
                current = current[part]
            else:
                return None
        except (KeyError, IndexError, ValueError):
            return None
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        return None
    return float(current)


def read_current(root: str | Path = ".") -> dict[str, float | None]:
    """Current headline values from the BENCH artifacts under ``root``.

    Missing files and missing paths both yield ``None`` — the comparison
    layer decides whether that is fatal (it is, when the history has a
    baseline for the metric).
    """
    root = Path(root)
    cache: dict[str, Any] = {}
    values: dict[str, float | None] = {}
    for metric in METRICS:
        if metric.file not in cache:
            try:
                cache[metric.file] = json.loads(
                    (root / metric.file).read_text()
                )
            except (OSError, json.JSONDecodeError):
                cache[metric.file] = None
        data = cache[metric.file]
        raw = None if data is None else resolve_path(data, metric.path)
        values[metric.key] = None if raw is None else raw + metric.shift
    return values


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
def read_history(path: str | Path) -> list[dict[str, Any]]:
    """History lines (oldest first). Unreadable file → empty history."""
    entries: list[dict[str, Any]] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and isinstance(entry.get("metrics"), dict):
            entries.append(entry)
    return entries


def append_history(
    path: str | Path,
    values: dict[str, float | None],
    note: str = "",
) -> dict[str, Any]:
    """Append one ingest line (only metrics that resolved) and return it."""
    entry: dict[str, Any] = {
        "metrics": {k: v for k, v in values.items() if v is not None},
    }
    if note:
        entry["note"] = note
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def baseline_from_history(
    history: list[dict[str, Any]]
) -> dict[str, float]:
    """Per-metric median across all history lines that carry the metric."""
    series: dict[str, list[float]] = {}
    for entry in history:
        for key, value in entry["metrics"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                series.setdefault(key, []).append(float(value))
    return {key: statistics.median(vals) for key, vals in series.items()}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def compare(
    current: dict[str, float | None],
    baseline: dict[str, float],
) -> list[dict[str, Any]]:
    """Judge every known metric: ``ok`` / ``regression`` / ``missing`` /
    ``new`` rows, with relative deltas where both sides exist.

    ``regression`` = moved past the metric's noise threshold in the bad
    direction; ``missing`` = the history has a baseline but the current
    artifacts no longer produce the metric (also fatal — silently dropping
    a headline is how regressions hide).
    """
    rows: list[dict[str, Any]] = []
    for metric in METRICS:
        base = baseline.get(metric.key)
        now = current.get(metric.key)
        row: dict[str, Any] = {
            "key": metric.key,
            "baseline": base,
            "current": now,
            "delta": None,
            "noise": metric.noise,
            "higher_better": metric.higher_better,
        }
        if base is None:
            row["status"] = "new" if now is not None else "ok"
        elif now is None:
            row["status"] = "missing"
        else:
            if base == 0:
                delta = 0.0 if now == 0 else float("inf")
            else:
                delta = (now - base) / abs(base)
            row["delta"] = delta
            bad = -delta if metric.higher_better else delta
            row["status"] = "regression" if bad > metric.noise else "ok"
        rows.append(row)
    return rows


def format_rows(rows: list[dict[str, Any]]) -> str:
    lines = [
        f"{'metric':38s} {'baseline':>12s} {'current':>12s} "
        f"{'delta':>8s}  status"
    ]
    for row in rows:
        base = "-" if row["baseline"] is None else f"{row['baseline']:.4g}"
        now = "-" if row["current"] is None else f"{row['current']:.4g}"
        delta = "-" if row["delta"] is None else f"{row['delta']:+.1%}"
        lines.append(
            f"{row['key']:38s} {base:>12s} {now:>12s} {delta:>8s}  "
            f"{row['status']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _parse_scale(raw: list[str]) -> dict[str, float]:
    scales: dict[str, float] = {}
    for item in raw:
        key, eq, factor = item.partition("=")
        if not eq or key not in _BY_KEY:
            raise SystemExit(
                f"error: --scale wants <metric-key>=<factor>; unknown "
                f"metric {key!r} (see --list)"
            )
        try:
            scales[key] = float(factor)
        except ValueError:
            raise SystemExit(f"error: bad --scale factor {factor!r}")
    return scales


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description=(
            "Perf-regression gate: compare BENCH_*.json headline metrics "
            "against the committed baseline history."
        ),
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true",
        help="compare current artifacts vs history; exit 1 on regression",
    )
    mode.add_argument(
        "--ingest", action="store_true",
        help="append current headline values to the history file",
    )
    mode.add_argument(
        "--list", action="store_true", dest="list_metrics",
        help="print the metric registry and current values",
    )
    parser.add_argument(
        "--root", default=".", help="repo root holding the BENCH artifacts"
    )
    parser.add_argument(
        "--history", default=None,
        help=f"history file (default <root>/{DEFAULT_HISTORY})",
    )
    parser.add_argument(
        "--note", default="", help="annotation stored with --ingest"
    )
    parser.add_argument(
        "--scale", action="append", default=[], metavar="KEY=FACTOR",
        help=(
            "multiply a current metric value before comparison "
            "(repeatable; injection hook for testing the gate)"
        ),
    )
    args = parser.parse_args(argv)

    root = Path(args.root)
    history_path = (
        Path(args.history) if args.history else root / DEFAULT_HISTORY
    )
    current = read_current(root)
    for key, factor in _parse_scale(args.scale).items():
        if current.get(key) is not None:
            current[key] = current[key] * factor

    if args.list_metrics:
        for metric in METRICS:
            value = current.get(metric.key)
            shown = "-" if value is None else f"{value:.6g}"
            direction = "higher" if metric.higher_better else "lower"
            print(
                f"{metric.key:38s} {shown:>12s}  "
                f"[{direction}-better, noise {metric.noise:.0%}] "
                f"{metric.file}:{metric.path}"
            )
        return 0

    if args.ingest:
        entry = append_history(history_path, current, note=args.note)
        print(
            f"ingested {len(entry['metrics'])}/{len(METRICS)} metrics "
            f"-> {history_path}"
        )
        missing = [k for k, v in current.items() if v is None]
        for key in missing:
            print(f"  (unresolved: {key})", file=sys.stderr)
        return 0

    history = read_history(history_path)
    if not history:
        print(
            f"error: no usable history at {history_path}; run --ingest "
            f"first",
            file=sys.stderr,
        )
        return 2
    rows = compare(current, baseline_from_history(history))
    print(f"baseline: median of {len(history)} history line(s)")
    print(format_rows(rows))
    bad = [r for r in rows if r["status"] in ("regression", "missing")]
    if bad:
        print(
            f"FAIL: {len(bad)} metric(s) regressed or went missing",
            file=sys.stderr,
        )
        return 1
    print("OK: all headline metrics within noise thresholds")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
