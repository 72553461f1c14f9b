"""Benchmark statistics and table/figure formatting.

The paper reports geometric-mean and peak speedups over a baseline, the
fraction of problems on which the kernel wins, and peak achieved throughput
(Table I); these helpers compute them from :class:`BenchRow` sweeps and
render aligned text tables for the benchmark logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .runner import BenchRow


def geometric_mean(values: np.ndarray | list[float]) -> float:
    """Geometric mean (all values must be positive)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of nothing")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class SpeedupStats:
    """The Table I statistics block for one kernel-vs-baseline pairing."""

    kernel: str
    baseline: str
    n_problems: int
    geomean_speedup: float
    peak_speedup: float
    min_speedup: float
    fraction_faster: float
    peak_throughput_flops: float


def pair_rows(
    rows: list[BenchRow], kernel: str, baseline: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Align kernel and baseline runtimes by problem label.

    Returns ``(kernel_times, baseline_times, kernel_throughputs)`` over the
    problems both ran.
    """
    k_rows = {r.problem: r for r in rows if r.kernel == kernel}
    b_rows = {r.problem: r for r in rows if r.kernel == baseline}
    common = sorted(set(k_rows) & set(b_rows))
    if not common:
        raise ValueError(f"no common problems between {kernel} and {baseline}")
    kt = np.array([k_rows[p].runtime_s for p in common])
    bt = np.array([b_rows[p].runtime_s for p in common])
    thr = np.array([k_rows[p].throughput_flops for p in common])
    return kt, bt, thr


def speedup_stats(
    rows: list[BenchRow], kernel: str, baseline: str
) -> SpeedupStats:
    """Compute the paper's speedup statistics for one pairing."""
    kt, bt, thr = pair_rows(rows, kernel, baseline)
    speedups = bt / kt
    return SpeedupStats(
        kernel=kernel,
        baseline=baseline,
        n_problems=len(kt),
        geomean_speedup=geometric_mean(speedups),
        peak_speedup=float(speedups.max()),
        min_speedup=float(speedups.min()),
        fraction_faster=float(np.mean(speedups > 1.0)),
        peak_throughput_flops=float(thr.max()),
    )
