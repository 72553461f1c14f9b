"""Shared benchmark utilities.

Every benchmark in this directory regenerates one of the paper's tables or
figures: it prints the same rows/series the paper reports, plus explicit
"paper vs measured" comparison lines that feed EXPERIMENTS.md. Run with::

    pytest benchmarks/ --benchmark-only -s

The printed artifact is the deliverable; the pytest-benchmark timings
measure the harness itself (simulation throughput), not GPU kernels.
"""

from __future__ import annotations

import sys
import time

import numpy as np
import pytest


def banner(title: str) -> None:
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


@pytest.fixture(scope="session")
def show(request):
    """Print helper that survives pytest's output capture settings."""

    def _show(*args, **kwargs):
        print(*args, **kwargs)
        sys.stdout.flush()

    return _show


def paired_median(loop_a, loop_b, pairs: int) -> tuple[float, float, float]:
    """Median wall time of each loop and the median of the per-pair
    ``a / b`` ratios over ``pairs`` interleaved A/B pairs.

    A burst of host contention lands on both sides of a pair, and a few
    contended pairs cannot move the median, so the ratio is far steadier on
    a shared machine than one of two independent minima. The side that
    runs first alternates from pair to pair."""
    times_a, times_b = [], []
    sides = ((loop_a, times_a), (loop_b, times_b))
    for i in range(pairs):
        for loop, times in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            loop()
            times.append(time.perf_counter() - t0)
    ratios = np.asarray(times_a) / np.asarray(times_b)
    return (
        float(np.median(times_a)),
        float(np.median(times_b)),
        float(np.median(ratios)),
    )
