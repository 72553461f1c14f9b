"""Figure 9 + Table I — kernel benchmarks on the DL sparse-matrix dataset.

The paper benchmarks all 3,012 matrices at training and inference batch
sizes. This benchmark costs an evenly strided stratified sample of them
(documented in DESIGN.md), large enough for stable geometric means, and
runs in seconds; the full corpus would take a few minutes in one process.
Reported exactly as Table I:

- single-precision SpMM:   geomean 3.58x, peak 14.2x,  peak 4.29 TFLOPs (27.3 %)
- single-precision SDDMM:  geomean 2.19x, peak 6.58x,  peak 4.11 TFLOPs (26.2 %)
- mixed-precision SpMM:    geomean 5.97x, peak 297.5x, peak 5.57 TFLOPs
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import (
    cusparse_sddmm_time,
    cusparse_spmm_time,
    run_sddmm_suite,
    run_spmm_suite,
    speedup_stats,
    sputnik_sddmm_time,
    sputnik_spmm_time,
)
from repro.datasets import dnn_corpus
from repro.gpu import V100

from conftest import banner

#: Matrices sampled from the 3,012-matrix corpus (each at 2 batch sizes).
SAMPLE = 96

PAPER = {
    "spmm_fp32": (3.58, 14.2, 4.29),
    "sddmm_fp32": (2.19, 6.58, 4.11),
    "spmm_mixed": (5.97, 297.5, 5.57),
}


def build_problems():
    specs = dnn_corpus.sample_corpus(SAMPLE)
    fp32, fp16 = [], []
    for spec in specs:
        a32 = spec.materialize(np.float32)
        a16 = spec.materialize(np.float16) if spec.cols <= 32768 else None
        for n in spec.batch_columns:
            label = f"{spec.name}/n{n}"
            fp32.append((label, a32, n))
            if a16 is not None:
                fp16.append((label, a16, n))
    return fp32, fp16


@pytest.fixture(scope="module")
def problems():
    return build_problems()


def report(show, title, stats, paper_key):
    geo, peak, tflops = PAPER[paper_key]
    show(
        f"{title}: geomean {stats.geomean_speedup:5.2f}x (paper {geo}x), "
        f"peak {stats.peak_speedup:6.1f}x (paper {peak}x), "
        f"wins {100 * stats.fraction_faster:5.1f}%, "
        f"peak {stats.peak_throughput_flops / 1e12:4.2f} TFLOPs (paper {tflops})"
    )


@pytest.mark.benchmark(group="fig09")
def test_fig09_spmm_fp32(benchmark, problems, show):
    fp32, _ = problems
    benchmark(lambda: sputnik_spmm_time(fp32[0][1], fp32[0][2], V100))
    rows = run_spmm_suite(
        fp32, {"sputnik": sputnik_spmm_time, "cusparse": cusparse_spmm_time}, V100
    )
    stats = speedup_stats(rows, "sputnik", "cusparse")
    banner(f"Figure 9 / Table I — SpMM fp32 over {stats.n_problems} problems")
    report(show, "SpMM fp32 ", stats, "spmm_fp32")
    show(f"peak fraction of fp32 peak: {100 * stats.peak_throughput_flops / V100.fp32_peak_flops:.1f}% (paper 27.3%)")
    assert stats.geomean_speedup > 2.0
    assert stats.fraction_faster > 0.9


@pytest.mark.benchmark(group="fig09")
def test_fig09_sddmm_fp32(benchmark, problems, show):
    fp32, _ = problems
    benchmark(lambda: sputnik_sddmm_time(fp32[0][1], 64, V100))
    # The SDDMM problem is the sparse-weight gradient: mask = weight
    # topology, inner dimension = the batch column count.
    sd_problems = [(label, a, n) for label, a, n in fp32]
    rows = run_sddmm_suite(
        sd_problems,
        {"sputnik": sputnik_sddmm_time, "cusparse": cusparse_sddmm_time},
        V100,
    )
    stats = speedup_stats(rows, "sputnik", "cusparse")
    banner(f"Figure 9 / Table I — SDDMM fp32 over {stats.n_problems} problems")
    report(show, "SDDMM fp32", stats, "sddmm_fp32")
    assert stats.geomean_speedup > 1.5
    assert stats.fraction_faster > 0.8


@pytest.mark.benchmark(group="fig09")
def test_fig09_spmm_mixed(benchmark, problems, show):
    _, fp16 = problems
    benchmark(lambda: sputnik_spmm_time(fp16[0][1], fp16[0][2], V100))
    rows = run_spmm_suite(
        fp16,
        {
            "sputnik": sputnik_spmm_time,
            "cusparse": lambda a, n, d: cusparse_spmm_time(a, n, d, "mixed"),
        },
        V100,
    )
    stats = speedup_stats(rows, "sputnik", "cusparse")
    banner(f"Figure 9 / Table I — SpMM mixed precision over {stats.n_problems} problems")
    report(show, "SpMM mixed", stats, "spmm_mixed")
    # Mixed precision widens the gap (16-bit metadata + cuSPARSE fallbacks).
    fp32_rows = run_spmm_suite(
        [(l, a.astype(np.float32), n) for l, a, n in fp16[:40]],
        {"sputnik": sputnik_spmm_time, "cusparse": cusparse_spmm_time},
        V100,
    )
    fp32_stats = speedup_stats(fp32_rows, "sputnik", "cusparse")
    show(
        f"mixed widens the gap: {stats.geomean_speedup:.2f}x vs fp32 "
        f"{fp32_stats.geomean_speedup:.2f}x on the same matrices"
    )
    assert stats.geomean_speedup > fp32_stats.geomean_speedup
    assert stats.peak_speedup > 10.0  # the fallback pathology outliers
