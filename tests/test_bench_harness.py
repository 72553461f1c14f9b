"""Tests for the benchmark harness (runner + report)."""

import numpy as np
import pytest

from repro.bench import (
    BenchRow,
    aspt_sddmm_time,
    aspt_spmm_time,
    cusparse_sddmm_time,
    cusparse_spmm_time,
    dense_spmm_time,
    geometric_mean,
    merge_spmm_time,
    pair_rows,
    run_sddmm_suite,
    run_spmm_suite,
    speedup_stats,
    sputnik_sddmm_time,
    sputnik_spmm_time,
)
from tests.conftest import random_sparse


class TestStatistics:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_geometric_mean_validation(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def make_rows(self):
        return [
            BenchRow("p1", "a", 1, 1, 1, 1, runtime_s=1.0, flops=10.0),
            BenchRow("p1", "b", 1, 1, 1, 1, runtime_s=2.0, flops=10.0),
            BenchRow("p2", "a", 1, 1, 1, 1, runtime_s=1.0, flops=10.0),
            BenchRow("p2", "b", 1, 1, 1, 1, runtime_s=8.0, flops=10.0),
        ]

    def test_speedup_stats(self):
        stats = speedup_stats(self.make_rows(), "a", "b")
        assert stats.geomean_speedup == pytest.approx(4.0)
        assert stats.peak_speedup == pytest.approx(8.0)
        assert stats.fraction_faster == 1.0
        assert stats.n_problems == 2

    def test_pair_rows_requires_overlap(self):
        rows = [BenchRow("p1", "a", 1, 1, 1, 1, 1.0, 1.0)]
        with pytest.raises(ValueError):
            pair_rows(rows, "a", "b")


class TestTimers:
    def test_all_spmm_timers_run(self, rng, device):
        a = random_sparse(rng, 256, 128, 0.3)
        for timer in (
            sputnik_spmm_time,
            cusparse_spmm_time,
            merge_spmm_time,
            aspt_spmm_time,
            dense_spmm_time,
        ):
            result = timer(a, 32, device)
            assert result.runtime_s > 0

    def test_all_sddmm_timers_run(self, rng, device):
        mask = random_sparse(rng, 256, 128, 0.3)
        for timer in (sputnik_sddmm_time, cusparse_sddmm_time, aspt_sddmm_time):
            result = timer(mask, 32, device)
            assert result.runtime_s > 0

    def test_mixed_precision_timer(self, rng, device):
        a16 = random_sparse(rng, 128, 128, 0.3, dtype=np.float16)
        result = sputnik_spmm_time(a16, 64, device)
        assert "mixed" in result.name


class TestSuites:
    def test_spmm_suite_rows(self, rng, device):
        problems = [("p", random_sparse(rng, 64, 64, 0.3), 32)]
        rows = run_spmm_suite(
            problems, {"sputnik": sputnik_spmm_time, "dense": dense_spmm_time}, device
        )
        assert len(rows) == 2
        assert {r.kernel for r in rows} == {"sputnik", "dense"}
        assert all(r.flops == 2.0 * problems[0][1].nnz * 32 for r in rows)

    def test_sddmm_suite_rows(self, rng, device):
        problems = [("p", random_sparse(rng, 64, 64, 0.3), 16)]
        rows = run_sddmm_suite(problems, {"sputnik": sputnik_sddmm_time}, device)
        assert len(rows) == 1 and rows[0].n == 16

    def test_throughput_property(self):
        row = BenchRow("p", "k", 1, 1, 1, 1, runtime_s=2.0, flops=8.0)
        assert row.throughput_flops == 4.0
