"""Figure 10 — sparse recurrent-network problems vs MergeSpmm, ASpT, and
cuSPARSE.

Paper setup: RNN/GRU/LSTM weight problems, state sizes 1k-8k, sparsities
70/80/90 %, batch sizes 32/128, random uniform sparsity, fp32, V100.
Headline geomeans: SpMM beats MergeSpmm 1.59x, ASpT 1.56x, cuSPARSE 3.47x;
SDDMM reaches ~92 % of ASpT's throughput and 2.69x over cuSPARSE (while
using 3x less memory and no re-ordering).
"""

from __future__ import annotations

import pytest

from repro.baselines import memory_overhead_bytes
from repro.bench import (
    aspt_sddmm_time,
    aspt_spmm_time,
    cusparse_sddmm_time,
    cusparse_spmm_time,
    merge_spmm_time,
    run_sddmm_suite,
    run_spmm_suite,
    speedup_stats,
    sputnik_sddmm_time,
    sputnik_spmm_time,
)
from repro.datasets import problem_grid
from repro.gpu import V100

from conftest import banner

PAPER_SPMM = {"cusparse": 3.47, "merge": 1.59, "aspt": 1.56}
PAPER_SDDMM = {"cusparse": 2.69, "aspt": 1.0 / 0.92}


def _problem(p) -> tuple:
    return f"{p.cell}/{p.label}", p.materialize(), p.n


def _stream(grid, first):
    """``first``, then each later problem of ``grid`` materialized only
    when the suite reaches it, so one matrix is alive at a time (the
    largest LSTM problems hold ~80M nonzeros each)."""
    yield first
    for p in grid[1:]:
        yield _problem(p)


@pytest.fixture(scope="module")
def problems():
    """The Figure 10 grid, and its first problem materialized (the timed
    call and the ASpT memory line use it)."""
    grid = problem_grid()
    return grid, _problem(grid[0])


@pytest.mark.benchmark(group="fig10")
def test_fig10_spmm(benchmark, problems, show):
    grid, first = problems
    benchmark(lambda: sputnik_spmm_time(first[1], first[2], V100))
    rows = run_spmm_suite(
        _stream(grid, first),
        {
            "sputnik": sputnik_spmm_time,
            "cusparse": cusparse_spmm_time,
            "merge": merge_spmm_time,
            "aspt": aspt_spmm_time,
        },
        V100,
    )
    banner(f"Figure 10 (top) — SpMM on {len(grid)} RNN problems")
    by_problem = {}
    for r in rows:
        by_problem.setdefault(r.problem, {})[r.kernel] = r.runtime_s * 1e6
    show(f"{'problem':>24s} {'ours':>9s} {'merge':>9s} {'aspt':>9s} {'cusparse':>9s}  (us)")
    for label in sorted(by_problem)[:12]:
        t = by_problem[label]
        show(
            f"{label:>24s} {t['sputnik']:9.1f} {t['merge']:9.1f} "
            f"{t['aspt']:9.1f} {t['cusparse']:9.1f}"
        )
    show(f"... ({len(by_problem)} problems total)")
    for base, paper in PAPER_SPMM.items():
        stats = speedup_stats(rows, "sputnik", base)
        show(
            f"vs {base:>9s}: geomean {stats.geomean_speedup:5.2f}x "
            f"(paper {paper}x), peak {stats.peak_speedup:5.2f}x"
        )
        assert stats.geomean_speedup == pytest.approx(paper, rel=0.3)


@pytest.mark.benchmark(group="fig10")
def test_fig10_sddmm(benchmark, problems, show):
    grid, first = problems
    benchmark(lambda: sputnik_sddmm_time(first[1], first[2], V100))
    rows = run_sddmm_suite(
        _stream(grid, first),
        {
            "sputnik": sputnik_sddmm_time,
            "cusparse": cusparse_sddmm_time,
            "aspt": aspt_sddmm_time,
        },
        V100,
    )
    banner(f"Figure 10 (bottom) — SDDMM on {len(grid)} RNN problems")
    for base, paper in PAPER_SDDMM.items():
        stats = speedup_stats(rows, "sputnik", base)
        show(
            f"vs {base:>9s}: geomean {stats.geomean_speedup:5.2f}x "
            f"(paper {paper:.2f}x), peak {stats.peak_speedup:5.2f}x"
        )
        if base == "aspt":
            show(
                f"   (= {100 * stats.geomean_speedup:.0f}% of ASpT throughput; "
                "paper: 92%)"
            )
            assert 0.7 < stats.geomean_speedup < 1.15
        else:
            assert stats.geomean_speedup == pytest.approx(paper, rel=0.3)

    # The paper's ASpT criticism: 3x memory for the re-ordered copies.
    a = first[1]
    show(
        f"ASpT memory for {first[0]}: "
        f"{memory_overhead_bytes(a) / a.memory_bytes():.1f}x CSR (paper: 3x)"
    )
