"""Benchmark harness: cost-only kernel timers, problem sweeps, and the
speedup statistics the paper's tables report."""

from .report import (
    SpeedupStats,
    geometric_mean,
    pair_rows,
    speedup_stats,
)
from .runner import (
    SDDMM_KERNELS,
    SPMM_KERNELS,
    BenchRow,
    aspt_sddmm_time,
    aspt_spmm_time,
    cusparse_sddmm_time,
    cusparse_spmm_time,
    dense_spmm_time,
    merge_spmm_time,
    reliability_counters,
    run_sddmm_suite,
    run_spmm_suite,
    sputnik_sddmm_time,
    sputnik_spmm_time,
)
from .sweep import (
    SweepReport,
    SweepTask,
    build_tasks,
    reset_worker_state,
    run_sweep,
)

__all__ = [
    "BenchRow",
    "SPMM_KERNELS",
    "SDDMM_KERNELS",
    "SweepTask",
    "SweepReport",
    "build_tasks",
    "reset_worker_state",
    "run_sweep",
    "run_spmm_suite",
    "run_sddmm_suite",
    "reliability_counters",
    "sputnik_spmm_time",
    "sputnik_sddmm_time",
    "cusparse_spmm_time",
    "cusparse_sddmm_time",
    "merge_spmm_time",
    "aspt_spmm_time",
    "aspt_sddmm_time",
    "dense_spmm_time",
    "SpeedupStats",
    "speedup_stats",
    "pair_rows",
    "geometric_mean",
]
