"""Benchmark runner: cost-only kernel timing over problem lists.

Benchmarks sweep thousands of problems; numerics are covered by the test
suite, so the runner times kernels through the :mod:`repro.ops` cost paths
(topology in, simulated runtime out) without paying for numpy matmuls.
Repeated problems — the same matrix at several batch sizes, or several
kernels on one topology — hit the per-device plan cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

import numpy as np

from .. import ops
from ..core.config import SddmmConfig, SpmmConfig
from ..gpu.device import DeviceSpec
from ..gpu.executor import ExecutionResult
from ..sparse.csr import CSRMatrix

SpmmTimer = Callable[[CSRMatrix, int, DeviceSpec], ExecutionResult]
SddmmTimer = Callable[[CSRMatrix, int, DeviceSpec], ExecutionResult]


# ----------------------------------------------------------------------
# SpMM timers (cost-only)
# ----------------------------------------------------------------------
def sputnik_spmm_time(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec,
    config: SpmmConfig | None = None,
    *,
    selector: str = "heuristic",
    h: int = 1,
) -> ExecutionResult:
    return ops.spmm_cost(a, n, device, config, selector=selector, h=h)


def cusparse_spmm_time(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec,
    precision: str = "fp32",
    *,
    selector: str = "heuristic",
) -> ExecutionResult:
    return ops.spmm_cost(a, n, device, backend="cusparse", precision=precision)


def merge_spmm_time(
    a: CSRMatrix, n: int, device: DeviceSpec, *, selector: str = "heuristic"
) -> ExecutionResult:
    return ops.spmm_cost(a, n, device, backend="merge")


def aspt_spmm_time(
    a: CSRMatrix, n: int, device: DeviceSpec, *, selector: str = "heuristic"
) -> ExecutionResult:
    return ops.spmm_cost(a, n, device, backend="aspt")


def dense_spmm_time(
    a: CSRMatrix, n: int, device: DeviceSpec, *, selector: str = "heuristic",
    h: int = 1,
) -> ExecutionResult:
    """The dense-GEMM equivalent of the sparse problem (Figure 1's line)."""
    return ops.spmm_cost(a, n, device, backend="dense", h=h)


# ----------------------------------------------------------------------
# SDDMM timers (cost-only); ``k`` is the dot-product (inner) dimension.
# ----------------------------------------------------------------------
def sputnik_sddmm_time(
    mask: CSRMatrix,
    k: int,
    device: DeviceSpec,
    config: SddmmConfig | None = None,
    *,
    selector: str = "heuristic",
) -> ExecutionResult:
    return ops.sddmm_cost(mask, k, device, config, selector=selector)


def cusparse_sddmm_time(
    mask: CSRMatrix, k: int, device: DeviceSpec, *, selector: str = "heuristic"
) -> ExecutionResult:
    """Constrained GEMM plus the explicit operand transpose, as timed in
    the paper's benchmarks."""
    return ops.sddmm_cost(mask, k, device, backend="cusparse")


def aspt_sddmm_time(
    mask: CSRMatrix, k: int, device: DeviceSpec, *, selector: str = "heuristic"
) -> ExecutionResult:
    return ops.sddmm_cost(mask, k, device, backend="aspt")


# ----------------------------------------------------------------------
# Named kernel registries
# ----------------------------------------------------------------------
#: SpMM timers by name, so sweep configurations (and worker processes) can
#: refer to kernels by string instead of shipping callables around. The
#: timers of the backends that take stacks (``sputnik`` and ``dense``)
#: also take ``h=``, a stack of ``h`` products sharing the topology.
SPMM_KERNELS: dict[str, SpmmTimer] = {
    "sputnik": sputnik_spmm_time,
    "cusparse": cusparse_spmm_time,
    "merge": merge_spmm_time,
    "aspt": aspt_spmm_time,
    "dense": dense_spmm_time,
}

#: SDDMM timers by name (see :data:`SPMM_KERNELS`).
SDDMM_KERNELS: dict[str, SddmmTimer] = {
    "sputnik": sputnik_sddmm_time,
    "cusparse": cusparse_sddmm_time,
    "aspt": aspt_sddmm_time,
}

# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
@dataclass
class BenchRow:
    """One (problem, kernel) measurement.

    ``status`` is ``"ok"`` for a completed measurement, ``"oom"`` when the
    kernel died of device memory exhaustion (even after the eviction
    ladder), and ``"failed"`` for any other raise — a SuiteSparse-scale
    sweep must survive one pathological matrix instead of aborting, so
    failures become rows (``runtime_s`` is NaN, ``error`` holds the
    classified exception).

    ``runtime_s`` is *simulated device* time; ``wall_s`` is the harness
    wall-clock the measurement itself took (planning + cost model), and
    ``telemetry`` is the context's aggregate counter delta attributable to
    this row (launches, cache traffic, simulated seconds) — so a slow row
    is diagnosable as plan-build cost vs. cache churn after the fact.
    """

    problem: str
    kernel: str
    m: int
    k: int
    n: int
    nnz: int
    runtime_s: float
    flops: float
    h: int = 1
    selector: str = "heuristic"
    #: Simulated device count the row was measured on (1 = unsharded;
    #: > 1 = row-sharded across a DeviceGroup, runtime_s is the group
    #: runtime and telemetry carries the comm/imbalance breakdown).
    devices: int = 1
    #: Drop/grow topology mutations applied through the dispatch path
    #: before the timed measurement (0 = static topology; > 0 = dynamic
    #: sparsity, telemetry carries the plan_repairs count).
    mutations: int = 0
    status: str = "ok"
    error: str = ""
    wall_s: float = 0.0
    telemetry: dict[str, int | float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.status != "ok"

    @property
    def throughput_flops(self) -> float:
        if self.failed or self.runtime_s <= 0:
            return 0.0
        return self.flops / self.runtime_s


#: The aggregate telemetry counters a per-row delta is computed over.
_ROW_COUNTERS = (
    "launches",
    "cache_hits",
    "cache_misses",
    "simulated_seconds",
    "oom_events",
    "plan_evictions",
    "bytes_evicted",
    "plan_repairs",
    "plan_repair_rows",
)


def _telemetry_totals(contexts) -> dict[str, int | float]:
    """:data:`_ROW_COUNTERS` summed over ``contexts`` (one context, or
    every device of a group)."""
    return {
        key: sum(getattr(ctx.telemetry, key) for ctx in contexts)
        for key in _ROW_COUNTERS
    }


def _oom_failure(exc: Exception) -> bool:
    """Whether a raised measurement failure is memory exhaustion.

    True for a direct :class:`DeviceOOMError` and for a fallback chain
    that died with OOM as its final error — those rows get
    ``status="oom"`` so capacity exhaustion is distinguishable from
    kernel failures in sweep JSONL output.
    """
    from ..reliability.errors import DeviceOOMError, FallbackExhaustedError

    if isinstance(exc, DeviceOOMError):
        return True
    if isinstance(exc, FallbackExhaustedError):
        return any(a.error == "DeviceOOMError" for a in exc.attempts)
    return False


def _measure(
    timer, label: str, name: str, matrix: CSRMatrix, dim: int, device,
    h: int = 1, selector: str = "heuristic", group=None, mutations: int = 0,
) -> BenchRow:
    """Run one timer, converting a raised kernel failure into a failed row.

    Each row records its wall-clock duration and the delta of the shared
    context's aggregate telemetry across the call. ``h > 1`` costs a
    stack (``timer(matrix, dim, device, h=h)``) and scales the nominal
    flop count by the stack depth. ``selector`` picks the config
    selection policy the timer dispatches with (and is recorded in the
    row).

    ``group`` (a :class:`repro.dist.DeviceGroup` with ``k > 1``) measures
    the row row-sharded across the group instead — ``timer`` is bypassed,
    ``name`` doubles as the per-device backend, each device runs its
    shard at depth ``h``, outputs stay sharded (the steady state of a
    chained pipeline), ``runtime_s`` is the group runtime (max compute +
    exposed comm), and the comm breakdown rides in the telemetry delta.

    ``mutations > 0`` measures under dynamic sparsity: that many seeded
    drop/grow topology updates run through the dispatch path first, each
    delta registered on the group or the context so plans repair from
    their parent's, and the row reports the final — steady-state —
    dispatch; the telemetry delta's ``plan_repairs`` shows how many plans
    were built as repairs.
    """
    sharded = group is not None and group.k > 1
    base = dict(
        problem=label,
        kernel=name,
        m=matrix.n_rows,
        k=matrix.n_cols,
        n=dim,
        nnz=matrix.nnz,
        flops=2.0 * matrix.nnz * dim * h,
        h=h,
        selector=selector,
        devices=group.k if group is not None else 1,
        mutations=mutations,
    )
    if sharded:
        from ..dist import sharded_spmm_cost

        target, contexts = group, group.contexts
        timer = partial(
            sharded_spmm_cost, group=group, backend=name, selector=selector,
            gather_output=False, h=h,
        )
        dims, kwargs = (), {}
    else:
        target = ops.default_context(device)
        contexts = (target,)
        dims = (device,)
        # Ad-hoc timers (tests, custom suites) predate the selector and
        # depth dimensions; only registered timers are guaranteed to accept
        # the keywords, so the defaults ride on their own defaults instead.
        kwargs = {} if selector == "heuristic" else {"selector": selector}
        if h != 1:
            kwargs["h"] = h
    before = _telemetry_totals(contexts)
    start = time.perf_counter()
    try:
        if mutations > 0:
            from ..nn.dynamic import drop_grow_update, select_rows

            rng = np.random.default_rng(0xD15)
            grad = rng.standard_normal(tuple(matrix.shape)).astype(np.float32)
        work = matrix
        for step in range(mutations + 1):
            if step:  # a seeded drop/grow update, registered for repair
                rows = select_rows(work, 0.05, rng)
                if rows.size == 0:
                    break
                work, delta = drop_grow_update(work, grad, rows, 0.3)
                target.register_topology_delta(delta)
            result = timer(work, dim, *dims, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the sweep must keep going
        wall_s = time.perf_counter() - start
        after = _telemetry_totals(contexts)
        return BenchRow(
            runtime_s=float("nan"),
            status="oom" if _oom_failure(exc) else "failed",
            error=f"{type(exc).__name__}: {exc}",
            wall_s=wall_s,
            telemetry={k: after[k] - before[k] for k in after},
            **base,
        )
    wall_s = time.perf_counter() - start
    after = _telemetry_totals(contexts)
    telemetry = {k: after[k] - before[k] for k in after}
    if sharded:
        telemetry["exposed_comm_s"] = result.exposed_comm_s
        telemetry["interconnect_bound"] = result.interconnect_bound_fraction
        telemetry["compute_imbalance"] = result.compute_imbalance
    return BenchRow(
        runtime_s=result.runtime_s,
        wall_s=wall_s,
        telemetry=telemetry,
        **base,
    )


def run_spmm_suite(
    problems: Iterable[tuple[str, CSRMatrix, int]],
    kernels: dict[str, SpmmTimer],
    device: DeviceSpec,
) -> list[BenchRow]:
    """Time every kernel on every (label, matrix, n) problem.

    ``problems`` may be a generator: each matrix is dropped once its
    kernels are timed. A kernel failure on one matrix yields a
    ``status="failed"`` row and the sweep continues.
    """
    return [
        _measure(timer, label, name, a, n, device)
        for label, a, n in problems
        for name, timer in kernels.items()
    ]


def run_sddmm_suite(
    problems: Iterable[tuple[str, CSRMatrix, int]],
    kernels: dict[str, SddmmTimer],
    device: DeviceSpec,
) -> list[BenchRow]:
    """Time every SDDMM kernel on every (label, mask, inner-dim) problem.

    Per-matrix failures become ``status="failed"`` rows, like
    :func:`run_spmm_suite`.
    """
    return [
        _measure(timer, label, name, mask, k, device)
        for label, mask, k in problems
        for name, timer in kernels.items()
    ]


def reliability_counters(
    device: DeviceSpec | None = None,
    context=None,
) -> dict[str, dict[str, int | float]]:
    """Per-(op, backend) telemetry — including retries, fallbacks, degraded
    completions, and injected faults — for the context a sweep ran in.

    Benchmarks report this next to their timing tables so a sweep that
    survived via fallback is distinguishable from a clean one.
    """
    if context is None:
        context = (
            ops.default_context(device)
            if device is not None
            else ops.default_context()
        )
    return context.telemetry_snapshot()
