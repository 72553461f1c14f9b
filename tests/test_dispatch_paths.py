"""One dispatch path: every spelling of a one-backend request behaves alike.

A plain backend string, a one-element list, a one-backend
``FallbackPolicy`` and ``validate=True`` all run through the same policy
loop, so on clean inputs they produce the same bytes, simulated time,
cache counters and HBM peak, and under memory pressure they fail the same
way. The degraded fp32 re-run after an fp16 overflow upcasts every fp16
operand for every op, including ``csc_spmm`` and ``matmul``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ops
from repro.gpu import V100
from repro.ops import ExecutionContext
from repro.reliability import (
    DeviceOOMError,
    FallbackPolicy,
    FaultInjector,
    FaultSpec,
)
from repro.sparse import CSRMatrix
from repro.sparse.csc import csr_to_csc
from tests.conftest import random_sparse

SPELLINGS = {
    "string": {"backend": "sputnik"},
    "list": {"backend": ["sputnik"]},
    "policy": {"backend": FallbackPolicy(("sputnik",))},
    "validate": {"backend": "sputnik", "validate": True},
}


def _output_bytes(result):
    output = getattr(result, "output", None)
    if output is None:  # a *_cost call
        return None
    values = getattr(output, "values", output)  # dense or CSR output
    return values.dtype.str, values.tobytes()


def _observe(call):
    """Cold + warm call on a fresh context: bytes, runtimes, counters."""
    ctx = ExecutionContext(V100, memory=int(V100.dram_capacity))
    first = call(ctx)
    second = call(ctx)
    outputs = [_output_bytes(r) for r in (first, second)]
    return (
        outputs,
        [first.runtime_s, second.runtime_s],
        ctx.telemetry_snapshot(),
        ctx.memory_snapshot()["peak_reserved_bytes"],
        ctx.memory_snapshot()["peak_allocated_bytes"],
    )


CALLS = {
    "spmm": lambda a, b, ctx, kw: ops.spmm(a, b, context=ctx, **kw),
    "spmm_cost": lambda a, b, ctx, kw: ops.spmm_cost(
        a, b.shape[1], context=ctx, **kw
    ),
    "sparse_softmax": lambda a, b, ctx, kw: ops.sparse_softmax(
        a, context=ctx, **kw
    ),
    "csc_spmm": lambda a, b, ctx, kw: ops.csc_spmm(
        np.linspace(-1, 1, 4 * a.n_rows, dtype=np.float32).reshape(4, -1),
        csr_to_csc(a), context=ctx, **kw,
    ),
}


@pytest.mark.parametrize("op", sorted(CALLS))
def test_spellings_are_identical_on_clean_inputs(rng, op):
    a = random_sparse(rng, 96, 64, 0.3)
    b = rng.standard_normal((64, 16)).astype(np.float32)
    observed = {
        name: _observe(lambda ctx, kw=kw: CALLS[op](a, b, ctx, kw))
        for name, kw in SPELLINGS.items()
    }
    reference = observed.pop("string")
    for name, seen in observed.items():
        assert seen == reference, name


def _oom_outcome(kw):
    rng = np.random.default_rng(12345)
    a = random_sparse(rng, 512, 512, 0.5)
    b = rng.standard_normal((512, 64)).astype(np.float32)
    ctx = ExecutionContext(V100, memory=64 * 1024)
    with pytest.raises(Exception) as excinfo:
        ops.spmm(a, b, context=ctx, **kw)
    totals = ctx.telemetry
    return (
        type(excinfo.value),
        totals.oom_events,
        totals.retries,
        totals.failures,
    ), excinfo.value


def test_spellings_fail_alike_under_memory_pressure():
    outcomes = {name: _oom_outcome(kw) for name, kw in SPELLINGS.items()}
    reference, error = outcomes.pop("string")
    assert reference[0] is DeviceOOMError
    assert error.flight_records is not None
    for name, (seen, _) in outcomes.items():
        assert seen == reference, name


def test_one_backend_chain_reraises_its_last_error(rng):
    a = random_sparse(rng, 96, 64, 0.3)
    b = rng.standard_normal((64, 16)).astype(np.float32)
    ctx = ExecutionContext(V100)
    injector = FaultInjector([FaultSpec("launch", rate=1.0)], seed=7)
    with injector.attached(ctx):
        with pytest.raises(Exception) as excinfo:
            ops.spmm(a, b, context=ctx, backend="sputnik")
    assert type(excinfo.value).__name__ == "KernelLaunchError"
    assert excinfo.value.flight_records is not None
    assert ctx.telemetry_snapshot()["spmm/sputnik"]["retries"] == 1
    assert ctx.last_dispatch_report.attempts[-1].outcome == "failed"


def test_clean_string_call_carries_its_report(rng):
    a = random_sparse(rng, 96, 64, 0.3)
    b = rng.standard_normal((64, 16)).astype(np.float32)
    ctx = ExecutionContext(V100)
    result = ops.spmm(a, b, context=ctx)
    report = result.reliability
    assert report is ctx.last_dispatch_report
    assert report.clean and report.exact
    assert report.backend_used == "sputnik"
    assert [rec.outcome for rec in report.attempts] == ["ok"]


# ----------------------------------------------------------------------
# Degraded fp32 re-run: every fp16 operand is upcast, for every op
# ----------------------------------------------------------------------
def _saturating_csr() -> CSRMatrix:
    # Row dot products reach 64 * 64 * 64 = 262144 > 65504 (fp16 max).
    return CSRMatrix.from_dense(
        np.full((64, 8), 64.0, dtype=np.float32), dtype=np.float16
    )


def _assert_degraded(ctx, result, op):
    report = result.reliability
    assert report.degraded and not report.exact
    assert result.output.dtype == np.float32
    assert np.isfinite(result.output).all()
    assert ctx.telemetry_snapshot()[f"{op}/{report.backend_used}"][
        "degraded"
    ] == 1


def test_csc_spmm_fp16_overflow_degrades_to_fp32():
    ctx = ExecutionContext(V100)
    a = csr_to_csc(_saturating_csr())  # (64, 8) CSC
    b = np.full((4, 64), 64.0, dtype=np.float16)
    result = ops.csc_spmm(b, a, context=ctx, validate=True)
    _assert_degraded(ctx, result, "csc_spmm")
    np.testing.assert_array_equal(result.output, np.full((4, 8), 262144.0))


def test_matmul_fp16_overflow_degrades_to_fp32():
    ctx = ExecutionContext(V100)
    a = np.full((8, 64), 64.0, dtype=np.float16)
    b = np.full((64, 4), 64.0, dtype=np.float16)
    result = ops.matmul(a, b, context=ctx, validate=True)
    _assert_degraded(ctx, result, "matmul")
    np.testing.assert_array_equal(result.output, np.full((8, 4), 262144.0))
