"""Fallback chains with retry/backoff for the operator dispatch layer.

A :class:`FallbackPolicy` names an ordered backend chain (e.g.
``["sputnik", "cusparse", "dense"]``) plus per-backend retry limits and a
deterministic exponential backoff that is *accounted in simulated time*:
every second spent backing off is added to the successful attempt's
simulated :class:`~repro.gpu.executor.ExecutionResult`, so reliability has
a visible, reproducible performance cost instead of a hidden wall-clock
one.

:func:`run_with_policy` is the single retry loop every operator wrapper
funnels through. Classification drives control flow:

- :class:`KernelLaunchError` — retry the same backend (with backoff), then
  fall back;
- :class:`PlanCorruptionError` — evict the poisoned cache entry, re-plan,
  retry;
- :class:`InvalidTopologyError` — retry only if the fault injector can
  repair the operand (host re-upload model), otherwise terminal;
- :class:`NumericalError` with ``kind="fp16_overflow"`` — degraded mode:
  re-run the attempt in fp32 (when the call has an fp16 operand to
  upcast), flagged on the returned report; any other kind is terminal;
- an exhausted chain of two or more backends raises
  :class:`FallbackExhaustedError` carrying the full attempt history; a
  one-backend chain has nothing to fall back to and re-raises its last
  error. Either way the flight recorder's window rides on the error.

Each call is summarized in a :class:`DispatchReport` (attached to the
returned :class:`~repro.core.types.KernelResult` and to
``context.last_dispatch_report``). Each retry, fallback, degradation,
failure and reclaim step is also one ``Telemetry.emit`` event, which the
context's counters, open span and flight ring all record.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace

from . import guardrails
from .errors import (
    AttemptRecord,
    DeviceOOMError,
    FallbackExhaustedError,
    InvalidTopologyError,
    KernelLaunchError,
    NumericalError,
    PlanCorruptionError,
    classify,
)

#: Default chain for callers that just want "make it survive".
DEFAULT_CHAIN = ("sputnik", "cusparse", "dense")


@dataclass(frozen=True)
class FallbackPolicy:
    """Backend chain + retry/backoff/guardrail configuration."""

    backends: tuple[str, ...]
    #: Attempts per backend before falling to the next one.
    max_attempts: int = 2
    #: First retry waits this many simulated seconds; doubles per retry.
    backoff_base_s: float = 1e-4
    backoff_factor: float = 2.0
    #: Run the numerical guardrails on every output.
    validate: bool = False
    #: On fp16 overflow, re-run in fp32 (degraded mode) instead of failing.
    recompute_fp32: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "backends", tuple(self.backends))
        if not self.backends:
            raise ValueError("a fallback policy needs at least one backend")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")


#: One-backend policies for plain backend strings, by name, without and
#: with validation.
_STRING_POLICIES: tuple[dict[str, FallbackPolicy], ...] = ({}, {})


def as_policy(backend, validate: bool | None = None) -> FallbackPolicy:
    """Coerce a backend string / chain / policy into a FallbackPolicy.

    A plain string is a one-backend policy with the default retry budget,
    built once per (string, validate) and shared afterwards.
    """
    if isinstance(backend, str):
        validate = bool(validate)
        policy = _STRING_POLICIES[validate].get(backend)
        if policy is None:
            policy = FallbackPolicy(backends=(backend,), validate=validate)
            _STRING_POLICIES[validate][backend] = policy
        return policy
    if isinstance(backend, FallbackPolicy):
        policy = backend
    else:
        policy = FallbackPolicy(backends=tuple(backend))
    if validate is not None and validate != policy.validate:
        policy = replace(policy, validate=validate)
    return policy


@dataclass
class DispatchReport:
    """What one dispatched operator call actually did."""

    op: str
    requested: tuple[str, ...]
    backend_used: str | None = None
    attempts: list[AttemptRecord] = field(default_factory=list)
    retries: int = 0
    fallbacks: int = 0
    degraded: bool = False
    #: True when the producing backend is bitwise-exact w.r.t. the chain's
    #: primary backend (same reference numerics) and no degraded re-run
    #: happened — i.e. the output is identical to a fault-free run.
    exact: bool = True
    backoff_s: float = 0.0
    injected_latency_s: float = 0.0

    @property
    def clean(self) -> bool:
        """True when the call saw no faults at all."""
        return (
            not self.retries
            and not self.fallbacks
            and not self.degraded
            and not self.injected_latency_s
        )


def _attach_window(ctx, error: BaseException, reason: str) -> None:
    if ctx.flight is not None:
        ctx.flight.attach(error, reason)


def _opened(report, op: str, policy: FallbackPolicy) -> DispatchReport:
    """The call's own report, created at its first event."""
    if report is None:
        report = DispatchReport(op=op, requested=policy.backends)
    return report


def _fail(ctx, report, op, policy, backend, attempt_no, error):
    """Account a terminal failure before its error is raised."""
    report = _opened(report, op, policy)
    report.attempts.append(
        AttemptRecord(backend, attempt_no, "failed", classify(error))
    )
    ctx.last_dispatch_report = report
    ctx.telemetry.emit("failure", op, backend, error=classify(error))
    return report


def _clean_report(reports: dict, key: tuple, chain) -> DispatchReport:
    """The report of a clean call — first attempt, no event. It is the same
    value every time, so the context keeps one per (op, chain, backend)."""
    op, requested, backend, exact_backends = key
    report = reports[key] = DispatchReport(
        op=op,
        requested=requested,
        backend_used=backend,
        attempts=[AttemptRecord(backend, 1, "ok")],
        exact=exact_backends is None
        or (backend in exact_backends and chain[0] in exact_backends),
    )
    return report


def _succeed(ctx, report, chain, exact_backends, backend, attempt_no,
             result, extra_s, outcome="ok", error=""):
    """Close the report of a call that saw events, attach it, and charge
    backoff/latency to simulated time."""
    report.backend_used = backend
    report.attempts.append(AttemptRecord(backend, attempt_no, outcome, error))
    report.exact = not report.degraded and (
        exact_backends is None
        or (backend in exact_backends and chain[0] in exact_backends)
    )
    ctx.last_dispatch_report = report
    if hasattr(result, "execution"):  # KernelResult
        if extra_s > 0:
            result = dataclasses.replace(
                result, execution=result.execution.add_overhead(extra_s)
            )
        # Every backend builds a fresh result, so it is stamped in place.
        result.reliability = report
        ctx.telemetry.record_launch(report.op, backend, result.execution)
        return result
    if extra_s > 0:  # cost-only ExecutionResult
        result = result.add_overhead(extra_s)
    ctx.telemetry.record_launch(report.op, backend, result)
    return result


def _reclaim(ctx, op: str, backend: str, exc, stage: int) -> int:
    """One stage of the OOM ladder; returns the bytes it freed."""
    if stage == 0:
        freed = ctx.flush_device_cache()
        ctx.telemetry.emit("oom_flush", op, backend, bytes_freed=freed)
        return freed
    freed = ctx.evict_device_bytes(max(exc.requested, 1), op, backend)
    ctx.telemetry.emit(
        "oom_evict", op, backend, entry="ladder", bytes_freed=freed
    )
    return freed


def run_with_policy(
    ctx,
    op: str,
    policy: FallbackPolicy,
    attempt,
    args: tuple = (),
    operands=(),
    registered=None,
    exact_backends=None,
):
    """Run ``attempt(backend, *args)`` under a fallback policy, and record
    the launch that succeeds in the context's telemetry.

    ``attempt(backend, *args, fp32=True)`` is the degraded fp32 re-run
    after an fp16 overflow; it returns ``None`` when there is nothing to
    upcast, and the overflow is then terminal. ``operands`` are the sparse
    operands the guardrails validate and the injector faults.
    ``registered`` (when given) filters the chain to backends that exist
    for ``op`` — a chain like ``["sputnik", "cusparse", "dense"]`` applies
    unchanged to ops that only register a subset. ``exact_backends`` is the
    set whose numerics are mutually bitwise-exact (for the report's
    ``exact`` flag).
    """
    chain = policy.backends
    if registered is not None and not registered.issuperset(chain):
        chain = [b for b in chain if b in registered]
    if not chain:
        raise KeyError(
            f"operator {op!r} has no registered backend in "
            f"{policy.backends}; available: {sorted(registered or ())}"
        )
    report = None  # created at the call's first event (see _opened)
    injector = ctx.injector
    check_operands = policy.validate or injector is not None
    extra_s = 0.0
    # OOM degradation ladder state, shared across the whole chain: stage 0
    # flushes the allocator's segment cache, stage 1 evicts cold residency;
    # each stage runs at most once per call and refunds the attempt it
    # interrupted when it reclaimed something. Past both stages, an OOM is
    # an ordinary retryable fault — retries burn attempts, then the chain
    # falls back to a lower-footprint backend, then exhausts.
    oom_stage = 0
    index, backend, attempt_no = 0, chain[0], 1
    while True:
        try:
            if injector is not None:
                stall = injector.on_launch(ctx, op, backend, operands)
                if stall:
                    extra_s += stall
                    report = _opened(report, op, policy)
                    report.injected_latency_s += stall
                    ctx.telemetry.emit(
                        "injected_latency", op, backend, seconds=stall
                    )
            if check_operands:
                guardrails.validate_operands(operands)
            if policy.validate:
                with guardrails.guarded():
                    result = attempt(backend, *args)
                if hasattr(result, "execution"):
                    guardrails.check_finite_result(result, op, backend)
            else:
                result = attempt(backend, *args)
        except KernelLaunchError as exc:
            error = exc
        except DeviceOOMError as exc:
            error = exc
            freed = 0
            while oom_stage < 2 and not freed:
                freed = _reclaim(ctx, op, backend, exc, oom_stage)
                oom_stage += 1
            if freed:
                # A ladder stage reclaimed memory: the interrupted attempt
                # is refunded rather than burned.
                continue
        except PlanCorruptionError as exc:
            if exc.key is not None:
                ctx.plans.evict(exc.key)
            error = exc
        except InvalidTopologyError as exc:
            repaired = (
                injector.repair(operands) if injector is not None else False
            )
            if not repaired:
                _fail(ctx, report, op, policy, backend, attempt_no, exc)
                _attach_window(ctx, exc, "failure")
                raise
            error = exc
        except NumericalError as exc:
            result = None
            if exc.kind == "fp16_overflow" and policy.recompute_fp32:
                with guardrails.guarded():
                    result = attempt(backend, *args, fp32=True)
            if result is None:
                _fail(ctx, report, op, policy, backend, attempt_no, exc)
                _attach_window(ctx, exc, "failure")
                raise
            guardrails.check_finite_result(result, op, backend)
            report = _opened(report, op, policy)
            report.degraded = True
            ctx.telemetry.emit("degraded", op, backend, error=classify(exc))
            return _succeed(
                ctx, report, chain, exact_backends, backend, attempt_no,
                result, extra_s, "degraded", classify(exc),
            )
        else:
            if report is not None:
                return _succeed(
                    ctx, report, chain, exact_backends, backend, attempt_no,
                    result, extra_s,
                )
            key = (op, policy.backends, backend, exact_backends)
            reports = ctx.clean_reports
            ctx.last_dispatch_report = reports.get(key) or _clean_report(
                reports, key, chain
            )
            if hasattr(result, "execution"):
                result.reliability = ctx.last_dispatch_report
                ctx.telemetry.record_launch(op, backend, result.execution)
            else:
                ctx.telemetry.record_launch(op, backend, result)
            return result

        # Retryable fault: back off, fall back, or give up.
        report = _opened(report, op, policy)
        if attempt_no < policy.max_attempts:
            wait = policy.backoff_base_s * (
                policy.backoff_factor ** (attempt_no - 1)
            )
            extra_s += wait
            report.backoff_s += wait
            report.retries += 1
            report.attempts.append(
                AttemptRecord(backend, attempt_no, "retry", classify(error))
            )
            ctx.telemetry.emit(
                "retry", op, backend, attempt=attempt_no,
                error=classify(error), backoff_s=wait,
            )
            attempt_no += 1
        elif index < len(chain) - 1:
            report.fallbacks += 1
            report.attempts.append(
                AttemptRecord(backend, attempt_no, "fallback", classify(error))
            )
            index += 1
            ctx.telemetry.emit(
                "fallback", op, backend, next=chain[index],
                error=classify(error),
            )
            backend, attempt_no = chain[index], 1
        else:
            _fail(ctx, report, op, policy, backend, attempt_no, error)
            if len(chain) == 1:
                # Nothing was fallen back from: the error is the answer.
                _attach_window(ctx, error, "failure")
                raise error
            snapshot = None
            if isinstance(error, DeviceOOMError):
                snapshot = ctx.memory_snapshot()
            exhausted = FallbackExhaustedError(
                op=op, attempts=report.attempts, snapshot=snapshot
            )
            _attach_window(ctx, exhausted, "fallback_exhausted")
            raise exhausted from error
