"""Deterministic fault injection for the sparse-op dispatch stack.

A :class:`FaultInjector` is attached to an
:class:`~repro.ops.context.ExecutionContext` and consulted by the dispatch
layer before every kernel attempt. Each :class:`FaultSpec` names a fault
*kind*, an optional ``(op, backend)`` filter, and a firing rule — either a
seeded per-launch probability (``rate``) or a fixed cadence (``every``) —
so an entire chaos schedule is reproducible from one integer seed.

Fault kinds and the real-GPU failure they stand in for:

- ``"launch"`` — transient kernel-launch failure (``cudaErrorLaunchFailure``,
  watchdog preemption). Raised as :class:`KernelLaunchError`; retryable.
- ``"bitflip"`` — an uncorrected memory error in device-resident CSR
  metadata (one bit of one column index). Caught by
  :meth:`CSRMatrix.validate_deep`'s checksum; the injector can *repair* the
  flip (modelling a host re-upload), making the fault retryable.
- ``"plan_poison"`` — corruption of cached kernel-plan state. Surfaces as
  :class:`PlanCorruptionError` on the next cache hit; recovery evicts the
  entry and re-plans.
- ``"latency"`` — a straggler launch (thermal throttle, PCIe contention):
  adds ``latency_s`` of simulated time to the attempt, never an error.
- ``"oom"`` — a device allocation failure (``cudaErrorMemoryAllocation``)
  at an arbitrary dispatch point, regardless of actual allocator state.
  Raised as :class:`~repro.reliability.errors.DeviceOOMError`; recovery
  runs the policy's degradation ladder (flush → evict → backend fallback).
- ``"repair"`` — a failure mid plan-repair (the incremental dynamic-sparsity
  path): raised as :class:`~repro.reliability.errors.PlanRepairError` from
  the context's repair attempt, which falls back to a cold re-plan — the
  chaos suite asserts a repair fault can never surface a corrupt plan.

``site="executor"`` moves a ``"launch"`` fault inside
:func:`repro.gpu.executor.execute` (matched by launch name), so failures
originate exactly where a real launch would die — mid-plan-build included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..gpu.executor import (
    register_launch_observer,
    unregister_launch_observer,
)
from ..gpu.memory import flip_bit
from .errors import DeviceOOMError, KernelLaunchError, PlanRepairError

FAULT_KINDS = ("launch", "bitflip", "plan_poison", "latency", "oom", "repair")
SITES = ("dispatch", "executor")


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: what to inject, where, and how often."""

    kind: str
    op: str | None = None  # match any operator when None
    backend: str | None = None  # match any backend when None
    rate: float = 0.0  # per-matching-launch firing probability
    every: int | None = None  # fire on every Nth matching launch instead
    max_faults: int | None = None  # stop firing after this many injections
    latency_s: float = 1e-3  # "latency" kind: simulated stall per fault
    site: str = "dispatch"
    name_contains: str | None = None  # executor site: launch-name filter

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}"
            )
        if self.site not in SITES:
            raise ValueError(f"unknown site {self.site!r}; expected {SITES}")
        if self.site == "executor" and self.kind != "launch":
            raise ValueError(
                "site='executor' supports only kind='launch' faults"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.every is not None and self.every < 1:
            raise ValueError("every must be >= 1")
        if self.rate and self.every:
            raise ValueError("give rate or every, not both")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")


@dataclass
class InjectedFault:
    """Log entry for one injected fault (the schedule tests assert on)."""

    index: int
    kind: str
    op: str
    backend: str
    site: str
    detail: str = ""


@dataclass
class _PendingRepair:
    array: np.ndarray
    element: int
    original: int


class FaultInjector:
    """Seeded, schedulable fault source shared by one execution context."""

    def __init__(
        self, specs: list[FaultSpec] | tuple[FaultSpec, ...], seed: int = 0
    ) -> None:
        # Imported here: the dispatch layer imports this package.
        from ..ops.registry import operators

        known = operators()
        for spec in specs:
            if spec.op is not None and spec.op not in known:
                # A spec for an operator that does not exist never fires.
                raise ValueError(
                    f"fault spec names unknown operator {spec.op!r}; "
                    f"registered: {sorted(known)}"
                )
        self.specs = list(specs)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.log: list[InjectedFault] = []
        self.enabled = True
        self._matches: dict[int, int] = {}  # spec index -> matching launches
        self._fired: dict[int, int] = {}  # spec index -> injected faults
        self._repairs: list[_PendingRepair] = []
        self._ctx = None

    # ------------------------------------------------------------------
    # Schedule bookkeeping
    # ------------------------------------------------------------------
    def faults_of_kind(self, kind: str) -> list[InjectedFault]:
        return [f for f in self.log if f.kind == kind]

    def _matches_spec(self, spec: FaultSpec, op: str, backend: str) -> bool:
        return (spec.op is None or spec.op == op) and (
            spec.backend is None or spec.backend == backend
        )

    def _should_fire(self, i: int, spec: FaultSpec) -> bool:
        self._matches[i] = self._matches.get(i, 0) + 1
        fired = self._fired.get(i, 0)
        if spec.max_faults is not None and fired >= spec.max_faults:
            return False
        if spec.every is not None:
            fire = self._matches[i] % spec.every == 0
        else:
            fire = bool(self.rng.random() < spec.rate)
        if fire:
            self._fired[i] = fired + 1
        return fire

    def _record(self, ctx, spec: FaultSpec, op: str, backend: str,
                detail: str) -> None:
        """Log one injected fault and emit it as a ``fault`` event (an
        injected OOM also emits ``oom``, as the allocator's OOM does)."""
        self.log.append(
            InjectedFault(len(self.log), spec.kind, op, backend, spec.site,
                          detail)
        )
        ctx.telemetry.emit(
            "fault", op, backend, fault=spec.kind, site=spec.site,
            detail=detail,
        )
        if spec.kind == "oom":
            ctx.telemetry.emit("oom", op, backend, requested=0, tag="injected")

    # ------------------------------------------------------------------
    # Dispatch-site injection
    # ------------------------------------------------------------------
    def on_launch(self, ctx, op: str, backend: str, operands=()) -> float:
        """Called by the dispatch layer before each kernel attempt.

        May corrupt operands/plan state in place, raise
        :class:`KernelLaunchError`, or return extra simulated latency
        seconds to charge to the attempt.
        """
        if not self.enabled:
            return 0.0
        latency = 0.0
        for i, spec in enumerate(self.specs):
            if spec.site != "dispatch":
                continue
            if not self._matches_spec(spec, op, backend):
                continue
            if not self._should_fire(i, spec):
                continue
            if spec.kind == "latency":
                latency += spec.latency_s
                self._record(ctx, spec, op, backend, f"+{spec.latency_s:g}s")
            elif spec.kind == "bitflip":
                detail = self._flip_operand_bit(operands)
                if detail is None:
                    continue  # nothing corruptible; not a fault
                self._record(ctx, spec, op, backend, detail)
            elif spec.kind == "plan_poison":
                detail = self._poison_plan(ctx, op)
                if detail is None:
                    continue  # empty cache; nothing to poison
                self._record(ctx, spec, op, backend, detail)
            elif spec.kind == "oom":
                self._record(
                    ctx, spec, op, backend, "simulated allocation failure"
                )
                memory = ctx.memory
                raise DeviceOOMError(
                    f"injected allocation failure for {op}/{backend} "
                    f"(fault #{len(self.log) - 1})",
                    requested=0,
                    capacity=memory.capacity if memory is not None else 0,
                    snapshot=(
                        memory.snapshot() if memory is not None else None
                    ),
                )
            elif spec.kind == "launch":
                self._record(
                    ctx, spec, op, backend, "simulated launch failure"
                )
                raise KernelLaunchError(
                    f"injected launch failure for {op}/{backend} "
                    f"(fault #{len(self.log) - 1})"
                )
        return latency

    def _flip_operand_bit(self, operands) -> str | None:
        """Flip one bit of one column index of the first sparse operand."""
        for matrix in operands:
            indices = getattr(matrix, "column_indices", None)
            if indices is None or indices.size == 0:
                continue
            element = int(self.rng.integers(indices.size))
            bit = int(self.rng.integers(indices.dtype.itemsize * 8))
            original = flip_bit(indices, element, bit)
            self._repairs.append(_PendingRepair(indices, element, original))
            return f"column_indices[{element}] bit {bit}"
        return None

    def _poison_plan(self, ctx, op: str) -> str | None:
        """Corrupt one cached plan/config entry belonging to ``op``."""
        keys = [
            k
            for k in ctx.plans.keys()
            if isinstance(k, tuple) and k and str(k[0]).startswith(op)
        ]
        if not keys:
            return None
        key = keys[int(self.rng.integers(len(keys)))]
        ctx.plans.poison(key)
        return f"poisoned {key[0]!r} entry"

    def on_repair(self, ctx, op: str, backend: str) -> None:
        """Called by the context before each plan-repair attempt.

        Fires ``kind="repair"`` specs by raising
        :class:`PlanRepairError`; the repair path catches it and falls
        back to a cold re-plan, so the fault costs planning time only.
        """
        if not self.enabled:
            return
        for i, spec in enumerate(self.specs):
            if spec.kind != "repair" or spec.site != "dispatch":
                continue
            if not self._matches_spec(spec, op, backend):
                continue
            if not self._should_fire(i, spec):
                continue
            self._record(ctx, spec, op, backend, "injected repair failure")
            raise PlanRepairError(
                f"injected plan-repair failure for {op}/{backend} "
                f"(fault #{len(self.log) - 1})"
            )

    def repair(self, operands=()) -> bool:
        """Undo pending metadata corruption (modelling a host re-upload).

        Returns True if anything was restored; the dispatch layer only
        retries an :class:`InvalidTopologyError` after a successful repair.
        """
        del operands  # all pending flips are restored unconditionally
        if not self._repairs:
            return False
        while self._repairs:
            pending = self._repairs.pop()
            pending.array.reshape(-1)[pending.element] = pending.original
        return True

    # ------------------------------------------------------------------
    # Executor-site injection
    # ------------------------------------------------------------------
    def _on_executor_launch(self, launch, device) -> None:
        del device
        if not self.enabled:
            return
        for i, spec in enumerate(self.specs):
            if spec.site != "executor":
                continue
            if spec.name_contains and spec.name_contains not in launch.name:
                continue
            if not self._should_fire(i, spec):
                continue
            self._record(
                self._ctx, spec, launch.name, "(executor)", "executor fault"
            )
            raise KernelLaunchError(
                f"injected executor launch failure in {launch.name!r}"
            )

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, ctx) -> "FaultInjector":
        """Arm this injector on ``ctx`` (and the simulated executor)."""
        ctx.injector = self
        self._ctx = ctx
        register_launch_observer(self._on_executor_launch)
        return self

    def detach(self, ctx) -> None:
        if ctx.injector is self:
            ctx.injector = None
        self._ctx = None
        unregister_launch_observer(self._on_executor_launch)

    @contextmanager
    def attached(self, ctx):
        """``with injector.attached(ctx): ...`` — scoped chaos."""
        self.attach(ctx)
        try:
            yield self
        finally:
            self.detach(ctx)
