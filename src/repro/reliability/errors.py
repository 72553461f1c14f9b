"""Structured error taxonomy for the sparse-op reliability layer.

Every failure the dispatch layer can observe is classified into one of four
concrete error types so retry/fallback policies can tell *retryable* faults
(a transient launch failure, a poisoned plan-cache entry, a correctable
metadata corruption) from *fatal* ones (a topology that is corrupt with no
way to re-fetch it, non-finite numerics in a full-precision run). The
mapping to real-GPU failure modes is documented in DESIGN.md Section 9.

This module is a leaf: it imports nothing from the rest of the package so
any layer (``sparse``, ``gpu``, ``ops``) can raise or catch these errors
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class ReliabilityError(RuntimeError):
    """Base class for every classified failure in the sparse-op stack."""

    #: Whether a retry (possibly after repair) can succeed. Subclasses
    #: override; policies consult this instead of isinstance chains.
    retryable = False

    #: Postmortem window attached by the flight recorder when a terminal
    #: error escapes (see :meth:`repro.obs.flight.FlightRecorder.attach`):
    #: ``flight_records`` is the last-N-events window as trace-schema JSONL
    #: records, ``flight_dump`` the artifact path when ``REPRO_FLIGHT_DIR``
    #: is configured. ``None`` on errors raised with recording disabled.
    flight_records = None
    flight_dump = None


class KernelLaunchError(ReliabilityError):
    """A kernel launch failed transiently (the CUDA-land analogue is
    ``cudaErrorLaunchFailure`` / a watchdog timeout): retry the launch."""

    retryable = True


class InvalidTopologyError(ReliabilityError):
    """CSR/CSC metadata violates a structural invariant or its checksum.

    Retryable only when the corruption can be repaired (the fault injector
    re-uploads the pristine host copy, modelling a device re-fetch after an
    ECC event); otherwise terminal — no backend can compute with corrupt
    offsets or indices.
    """

    retryable = False


class NumericalError(ReliabilityError):
    """Guardrail violation in a kernel output (NaN/Inf, fp16 overflow).

    ``kind`` distinguishes recoverable saturation (``"fp16_overflow"`` —
    degraded-mode fp32 re-run applies) from unrecoverable non-finite
    results in full precision (``"nonfinite"``).
    """

    retryable = False

    def __init__(self, message: str, kind: str = "nonfinite") -> None:
        super().__init__(message)
        self.kind = kind


class PlanCorruptionError(ReliabilityError):
    """A cached kernel plan failed its integrity check.

    Retryable: evicting the poisoned entry and re-planning from the
    (uncorrupted) matrix structure always recovers.
    """

    retryable = True

    def __init__(self, message: str, key: Any = None) -> None:
        super().__init__(message)
        self.key = key


class PlanRepairError(ReliabilityError):
    """Plan repair could not validate the ancestor against the child.

    Raised when the child does not fit the parent plan (shape, value dtype,
    row count), when delta rows are out of range, when the ancestor carries
    no ``row_order``, or when the fault injector targets a repair.
    Retryable: the dispatch layer
    falls back to a cold re-plan from the (uncorrupted) child topology, so
    a repair failure can never surface a corrupt plan.
    """

    retryable = True


class DeviceOOMError(ReliabilityError):
    """A device allocation exceeded the remaining HBM capacity.

    Retryable: the dispatch policy runs a degradation ladder before giving
    up — flush the allocator's cached segments, evict cold plans/tensors
    (an evicted plan is rebuilt from its matrix's memoized analysis when
    next needed), then fall back to a lower-footprint backend.
    ``snapshot`` is the allocator's gauge/counter dict at the moment of
    exhaustion, for post-mortem diagnosis.
    """

    retryable = True

    def __init__(
        self,
        message: str,
        requested: int = 0,
        capacity: int = 0,
        snapshot: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.requested = requested
        self.capacity = capacity
        self.snapshot = snapshot


@dataclass
class AttemptRecord:
    """One dispatch attempt inside a fallback chain."""

    backend: str
    attempt: int
    outcome: str  # "ok" | "retry" | "fallback" | "degraded" | "failed"
    error: str = ""


@dataclass
class FallbackExhaustedError(ReliabilityError):
    """Terminal error: every backend in the fallback chain was exhausted."""

    op: str
    attempts: list[AttemptRecord] = field(default_factory=list)
    #: Allocator gauge/counter snapshot when the chain died under memory
    #: pressure (``None`` for non-OOM exhaustion).
    snapshot: dict | None = None

    retryable = False

    def __post_init__(self) -> None:
        tried = ", ".join(
            f"{a.backend}#{a.attempt}:{a.error or a.outcome}"
            for a in self.attempts
        )
        super().__init__(
            f"operator {self.op!r}: fallback chain exhausted after "
            f"{len(self.attempts)} attempts ({tried})"
        )


def classify(error: BaseException) -> str:
    """Short taxonomy label for telemetry/report strings."""
    if isinstance(error, ReliabilityError):
        return type(error).__name__
    return f"unclassified:{type(error).__name__}"
