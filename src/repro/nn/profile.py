"""Execution profiling for model forward passes.

Model code appends every kernel's :class:`ExecutionResult` to a
:class:`Profile`; the application benchmarks (Tables III/IV, Figure 12)
read total simulated runtime and throughput off the profile, and the
resident weight bytes the model declares.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.device import DeviceSpec
from ..gpu.executor import ExecutionResult


@dataclass
class Profile:
    """Accumulated simulated execution of a sequence of kernels."""

    records: list[ExecutionResult] = field(default_factory=list)
    #: Bytes of weights + persistent buffers resident on the device.
    weight_bytes: int = 0

    def add(self, result: ExecutionResult) -> None:
        self.records.append(result)

    def add_weights(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("weight bytes must be non-negative")
        self.weight_bytes += nbytes

    @property
    def runtime_s(self) -> float:
        return sum(r.runtime_s for r in self.records)

    @property
    def flops(self) -> float:
        return sum(r.flops for r in self.records)

    def by_kernel(self) -> dict[str, float]:
        """Total runtime per kernel name (for per-layer breakdowns)."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0.0) + r.runtime_s
        return out

    def to_trace(self, device: DeviceSpec, name: str = "model", tracer=None):
        """Lay the profiled kernels out on a simulated-device timeline.

        Returns a ``clock="sim"`` :class:`~repro.obs.tracing.Tracer` (or
        fills the one passed in): one root span covering the pass, one
        child span per kernel laid back-to-back at their simulated
        runtimes, and one ``launch`` record per kernel carrying its phase
        attribution — so a model forward exports to Chrome trace / the
        report CLI exactly like a live-traced sweep. ``device`` is the
        device the pass was costed on; its name on every launch record
        gives the report's roofline its roofs.
        """
        from ..obs.tracing import Tracer, launch_record

        if tracer is None:
            tracer = Tracer(process=name, clock="sim")
        root = tracer.add_complete_span(
            name,
            ts_s=0.0,
            dur_s=self.runtime_s,
            category="model",
            sim_s=self.runtime_s,
            kernels=len(self.records),
            flops=self.flops,
        )
        cursor = 0.0
        for result in self.records:
            span = tracer.add_complete_span(
                result.name,
                ts_s=cursor,
                dur_s=result.runtime_s,
                category="kernel",
                sim_s=result.runtime_s,
                parent=root,
                flops=result.flops,
                n_blocks=result.n_blocks,
            )
            phases = getattr(result, "phases", None)
            if phases is not None:
                span.set(phases=phases.as_dict())
                tracer.add_launch(launch_record(result, device.name))
            cursor += result.runtime_s
        return tracer
