"""Execution profiling for model forward passes.

Model code appends every kernel's :class:`ExecutionResult` to a
:class:`Profile`; the application benchmarks (Tables III/IV, Figure 12)
read total simulated runtime, throughput, and memory high-water marks off
the profile.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from ..gpu.device import DeviceSpec
from ..gpu.executor import ExecutionResult

#: Accounting-free contexts used while *building* profiles, one per device.
_UNMETERED_CONTEXTS: dict = {}


@contextmanager
def unmetered_dispatch(device: DeviceSpec):
    """Route implicit cost dispatches through an accounting-free context.

    Profile construction is cost-model bookkeeping: the OOM verdict comes
    from replaying the recorded allocation timeline at the device's DRAM
    capacity (:meth:`Profile.replay`), so a harness-level ``REPRO_HBM_CAP``
    must not be able to abort the bookkeeping itself — a dense Table III
    pass has multi-hundred-MB transient workspaces that would otherwise
    OOM the shared default context under a small cap. The previous default
    context is restored on exit; the unmetered one is cached per device so
    repeated profiling reuses its plan cache.
    """
    from .. import ops

    ctx = _UNMETERED_CONTEXTS.get(device)
    if ctx is None:
        ctx = ops.ExecutionContext(device, memory=False)
        _UNMETERED_CONTEXTS[device] = ctx
    prev = ops.default_context(device)
    ops.set_default_context(ctx)
    try:
        yield ctx
    finally:
        ops.set_default_context(prev)


@dataclass
class Profile:
    """Accumulated simulated execution of a sequence of kernels."""

    records: list[ExecutionResult] = field(default_factory=list)
    #: Bytes of weights + persistent buffers resident on the device.
    weight_bytes: int = 0
    #: Peak bytes of live activations during the pass.
    peak_activation_bytes: int = 0
    _live_activation_bytes: int = field(default=0, repr=False)
    #: Ordered allocation timeline: ``("alloc"|"free", nbytes)`` — replayed
    #: through a :class:`~repro.gpu.allocator.DeviceAllocator` so the OOM
    #: verdict uses real alignment/reservation accounting, not a byte sum.
    events: list[tuple[str, int]] = field(default_factory=list, repr=False)

    def add(self, result: ExecutionResult) -> None:
        self.records.append(result)

    def add_weights(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("weight bytes must be non-negative")
        self.weight_bytes += nbytes

    def allocate_activation(self, nbytes: int) -> None:
        """Track a live activation allocation (for the memory columns)."""
        if nbytes < 0:
            raise ValueError("activation bytes must be non-negative")
        self._live_activation_bytes += nbytes
        self.peak_activation_bytes = max(
            self.peak_activation_bytes, self._live_activation_bytes
        )
        self.events.append(("alloc", nbytes))

    def free_activation(self, nbytes: int) -> None:
        self._live_activation_bytes = max(0, self._live_activation_bytes - nbytes)
        self.events.append(("free", nbytes))

    def replay(self, allocator) -> dict:
        """Replay the recorded allocation timeline through ``allocator``.

        Weights are charged first (they stay resident for the whole pass),
        then each activation alloc/free in recorded order. Frees are
        matched to the most recent live allocation of the same size;
        unmatched frees are ignored (the raw counters already clamp).

        Returns a verdict dict: ``fits`` (False when the device ran out of
        memory mid-replay), ``peak_allocated_bytes`` /
        ``peak_reserved_bytes`` from the allocator's accounting, and the
        full allocator ``snapshot``.
        """
        from ..reliability.errors import DeviceOOMError

        live: dict[int, list] = {}
        verdict: dict = {"fits": True, "oom_requested": 0}
        try:
            if self.weight_bytes:
                allocator.allocate(self.weight_bytes, tag="weights")
            for kind, nbytes in self.events:
                if nbytes <= 0:
                    continue
                if kind == "alloc":
                    alloc = allocator.allocate(nbytes, tag="activation")
                    live.setdefault(nbytes, []).append(alloc)
                else:
                    stack = live.get(nbytes)
                    if stack:
                        allocator.free(stack.pop())
        except DeviceOOMError as exc:
            verdict["fits"] = False
            verdict["oom_requested"] = int(exc.requested)
        verdict["peak_allocated_bytes"] = allocator.peak_allocated_bytes
        verdict["peak_reserved_bytes"] = allocator.peak_reserved_bytes
        verdict["snapshot"] = allocator.snapshot()
        return verdict

    @property
    def runtime_s(self) -> float:
        return sum(r.runtime_s for r in self.records)

    @property
    def flops(self) -> float:
        return sum(r.flops for r in self.records)

    @property
    def total_memory_bytes(self) -> int:
        return self.weight_bytes + self.peak_activation_bytes

    def fits(self, device: DeviceSpec) -> bool:
        """Whether the pass fits in device memory (Table III's OOM check).

        Routed through a fresh :class:`~repro.gpu.allocator.DeviceAllocator`
        at the device's full DRAM capacity, so the verdict uses the same
        alignment and segment-reservation math the execution stack charges
        against. The ``REPRO_HBM_CAP`` env override is deliberately *not*
        applied here — Table III verdicts must be deterministic properties
        of the device, not of the harness environment.
        """
        from ..gpu.allocator import DeviceAllocator

        allocator = DeviceAllocator(device, capacity=device.dram_capacity)
        return self.replay(allocator)["fits"]

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
