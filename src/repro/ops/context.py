"""Execution contexts: device + plan cache + telemetry.

An :class:`ExecutionContext` is the stateful half of the dispatch layer. It
carries the :class:`~repro.gpu.device.DeviceSpec` every launch is costed
against, a :class:`~repro.ops.plans.PlanCache` of per-matrix kernel plans
(tiling, swizzled row order, ROMA extents, selected configs, simulated
execution), and running telemetry per (op, backend).

Call sites that don't manage a context explicitly share a module-level
default per device via :func:`default_context`, so plan reuse happens
automatically across layers and training steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, make_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from collections import OrderedDict
from contextlib import nullcontext

from ..baselines.aspt import memory_overhead_bytes as aspt_overhead_bytes
from ..baselines.cublas import gemm_execution
from ..core.config import SddmmConfig, SpmmConfig
# The plan_* builders and repair_* functions are used by name via _PLANS.
from ..core.csc_spmm import plan_spmm_csc
from ..core.repair import TopologyDelta
from ..core.sddmm import SddmmPlan, plan_sddmm, repair_sddmm_plan
from ..core.sparse_softmax import SparseSoftmaxPlan, plan_sparse_softmax
from ..core.spmm import SpmmPlan, plan_spmm, repair_spmm_plan
from ..gpu.allocator import (
    Allocation,
    DeviceAllocator,
    capacity_from_env,
    estimate_nbytes,
)
from ..gpu.device import V100, DeviceSpec
from ..gpu.executor import ExecutionResult
from ..obs.flight import FlightRecorder, flight_from_env
from ..obs.tracing import launch_record
from ..reliability.errors import (
    DeviceOOMError,
    PlanCorruptionError,
    classify,
)
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..tune import TuningResult, resolve_selector
from .plans import (
    DEFAULT_MAX_PLANS,
    PlanCache,
    matrix_fingerprint,
)
from .store import PlanStore

#: The telemetry snapshot contract: every per-(op, backend) counter and its
#: value type. ``telemetry_snapshot()`` rows contain exactly these keys, and
#: each value is exactly this Python type — counts are ``int`` (never
#: float-drifted), accumulated times are ``float`` seconds. Tested in
#: tests/test_obs.py; consumers may rely on it.
TELEMETRY_SCHEMA: dict[str, type] = {
    "launches": int,
    "cache_hits": int,
    "cache_misses": int,
    "simulated_seconds": float,
    # Reliability counters (fed by the dispatch policy loop).
    "retries": int,
    "fallbacks": int,
    "degraded": int,
    "failures": int,
    "faults_injected": int,
    "backoff_seconds": float,
    # Plan-store counters (populated when a store is attached and a
    # searched config is looked up).
    "store_hits": int,
    "store_misses": int,
    "store_evictions": int,
    # Memory-pressure counters (populated when a device allocator is
    # attached): allocation failures observed, resident plans evicted under
    # pressure, and total bytes (plans + tensors) reclaimed.
    "oom_events": int,
    "plan_evictions": int,
    "bytes_evicted": int,
    # Dynamic-sparsity counters (populated by the plan-repair path): plans
    # produced by repair from a registered ancestor instead of a cold
    # build, the total edited rows those repairs covered, and cache
    # entries evicted by topology invalidation.
    "plan_repairs": int,
    "plan_repair_rows": int,
    "plan_invalidations": int,
}


class Event(NamedTuple):
    """Where one kind of non-launch dispatch event lands."""

    #: The :data:`TELEMETRY_SCHEMA` counters the event adds to, each mapped
    #: to the event attribute that carries the amount (``None`` adds 1; an
    #: absent attribute adds nothing).
    counters: dict[str, str | None]
    #: Appended to the open tracer span.
    span: bool = True
    #: Appended to the flight ring.
    flight: bool = True


#: The one event vocabulary: every non-launch fact the dispatch stack
#: records goes through :meth:`Telemetry.emit`, which projects it into the
#: counters, the open span and the flight ring as its row says, so the
#: three stores cannot disagree.
EVENTS: dict[str, Event] = {
    # The fallback policy loop (repro.reliability.policy).
    "retry": Event({"retries": None, "backoff_seconds": "backoff_s"}),
    "fallback": Event({"fallbacks": None}),
    "degraded": Event({"degraded": None}),
    "failure": Event({"failures": None}),
    "injected_latency": Event({}),
    # One injected fault (repro.reliability.injector).
    "fault": Event({"faults_injected": None}),
    # Memory pressure: an allocation failure and the reclaim steps after it
    # (one per evicted tensor or plan, plus the policy ladder's summary).
    "oom": Event({"oom_events": None}),
    "oom_flush": Event({}),
    "oom_evict": Event({"bytes_evicted": "bytes", "plan_evictions": "plans"}),
    # Dynamic sparsity: repairs and topology invalidation.
    "plan_repair": Event({"plan_repairs": None, "plan_repair_rows": "rows"}),
    "plan_repair_failed": Event({}),
    "plan_invalidate": Event({"plan_invalidations": "entries"}),
    # Plan-store lookups of searched configs: counters only.
    "store_hit": Event({"store_hits": None}, span=False, flight=False),
    "store_miss": Event({"store_misses": None}, span=False, flight=False),
    "store_corrupt": Event(
        {"store_evictions": None, "store_misses": None},
        span=False, flight=False,
    ),
    # A charged collective; its launch itself goes through record_launch.
    "collective": Event({}, flight=False),
    # A sweep worker died outside any measured task.
    "worker_crash": Event({}),
}


def _as_dict(self) -> dict[str, int | float]:
    """Snapshot row, coerced to the :data:`TELEMETRY_SCHEMA` types."""
    return {
        name: kind(getattr(self, name))
        for name, kind in TELEMETRY_SCHEMA.items()
    }


OpStats = make_dataclass(
    "OpStats",
    [
        (name, kind, field(default=kind()))
        for name, kind in TELEMETRY_SCHEMA.items()
    ],
    namespace={
        "__doc__": "Running counters for one (op, backend) pair: one "
        "zero-initialised field per :data:`TELEMETRY_SCHEMA` counter.",
        "as_dict": _as_dict,
    },
)
OpStats.__module__ = __name__


@dataclass
class Telemetry:
    """Per-context instrumentation, keyed by (op, backend).

    The live :class:`OpStats` objects in ``stats`` are the write store for
    the hot dispatch path. A :class:`~repro.obs.metrics.MetricsRegistry`
    reads them through a pull-mode collector (see
    :func:`repro.obs.metrics.bind_context_metrics`), so :meth:`snapshot`
    remains the stable compatibility surface while the registry supersedes
    it. Launches and plan-cache lookups have their own hot-path writers
    (:meth:`record_launch` is also the one producer of a trace's
    ``launch`` records); every other event goes through :meth:`emit`.
    """

    stats: dict[tuple[str, str], OpStats] = field(default_factory=dict)
    #: Optional :class:`~repro.obs.metrics.Histogram` labeled (op, backend)
    #: fed one observation per recorded launch.
    sim_histogram: object | None = field(default=None, repr=False)
    #: The context's :class:`~repro.obs.flight.FlightRecorder` (or
    #: ``None``): fed one ring event per recorded launch and per event.
    flight: object | None = field(default=None, repr=False)
    #: The context's :class:`~repro.obs.tracing.Tracer` (or ``None``):
    #: events land on its open span, and each recorded launch becomes one
    #: of its ``launch`` records.
    tracer: object | None = field(default=None, repr=False)
    #: Name of the context's device, stamped on the trace's launch records.
    device: str = ""

    def _get(self, op: str, backend: str) -> OpStats:
        stats = self.stats.get((op, backend))
        if stats is None:
            stats = self.stats[op, backend] = OpStats()
        return stats

    def attach_histogram(self, histogram) -> None:
        """Feed simulated launch runtimes into an (op, backend)-labeled
        histogram from now on (``None`` detaches)."""
        self.sim_histogram = histogram

    def record_launch(
        self, op: str, backend: str, execution: ExecutionResult
    ) -> None:
        entry = self._get(op, backend)
        entry.launches += 1
        entry.simulated_seconds += execution.runtime_s
        if self.sim_histogram is not None:
            self.sim_histogram.labels(op, backend).observe(execution.runtime_s)
        if self.flight is not None:
            self.flight.record_launch(op, backend, execution)
        if self.tracer is not None:
            self.tracer.add_launch(launch_record(execution, self.device))

    def record_cache(self, op: str, backend: str, hit: bool) -> None:
        entry = self._get(op, backend)
        if hit:
            entry.cache_hits += 1
        else:
            entry.cache_misses += 1

    def emit(self, kind: str, op: str, backend: str, /, **attrs) -> None:
        """Record one :data:`EVENTS` event: add to its counters, and append
        it to the open span and the flight ring where its row sends it."""
        event = EVENTS[kind]
        if event.counters:
            stats = self._get(op, backend)
            for name, attr in event.counters.items():
                if attr is None:
                    setattr(stats, name, getattr(stats, name) + 1)
                elif attr in attrs:
                    setattr(stats, name, getattr(stats, name) + attrs[attr])
        attrs = {"op": op, "backend": backend, **attrs}
        if event.span and self.tracer is not None:
            span = self.tracer.current
            if span is not None:
                span.event(kind, **attrs)
        if event.flight and self.flight is not None:
            self.flight.record(kind, op, **attrs)

    def record_store(self, op: str, backend: str, status: str) -> None:
        """One plan-store lookup of a searched config: ``"hit"``,
        ``"miss"``, or ``"corrupt"`` (an evicted corrupt entry, which also
        misses)."""
        self.emit(f"store_{status}", op, backend)

    def record_plan_repair(
        self, op: str, backend: str, rows: int, **attrs
    ) -> None:
        """One plan produced by repair from an ancestor (``rows`` edited)."""
        self.emit("plan_repair", op, backend, rows=int(rows), **attrs)

    def record_plan_invalidation(
        self, op: str, backend: str, amount: int = 1, **attrs
    ) -> None:
        """``amount`` cached entries evicted by a topology change."""
        self.emit("plan_invalidate", op, backend, entries=amount, **attrs)

    def reset(self) -> None:
        """Zero every counter (plans/caches are unaffected)."""
        self.stats.clear()

    def snapshot(self) -> dict[str, dict[str, int | float]]:
        """Plain-dict copy of every counter, keyed ``"op/backend"``.

        The public read API: benchmarks and tests consume this instead of
        reaching into the live ``stats`` mapping. Every row carries exactly
        the :data:`TELEMETRY_SCHEMA` keys with exactly its types (counts
        are ``int``, accumulated times ``float`` seconds).
        """
        return {
            f"{op}/{backend}": stats.as_dict()
            for (op, backend), stats in sorted(self.stats.items())
        }

    def summary(self) -> str:
        """One line per (op, backend) with its nonzero counters, for logs
        and examples."""
        return "\n".join(
            f"{key}: "
            + " ".join(
                f"{name}={value:.3g}" if isinstance(value, float)
                else f"{name}={value}"
                for name, value in row.items()
                if value
            )
            for key, row in self.snapshot().items()
        )


def _total(name: str) -> property:
    def total(self: Telemetry) -> int | float:
        return sum(getattr(s, name) for s in self.stats.values())

    total.__name__ = name
    return property(total, doc=f"``{name}`` summed over every (op, backend).")


# The aggregate accessors (``telemetry.launches``, ``.oom_events``, ...):
# one per TELEMETRY_SCHEMA counter.
for _name in TELEMETRY_SCHEMA:
    setattr(Telemetry, _name, _total(_name))
del _name


def _operand_bytes(matrix) -> int:
    """Device footprint of one sparse operand (values + structure arrays)."""
    fn = getattr(matrix, "memory_bytes", None)
    if fn is not None:
        return int(fn())
    total = int(matrix.values.nbytes)
    for attr in ("row_offsets", "column_indices", "col_offsets", "row_indices"):
        arr = getattr(matrix, attr, None)
        if arr is not None:
            total += int(arr.nbytes)
    return total


class _MemoryScope:
    """``with`` form of :meth:`ExecutionContext._hold` and ``_release``."""

    __slots__ = ("ctx", "request", "held")

    def __init__(self, ctx, op, backend, operands, workspace) -> None:
        self.ctx = ctx
        self.request = (op, backend, operands, workspace)

    def __enter__(self):
        self.held = self.ctx._hold(*self.request)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.ctx._release(self.held)


#: Shared no-op scope for contexts with accounting disabled.
_NULL_SCOPE = nullcontext()
#: Representations an operand keeps resident, for non-aspt and aspt.
_KINDS = (("csr",), ("aspt", "csr"))

#: Registered topology deltas kept per context (LRU): one entry per live
#: mutated topology is plenty — dynamic training registers one delta per
#: update step and the repaired plans land in the regular cache.
MAX_TOPOLOGY_DELTAS = 64


@dataclass(frozen=True)
class _PlanKind:
    """One plan family: how :meth:`ExecutionContext._plan` builds it.

    Builders are held by name and looked up in this module when called, so
    a rebinding of a module name (a tracer's wrapper, a test) reaches them.
    """

    #: ``build(matrix, *dims, device[, config], h)``.
    build: str
    #: ``repair(plan, matrix, delta)``, for families that repair from a
    #: parent's plan under a registered topology delta.
    repair: str | None = None
    #: The config-selection method (``"spmm_config"``/``"sddmm_config"``)
    #: that resolves a missing config; ``None`` uses the config as given.
    select: str | None = None
    #: Whether the kernel takes a config (and the cache key carries it).
    configured: bool = True


_PLANS: dict[str, _PlanKind] = {
    "spmm": _PlanKind("plan_spmm", "repair_spmm_plan", "spmm_config"),
    "sddmm": _PlanKind("plan_sddmm", "repair_sddmm_plan", "sddmm_config"),
    "sparse_softmax": _PlanKind("plan_sparse_softmax", configured=False),
    "csc_spmm": _PlanKind("plan_spmm_csc"),
}


class ExecutionContext:
    """Device + plan cache + telemetry for the dispatch layer.

    One context maps to one simulated device; plans built against a
    different :class:`DeviceSpec` never share a cache, so keys only need
    (op, matrix fingerprint, problem dims, config).

    ``memory`` controls HBM capacity accounting:

    - ``None`` (default): a fresh :class:`DeviceAllocator` capped at the
      device's ``dram_capacity`` (or the ``REPRO_HBM_CAP`` override, which
      can also disable accounting with ``off``);
    - an ``int``: a fresh allocator with that capacity in bytes;
    - a :class:`DeviceAllocator`: used as-is (shared accounting);
    - ``False``: accounting disabled (``ctx.memory is None``).

    ``flight`` controls the always-on postmortem ring buffer:

    - ``None`` (default): a fresh :class:`FlightRecorder` honouring the
      ``REPRO_FLIGHT`` capacity/kill-switch environment override;
    - an ``int``: a fresh recorder with that ring capacity;
    - a :class:`FlightRecorder`: used as-is (shared window);
    - ``False``: recording disabled (``ctx.flight is None``).
    """

    def __init__(
        self,
        device: DeviceSpec = V100,
        max_plans: int = DEFAULT_MAX_PLANS,
        store: PlanStore | str | Path | None = None,
        tracer=None,
        memory: DeviceAllocator | int | bool | None = None,
        device_id: int | None = None,
        flight: FlightRecorder | int | bool | None = None,
    ) -> None:
        self.device = device
        #: Position of this context inside a :class:`~repro.dist.DeviceGroup`
        #: (``None`` for standalone single-device contexts). Stamped onto op
        #: and memory spans so multi-device traces can be rolled up
        #: per device by the report CLI.
        self.device_id = device_id
        self.plans = PlanCache(max_plans)
        self.telemetry = Telemetry(device=device.name)
        #: Optional disk-backed :class:`~repro.ops.store.PlanStore` holding
        #: searched (oracle/tuned) configs across processes; a path builds
        #: one. Plans themselves are never persisted.
        self.attach_store(store)
        #: A :class:`~repro.reliability.injector.FaultInjector`, or ``None``;
        #: the policy loop consults it before every attempt.
        self.injector = None
        #: The :class:`~repro.reliability.policy.DispatchReport` of the most
        #: recent dispatched call (cost-only calls have no result object to
        #: carry it).
        self.last_dispatch_report = None
        #: The shared report of clean calls, per (op, chain, backend, exact
        #: set), kept by the policy loop; reports are read-only.
        self.clean_reports: dict = {}
        #: Optional :class:`~repro.obs.tracing.Tracer`. When set, every
        #: dispatched op opens a span and the plan cache/fallback policy
        #: annotate it; when ``None``, dispatch pays one attribute check.
        self.attach_tracer(tracer)
        self._metrics = None
        #: The capacity-aware device allocator (``None`` = accounting off).
        if memory is False:
            self.memory = None
        elif memory is None:
            cap = capacity_from_env(device.dram_capacity)
            self.memory = (
                DeviceAllocator(device, cap) if cap is not None else None
            )
        elif isinstance(memory, DeviceAllocator):
            self.memory = memory
        else:
            self.memory = DeviceAllocator(device, int(memory))
        #: The always-on flight recorder (``None`` = recording off). Fed a
        #: ring event per launch and per telemetry event; dumped and
        #: attached to terminal errors.
        if flight is False:
            flight = None
        elif not isinstance(flight, FlightRecorder):
            # True and None both mean "the env-configured default ring".
            flight = flight_from_env(
                None if flight is None or flight is True else int(flight),
                process=f"flight:{device.name}",
                device_id=device_id,
            )
        self.attach_flight(flight)
        #: LRU of device-resident sparse operands, keyed by
        #: (structure checksum, representation class).
        self._resident: OrderedDict[tuple, Allocation] = OrderedDict()
        #: Pin refcounts over ``_resident`` (in-flight dispatch scopes).
        self._pinned: dict[tuple, int] = {}
        #: Bytes charged per resident plan-cache entry.
        self._plan_allocs: dict[tuple, Allocation] = {}
        #: Residency keys evicted under pressure; re-pinning one counts as
        #: a host->device re-upload in ``bytes_reuploaded``.
        self._evicted_keys: set = set()
        self.bytes_reuploaded = 0
        self.tensor_evictions = 0
        #: Registered topology deltas, keyed by *child* fingerprint: the
        #: fingerprint-delta lookup (exact hit -> repairable ancestor ->
        #: cold build) consults this before paying a cold plan build.
        self._deltas: OrderedDict[str, TopologyDelta] = OrderedDict()
        self.plans.on_evict = self._on_plan_evicted

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(device={self.device.name!r}, "
            f"plans={len(self.plans)}, launches={self.telemetry.launches})"
        )

    def clear(self) -> None:
        """Drop all in-memory cached plans (telemetry and store are kept)."""
        self.plans.clear()

    def attach_store(self, store: PlanStore | str | Path | None) -> None:
        """Attach (or detach, with ``None``) a persistent plan store."""
        self.store = (
            PlanStore(store) if isinstance(store, (str, Path)) else store
        )

    def _cached(
        self,
        op: str,
        backend: str,
        key: tuple,
        build,
        storable=None,
        repair=None,
    ):
        """Plan lookup: the memory cache, then a repair (when a topology
        delta applies), then ``build``.

        A poisoned in-memory entry raises
        :class:`~repro.reliability.errors.PlanCorruptionError` exactly like
        the direct cache path, so the reliability policies keep working.

        ``storable`` (a predicate over the built value) makes the entry a
        persisted decision: the attached store is read before a build and
        receives every built value the predicate accepts. Only searched
        configs pass one; a tuning result that *fell back* under injected
        faults fails it, so a later fault-free run re-tunes instead of
        inheriting the degraded pick. A corrupt on-disk entry is
        self-healing (evicted and rebuilt) and only surfaces in the
        ``store_evictions`` telemetry. Everything else is memory-only and
        rebuilt from the matrix's memoized analysis on a miss.

        ``repair`` (a zero-arg callable returning ``(value, delta)`` or
        ``None``) is the fingerprint-delta hook: tried only after the
        lookups miss, and *any* failure inside it — including injected
        faults — falls through to the cold ``build``, so a repair can cost
        at most a re-plan, never a corrupt plan.
        """
        span = self.tracer.current if self.tracer is not None else None
        value = self.plans.get(key)
        if value is not None:
            self.telemetry.record_cache(op, backend, True)
            if span is not None:
                span.set(plan_cache="hit", plan_source="memory")
            return value
        self.telemetry.record_cache(op, backend, False)
        store = self.store if storable is not None else None
        if store is not None:
            stored, status = store.fetch((self.device,) + key)
            self.telemetry.record_store(op, backend, status)
            if stored is not None:
                if span is not None:
                    span.set(plan_cache="miss", plan_source="store")
                self.plans.put(key, stored)
                self._charge_plan(key, stored, op, backend)
                return stored
        if repair is not None:
            value = self._attempt_repair(op, backend, key, repair, span)
            if value is not None:
                return value
        value = build()
        if span is not None:
            span.set(plan_cache="miss", plan_source="built")
        self.plans.put(key, value)
        if store is not None and storable(value):
            store.save((self.device,) + key, value)
        self._charge_plan(key, value, op, backend)
        return value

    def _attempt_repair(self, op: str, backend: str, key: tuple, repair, span):
        """Run one repair attempt; ``None`` means "fall back to cold".

        A successful repair is cached like a built plan, and its lineage
        (parent and child fingerprints, edited rows) is its ``plan_repair``
        event. A failure only leaves a ``plan_repair_failed`` event — the
        caller cold-builds and the result is correct either way.
        """
        try:
            if self.injector is not None:
                self.injector.on_repair(self, op, backend)
            result = repair()
            if result is None:
                return None
            value, delta = result
        except Exception as exc:
            self.telemetry.emit(
                "plan_repair_failed", op, backend, error=classify(exc)
            )
            return None
        rows = delta.n_rows_edited
        if span is not None:
            span.set(
                plan_cache="miss", plan_source="repaired", repair_rows=rows
            )
        self.telemetry.record_plan_repair(
            op, backend, rows, parent=delta.parent, child=delta.child
        )
        self.plans.put(key, value)
        self._charge_plan(key, value, op, backend)
        return value

    # ------------------------------------------------------------------
    # Dynamic sparsity: topology deltas and invalidation (DESIGN.md §17)
    # ------------------------------------------------------------------
    def register_topology_delta(self, delta: TopologyDelta) -> None:
        """Make plans for ``delta.child`` repairable from ``delta.parent``.

        The next plan lookup for the child fingerprint that misses the
        cache will try to repair the parent's plan instead of cold
        building. Registration is bounded (LRU over
        :data:`MAX_TOPOLOGY_DELTAS` entries) and single-hop: per-step
        chains stay warm because each repaired plan lands in the cache
        under the child fingerprint, becoming the next step's parent.
        """
        self._deltas[delta.child] = delta
        self._deltas.move_to_end(delta.child)
        while len(self._deltas) > MAX_TOPOLOGY_DELTAS:
            self._deltas.popitem(last=False)

    def topology_delta_for(self, fingerprint: str) -> TopologyDelta | None:
        """The registered delta that produces ``fingerprint``, if any."""
        return self._deltas.get(fingerprint)

    def invalidate_topology(
        self, fingerprint: str, op: str = "topology"
    ) -> int:
        """Evict every cached plan/config keyed on ``fingerprint``.

        Used when a topology is edited in place (e.g. a ``SparseLinear``
        weight swap): entries under the old fingerprint are unreachable by
        correct lookups but still hold device memory and can shadow a
        repair chain. Returns the number of in-memory entries evicted,
        recorded as ``plan_invalidations``. Store entries are left alone —
        they are content-addressed by the old topology and stay valid for
        it.
        """
        stale = [
            k
            for k in self.plans.keys()
            if len(k) > 1 and isinstance(k[1], str) and k[1] == fingerprint
        ]
        for k in stale:
            self.plans.evict(k)
        self._deltas.pop(fingerprint, None)
        if stale:
            self.telemetry.record_plan_invalidation(
                op, "plan_cache", len(stale), fingerprint=fingerprint
            )
        return len(stale)

    def _repairable_plan(self, fp: str, parent_key_for, repair_with):
        """Build ``_cached``'s repair hook for one plan family.

        ``None`` when no delta is registered for ``fp``. The hook looks up
        the ancestor plan under the delta's parent fingerprint in the
        memory cache and runs the kernel-specific repair. A missing or
        poisoned ancestor aborts the repair (cold build recovers).
        """
        delta = self._deltas.get(fp)
        if delta is None:
            return None

        def attempt():
            try:
                ancestor = self.plans.get(parent_key_for(delta.parent))
            except PlanCorruptionError:
                return None
            if ancestor is None:
                return None
            return repair_with(ancestor, delta), delta

        return attempt

    # ------------------------------------------------------------------
    # HBM capacity accounting (see DESIGN.md Section 14)
    # ------------------------------------------------------------------
    def memory_scope(self, op: str, backend: str, operands=(), workspace=0):
        """Scope charging one dispatch's operand residency + workspace.

        A no-op when accounting is disabled. Operand residency persists
        beyond the scope (LRU, evictable under pressure); the workspace is
        transient and freed on exit.
        """
        if self.memory is None:
            return _NULL_SCOPE
        return _MemoryScope(self, op, backend, operands, int(workspace))

    def _hold(self, op: str, backend: str, operands, workspace: int):
        """Charge one attempt: pin every sparse operand device-resident (so
        concurrent reclaim cannot evict what the running kernel reads),
        charge ASpT's inflated metadata for aspt, and allocate the
        transient workspace. Returns what :meth:`_release` gives back; an
        OOM undoes the partial charge before it propagates.

        Residency stays cached in the context after the release, until it
        is evicted under pressure, which is what makes a sustained sweep
        accumulate footprint.
        """
        held: list = []
        pinned = self._pinned
        try:
            for matrix in operands:
                if not hasattr(matrix, "values"):
                    continue
                # The residency key is the matrix's memoized structure
                # fingerprint and its representation. The CSR arrays stay
                # resident alongside ASpT's reordered tiles (the paper's
                # ~3x metadata penalty).
                for kind in _KINDS[backend == "aspt"]:
                    key = (matrix.fingerprint, kind)
                    try:
                        self._resident.move_to_end(key)
                    except KeyError:
                        self._upload(key, matrix, op, backend)
                    pinned[key] = pinned.get(key, 0) + 1
                    held.append(key)
            workspace = (
                self.try_allocate(workspace, "workspace", op, backend)
                if workspace > 0 else None
            )
        except DeviceOOMError:
            self._release((held, None))
            raise
        return held, workspace

    def _upload(self, key, matrix, op: str, backend: str) -> None:
        """Make one operand representation device-resident."""
        nbytes = (
            aspt_overhead_bytes(matrix)
            if key[1] == "aspt"
            else _operand_bytes(matrix)
        )
        alloc = self.try_allocate(nbytes, "tensor", op, backend, protect=None)
        self._resident[key] = alloc
        if key in self._evicted_keys:
            # An evicted operand coming back means a host->device
            # re-upload; the benchmark charges it at PCIe bandwidth.
            self._evicted_keys.discard(key)
            self.bytes_reuploaded += alloc.nbytes

    def _release(self, held) -> None:
        """Free an attempt's workspace and unpin its operands."""
        held, workspace = held
        if workspace is not None:
            self.memory.free(workspace)
        pinned = self._pinned
        for key in held:
            count = pinned.get(key, 0) - 1
            if count > 0:
                pinned[key] = count
            else:
                pinned.pop(key, None)

    def try_allocate(
        self,
        nbytes: int,
        tag: str = "tensor",
        op: str = "memory",
        backend: str = "allocator",
        protect=None,
    ) -> Allocation | None:
        """Allocate with in-line reclaim: flush the segment cache, then
        evict cold residency (tensors first, then plans, which a later
        lookup rebuilds) until the request fits or nothing is left to
        reclaim.

        ``protect`` names a plan key that must survive reclaim (the entry
        being charged). Raises :class:`DeviceOOMError` — with the
        allocator snapshot attached — when reclaim is exhausted; the
        dispatch policy then continues the ladder with backend fallback.
        """
        mem = self.memory
        if mem is None:
            return None
        flushed = False
        while True:
            try:
                return mem.allocate(nbytes, tag)
            except DeviceOOMError as exc:
                emit = self.telemetry.emit
                emit("oom", op, backend, requested=int(nbytes), tag=tag)
                if not flushed:
                    flushed = True
                    freed = mem.flush_cache()
                    emit("oom_flush", op, backend, bytes_freed=freed)
                    if freed:
                        continue
                if not self._evict_one(op, backend, protect=protect):
                    # Reclaim is exhausted: this OOM is terminal for the
                    # allocator (the dispatch policy may still fall back to
                    # a smaller backend) — ship the postmortem window on it.
                    if self.flight is not None:
                        self.flight.attach(exc, "oom")
                    raise
                # Eviction frees blocks into the cache; release any
                # now-empty segments so a fresh reservation can fit.
                mem.flush_cache()

    def _evict_one(self, op: str, backend: str, protect=None) -> int:
        """Reclaim one cold entry; returns the bytes freed (0 = nothing).

        Unpinned tensor residency goes first (oldest first — big wins,
        cheap to re-upload), then charged plan-cache entries (rebuilt from
        the matrix's memoized analysis when next asked for).
        """
        for key in list(self._resident):
            if self._pinned.get(key):
                continue
            alloc = self._resident.pop(key)
            self.memory.free(alloc)
            self._evicted_keys.add(key)
            self.tensor_evictions += 1
            self.telemetry.emit(
                "oom_evict", op, backend, entry="tensor", bytes=alloc.nbytes
            )
            return alloc.nbytes
        for key in self.plans.keys():
            if key == protect or key not in self._plan_allocs:
                continue
            nbytes = self._plan_allocs[key].nbytes
            self.plans.evict(key)
            self.telemetry.emit(
                "oom_evict", op, backend, entry="plan", bytes=nbytes, plans=1
            )
            return nbytes
        return 0

    def _charge_plan(self, key, value, op: str, backend: str) -> None:
        """Charge a freshly-cached plan's footprint against the device."""
        if self.memory is None or key in self._plan_allocs:
            return
        nbytes = estimate_nbytes(value)
        if nbytes <= 0:
            return
        try:
            alloc = self.try_allocate(nbytes, "plan", op, backend, protect=key)
        except DeviceOOMError:
            # The plan itself cannot fit even after reclaim: it must not
            # linger uncharged in the cache, and the dispatch policy gets
            # the OOM to drive backend fallback.
            self.plans.evict(key)
            raise
        self._plan_allocs[key] = alloc

    def _on_plan_evicted(self, key, value) -> None:
        """Plan-cache eviction observer: free the entry's device bytes."""
        alloc = self._plan_allocs.pop(key, None)
        if alloc is not None:
            self.memory.free(alloc)

    def flush_device_cache(self) -> int:
        """Release the allocator's fully-free segments (ladder stage 1)."""
        if self.memory is None:
            return 0
        return self.memory.flush_cache()

    def evict_device_bytes(
        self, nbytes: int, op: str = "memory", backend: str = "allocator"
    ) -> int:
        """Evict cold residency until ``nbytes`` are freed (ladder stage 2).

        Returns the bytes actually reclaimed (possibly 0, possibly more
        than asked — eviction is whole-entry).
        """
        if self.memory is None:
            return 0
        target = max(int(nbytes), 1)
        freed = 0
        while freed < target:
            got = self._evict_one(op, backend)
            if not got:
                break
            freed += got
        self.memory.flush_cache()
        return freed

    def memory_snapshot(self) -> dict | None:
        """Allocator gauges + context residency/eviction counters, or
        ``None`` when accounting is disabled."""
        if self.memory is None:
            return None
        snap = self.memory.snapshot()
        snap.update(
            resident_tensors=len(self._resident),
            resident_plans=len(self._plan_allocs),
            tensor_evictions=self.tensor_evictions,
            plan_evictions=self.telemetry.plan_evictions,
            oom_events=self.telemetry.oom_events,
            bytes_evicted=self.telemetry.bytes_evicted,
            bytes_reuploaded=self.bytes_reuploaded,
        )
        return snap

    def emit_memory_span(self) -> None:
        """Emit a ``category="memory"`` span carrying the allocator
        snapshot, so the offline report CLI can render a memory section."""
        if self.tracer is None or self.memory is None:
            return
        snap = self.memory_snapshot()
        attrs = {
            k: v for k, v in snap.items() if not isinstance(v, dict)
        }
        if self.device_id is not None:
            attrs["device_id"] = self.device_id
        with self.tracer.span("memory_summary", category="memory", **attrs):
            pass

    # ------------------------------------------------------------------
    # Telemetry API (benchmarks/tests use this, not the raw counters)
    # ------------------------------------------------------------------
    def telemetry_snapshot(self) -> dict[str, dict[str, int | float]]:
        """Plain-dict copy of every per-(op, backend) counter.

        Rows follow :data:`TELEMETRY_SCHEMA` exactly (keys and value
        types). This remains the compatibility surface over the metrics
        registry — see :meth:`metrics_snapshot` for the superset view.
        """
        return self.telemetry.snapshot()

    def reset_telemetry(self) -> None:
        """Zero all telemetry counters *and* the attached store's counters
        in one call, so snapshot deltas never mix epochs (plan caches and
        stored configs are kept)."""
        self.telemetry.reset()
        if self.store is not None:
            self.store.reset_stats()

    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a tracer, keeping the
        telemetry's event feed pointed at the same spans."""
        self.tracer = self.telemetry.tracer = tracer

    def attach_flight(self, flight) -> None:
        """Attach (or detach, with ``None``) a flight recorder, keeping the
        telemetry's launch and event feed pointed at the same window."""
        self.flight = self.telemetry.flight = flight

    @property
    def metrics(self):
        """Lazily-built :class:`~repro.obs.metrics.MetricsRegistry` bound
        to this context's telemetry, plan cache, and plan store."""
        if self._metrics is None:
            from ..obs.metrics import MetricsRegistry, bind_context_metrics

            self._metrics = bind_context_metrics(MetricsRegistry(), self)
        return self._metrics

    def metrics_snapshot(self) -> dict:
        """Snapshot of the bound metrics registry (labeled samples)."""
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Config selection (cached per topology, via the selector protocol)
    # ------------------------------------------------------------------
    def _select_config(self, op: str, build_with: str, matrix, dim: int,
                       selector, fingerprint: str | None):
        """Resolve an ``op`` (``"spmm_config"``/``"sddmm_config"``) through
        one selector's ``build_with`` method, with selector-aware caching
        and span labeling.

        Precision follows the matrix's value dtype: fp16 values select a
        mixed-precision config (fp16 value bytes, int16 index bytes).
        ``persist`` selectors (oracle, tuned — anything that costs
        candidates) pass :meth:`_cached` a ``storable`` predicate, so their
        winners amortize across processes through the attached store; the
        heuristic stays memory-only.
        A :class:`~repro.tune.TuningResult` is cached whole (stats and
        all) and unwrapped to its config here.
        """
        sel = resolve_selector(selector)
        fp = fingerprint or matrix_fingerprint(matrix)
        precision = "mixed" if matrix.values.dtype == np.float16 else "fp32"
        key = (op, fp, dim, precision, sel.name)

        def build():
            return getattr(sel, build_with)(self, matrix, dim, precision)

        span = self.tracer.current if self.tracer is not None else None
        if span is not None:
            span.set(selector=sel.name)
        if sel.persist:
            value = self._cached(
                op,
                sel.name,
                key,
                build,
                storable=lambda v: not getattr(v, "fell_back", False),
            )
        else:
            value = self.plans.get(key)
            if value is None:
                value = build()
                self.plans.put(key, value)
        if isinstance(value, TuningResult):
            if span is not None:
                span.set(
                    candidates_costed=value.candidates_costed,
                    tuning_fell_back=value.fell_back,
                )
            return value.config
        return value

    def spmm_config(
        self, a: CSRMatrix, n: int, selector: str = "heuristic",
        fingerprint: str | None = None,
    ) -> SpmmConfig:
        """Resolve an SpMM config through a selector (name or instance).

        Every selection is cached under a selector-qualified key: the
        heuristic for uniformity, the oracle and the tuner because they
        cost candidate variants on the simulator (Section VII-B).
        """
        return self._select_config(
            "spmm_config", "build_spmm", a, n, selector, fingerprint
        )

    def sddmm_config(
        self, mask: CSRMatrix, k: int, selector: str = "heuristic",
        fingerprint: str | None = None,
    ) -> SddmmConfig:
        """Resolve an SDDMM config through a selector (name or instance)."""
        return self._select_config(
            "sddmm_config", "build_sddmm", mask, k, selector, fingerprint
        )

    # ------------------------------------------------------------------
    # Plans (cached per topology x config x problem dims)
    # ------------------------------------------------------------------
    def _plan(
        self, op: str, matrix, dims: tuple, config=None,
        selector: str = "heuristic", backend: str = "sputnik", h: int = 1,
    ):
        """The cached depth-``h`` plan of ``op`` over ``matrix`` (see
        :data:`_PLANS`).

        The key is ``(op, fingerprint, *dims, h)``, plus the config for
        configured kernels. A missing config is resolved through the
        selector when the family selects one; with a registered topology
        delta a cache miss repairs the parent's plan instead of building.
        """
        kind = _PLANS[op]
        fp = matrix_fingerprint(matrix)
        if config is None and kind.select is not None:
            select = getattr(self, kind.select)
            config = select(matrix, dims[0], selector, fingerprint=fp)
        tail = (config,) if kind.configured else ()
        repair = None
        if kind.repair is not None and fp in self._deltas:
            repair_with = globals()[kind.repair]
            repair = self._repairable_plan(
                fp,
                lambda parent_fp: (op, parent_fp, *dims, h, *tail),
                lambda plan, delta: repair_with(plan, matrix, delta),
            )
        build = globals()[kind.build]
        return self._cached(
            op, backend, (op, fp, *dims, h, *tail),
            lambda: build(matrix, *dims, self.device, *tail, h),
            repair=repair,
        )

    def spmm_plan(
        self, a: CSRMatrix, n: int, config: SpmmConfig | None = None,
        selector: str = "heuristic", backend: str = "sputnik", h: int = 1,
    ) -> SpmmPlan:
        """The plan for ``h`` SpMMs sharing ``a``'s topology (one launch)."""
        return self._plan("spmm", a, (n,), config, selector, backend, h)

    def sddmm_plan(
        self, mask: CSRMatrix, k: int, config: SddmmConfig | None = None,
        selector: str = "heuristic", backend: str = "sputnik", h: int = 1,
    ) -> SddmmPlan:
        """The plan for ``h`` SDDMMs sharing ``mask``'s topology."""
        return self._plan("sddmm", mask, (k,), config, selector, backend, h)

    def sparse_softmax_plan(
        self, a: CSRMatrix, backend: str = "sputnik", h: int = 1
    ) -> SparseSoftmaxPlan:
        """The plan for ``h`` row softmaxes over ``a``'s topology."""
        return self._plan("sparse_softmax", a, (), backend=backend, h=h)

    def csc_spmm_plan(
        self, a: CSCMatrix, n: int, config: SpmmConfig | None = None,
        backend: str = "sputnik",
    ) -> SpmmPlan:
        return self._plan("csc_spmm", a, (n,), config, backend=backend)

    # Former names of the depth-``h`` plans, kept as aliases for callers
    # that resolve them by name.
    spmm_batched_plan = spmm_plan
    sddmm_batched_plan = sddmm_plan
    sparse_softmax_batched_plan = sparse_softmax_plan

    # ------------------------------------------------------------------
    # Cost-only results (cached; used by benchmarks and model cost paths)
    # ------------------------------------------------------------------
    def gemm_execution(
        self,
        m: int,
        n: int,
        k: int,
        element_bytes: int = 4,
        op: str = "matmul",
        backend: str = "cublas",
    ) -> ExecutionResult:
        """Cached dense-GEMM cost (the cuBLAS dispatch search is not free).

        ``op``/``backend`` only attribute the telemetry — callers like the
        dense-SpMM backend pass their own names; the cache entry is shared.
        """
        key = ("matmul", m, n, k, element_bytes)
        return self._cached(
            op,
            backend,
            key,
            lambda: gemm_execution(m, n, k, self.device, element_bytes),
        )

    def cost(self, key: tuple, build) -> ExecutionResult:
        """Generic cached cost entry for baseline backends.

        ``key[0]`` must be the op name and ``key[1]`` the backend (used for
        telemetry attribution).
        """
        return self._cached(key[0], key[1], key, build)


#: Module-level default contexts, one per device. Shared by every call site
#: that does not pass an explicit context.
_DEFAULT_CONTEXTS: dict[DeviceSpec, ExecutionContext] = {}


def default_context(device: DeviceSpec = V100) -> ExecutionContext:
    """The shared per-device context used when none is passed explicitly."""
    ctx = _DEFAULT_CONTEXTS.get(device)
    if ctx is None:
        ctx = ExecutionContext(device)
        _DEFAULT_CONTEXTS[device] = ctx
    return ctx


def set_default_context(context: ExecutionContext) -> ExecutionContext:
    """Install ``context`` as the shared default for its device.

    Sweep workers use this so call sites that resolve contexts implicitly
    (the benchmark timers, the nn layers) run with the worker's
    store-backed context instead of a fresh one. Returns the context.
    """
    _DEFAULT_CONTEXTS[context.device] = context
    return context


def reset_default_contexts() -> None:
    """Drop all shared contexts (fresh caches and telemetry) — for tests."""
    _DEFAULT_CONTEXTS.clear()
