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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from collections import OrderedDict
from contextlib import nullcontext

from ..baselines.aspt import memory_overhead_bytes as aspt_overhead_bytes
from ..baselines.cublas import gemm_execution
from ..core.config import SddmmConfig, SpmmConfig
from ..core.csc_spmm import plan_spmm_csc
from ..core.repair import TopologyDelta
from ..core.sddmm import (
    SddmmBatchedPlan,
    SddmmPlan,
    plan_sddmm,
    plan_sddmm_batched,
    repair_sddmm_plan,
)
from ..core.sparse_softmax import (
    SparseSoftmaxBatchedPlan,
    SparseSoftmaxPlan,
    plan_sparse_softmax,
    plan_sparse_softmax_batched,
)
from ..core.spmm import (
    SpmmBatchedPlan,
    SpmmPlan,
    plan_spmm,
    plan_spmm_batched,
    repair_spmm_plan,
)
from ..gpu.allocator import (
    Allocation,
    DeviceAllocator,
    capacity_from_env,
    estimate_nbytes,
)
from ..gpu.device import V100, DeviceSpec
from ..gpu.executor import ExecutionResult
from ..obs.flight import FlightRecorder, flight_from_env
from ..reliability.errors import (
    DeviceOOMError,
    PlanCorruptionError,
    classify,
)
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from ..tune import TuningResult, resolve_selector
from ..tune import SELECTORS as SELECTORS  # noqa: PLC0414 - re-export
from .plans import (
    DEFAULT_MAX_PLANS,
    PlanCache,
    is_poisoned,
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
    "retries": int,
    "fallbacks": int,
    "degraded": int,
    "failures": int,
    "faults_injected": int,
    "backoff_seconds": float,
    "store_hits": int,
    "store_misses": int,
    "store_evictions": int,
    "oom_events": int,
    "plan_evictions": int,
    "bytes_evicted": int,
    "plan_repairs": int,
    "plan_repair_rows": int,
    "plan_invalidations": int,
}


@dataclass
class OpStats:
    """Running counters for one (op, backend) pair.

    Fields mirror :data:`TELEMETRY_SCHEMA`: counts are ints, accumulated
    times are float seconds.
    """

    launches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated_seconds: float = 0.0
    # Reliability counters (populated by policy-dispatched calls).
    retries: int = 0
    fallbacks: int = 0
    degraded: int = 0
    failures: int = 0
    faults_injected: int = 0
    backoff_seconds: float = 0.0
    # Persistent plan-store counters (populated when a store is attached).
    store_hits: int = 0
    store_misses: int = 0
    store_evictions: int = 0
    # Memory-pressure counters (populated when a device allocator is
    # attached): allocation failures observed, resident plans evicted under
    # pressure, and total bytes (plans + tensors) reclaimed.
    oom_events: int = 0
    plan_evictions: int = 0
    bytes_evicted: int = 0
    # Dynamic-sparsity counters (populated by the plan-repair path):
    # plans produced by incremental repair instead of a cold build, the
    # total edited rows those repairs re-planned, and cache entries
    # evicted by topology invalidation.
    plan_repairs: int = 0
    plan_repair_rows: int = 0
    plan_invalidations: int = 0

    def as_dict(self) -> dict[str, int | float]:
        """Snapshot row, coerced to the :data:`TELEMETRY_SCHEMA` types."""
        return {
            name: kind(getattr(self, name))
            for name, kind in TELEMETRY_SCHEMA.items()
        }


@dataclass
class Telemetry:
    """Per-context instrumentation, keyed by (op, backend).

    The live :class:`OpStats` objects in ``stats`` are the write store for
    the hot dispatch path. A :class:`~repro.obs.metrics.MetricsRegistry`
    reads them through a pull-mode collector (see
    :func:`repro.obs.metrics.bind_telemetry`), so :meth:`snapshot` remains
    the stable compatibility surface while the registry supersedes it.
    """

    stats: dict[tuple[str, str], OpStats] = field(default_factory=dict)
    #: Optional :class:`~repro.obs.metrics.Histogram` labeled (op, backend)
    #: fed one observation per recorded launch.
    sim_histogram: object | None = field(default=None, repr=False)
    #: Optional :class:`~repro.obs.flight.FlightRecorder` fed one ring event
    #: per recorded launch (the always-on postmortem window).
    flight: object | None = field(default=None, repr=False)

    def _get(self, op: str, backend: str) -> OpStats:
        return self.stats.setdefault((op, backend), OpStats())

    def attach_histogram(self, histogram) -> None:
        """Feed simulated launch runtimes into an (op, backend)-labeled
        histogram from now on (``None`` detaches)."""
        self.sim_histogram = histogram

    def attach_flight(self, flight) -> None:
        """Feed recorded launches into a flight recorder from now on
        (``None`` detaches)."""
        self.flight = flight

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

    def record_cache(self, op: str, backend: str, hit: bool) -> None:
        entry = self._get(op, backend)
        if hit:
            entry.cache_hits += 1
        else:
            entry.cache_misses += 1

    def record_store(self, op: str, backend: str, status: str) -> None:
        """One persistent plan-store lookup: ``"hit"``, ``"miss"``, or
        ``"corrupt"`` (an evicted corrupt entry, which also misses)."""
        entry = self._get(op, backend)
        if status == "hit":
            entry.store_hits += 1
        elif status == "corrupt":
            entry.store_evictions += 1
            entry.store_misses += 1
        else:
            entry.store_misses += 1

    # -- reliability counters (fed by repro.reliability.policy) ----------
    def record_retry(self, op: str, backend: str) -> None:
        self._get(op, backend).retries += 1

    def record_fallback(self, op: str, backend: str) -> None:
        """A backend was abandoned for the next one in its chain."""
        self._get(op, backend).fallbacks += 1

    def record_degraded(self, op: str, backend: str) -> None:
        """A degraded-mode completion (fp32 re-run after fp16 overflow)."""
        self._get(op, backend).degraded += 1

    def record_failure(self, op: str, backend: str) -> None:
        """A terminal failure (taxonomy error propagated to the caller)."""
        self._get(op, backend).failures += 1

    def record_fault(self, op: str, backend: str) -> None:
        """One injected fault landed on this (op, backend)."""
        self._get(op, backend).faults_injected += 1

    def record_backoff(self, op: str, backend: str, seconds: float) -> None:
        self._get(op, backend).backoff_seconds += seconds

    # -- memory-pressure counters (fed by the context's allocator hooks) --
    def record_oom(self, op: str, backend: str) -> None:
        """One device allocation failure observed during this op."""
        self._get(op, backend).oom_events += 1

    def record_plan_eviction(self, op: str, backend: str, nbytes: int) -> None:
        """One resident plan evicted under memory pressure."""
        entry = self._get(op, backend)
        entry.plan_evictions += 1
        entry.bytes_evicted += nbytes

    def record_bytes_evicted(self, op: str, backend: str, nbytes: int) -> None:
        """Tensor-residency bytes reclaimed under memory pressure."""
        self._get(op, backend).bytes_evicted += nbytes

    # -- dynamic-sparsity counters (fed by the plan-repair path) ----------
    def record_plan_repair(self, op: str, backend: str, rows: int) -> None:
        """One plan produced by incremental repair (``rows`` edited)."""
        entry = self._get(op, backend)
        entry.plan_repairs += 1
        entry.plan_repair_rows += int(rows)

    def record_plan_invalidation(
        self, op: str, backend: str, count: int = 1
    ) -> None:
        """``count`` cached entries evicted by a topology invalidation."""
        self._get(op, backend).plan_invalidations += int(count)

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

    @property
    def launches(self) -> int:
        return sum(s.launches for s in self.stats.values())

    @property
    def cache_hits(self) -> int:
        return sum(s.cache_hits for s in self.stats.values())

    @property
    def cache_misses(self) -> int:
        return sum(s.cache_misses for s in self.stats.values())

    @property
    def simulated_seconds(self) -> float:
        return sum(s.simulated_seconds for s in self.stats.values())

    @property
    def retries(self) -> int:
        return sum(s.retries for s in self.stats.values())

    @property
    def fallbacks(self) -> int:
        return sum(s.fallbacks for s in self.stats.values())

    @property
    def degraded(self) -> int:
        return sum(s.degraded for s in self.stats.values())

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.stats.values())

    @property
    def faults_injected(self) -> int:
        return sum(s.faults_injected for s in self.stats.values())

    @property
    def store_hits(self) -> int:
        return sum(s.store_hits for s in self.stats.values())

    @property
    def store_misses(self) -> int:
        return sum(s.store_misses for s in self.stats.values())

    @property
    def store_evictions(self) -> int:
        return sum(s.store_evictions for s in self.stats.values())

    @property
    def oom_events(self) -> int:
        return sum(s.oom_events for s in self.stats.values())

    @property
    def plan_evictions(self) -> int:
        return sum(s.plan_evictions for s in self.stats.values())

    @property
    def bytes_evicted(self) -> int:
        return sum(s.bytes_evicted for s in self.stats.values())

    @property
    def plan_repairs(self) -> int:
        return sum(s.plan_repairs for s in self.stats.values())

    @property
    def plan_repair_rows(self) -> int:
        return sum(s.plan_repair_rows for s in self.stats.values())

    @property
    def plan_invalidations(self) -> int:
        return sum(s.plan_invalidations for s in self.stats.values())

    def summary(self) -> str:
        """One line per (op, backend), for logs and examples."""
        lines = []
        for (op, backend), s in sorted(self.stats.items()):
            line = (
                f"{op}/{backend}: launches={s.launches} "
                f"hits={s.cache_hits} misses={s.cache_misses} "
                f"simulated={s.simulated_seconds * 1e6:.1f}us"
            )
            if s.retries or s.fallbacks or s.degraded or s.failures:
                line += (
                    f" retries={s.retries} fallbacks={s.fallbacks} "
                    f"degraded={s.degraded} failures={s.failures}"
                )
            if s.faults_injected:
                line += f" faults={s.faults_injected}"
            if s.store_hits or s.store_misses:
                line += (
                    f" store_hits={s.store_hits} store_misses={s.store_misses}"
                )
                if s.store_evictions:
                    line += f" store_evictions={s.store_evictions}"
            if s.plan_repairs or s.plan_invalidations:
                line += (
                    f" repairs={s.plan_repairs}"
                    f" repair_rows={s.plan_repair_rows}"
                    f" invalidations={s.plan_invalidations}"
                )
            lines.append(line)
        return "\n".join(lines)


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


def _residency_key(matrix, backend: str) -> tuple[str, str]:
    """Device-residency identity of one sparse operand.

    The structure part is the matrix's memoized fingerprint. The backend
    class is part of the key because ASpT keeps its own inflated tiled
    representation resident next to the CSR arrays.
    """
    return (matrix.fingerprint, "aspt" if backend == "aspt" else "csr")


class _MemoryScope:
    """Charges one dispatch's operands + workspace against the allocator.

    ``__enter__`` makes every sparse operand device-resident (pinning it so
    concurrent reclaim cannot evict what the running kernel reads), charges
    ASpT's inflated metadata footprint for aspt dispatches, and allocates
    the transient workspace. ``__exit__`` frees the workspace and unpins —
    residency itself stays cached in the context until evicted under
    pressure, which is what makes a sustained sweep accumulate footprint.
    """

    __slots__ = ("ctx", "op", "backend", "operands", "workspace",
                 "_pinned", "_ws_alloc")

    def __init__(self, ctx, op, backend, operands, workspace) -> None:
        self.ctx = ctx
        self.op = op
        self.backend = backend
        self.operands = operands
        self.workspace = workspace
        self._pinned: list = []
        self._ws_alloc = None

    def __enter__(self):
        ctx = self.ctx
        try:
            for matrix in self.operands:
                if not hasattr(matrix, "values"):
                    continue
                key = _residency_key(matrix, self.backend)
                self._pin(key, matrix)
                if key[1] == "aspt":
                    # The CSR arrays stay resident alongside ASpT's
                    # reordered tiles (the paper's ~3x metadata penalty).
                    self._pin(_residency_key(matrix, "csr"), matrix)
            if self.workspace > 0:
                self._ws_alloc = ctx.try_allocate(
                    self.workspace, "workspace", self.op, self.backend
                )
        except DeviceOOMError:
            self._release()
            raise
        return self

    def _pin(self, key, matrix) -> None:
        ctx = self.ctx
        alloc = ctx._resident.get(key)
        if alloc is None:
            nbytes = (
                aspt_overhead_bytes(matrix)
                if key[1] == "aspt"
                else _operand_bytes(matrix)
            )
            alloc = ctx.try_allocate(
                nbytes, "tensor", self.op, self.backend, protect=None
            )
            ctx._resident[key] = alloc
            if key in ctx._evicted_keys:
                # An evicted operand coming back means a host->device
                # re-upload; the benchmark charges it at PCIe bandwidth.
                ctx._evicted_keys.discard(key)
                ctx.bytes_reuploaded += alloc.nbytes
        else:
            ctx._resident.move_to_end(key)
        ctx._pinned[key] = ctx._pinned.get(key, 0) + 1
        self._pinned.append(key)

    def _release(self) -> None:
        ctx = self.ctx
        if self._ws_alloc is not None:
            ctx.memory.free(self._ws_alloc)
            self._ws_alloc = None
        for key in self._pinned:
            count = ctx._pinned.get(key, 0) - 1
            if count > 0:
                ctx._pinned[key] = count
            else:
                ctx._pinned.pop(key, None)
        self._pinned = []

    def __exit__(self, exc_type, exc, tb) -> None:
        self._release()


#: Shared no-op scope for contexts with accounting disabled.
_NULL_SCOPE = nullcontext()

#: Registered topology deltas kept per context (LRU): one entry per live
#: mutated topology is plenty — dynamic training registers one delta per
#: update step and the repaired plans land in the regular cache.
MAX_TOPOLOGY_DELTAS = 64


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
        self.telemetry = Telemetry()
        #: Optional disk-backed :class:`~repro.ops.store.PlanStore` consulted
        #: between the in-memory cache and a plan rebuild; a path builds one.
        self.store = (
            PlanStore(store) if isinstance(store, (str, Path)) else store
        )
        #: A :class:`~repro.reliability.injector.FaultInjector`, or ``None``.
        #: When set, every dispatched op runs through the policy loop even
        #: for single-backend calls, so injected faults are retried.
        self.injector = None
        #: The :class:`~repro.reliability.policy.DispatchReport` of the most
        #: recent policy-dispatched call (cost-only calls have no result
        #: object to carry it).
        self.last_dispatch_report = None
        #: Optional :class:`~repro.obs.tracing.Tracer`. When set, every
        #: dispatched op opens a span and the plan cache/fallback policy
        #: annotate it; when ``None``, dispatch pays one attribute check.
        self.tracer = tracer
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
        #: ring event per launch via the telemetry hook and a fault event
        #: per OOM/reclaim step; dumped and attached to terminal errors.
        if flight is False:
            self.flight = None
        elif isinstance(flight, FlightRecorder):
            self.flight = flight
        else:
            # True and None both mean "the env-configured default ring".
            self.flight = flight_from_env(
                None if flight is None or flight is True else int(flight),
                process=f"flight:{device.name}",
                device_id=device_id,
            )
        self.telemetry.attach_flight(self.flight)
        #: LRU of device-resident sparse operands, keyed by
        #: (structure checksum, representation class).
        self._resident: OrderedDict[tuple, Allocation] = OrderedDict()
        #: Pin refcounts over ``_resident`` (in-flight dispatch scopes).
        self._pinned: dict[tuple, int] = {}
        #: Bytes charged per resident plan-cache entry.
        self._plan_allocs: dict[tuple, Allocation] = {}
        #: Plan keys the store must never receive (tuning results that fell
        #: back under injected faults — see ``_cached``'s ``storable``).
        self._no_spill: set = set()
        #: Residency keys evicted under pressure; re-pinning one counts as
        #: a host->device re-upload in ``bytes_reuploaded``.
        self._evicted_keys: set = set()
        self.bytes_reuploaded = 0
        self.tensor_evictions = 0
        #: (op, backend) attribution for reclaim work triggered outside a
        #: dispatch scope (e.g. the policy ladder's explicit eviction).
        self._mem_attr = ("memory", "allocator")
        self._reclaiming = False
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
        """Two-tier plan lookup: memory cache, then the persistent store,
        then an incremental repair (when a topology delta applies), then
        ``build`` (persisting the result to both tiers).

        A poisoned in-memory entry raises
        :class:`~repro.reliability.errors.PlanCorruptionError` exactly like
        the direct cache path, so the reliability policies keep working; a
        corrupt *on-disk* entry is self-healing (evicted and rebuilt) and
        only surfaces in the ``store_evictions`` telemetry.

        ``storable`` (a predicate over the built value) gates the on-disk
        write: a tuning result that *fell back* under injected faults is
        kept in memory for this process but never persisted, so a later
        fault-free run re-tunes instead of inheriting the degraded pick.

        ``repair`` (a zero-arg callable returning ``(value, delta)`` or
        ``None``) is the fingerprint-delta hook: tried only after both
        cache tiers miss, and *any* failure inside it — including injected
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
        if self.store is not None:
            stored, status = self.store.fetch((self.device,) + key)
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
        if storable is None or storable(value):
            if self.store is not None:
                self.store.save((self.device,) + key, value)
        else:
            self._no_spill.add(key)
        self._charge_plan(key, value, op, backend)
        return value

    def _attempt_repair(self, op: str, backend: str, key: tuple, repair, span):
        """Run one repair attempt; ``None`` means "fall back to cold".

        Successful repairs are cached and persisted like built plans, with
        the repair lineage recorded in the store envelope. Failures only
        leave a span/flight breadcrumb — the caller cold-builds and the
        result is correct either way.
        """
        try:
            if self.injector is not None:
                self.injector.on_repair(self, op, backend)
            result = repair()
            if result is None:
                return None
            value, delta = result
        except Exception as exc:
            if span is not None:
                span.event("plan_repair_failed", op=op, error=classify(exc))
            if self.flight is not None:
                self.flight.record(
                    "plan_repair_failed",
                    op,
                    op=op,
                    backend=backend,
                    error=classify(exc),
                )
            return None
        rows = delta.n_rows_edited
        self.telemetry.record_plan_repair(op, backend, rows)
        if span is not None:
            span.set(
                plan_cache="miss", plan_source="repaired", repair_rows=rows
            )
        if self.flight is not None:
            self.flight.record(
                "plan_repair",
                op,
                op=op,
                backend=backend,
                rows=rows,
                parent=delta.parent,
                child=delta.child,
            )
        self.plans.put(key, value)
        if self.store is not None:
            self.store.save(
                (self.device,) + key,
                value,
                lineage={
                    "parent": delta.parent,
                    "child": delta.child,
                    "rows": rows,
                },
            )
        self._charge_plan(key, value, op, backend)
        return value

    # ------------------------------------------------------------------
    # Dynamic sparsity: topology deltas and invalidation (DESIGN.md §17)
    # ------------------------------------------------------------------
    def register_topology_delta(self, delta: TopologyDelta) -> None:
        """Make plans for ``delta.child`` repairable from ``delta.parent``.

        The next plan lookup for the child fingerprint that misses both
        cache tiers will try to repair the parent's plan instead of cold
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
                op, "plan_cache", len(stale)
            )
            if self.flight is not None:
                self.flight.record(
                    "plan_invalidate",
                    op,
                    fingerprint=fingerprint,
                    entries=len(stale),
                )
        return len(stale)

    def _repairable_plan(self, fp: str, parent_key_for, repair_with):
        """Build ``_cached``'s repair hook for one plan family.

        ``None`` when no delta is registered for ``fp``. The hook looks up
        the ancestor plan under the delta's parent fingerprint — memory
        first, then the store (an ancillary probe, not counted in store
        telemetry) — and runs the kernel-specific repair. A poisoned
        ancestor aborts the repair (cold build recovers).
        """
        delta = self._deltas.get(fp)
        if delta is None:
            return None

        def attempt():
            parent_key = parent_key_for(delta.parent)
            try:
                ancestor = self.plans.get(parent_key)
            except PlanCorruptionError:
                return None
            if ancestor is None and self.store is not None:
                ancestor, _status = self.store.fetch(
                    (self.device,) + parent_key
                )
            if ancestor is None:
                return None
            return repair_with(ancestor, delta), delta

        return attempt

    # ------------------------------------------------------------------
    # HBM capacity accounting (see DESIGN.md Section 14)
    # ------------------------------------------------------------------
    def _current_span(self):
        return self.tracer.current if self.tracer is not None else None

    def memory_scope(self, op: str, backend: str, operands=(), workspace=0):
        """Scope charging one dispatch's operand residency + workspace.

        A no-op when accounting is disabled. Operand residency persists
        beyond the scope (LRU, evictable under pressure); the workspace is
        transient and freed on exit.
        """
        if self.memory is None:
            return _NULL_SCOPE
        return _MemoryScope(self, op, backend, operands, int(workspace))

    def try_allocate(
        self,
        nbytes: int,
        tag: str = "tensor",
        op: str = "memory",
        backend: str = "allocator",
        protect=None,
    ) -> Allocation | None:
        """Allocate with in-line reclaim: flush the segment cache, then
        evict cold residency (tensors first, then plans — spilled to the
        store) until the request fits or nothing is left to reclaim.

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
                self.telemetry.record_oom(op, backend)
                span = self._current_span()
                if span is not None:
                    span.event(
                        "oom",
                        op=op,
                        backend=backend,
                        requested=int(nbytes),
                        tag=tag,
                    )
                if self.flight is not None:
                    self.flight.record(
                        "oom",
                        "oom",
                        op=op,
                        backend=backend,
                        requested=int(nbytes),
                        tag=tag,
                    )
                if not flushed:
                    flushed = True
                    freed = mem.flush_cache()
                    if span is not None:
                        span.event("oom_flush", bytes_freed=freed)
                    if self.flight is not None:
                        self.flight.record(
                            "oom_flush", "oom_flush", bytes_freed=freed
                        )
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
        cheap to re-upload), then charged plan-cache entries (spilled to
        the persistent store by the eviction callback, never just lost).
        """
        for key in list(self._resident):
            if self._pinned.get(key):
                continue
            alloc = self._resident.pop(key)
            self.memory.free(alloc)
            self._evicted_keys.add(key)
            self.tensor_evictions += 1
            self.telemetry.record_bytes_evicted(op, backend, alloc.nbytes)
            span = self._current_span()
            if span is not None:
                span.event("oom_evict", kind="tensor", bytes=alloc.nbytes)
            if self.flight is not None:
                self.flight.record(
                    "oom_evict", "oom_evict", kind="tensor", bytes=alloc.nbytes
                )
            return alloc.nbytes
        for key in self.plans.keys():
            if key == protect or key not in self._plan_allocs:
                continue
            nbytes = self._plan_allocs[key].nbytes
            prev_attr = self._mem_attr
            self._mem_attr = (op, backend)
            self._reclaiming = True
            try:
                self.plans.evict(key)
            finally:
                self._reclaiming = False
                self._mem_attr = prev_attr
            span = self._current_span()
            if span is not None:
                span.event("oom_evict", kind="plan", bytes=nbytes)
            if self.flight is not None:
                self.flight.record(
                    "oom_evict", "oom_evict", kind="plan", bytes=nbytes
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
        """Plan-cache eviction observer: spill to the store, free bytes."""
        spillable = (
            self.store is not None
            and not is_poisoned(value)
            and key not in self._no_spill
        )
        self._no_spill.discard(key)
        alloc = self._plan_allocs.pop(key, None)
        if alloc is None:
            return
        if spillable:
            full_key = (self.device,) + key
            if full_key not in self.store:
                self.store.save(full_key, value)
        self.memory.free(alloc)
        if self._reclaiming:
            op, backend = self._mem_attr
            self.telemetry.record_plan_eviction(op, backend, alloc.nbytes)

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
        stored plans are kept)."""
        self.telemetry.reset()
        if self.store is not None:
            self.store.reset_stats()

    def attach_tracer(self, tracer) -> None:
        """Attach (or detach, with ``None``) a tracer to this context."""
        self.tracer = tracer

    def attach_flight(self, flight) -> None:
        """Attach (or detach, with ``None``) a flight recorder, keeping the
        telemetry's launch-event feed pointed at the same window."""
        self.flight = flight
        self.telemetry.attach_flight(flight)

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
    def _select_config(self, op: str, sel, key: tuple, build):
        """Resolve a config through one selector, with selector-aware
        caching and span labeling.

        ``persist`` selectors (oracle, tuned — anything that costs
        candidates) go through the two-tier :meth:`_cached` path so their
        winners amortize across processes; the heuristic stays memory-only.
        A :class:`~repro.tune.TuningResult` is cached whole (stats and
        all) and unwrapped to its config here.
        """
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
        self,
        a: CSRMatrix,
        n: int,
        selector: str = "heuristic",
        fingerprint: str | None = None,
    ) -> SpmmConfig:
        """Resolve an SpMM config through a selector (name or instance).

        Every selection is cached under a selector-qualified key: the
        heuristic for uniformity, the oracle and the tuner because they
        cost candidate variants on the simulator (Section VII-B).
        """
        sel = resolve_selector(selector)
        fp = fingerprint or matrix_fingerprint(a)
        precision = "mixed" if a.values.dtype == np.float16 else "fp32"
        key = ("spmm_config", fp, n, precision, sel.name)
        return self._select_config(
            "spmm_config", sel, key, lambda: sel.build_spmm(self, a, n, precision)
        )

    def sddmm_config(
        self,
        mask: CSRMatrix,
        k: int,
        selector: str = "heuristic",
        fingerprint: str | None = None,
    ) -> SddmmConfig:
        """Resolve an SDDMM config through a selector (name or instance).

        Precision is derived from the mask's value dtype — an fp16 mask
        selects a mixed-precision config (fp16 value bytes, int16 index
        bytes) exactly like :meth:`spmm_config` does for SpMM.
        """
        sel = resolve_selector(selector)
        fp = fingerprint or matrix_fingerprint(mask)
        precision = "mixed" if mask.values.dtype == np.float16 else "fp32"
        key = ("sddmm_config", fp, k, precision, sel.name)
        return self._select_config(
            "sddmm_config",
            sel,
            key,
            lambda: sel.build_sddmm(self, mask, k, precision),
        )

    # ------------------------------------------------------------------
    # Plans (cached per topology x config x problem dims)
    # ------------------------------------------------------------------
    def spmm_plan(
        self,
        a: CSRMatrix,
        n: int,
        config: SpmmConfig | None = None,
        selector: str = "heuristic",
        backend: str = "sputnik",
    ) -> SpmmPlan:
        fp = matrix_fingerprint(a)
        if config is None:
            config = self.spmm_config(a, n, selector, fingerprint=fp)
        key = ("spmm", fp, n, config)
        return self._cached(
            "spmm",
            backend,
            key,
            lambda: plan_spmm(a, n, self.device, config),
            repair=self._repairable_plan(
                fp,
                lambda parent_fp: ("spmm", parent_fp, n, config),
                lambda plan, delta: repair_spmm_plan(plan, a, delta),
            ),
        )

    def sddmm_plan(
        self,
        mask: CSRMatrix,
        k: int,
        config: SddmmConfig | None = None,
        selector: str = "heuristic",
        backend: str = "sputnik",
    ) -> SddmmPlan:
        fp = matrix_fingerprint(mask)
        if config is None:
            config = self.sddmm_config(mask, k, selector, fingerprint=fp)
        key = ("sddmm", fp, k, config)
        return self._cached(
            "sddmm",
            backend,
            key,
            lambda: plan_sddmm(mask, k, self.device, config),
            repair=self._repairable_plan(
                fp,
                lambda parent_fp: ("sddmm", parent_fp, k, config),
                lambda plan, delta: repair_sddmm_plan(plan, mask, delta),
            ),
        )

    def sparse_softmax_plan(
        self, a: CSRMatrix, backend: str = "sputnik"
    ) -> SparseSoftmaxPlan:
        fp = matrix_fingerprint(a)
        key = ("sparse_softmax", fp)
        return self._cached(
            "sparse_softmax",
            backend,
            key,
            lambda: plan_sparse_softmax(a, self.device),
        )

    def spmm_batched_plan(
        self,
        a: CSRMatrix,
        n: int,
        h: int,
        config: SpmmConfig | None = None,
        selector: str = "heuristic",
        backend: str = "sputnik",
    ) -> SpmmBatchedPlan:
        """One plan for ``h`` SpMMs sharing ``a``'s topology (one launch)."""
        fp = matrix_fingerprint(a)
        if config is None:
            config = self.spmm_config(a, n, selector, fingerprint=fp)
        key = ("spmm_batched", fp, n, h, config)
        return self._cached(
            "spmm_batched",
            backend,
            key,
            lambda: plan_spmm_batched(a, n, h, self.device, config),
        )

    def sddmm_batched_plan(
        self,
        mask: CSRMatrix,
        k: int,
        h: int,
        config: SddmmConfig | None = None,
        selector: str = "heuristic",
        backend: str = "sputnik",
    ) -> SddmmBatchedPlan:
        """One plan for ``h`` SDDMMs sharing ``mask``'s topology."""
        fp = matrix_fingerprint(mask)
        if config is None:
            config = self.sddmm_config(mask, k, selector, fingerprint=fp)
        key = ("sddmm_batched", fp, k, h, config)
        return self._cached(
            "sddmm_batched",
            backend,
            key,
            lambda: plan_sddmm_batched(mask, k, h, self.device, config),
        )

    def sparse_softmax_batched_plan(
        self, a: CSRMatrix, h: int, backend: str = "sputnik"
    ) -> SparseSoftmaxBatchedPlan:
        """One plan for ``h`` row softmaxes over ``a``'s topology."""
        fp = matrix_fingerprint(a)
        key = ("sparse_softmax_batched", fp, h)
        return self._cached(
            "sparse_softmax_batched",
            backend,
            key,
            lambda: plan_sparse_softmax_batched(a, h, self.device),
        )

    def csc_spmm_plan(
        self,
        a: CSCMatrix,
        n: int,
        config: SpmmConfig | None = None,
        backend: str = "sputnik",
    ) -> SpmmPlan:
        fp = matrix_fingerprint(a)
        key = ("csc_spmm", fp, n, config)
        return self._cached(
            "csc_spmm",
            backend,
            key,
            lambda: plan_spmm_csc(a, n, self.device, config),
        )

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
