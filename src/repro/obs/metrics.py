"""Label-aware metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the unified read surface for everything the
system counts. Two feeding modes:

- **push** — instrumented code holds a metric child
  (``registry.counter("x", labelnames=("op",)).labels("spmm").inc()``);
- **pull (collectors)** — existing counter stores register a collector
  callback sampled at snapshot time. This is how the registry *absorbs*
  the dispatch layer's :class:`~repro.ops.context.Telemetry` without
  adding a single instruction to the hot dispatch path: the per-(op,
  backend) ``OpStats`` remain the write store (``telemetry_snapshot()``
  keeps working unchanged), and the registry re-labels them as metric
  samples on read.

:func:`bind_context_metrics` wires one
:class:`~repro.ops.context.ExecutionContext` into a registry: telemetry
counters, plan-store counters, plan-cache gauges, and a pushed histogram
of simulated launch runtimes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

#: Default fixed buckets (seconds) for simulated launch runtimes: sparse
#: kernels on the modelled V100 land between ~2us (launch overhead) and
#: ~100ms (huge dense fallbacks).
SIM_SECONDS_BUCKETS = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1,
)

#: A pull-mode sample: (metric name, label dict, value).
Sample = tuple[str, dict[str, str], float]


def _label_key(labelnames: tuple[str, ...], values: tuple[str, ...]) -> str:
    """Stable string form of one label set, e.g. ``op=spmm,backend=sputnik``."""
    return ",".join(f"{n}={v}" for n, v in zip(labelnames, values))


class _Metric:
    """Shared labels/children machinery for every metric type."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values, **kv):
        """The child metric for one label-value combination (cached)."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name")
            values = tuple(str(kv[n]) for n in self.labelnames)
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {values}"
            )
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    def _default_child(self):
        """The single child of an unlabeled metric."""
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; use .labels()"
            )
        return self.labels()

    def _make_child(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self) -> None:
        self._children.clear()

    def samples(self) -> dict[str, Any]:
        return {
            _label_key(self.labelnames, values): child.sample()
            for values, child in sorted(self._children.items())
        }


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def sample(self) -> float:
        return self.value


class Counter(_Metric):
    """Monotonic count (launches, cache hits, retries...)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return sum(c.value for c in self._children.values())


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def sample(self) -> float:
        return self.value


class Gauge(_Metric):
    """Point-in-time value (plan-cache entries, live bytes...)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    @property
    def value(self) -> float:
        return sum(c.value for c in self._children.values())


class _HistogramChild:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        # One count per finite bucket plus the +inf overflow bucket.
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def sample(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class Histogram(_Metric):
    """Fixed-bucket distribution (simulated launch seconds...).

    ``buckets`` are inclusive upper bounds in ascending order; an implicit
    ``+inf`` bucket catches the overflow. Buckets are fixed at declaration
    so histograms from different contexts/workers merge by addition.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = SIM_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        buckets = tuple(float(b) for b in buckets)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be ascending and non-empty")
        self.buckets = buckets

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class MetricsRegistry:
    """Named metrics plus pull-mode collectors; snapshot() reads both."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], Iterable[Sample]]] = []

    def _get_or_create(self, cls, name, help, labelnames, **kwargs):
        metric = self._metrics.get(name)
        if metric is not None:
            if type(metric) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric
        metric = cls(name, help, tuple(labelnames), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = SIM_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def register_collector(
        self, collector: Callable[[], Iterable[Sample]]
    ) -> None:
        """Add a pull-mode source sampled by every :meth:`snapshot`."""
        self._collectors.append(collector)

    def reset(self) -> None:
        """Zero every pushed metric (collectors reflect external state and
        are reset at their source)."""
        for metric in self._metrics.values():
            metric.reset()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Plain-dict view of every metric: pushed children plus collector
        samples, keyed ``name -> {type, help, samples}``."""
        out: dict[str, dict[str, Any]] = {}
        for name, metric in sorted(self._metrics.items()):
            out[name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": metric.samples(),
            }
        for collector in self._collectors:
            for name, labels, value in collector():
                entry = out.setdefault(
                    name, {"type": "counter", "help": "", "samples": {}}
                )
                key = ",".join(f"{k}={v}" for k, v in labels.items())
                entry["samples"][key] = value
        return out


# ----------------------------------------------------------------------
# Execution-context binding
# ----------------------------------------------------------------------
class _HistogramView:
    """A histogram handle with trailing label values pinned (e.g. the
    ``device_id`` of a group member): ``labels(op, backend)`` resolves the
    child for ``(op, backend, *pinned)`` on the underlying histogram, so
    ``Telemetry.record_launch`` needs no label plumbing of its own."""

    __slots__ = ("_histogram", "_pinned")

    def __init__(self, histogram, pinned: tuple[str, ...]) -> None:
        self._histogram = histogram
        self._pinned = tuple(pinned)

    def labels(self, *values):
        return self._histogram.labels(*values, *self._pinned)


def bind_context_metrics(registry: MetricsRegistry, ctx) -> MetricsRegistry:
    """Wire one ExecutionContext into a registry.

    - telemetry counters (pull): the live ``OpStats`` stay the write store
      (zero hot-path cost) and every ``snapshot()`` re-labels them as
      ``op_<counter>`` samples with ``op=...,backend=...`` labels.
      Config-selection rows (``*_config`` ops, whose backend field carries
      the selector name) get an explicit ``selector`` label on top, so
      scrape queries can slice tuning traffic without knowing that
      encoding;
    - plan-cache occupancy gauges and plan-store counters (pull);
    - device-allocator gauges (allocated/reserved/cached/peak bytes,
      fragmentation) and OOM/eviction counters when the context accounts
      HBM capacity;
    - a pushed ``sim_launch_seconds`` histogram fed by
      ``Telemetry.record_launch`` from now on.

    A context with a ``device_id`` (a :class:`~repro.dist.DeviceGroup`
    member) stamps ``device_id`` onto every sample — including the
    histogram, which is then declared with ``(op, backend, device_id)``
    label names — so K contexts bound into one registry stay disjoint.
    """
    extra: dict[str, str] = {}
    if ctx.device_id is not None:
        extra["device_id"] = str(ctx.device_id)
    telemetry = ctx.telemetry

    def collect_telemetry() -> Iterable[Sample]:
        for (op, backend), stats in sorted(telemetry.stats.items()):
            labels = {"op": op, "backend": backend}
            if op.endswith("_config"):
                labels["selector"] = backend
            labels.update(extra)
            for key, value in stats.as_dict().items():
                yield (f"op_{key}", labels, value)

    def collect_context() -> Iterable[Sample]:
        device = {"device": ctx.device.name, **extra}
        yield ("plan_cache_entries", device, float(len(ctx.plans)))
        if ctx.store is not None:
            for key, value in ctx.store.stats.as_dict().items():
                yield (f"plan_store_{key}", device, float(value))
        memory = ctx.memory
        if memory is not None:
            yield ("hbm_capacity_bytes", device, float(memory.capacity))
            yield (
                "hbm_allocated_bytes", device, float(memory.allocated_bytes)
            )
            yield ("hbm_reserved_bytes", device, float(memory.reserved_bytes))
            yield ("hbm_cached_bytes", device, float(memory.cached_bytes))
            yield (
                "hbm_peak_allocated_bytes",
                device,
                float(memory.peak_allocated_bytes),
            )
            yield (
                "hbm_peak_reserved_bytes",
                device,
                float(memory.peak_reserved_bytes),
            )
            yield (
                "hbm_fragmentation_ratio", device, float(memory.fragmentation)
            )
            yield ("hbm_oom_total", device, float(memory.oom_count))
            yield ("hbm_flushes_total", device, float(memory.flush_count))
            yield (
                "hbm_plan_evictions_total",
                device,
                float(telemetry.plan_evictions),
            )
            yield (
                "hbm_tensor_evictions_total",
                device,
                float(ctx.tensor_evictions),
            )
            yield (
                "hbm_bytes_evicted_total",
                device,
                float(telemetry.bytes_evicted),
            )
            yield (
                "hbm_bytes_reuploaded_total",
                device,
                float(ctx.bytes_reuploaded),
            )

    registry.register_collector(collect_telemetry)
    registry.register_collector(collect_context)
    labelnames = ("op", "backend") + (("device_id",) if extra else ())
    histogram = registry.histogram(
        "sim_launch_seconds",
        "Simulated runtime of dispatched launches",
        labelnames=labelnames,
    )
    if extra:
        ctx.telemetry.attach_histogram(
            _HistogramView(histogram, (extra["device_id"],))
        )
    else:
        ctx.telemetry.attach_histogram(histogram)
    return registry


def bind_group_metrics(registry: MetricsRegistry, group) -> MetricsRegistry:
    """Wire every device context of a :class:`~repro.dist.DeviceGroup`
    into one registry.

    Each member context binds through :func:`bind_context_metrics`, so all
    of its samples (telemetry counters, HBM gauges, the launch histogram)
    carry its ``device_id`` label; a group-level collector adds the device
    count labeled by interconnect kind. One scrape of the returned registry
    is the whole group.
    """
    for ctx in group.contexts:
        bind_context_metrics(registry, ctx)

    def collect_group() -> Iterable[Sample]:
        yield (
            "group_devices",
            {"interconnect": group.interconnect.kind},
            float(group.k),
        )

    registry.register_collector(collect_group)
    return registry
