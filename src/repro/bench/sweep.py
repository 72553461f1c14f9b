"""Parallel corpus sweeps with a shared persistent store.

A corpus sweep times every kernel on hundreds-to-thousands of matrices
(Section II of the paper sweeps the full DNN corpus). Three properties make
this embarrassingly parallel but annoying in practice, and this module
handles all three:

- **Sharding** — the (spec, kernel, n) task list is chunked across a
  :class:`~concurrent.futures.ProcessPoolExecutor`; chunks keep one spec's
  tasks contiguous so each worker materializes a matrix once per chunk.
- **Warm starts** — every worker attaches the same disk-backed
  :class:`~repro.ops.store.PlanStore` (atomic writes, no locks) and installs
  its context as the process default. Finished measurements are persisted
  as row entries keyed by the spec's repr, so a warm re-run skips even
  matrix materialization; searched (oracle/tuned) configs persist there
  too. Plans are not stored: a worker rebuilds them from each matrix's
  memoized structure analysis.
- **Streaming + resume** — completed rows are appended to a JSONL file as
  chunks finish; ``resume=True`` reads it back and skips every task already
  measured, so an interrupted 10k-row sweep restarts where it stopped.

``workers <= 1`` runs chunks in-process (no pool), which keeps tests and
debugging simple — monkeypatched kernels and in-memory stores behave
normally there.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .. import ops
from ..datasets.spec import MatrixSpec
from ..gpu.device import DeviceSpec
from .runner import SPMM_KERNELS, _measure


@dataclass(frozen=True)
class SweepTask:
    """One (matrix spec, kernel, batch size[, stack depth]) measurement.

    ``h`` is the stack depth: ``h > 1`` times the kernel on a stack of
    ``h`` products sharing the topology (one z-scaled launch for the whole
    stack).
    """

    spec: MatrixSpec
    kernel: str
    n: int
    h: int = 1
    selector: str = "heuristic"
    #: Simulated device count: ``> 1`` row-shards the measurement across a
    #: :class:`repro.dist.DeviceGroup` of this size.
    devices: int = 1
    #: Dynamic-sparsity churn: ``> 0`` applies this many drop/grow topology
    #: mutations before timing, registering each delta so the dispatch path
    #: exercises plan repair (DESIGN.md §17).
    mutations: int = 0

    @property
    def row_key(self) -> str:
        """Stable identity used for resume bookkeeping and store keys.

        Unbatched heuristic single-device static tasks keep the historical
        ``spec|kernel|n`` form so resume files written before the ``h``,
        ``selector``, ``devices``, and ``mutations`` dimensions existed
        still match; batched tasks append ``|h{h}``, non-heuristic
        selectors append ``|sel:{selector}``, sharded tasks append
        ``|d{devices}``, and mutated tasks append ``|m{mutations}``.
        """
        key = f"{self.spec.name}|{self.kernel}|{self.n}"
        if self.h != 1:
            key = f"{key}|h{self.h}"
        if self.selector != "heuristic":
            key = f"{key}|sel:{self.selector}"
        if self.devices != 1:
            key = f"{key}|d{self.devices}"
        if self.mutations != 0:
            key = f"{key}|m{self.mutations}"
        return key


@dataclass
class SweepReport:
    """What a sweep did and how fast it went."""

    total_tasks: int
    measured: int
    from_store: int
    resumed: int
    failed: int
    #: Rows that died of device memory exhaustion (``status="oom"``) —
    #: counted separately from ``failed`` so a capacity-constrained sweep
    #: is distinguishable from a buggy one.
    oom: int
    workers: int
    wall_s: float
    store_counters: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def rows_per_s(self) -> float:
        done = self.measured + self.from_store
        return done / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        out = asdict(self)
        out["rows_per_s"] = self.rows_per_s
        return out


def build_tasks(
    specs: Iterable[MatrixSpec],
    kernels: Sequence[str],
    n: int | Sequence[int] = 64,
    h: int | Sequence[int] = 1,
    selector: str = "heuristic",
    devices: int | Sequence[int] = 1,
    mutations: int | Sequence[int] = 0,
) -> list[SweepTask]:
    """Expand specs × kernels × batch sizes × stack depths × device counts
    × mutation counts into tasks.

    A spec's own ``batch_columns`` (when set) override the sweep-level
    ``n``; unknown kernel names fail fast here rather than inside a worker.
    Stack depths above 1 require the kernel's backend to take stacks
    (``ops.stack_backends("spmm")``).
    ``selector`` picks the config-selection policy every task dispatches
    with (validated here so a typo fails before the pool spins up).
    ``devices`` counts above 1 row-shard the measurement across a
    :class:`repro.dist.DeviceGroup`.
    ``mutations`` counts above 0 run that many drop/grow topology updates
    through the dispatch path before timing (dynamic sparsity; the delta
    registration makes plans repair rather than rebuild). The three
    dimensions compose: a task builds its depth-``h`` plan on each of its
    devices and repairs it under churn.
    """
    from ..tune import resolve_selector

    selector = resolve_selector(selector).name
    stacks = (h,) if isinstance(h, int) else tuple(h)
    device_counts = (
        (devices,) if isinstance(devices, int) else tuple(devices)
    )
    mutation_counts = (
        (mutations,) if isinstance(mutations, int) else tuple(mutations)
    )
    for k in device_counts:
        if k < 1:
            raise ValueError(f"devices must be >= 1, got {k}")
    for m in mutation_counts:
        if m < 0:
            raise ValueError(f"mutations must be >= 0, got {m}")
    stacked = any(depth > 1 for depth in stacks)
    stackers = ops.stack_backends("spmm")
    for name in kernels:
        if name not in SPMM_KERNELS:
            raise ValueError(
                f"unknown kernel {name!r}; known: {sorted(SPMM_KERNELS)}"
            )
        if stacked and name not in stackers:
            raise ValueError(
                f"kernel {name!r} takes no stacks (h > 1); "
                f"stacking kernels: {sorted(stackers)}"
            )
    tasks = []
    batches = (n,) if isinstance(n, int) else tuple(n)
    for spec in specs:
        spec_batches = spec.batch_columns or batches
        for kernel in kernels:
            for cols in spec_batches:
                for depth in stacks:
                    for k in device_counts:
                        for m in mutation_counts:
                            tasks.append(
                                SweepTask(
                                    spec=spec, kernel=kernel, n=int(cols),
                                    h=int(depth), selector=selector,
                                    devices=int(k), mutations=int(m),
                                )
                            )
    return tasks


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process context cache: (device, store path) -> ExecutionContext.
#: Pool workers populate it once via the initializer; the in-process path
#: reuses the same mechanism.
_WORKER_CONTEXTS: dict[tuple, "ops.ExecutionContext"] = {}

#: Per-process tracing state for traced sweeps: (device, store path) ->
#: (Tracer, PhaseProfiler). Built lazily on the first traced chunk.
_WORKER_TRACERS: dict[tuple, tuple] = {}

#: Per-process DeviceGroup cache for sharded tasks:
#: (device, k, store path) -> DeviceGroup. Groups are long-lived like
#: worker contexts, so shard plans and per-device plan caches stay warm
#: across a chunk's tasks.
_WORKER_GROUPS: dict[tuple, object] = {}


def _worker_group(device: DeviceSpec, k: int, store_path: str | None):
    key = (device, k, store_path)
    group = _WORKER_GROUPS.get(key)
    if group is None:
        from ..dist import DeviceGroup

        group = DeviceGroup(k, device, store=store_path)
        _WORKER_GROUPS[key] = group
    return group


def _worker_context(
    device: DeviceSpec, store_path: str | None
) -> "ops.ExecutionContext":
    key = (device, store_path)
    ctx = _WORKER_CONTEXTS.get(key)
    if ctx is None:
        ctx = ops.ExecutionContext(device, store=store_path)
        _WORKER_CONTEXTS[key] = ctx
    # Bench timers resolve the implicit default context, so the sweep's
    # store-backed context must be installed as that default — on every
    # chunk, not just the first: a reset_default_contexts() between sweeps
    # would otherwise leave timers dispatching through a fresh untraced
    # context while this one (and its tracer) sits idle.
    ops.set_default_context(ctx)
    return ctx


def _init_worker(device: DeviceSpec, store_path: str | None) -> None:
    """Pool initializer: build this process's store-backed context once."""
    _worker_context(device, store_path)


def reset_worker_state() -> None:
    """Drop this process's cached sweep contexts and tracers.

    Long-lived processes (tests, benchmarks) that run several sweeps and
    want each to start cold — empty plan cache, fresh tracer — call this
    between runs. Pool workers never need it: they are created per sweep.
    Detaches every cached :class:`PhaseProfiler` from the global completion
    observers so stale tracers stop collecting launches.
    """
    for _tracer, profiler in _WORKER_TRACERS.values():
        profiler.stop()
    _WORKER_TRACERS.clear()
    _WORKER_CONTEXTS.clear()
    _WORKER_GROUPS.clear()


def _row_store_key(device: DeviceSpec, task: SweepTask) -> tuple:
    # h == 1 / heuristic selection / one device / no mutations keeps the
    # historical 5-tuple so pre-batching store entries still hit; batched
    # tasks append the stack depth (int), non-heuristic selectors the
    # selector name (str), sharded tasks a ("devices", k) pair, and
    # mutated tasks a ("mutations", m) pair — the suffix types all
    # differ, so they cannot collide.
    key = ("sweep_row", device, repr(task.spec), task.kernel, task.n)
    if task.h != 1:
        key = key + (task.h,)
    if task.selector != "heuristic":
        key = key + (task.selector,)
    if task.devices != 1:
        key = key + (("devices", task.devices),)
    if task.mutations != 0:
        key = key + (("mutations", task.mutations),)
    return key


def _worker_tracer(ctx, key: tuple):
    """This process's (tracer, profiler) pair for traced sweeps.

    Built once per worker: the tracer attaches to the worker's context (so
    every dispatch opens a span) and a :class:`PhaseProfiler` streams each
    simulated launch into it as ``launch`` records.
    """
    pair = _WORKER_TRACERS.get(key)
    if pair is None:
        from ..obs.profiler import PhaseProfiler
        from ..obs.tracing import Tracer

        tracer = Tracer(process="sweep-worker")
        profiler = PhaseProfiler(tracer=tracer, device=ctx.device).start()
        ctx.attach_tracer(tracer)
        pair = (tracer, profiler)
        _WORKER_TRACERS[key] = pair
    return pair


def _run_chunk(
    tasks: list[SweepTask],
    device: DeviceSpec,
    store_path: str | None,
    trace: bool = False,
) -> tuple[list[dict], dict]:
    """Measure one chunk of tasks; returns (rows, counter deltas).

    Counters are *deltas* across this chunk — workers are long-lived and
    their stats are cumulative, so the parent sums deltas instead of
    re-reading totals (which would double-count across chunks). With
    ``trace=True`` the chunk's new trace records (each task wrapped in a
    ``sweep.task`` span, plus per-launch phase records) ride back in
    ``deltas["trace"]`` for the parent to merge into one stream.
    """
    ctx = _worker_context(device, store_path)
    tracer = None
    if trace:
        tracer, _ = _worker_tracer(ctx, (device, store_path))
        spans0, launches0 = len(tracer.spans), len(tracer.launches)
    store = ctx.store
    store_before = store.stats.as_dict() if store is not None else {}
    hits0, misses0 = ctx.telemetry.cache_hits, ctx.telemetry.cache_misses

    by_spec: dict[MatrixSpec, list[SweepTask]] = {}
    for task in tasks:
        by_spec.setdefault(task.spec, []).append(task)

    rows: list[dict] = []
    from_store = 0
    try:
        from_store = _measure_chunk(
            by_spec, rows, device, store, store_path, tracer
        )
    except Exception as exc:
        # _measure converts expected failures into failed rows, so anything
        # escaping here is a genuine worker crash: ship the postmortem
        # window before the pool swallows the process. The JSONL artifact
        # (REPRO_FLIGHT_DIR) is the durable record — instance attributes do
        # not survive the pool's exception pickling, but attach() still
        # serves the in-process (workers <= 1) path.
        ctx.telemetry.emit(
            "worker_crash", "sweep", "worker", error=type(exc).__name__
        )
        if ctx.flight is not None:
            ctx.flight.attach(exc, "sweep_worker_crash")
        raise

    store_after = store.stats.as_dict() if store is not None else {}
    deltas = {
        "from_store": from_store,
        "cache_hits": ctx.telemetry.cache_hits - hits0,
        "cache_misses": ctx.telemetry.cache_misses - misses0,
        "store": {
            k: store_after[k] - store_before[k] for k in store_after
        },
    }
    if tracer is not None:
        deltas["trace"] = (
            [tracer.meta_record()]
            + [span.to_record() for span in tracer.spans[spans0:]]
            + tracer.launches[launches0:]
        )
    return rows, deltas


def _measure_chunk(
    by_spec, rows, device, store, store_path, tracer
) -> int:
    """The measurement loop of one chunk; returns the from-store count."""
    from_store = 0
    for spec, group in by_spec.items():
        matrix = None
        for task in group:
            if store is not None:
                cached, status = store.fetch(_row_store_key(device, task))
                if status == "hit":
                    cached["row_key"] = task.row_key
                    rows.append(cached)
                    from_store += 1
                    continue
            if matrix is None:
                matrix = spec.materialize()
            timer = SPMM_KERNELS[task.kernel]
            dgroup = None
            if task.devices > 1:
                dgroup = _worker_group(device, task.devices, store_path)
                if tracer is not None:
                    dgroup.attach_tracer(tracer)
            if tracer is not None:
                with tracer.span(
                    "sweep.task",
                    category="sweep",
                    spec=spec.name,
                    kernel=task.kernel,
                    n=task.n,
                    h=task.h,
                    selector=task.selector,
                    devices=task.devices,
                    mutations=task.mutations,
                ):
                    row = asdict(
                        _measure(
                            timer, spec.name, task.kernel, matrix, task.n,
                            device, h=task.h, selector=task.selector,
                            group=dgroup, mutations=task.mutations,
                        )
                    )
            else:
                row = asdict(
                    _measure(
                        timer, spec.name, task.kernel, matrix, task.n, device,
                        h=task.h, selector=task.selector, group=dgroup,
                        mutations=task.mutations,
                    )
                )
            if store is not None and row["status"] == "ok":
                store.save(_row_store_key(device, task), dict(row))
            row["row_key"] = task.row_key
            rows.append(row)
    return from_store


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------
def _chunk_tasks(
    tasks: list[SweepTask], chunk_size: int
) -> list[list[SweepTask]]:
    """Pack tasks into chunks, keeping each spec's tasks contiguous.

    A chunk closes once it reaches ``chunk_size``, but never in the middle
    of a spec's group — splitting a group would materialize the matrix in
    two workers.
    """
    by_spec: dict[MatrixSpec, list[SweepTask]] = {}
    for task in tasks:
        by_spec.setdefault(task.spec, []).append(task)
    chunks: list[list[SweepTask]] = []
    current: list[SweepTask] = []
    for group in by_spec.values():
        current.extend(group)
        if len(current) >= chunk_size:
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


def _load_done_keys(out_path: Path) -> set[str]:
    """Row keys already present in a partial JSONL output (for resume)."""
    done: set[str] = set()
    try:
        text = out_path.read_text()
    except OSError:
        return done
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated trailing line from an interrupted run
        key = row.get("row_key")
        if key:
            done.add(key)
    return done


def run_sweep(
    specs: Iterable[MatrixSpec],
    kernels: Sequence[str],
    device: DeviceSpec,
    *,
    n: int | Sequence[int] = 64,
    h: int | Sequence[int] = 1,
    selector: str = "heuristic",
    devices: int | Sequence[int] = 1,
    mutations: int | Sequence[int] = 0,
    workers: int = 1,
    chunk_size: int = 8,
    store_path: str | Path | None = None,
    out_path: str | Path | None = None,
    resume: bool = False,
    trace_path: str | Path | None = None,
) -> tuple[list[dict], SweepReport]:
    """Sweep ``kernels`` over ``specs`` on ``device``; returns (rows, report).

    - ``workers > 1`` shards chunks across a process pool whose workers all
      share ``store_path`` (plans and finished rows persist there);
      ``workers <= 1`` runs in-process.
    - ``out_path`` streams rows to JSONL as chunks complete; with
      ``resume=True`` tasks whose ``row_key`` already appears there are
      skipped and the existing rows are returned alongside the new ones.
    - ``trace_path`` captures a trace of the sweep to JSONL: every measured
      task becomes a ``sweep.task`` span and every simulated launch a phase
      record; worker records merge into the one file as chunks complete,
      keeping their own pid rows (worker wall clocks have per-process
      epochs, so cross-process alignment is approximate). Summarize it with
      ``python -m repro.obs.report <trace_path>``.
    - ``h`` adds a stack-depth dimension: each depth above 1 times the
      kernel on a depth-``h`` stack (one z-scaled launch per stack) and
      suffixes the row key with ``|h{depth}``.
    - ``selector`` picks the config-selection policy every task dispatches
      with (``"heuristic"``, ``"oracle"``, or ``"tuned"``); non-default
      selectors suffix the row key with ``|sel:{selector}``, so tuned and
      heuristic sweeps resume independently from one JSONL, and tuned
      winners persist in the shared plan store for warm re-runs.
    - ``devices`` adds a multi-GPU sharding dimension: each count above 1
      times the task through a cached :class:`~repro.dist.DeviceGroup`
      (row-sharded, outputs left sharded as in a chained pipeline) and
      suffixes the row key with ``|d{count}``, so sharded and
      single-device sweeps resume independently from one JSONL.
    - ``mutations`` adds a dynamic-sparsity dimension: each count above 0
      applies that many seeded drop/grow topology updates through the
      dispatch path before timing (plans repair from the registered
      deltas) and suffixes the row key with ``|m{count}``, so
      static and dynamic sweeps resume independently from one JSONL.
    """
    tasks = build_tasks(
        specs, kernels, n=n, h=h, selector=selector, devices=devices,
        mutations=mutations,
    )
    total = len(tasks)
    out_file = Path(out_path) if out_path is not None else None
    store_str = str(store_path) if store_path is not None else None
    trace_file = Path(trace_path) if trace_path is not None else None
    if trace_file is not None:
        from ..obs.tracing import Tracer

        # Fresh stream headed by the driver's meta record; worker records
        # (each chunk ships its own meta) append as chunks complete.
        trace_file.write_text(
            json.dumps(Tracer(process="sweep-driver").meta_record()) + "\n"
        )

    resumed_rows: list[dict] = []
    if out_file is not None and resume:
        done = _load_done_keys(out_file)
        if done:
            for line in out_file.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if row.get("row_key") in done:
                    resumed_rows.append(row)
            tasks = [t for t in tasks if t.row_key not in done]
    elif out_file is not None and not resume:
        out_file.write_text("")  # fresh run truncates any stale partial

    chunks = _chunk_tasks(tasks, chunk_size)
    rows: list[dict] = []
    totals = {
        "from_store": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "store": {"hits": 0, "misses": 0, "writes": 0, "evictions": 0},
    }

    def _absorb(chunk_rows: list[dict], deltas: dict) -> None:
        rows.extend(chunk_rows)
        totals["from_store"] += deltas["from_store"]
        totals["cache_hits"] += deltas["cache_hits"]
        totals["cache_misses"] += deltas["cache_misses"]
        for k, v in deltas["store"].items():
            totals["store"][k] = totals["store"].get(k, 0) + v
        if out_file is not None and chunk_rows:
            with out_file.open("a") as fh:
                for row in chunk_rows:
                    fh.write(json.dumps(row) + "\n")
        trace_records = deltas.get("trace")
        if trace_file is not None and trace_records:
            with trace_file.open("a") as fh:
                for record in trace_records:
                    fh.write(json.dumps(record) + "\n")

    trace = trace_file is not None
    start = time.perf_counter()
    if workers <= 1 or len(chunks) <= 1:
        for chunk in chunks:
            _absorb(*_run_chunk(chunk, device, store_str, trace))
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(device, store_str),
        ) as pool:
            futures = [
                pool.submit(_run_chunk, chunk, device, store_str, trace)
                for chunk in chunks
            ]
            for future in as_completed(futures):
                _absorb(*future.result())
    wall = time.perf_counter() - start

    oom = sum(1 for row in rows if row.get("status") == "oom")
    failed = sum(
        1 for row in rows if row.get("status") not in ("ok", "oom")
    )
    report = SweepReport(
        total_tasks=total,
        measured=len(rows) - totals["from_store"],
        from_store=totals["from_store"],
        resumed=len(resumed_rows),
        failed=failed,
        oom=oom,
        workers=max(1, workers),
        wall_s=wall,
        store_counters=dict(totals["store"]),
        cache_hits=totals["cache_hits"],
        cache_misses=totals["cache_misses"],
    )
    return resumed_rows + rows, report

