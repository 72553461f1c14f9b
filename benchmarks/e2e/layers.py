"""Per-layer spans for the traced run, recorded from outside the program.

:data:`LAYERS` maps each layer, named after its module, to the public
functions and methods through which control enters it.
:meth:`LayerTrace.install` wraps each one in a span of a tracer the
benchmark owns. A module-level function is rebound in every module that
holds the same function object, and a method is replaced on its class. No
tracer is ever attached to an execution context, so the program keeps
running its own tracing-off paths underneath the spans.

A layer's self time is its spans' duration minus the time their child
spans cover. Every span carries an ``iter`` attribute, the index of the
measured iteration it ran in. The root span of each iteration belongs to
the ``bench`` category, and its self time is the share no layer explains.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager

from repro import ops
from repro.gpu import V100
from repro.obs.tracing import Tracer
from repro.ops.plans import PlanCache

_OPERATORS = (
    "spmm", "spmm_cost", "sddmm", "sddmm_cost", "sparse_softmax",
    "sparse_softmax_cost", "spmm_batched", "spmm_batched_cost",
    "sddmm_batched", "sddmm_batched_cost", "sparse_softmax_batched",
    "sparse_softmax_batched_cost", "csc_spmm", "csc_spmm_cost", "matmul",
    "matmul_cost",
)
_PLAN_LOOKUPS = (
    "spmm_plan", "sddmm_plan", "sparse_softmax_plan", "spmm_batched_plan",
    "sddmm_batched_plan", "sparse_softmax_batched_plan", "csc_spmm_plan",
    "gemm_execution", "cost", "register_topology_delta",
    "invalidate_topology",
)

#: Layer -> ``"module:qualname"`` entry points. ``core.plan`` includes the
#: baselines' launch builders, since costing a baseline is its plan build.
#: ``sparse.csr`` includes the cached transpose and the scipy conversion
#: that the numeric kernels start from.
LAYERS: dict[str, tuple[str, ...]] = {
    "nn": (
        "repro.nn.rnn_cells:SparseLstmCell.step",
        "repro.nn.layers:SparseLinear.forward",
        "repro.nn.layers:SparseLinear.backward",
        "repro.nn.layers:SparseLinear.update_values",
        "repro.nn.layers:SparseLinear.update_topology",
        "repro.nn.transformer_layer:TransformerStack.forward",
        "repro.nn.transformer_layer:TransformerLayer.forward",
        "repro.nn.attention:sparse_attention_batched",
    ),
    "ops.dispatch": tuple(f"repro.ops.operators:{f}" for f in _OPERATORS),
    "ops.fingerprint": ("repro.ops.plans:matrix_fingerprint",),
    "ops.plan_lookup": tuple(
        f"repro.ops.context:ExecutionContext.{m}" for m in _PLAN_LOOKUPS
    ),
    "tune.select": (
        "repro.ops.context:ExecutionContext.spmm_config",
        "repro.ops.context:ExecutionContext.sddmm_config",
    ),
    "core.plan": (
        "repro.core.spmm:plan_spmm",
        "repro.core.spmm:plan_spmm_batched",
        "repro.core.sddmm:plan_sddmm",
        "repro.core.sddmm:plan_sddmm_batched",
        "repro.core.sparse_softmax:plan_sparse_softmax",
        "repro.core.sparse_softmax:plan_sparse_softmax_batched",
        "repro.core.csc_spmm:plan_spmm_csc",
        "repro.baselines.cusparse:spmm_launch",
        "repro.baselines.cusparse:sddmm_execution",
        "repro.baselines.cublas:gemm_execution",
    ),
    "core.repair": (
        "repro.core.spmm:repair_spmm_plan",
        "repro.core.sddmm:repair_sddmm_plan",
        "repro.ops.plans:topology_delta",
    ),
    "core.exec": (
        "repro.core.spmm:execute_spmm",
        "repro.core.spmm:execute_spmm_batched",
        "repro.core.sddmm:execute_sddmm",
        "repro.core.sddmm:execute_sddmm_batched",
        "repro.core.sparse_softmax:execute_sparse_softmax",
        "repro.core.sparse_softmax:execute_sparse_softmax_batched",
        "repro.core.csc_spmm:execute_spmm_csc",
    ),
    "gpu.sim": ("repro.gpu.executor:execute",),
    "gpu.allocator": (
        "repro.gpu.allocator:DeviceAllocator.allocate",
        "repro.gpu.allocator:DeviceAllocator.free",
        "repro.gpu.allocator:DeviceAllocator.flush_cache",
        "repro.ops.context:ExecutionContext.try_allocate",
    ),
    "obs.telemetry": tuple(
        f"repro.ops.context:Telemetry.{m}"
        for m in (
            "record_launch", "record_cache", "record_store",
            "record_plan_repair", "record_plan_invalidation",
        )
    ),
    "nn.dynamic": (
        "repro.nn.dynamic:drop_grow_step",
        "repro.nn.dynamic:drop_grow_update",
        "repro.nn.dynamic:select_rows",
    ),
    "sparse.csr": (
        "repro.sparse.csr:CSRMatrix.__post_init__",
        "repro.sparse.csr:CSRMatrix.with_values",
        "repro.sparse.csr:CSRMatrix.astype",
        "repro.sparse.csr:CSRMatrix.to_scipy",
        "repro.sparse.transpose:CachedTranspose.__init__",
        "repro.sparse.transpose:CachedTranspose.transpose",
    ),
}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, qualname


class LayerTrace:
    """Spans around every layer entry point, plus one root per iteration."""

    def __init__(self, process: str) -> None:
        self.tracer = Tracer(process=process)
        #: Index of the measured iteration running now (``None`` between).
        self.iter: int | None = None
        #: Plan-cache entries pushed out by LRU overflow during iterations.
        self.lru_evictions = 0

    def _wrap(self, fn, layer: str, name: str):
        span = self.tracer.span

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with span(name, category=layer, iter=self.iter):
                return fn(*args, **kwargs)

        return spanned

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` for the rest of the
        process."""
        rebind = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, qualname = _resolve(target)
                fn = getattr(owner, attr)
                wrapped = self._wrap(fn, layer, qualname)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapped)
                else:
                    rebind[id(fn)] = wrapped
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                wrapped = rebind.get(id(value))
                if wrapped is not None:
                    namespace[name] = wrapped

        # Dense GEMM numerics run inline in the registry's cuBLAS entry, so
        # that entry is registered again with a wrapped ``run``.
        gemm = ops.get_impl("matmul", "cublas")
        ops.register(dataclasses.replace(
            gemm, run=self._wrap(gemm.run, "core.exec", "matmul/cublas.run")
        ))

        put = PlanCache.put

        def counting_put(cache, key, value):
            before = len(cache) + (key not in cache)
            put(cache, key, value)
            if self.iter is not None:
                self.lru_evictions += before - len(cache)

        PlanCache.put = counting_put

    @contextmanager
    def iteration(self, i: int, profile):
        """Root span of measured iteration ``i``; on a clean exit, adds the
        iteration's simulated time and one launch record per kernel."""
        self.iter = i
        try:
            root = self.tracer.span("iteration", category="bench", iter=i)
            with root:
                yield
        finally:
            self.iter = None
        root.add_sim(profile.runtime_s)
        for result in profile.records:
            phases = result.phases.as_dict() if result.phases else {}
            self.tracer.add_launch({
                "name": result.name,
                "device": V100.name,
                "runtime_s": result.runtime_s,
                "flops": result.flops,
                "dram_bytes": result.dram_bytes,
                "l2_bytes": result.l2_bytes,
                "n_blocks": result.n_blocks,
                "phases": phases,
                "iter": i,
            })

    def summary(self, n_iters: int) -> tuple[dict[str, float], float]:
        """Per-iteration ``<layer>.self_ms`` and ``<layer>.calls``, and the
        share of iteration time that falls inside some layer's span."""
        covered = defaultdict(float)
        for span in self.tracer.spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.dur_s
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        unattributed = total = 0.0
        for span in self.tracer.spans:
            if span.attrs.get("iter") is None:
                continue
            own = span.dur_s - covered[span.span_id]
            if span.category == "bench":
                unattributed += own
                total += span.dur_s
            else:
                self_s[span.category] += own
                calls[span.category] += 1
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = self_s[layer] * 1e3 / n_iters
            metrics[f"{layer}.calls"] = calls[layer] / n_iters
        attributed = 1.0 - unattributed / total if total else 0.0
        return metrics, attributed
