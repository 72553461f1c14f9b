"""repro.ops — the unified operator dispatch layer.

Single entry point for every sparse operator in the reproduction:

- :func:`spmm`, :func:`sddmm`, :func:`sparse_softmax`, :func:`csc_spmm`,
  :func:`matmul` — numerics + simulated cost, dispatched by backend string.
  SpMM, SDDMM and softmax also take an ``H``-deep stack over one shared
  topology (the dense operand's rank gives the depth): one plan, one
  z-scaled launch, one DispatchReport per stack;
- ``*_cost`` variants — simulated cost only (the benchmark path), with
  ``h=`` for a stack's depth;
- :class:`ExecutionContext` / :func:`default_context` — device + per-matrix
  plan cache + telemetry;
- :func:`register` / :func:`available` — the kernel registry, for adding or
  enumerating backends (:func:`stack_backends` names those that take
  stacks).

Example::

    from repro import ops
    from repro.gpu import V100

    y = ops.spmm(weights, x, V100)                  # sputnik, plan cached
    y2 = ops.spmm(weights, x, V100)                 # plan-cache hit
    yc = ops.spmm(weights, x, V100, backend="cusparse")
    print(ops.default_context(V100).telemetry.summary())
"""

from .context import (
    TELEMETRY_SCHEMA,
    ExecutionContext,
    OpStats,
    Telemetry,
    default_context,
    reset_default_contexts,
    set_default_context,
)
from .operators import (
    csc_spmm,
    csc_spmm_cost,
    matmul,
    matmul_cost,
    resolve_context,
    sddmm,
    sddmm_cost,
    sparse_softmax,
    sparse_softmax_cost,
    spmm,
    spmm_cost,
)
from ..core.repair import TopologyDelta
from .plans import PlanCache, matrix_fingerprint, topology_delta
from .store import PLAN_STORE_VERSION, PlanStore, StoreStats
from .registry import (
    KernelImpl,
    available,
    get_impl,
    register,
    stack_backends,
)

__all__ = [
    "spmm",
    "spmm_cost",
    "sddmm",
    "sddmm_cost",
    "sparse_softmax",
    "sparse_softmax_cost",
    "csc_spmm",
    "csc_spmm_cost",
    "matmul",
    "matmul_cost",
    "ExecutionContext",
    "Telemetry",
    "OpStats",
    "TELEMETRY_SCHEMA",
    "default_context",
    "reset_default_contexts",
    "set_default_context",
    "resolve_context",
    "PlanCache",
    "matrix_fingerprint",
    "topology_delta",
    "TopologyDelta",
    "PlanStore",
    "StoreStats",
    "PLAN_STORE_VERSION",
    "KernelImpl",
    "register",
    "get_impl",
    "available",
    "stack_backends",
]
