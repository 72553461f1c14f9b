"""Kernel registry: (op, backend) -> implementation.

Every sparse operator backend — the paper's Sputnik kernels and the
baselines it compares against — registers here under a string name, so any
call site can swap backends without changing imports::

    ops.spmm(a, b, V100)                      # sputnik (default)
    ops.spmm(a, b, V100, backend="cusparse")  # same call, cuSPARSE model

An implementation exposes up to two callables:

- ``run(context, ...)`` — exact numerics plus simulated cost
  (:class:`~repro.core.types.KernelResult`);
- ``cost(context, ...)`` — simulated cost only
  (:class:`~repro.gpu.executor.ExecutionResult`), the path benchmarks use
  to sweep thousands of problems without paying for numpy matmuls.

Both receive the :class:`~repro.ops.context.ExecutionContext` first, so
plan-capable backends (Sputnik) reuse cached plans and cost-only baselines
cache their launch costing per topology.

A backend that also takes a stack of depth ``h`` over one shared topology
(Section VII-C1) says so once with ``stacks=True``: its ``run`` reads the
depth from its dense operand's rank (and takes per-item ``values``), and
its ``cost`` takes ``h=``. Dispatch sends a stacked call only to these.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable

import numpy as np

from ..baselines import aspt, cusparse
from ..baselines.merge import merge_spmm
from ..baselines.merge import spmm_launch as merge_spmm_launch
from ..core.csc_spmm import execute_spmm_csc
from ..core.sddmm import execute_sddmm
from ..core.sparse_softmax import execute_sparse_softmax
from ..core.spmm import execute_spmm
from ..core.types import KernelResult
from ..gpu.executor import ExecutionResult, execute


@dataclass(frozen=True)
class KernelImpl:
    """One registered backend for one operator."""

    op: str
    backend: str
    description: str
    run: Callable[..., KernelResult] | None = None
    cost: Callable[..., ExecutionResult] | None = None
    #: Whether this backend's numerics are bitwise-exact w.r.t. the op's
    #: reference computation. Exact backends are interchangeable inside a
    #: fallback chain with no numeric drift; inexact ones (e.g. the dense
    #: densified-GEMM fallback) complete the op but may differ in low bits.
    exact: bool = True
    #: Whether ``run``/``cost`` take a stack of depth ``h`` sharing the
    #: sparse operand's topology (one z-scaled launch for the stack).
    stacks: bool = False


_REGISTRY: dict[tuple[str, str], KernelImpl] = {}
_SETS: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
_STACK_SETS: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
#: Per op: its backend names and their bitwise-exact subset, kept current
#: by :func:`register` so dispatch never scans the registry (read-only).
BACKEND_SETS = MappingProxyType(_SETS)
#: The same, over the backends that take stacks (``stacks=True``).
STACK_BACKEND_SETS = MappingProxyType(_STACK_SETS)
NO_BACKENDS = (frozenset(), frozenset())


def _backend_sets(impls) -> tuple[frozenset[str], frozenset[str]]:
    return (
        frozenset(i.backend for i in impls),
        frozenset(i.backend for i in impls if i.exact),
    )


def register(impl: KernelImpl) -> KernelImpl:
    """Add (or replace) a backend implementation."""
    _REGISTRY[(impl.op, impl.backend)] = impl
    impls = [i for (op, _), i in _REGISTRY.items() if op == impl.op]
    _SETS[impl.op] = _backend_sets(impls)
    _STACK_SETS[impl.op] = _backend_sets([i for i in impls if i.stacks])
    return impl


def get_impl(op: str, backend: str) -> KernelImpl:
    impl = _REGISTRY.get((op, backend))
    if impl is None:
        if op not in _SETS:
            raise KeyError(f"unknown operator {op!r}")
        raise KeyError(
            f"operator {op!r} has no backend {backend!r}; "
            f"available: {sorted(_SETS[op][0])}"
        )
    return impl


def operators() -> frozenset[str]:
    """Every registered operator name."""
    return frozenset(_SETS)


def available(op: str | None = None) -> dict[str, str]:
    """Backends for one op (or ``op/backend`` for all ops) -> description."""
    if op is not None:
        return {
            b: impl.description
            for (o, b), impl in sorted(_REGISTRY.items())
            if o == op
        }
    return {
        f"{o}/{b}": impl.description for (o, b), impl in sorted(_REGISTRY.items())
    }


def stack_backends(op: str) -> frozenset[str]:
    """Backends of ``op`` that take a stack of depth ``h > 1``."""
    return STACK_BACKEND_SETS.get(op, NO_BACKENDS)[0]


def _plan_cost(plan: str):
    """The ``cost`` of a planned kernel: its cached plan's execution."""
    return lambda ctx, *args, **stack: getattr(ctx, plan)(
        *args, **stack
    ).execution


def _reject_config(backend: str, config: Any) -> None:
    if config is not None:
        raise ValueError(
            f"backend {backend!r} does not take a Sputnik kernel config"
        )


def _baseline(op: str, backend: str, numerics, launch=None):
    """``run`` and ``cost`` of a plan-less baseline model.

    ``numerics(device, *operands)`` computes one result (every run is a
    plan-cache miss); ``launch(device, matrix, dim)`` prices the cost-only
    path, cached per topology and dimension.
    """

    def run(ctx, *args):
        *operands, config, _selector = args
        _reject_config(backend, config)
        result = numerics(ctx.device, *operands)
        ctx.telemetry.record_cache(op, backend, False)
        return result

    def cost(ctx, matrix, dim, config, selector):
        _reject_config(backend, config)
        return ctx.cost(
            op, backend, matrix, (dim,), lambda: launch(ctx.device, matrix, dim)
        )

    return run, cost


def _depth(operand: np.ndarray) -> int:
    """Stack depth of a dense operand: its leading axis when it is a 3-D
    stack (the entry points have checked the rank), else 1."""
    return operand.shape[0] if operand.ndim == 3 else 1


# ----------------------------------------------------------------------
# SpMM backends
# ----------------------------------------------------------------------
def _sputnik_spmm_run(ctx, a, b, config, selector, values=None):
    plan = ctx.spmm_plan(a, b.shape[-1], config, selector, h=_depth(b))
    return execute_spmm(plan, a, b, values)


# The baselines' model functions are named inside lambdas so they are
# looked up when called: a rebinding of a module name reaches them.
_cusparse_spmm_run = _baseline(
    "spmm", "cusparse",
    lambda device, a, b: cusparse.cusparse_spmm(
        a, b, device, "mixed" if a.values.dtype == np.float16 else "fp32"
    ),
)[0]
_merge_spmm_run, _merge_spmm_cost = _baseline(
    "spmm", "merge",
    lambda device, a, b: merge_spmm(a, b, device),
    lambda device, a, n: execute(merge_spmm_launch(a, n, device), device),
)
_aspt_spmm_run, _aspt_spmm_cost = _baseline(
    "spmm", "aspt",
    lambda device, a, b: aspt.aspt_spmm(a, b, device),
    lambda device, a, n: execute(
        aspt._panel_launch(a, n, device, "aspt_spmm", 2.0 * a.nnz * n), device
    ),
)


def _cusparse_spmm_cost(ctx, a, n, config, selector, precision="fp32"):
    _reject_config("cusparse", config)
    return ctx.cost(
        "spmm", "cusparse", a, (n, precision),
        lambda: execute(
            cusparse.spmm_launch(a, n, ctx.device, precision), ctx.device
        ),
    )


def _dense_spmm_run(ctx, a, b, config, selector, values=None):
    """The dense-GEMM equivalent: cuBLAS on the densified operand (one
    strided-batched call for a stack)."""
    _reject_config("dense", config)
    h = _depth(b)
    if b.shape[-2] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    execution = ctx.gemm_execution(
        h * a.n_rows, b.shape[-1], a.n_cols, a.value_bytes,
        op="spmm", backend="dense",
    )
    if b.ndim == 2:
        out = a.to_dense().astype(np.float32) @ b.astype(np.float32)
    elif values is None:
        out = np.einsum(
            "mk,hkn->hmn", a.to_dense().astype(np.float32),
            b.astype(np.float32),
        )
    else:
        row_ids = np.repeat(np.arange(a.n_rows), a.row_lengths)
        dense_stack = np.zeros((h, a.n_rows, a.n_cols), dtype=np.float32)
        dense_stack[:, row_ids, a.column_indices] = values.astype(np.float32)
        out = np.einsum("hmk,hkn->hmn", dense_stack, b.astype(np.float32))
    dtype = a.values.dtype if values is None else values.dtype
    return KernelResult(output=out.astype(dtype), execution=execution)


def _dense_spmm_cost(ctx, a, n, config, selector, h=1):
    _reject_config("dense", config)
    return ctx.gemm_execution(
        h * a.n_rows, n, a.n_cols, a.value_bytes, op="spmm", backend="dense"
    )


# ----------------------------------------------------------------------
# SDDMM backends
# ----------------------------------------------------------------------
def _sputnik_sddmm_run(ctx, lhs, rhs, mask, config, selector):
    plan = ctx.sddmm_plan(
        mask, lhs.shape[-1], config, selector, h=_depth(lhs)
    )
    return execute_sddmm(plan, lhs, rhs, mask)


_cusparse_sddmm_run, _cusparse_sddmm_cost = _baseline(
    "sddmm", "cusparse",
    lambda device, lhs, rhs, mask: cusparse.cusparse_sddmm(
        lhs, rhs, mask, device
    ),
    lambda device, mask, k: cusparse.sddmm_execution(mask, k, device),
)
_aspt_sddmm_run, _aspt_sddmm_cost = _baseline(
    "sddmm", "aspt",
    lambda device, lhs, rhs, mask: aspt.aspt_sddmm(lhs, rhs, mask, device),
    lambda device, mask, k: execute(
        aspt._panel_launch(
            mask, k, device, "aspt_sddmm", 2.0 * mask.nnz * k, mode="sddmm"
        ),
        device,
    ),
)


# ----------------------------------------------------------------------
# Sparse softmax / CSC SpMM / dense matmul
# ----------------------------------------------------------------------
def _sputnik_softmax_run(ctx, a, scale, values=None):
    h = 1 if values is None else values.shape[1]
    plan = ctx.sparse_softmax_plan(a, h=h)
    return execute_sparse_softmax(plan, a, scale=scale, values=values)


def _sputnik_csc_spmm_run(ctx, b, a, config):
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ValueError(
            f"B shape {b.shape} incompatible with A {a.shape} for B @ A"
        )
    plan = ctx.csc_spmm_plan(a, b.shape[0], config)
    return execute_spmm_csc(plan, b, a)


def _cublas_matmul_run(ctx, a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} @ {b.shape}")
    execution = ctx.gemm_execution(
        a.shape[0], b.shape[1], a.shape[1], a.dtype.itemsize
    )
    # fp32 operands and transposed views go to BLAS as they are: the
    # costed shape is (m, n, k) whatever the numpy layout.
    out = (
        a.astype(np.float32, copy=False) @ b.astype(np.float32, copy=False)
    ).astype(a.dtype, copy=False)
    return KernelResult(output=out, execution=execution)


def _cublas_matmul_cost(ctx, m, n, k, element_bytes):
    return ctx.gemm_execution(m, n, k, element_bytes)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
register(KernelImpl(
    "spmm", "sputnik", "The paper's 1-D tiled SpMM (Section V)",
    run=_sputnik_spmm_run, cost=_plan_cost("spmm_plan"), stacks=True,
))
register(KernelImpl(
    "spmm", "cusparse", "cusparseSpMM model (generic CSR kernel)",
    run=_cusparse_spmm_run, cost=_cusparse_spmm_cost,
))
register(KernelImpl(
    "spmm", "merge", "MergeSpmm row-splitting model (Yang et al. 2018)",
    run=_merge_spmm_run, cost=_merge_spmm_cost,
))
register(KernelImpl(
    "spmm", "aspt", "ASpT adaptive-tiling model (Hong et al. 2019)",
    run=_aspt_spmm_run, cost=_aspt_spmm_cost,
))
register(KernelImpl(
    "spmm", "dense", "cuBLAS dense GEMM on the densified operand",
    run=_dense_spmm_run, cost=_dense_spmm_cost, exact=False, stacks=True,
))
register(KernelImpl(
    "sddmm", "sputnik", "The paper's strip-mined SDDMM (Section VI)",
    run=_sputnik_sddmm_run, cost=_plan_cost("sddmm_plan"), stacks=True,
))
register(KernelImpl(
    "sddmm", "cusparse", "cusparseConstrainedGeMM + explicit transpose",
    run=_cusparse_sddmm_run, cost=_cusparse_sddmm_cost,
))
register(KernelImpl(
    "sddmm", "aspt", "ASpT adaptive-tiling SDDMM model",
    run=_aspt_sddmm_run, cost=_aspt_sddmm_cost,
))
register(KernelImpl(
    "sparse_softmax", "sputnik", "Row softmax over CSR values (Section VII-C)",
    run=_sputnik_softmax_run, cost=_plan_cost("sparse_softmax_plan"),
    stacks=True,
))
register(KernelImpl(
    "csc_spmm", "sputnik", "B @ A with CSC A via the transposed CSR problem",
    run=_sputnik_csc_spmm_run, cost=_plan_cost("csc_spmm_plan"),
))
register(KernelImpl(
    "matmul", "cublas", "Dense GEMM (tile/split-K dispatch model)",
    run=_cublas_matmul_run, cost=_cublas_matmul_cost,
))
