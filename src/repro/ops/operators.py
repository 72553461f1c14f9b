"""Operator entry points: one table-driven dispatch path for every kernel.

Each public function here keeps its own signature and docstring, and its
body is a single :func:`_dispatch` call with the :class:`OpSpec` that says
how the call drives the :mod:`~repro.ops.registry`:

- ``device``/``context``: pass an explicit :class:`ExecutionContext` to
  manage caching yourself, or just a :class:`DeviceSpec` to share the
  module-level :func:`~repro.ops.context.default_context` for that device
  (passing neither means the default V100 context);
- ``backend``: a registry string — ``"sputnik"`` (default), ``"cusparse"``,
  ``"merge"``, ``"aspt"``, ``"dense"`` — **or** a fallback chain (a list of
  backend strings, or a :class:`~repro.reliability.policy.FallbackPolicy`)
  dispatched with retry/backoff and the reliability error taxonomy;
- ``config``: an explicit kernel config, or ``None`` to resolve one via
  the :mod:`repro.tune` selector protocol — ``selector`` names a policy:
  ``"heuristic"`` (the paper's rules), ``"oracle"`` (costs every
  candidate, Section VII-B), or ``"tuned"`` (hill-climbing autotuner) —
  with the choice cached per topology and selector. An explicit config
  goes only to the chain's primary backend and to Sputnik;
- ``validate``: run the numerical guardrails on the output (NaN/Inf scan;
  fp16 overflow triggers an automatic fp32 degraded-mode re-run with
  every fp16 operand upcast).

``*_cost`` variants return the simulated :class:`ExecutionResult` only —
the benchmark path, also plan-cached.

SpMM, SDDMM and sparse softmax also take a stack of ``H`` items sharing
the sparse operand's topology (every head shares one mask, Section
VII-C1): the depth is the dense operand's rank (or ``h=`` on the cost
path), and the whole stack resolves ONE plan, costs ONE z-scaled launch
and produces ONE :class:`~repro.reliability.policy.DispatchReport`. Only
backends registered with ``stacks=True`` take a stacked call.

Every entry point dispatches on one device; :mod:`repro.dist` spreads a
call over a device group by calling these entry points once per device.

There is one path: a plain string is a cached one-backend
:class:`~repro.reliability.policy.FallbackPolicy`, so every call runs
through :func:`repro.reliability.policy.run_with_policy`, charges its
operands and workspace to the HBM allocator per attempt, records one
launch in telemetry and carries its
:class:`~repro.reliability.policy.DispatchReport` on
``result.reliability`` (and ``context.last_dispatch_report``). A traced
context also gets one ``op``-category span per call, annotated with the
backend used, the plan-cache outcome, simulated seconds and any
reliability events.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..core.config import SddmmConfig, SpmmConfig
from ..core.types import KernelResult
from ..gpu.device import DeviceSpec
from ..gpu.executor import ExecutionResult
from ..reliability.policy import as_policy, run_with_policy
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from .context import ExecutionContext, default_context
from .registry import BACKEND_SETS, NO_BACKENDS, STACK_BACKEND_SETS, get_impl

_NO_KWARGS: dict = {}


def resolve_context(
    context: ExecutionContext | None, device: DeviceSpec | None
) -> ExecutionContext:
    """Pick the context to run in; `device` must agree with an explicit one."""
    if context is not None:
        if device is not None and device != context.device:
            raise ValueError(
                f"device {device.name!r} conflicts with the context's "
                f"{context.device.name!r}"
            )
        return context
    return default_context(device) if device is not None else default_context()


# ----------------------------------------------------------------------
# Transient workspace footprints (charged against the device allocator
# for the duration of one dispatch; operand residency persists).
# ----------------------------------------------------------------------
def _spmm_workspace(a, n: int, *_) -> int:
    vb = a.values.dtype.itemsize
    return (a.shape[0] * n + a.shape[1] * n) * vb


def _sddmm_workspace(mask, k: int, *_) -> int:
    vb = mask.values.dtype.itemsize
    return (mask.nnz + (mask.shape[0] + mask.shape[1]) * k) * vb


def _softmax_workspace(a, *_) -> int:
    return a.nnz * a.values.dtype.itemsize


def _gemm_workspace(m: int, n: int, k: int, element_bytes: int = 4) -> int:
    return (m * k + k * n + m * n) * element_bytes


def _stack_depth(operand: np.ndarray, ndim: int, layout: str) -> int | None:
    """Depth of a dense operand that may come stacked: its leading axis at
    rank ``ndim``, ``None`` one rank lower; ``layout`` names both forms."""
    if operand.ndim == ndim:
        return operand.shape[0]
    if operand.ndim == ndim - 1:
        return None
    raise ValueError(f"{layout}, got {operand.shape}")


def _spmm_stack(b: np.ndarray, values) -> tuple[dict, int | None]:
    """``(stack, depth)`` of an SpMM run call."""
    depth = _stack_depth(b, 3, "B must be (k, n) or an (H, k, n) stack")
    if values is None:
        return _NO_KWARGS, depth
    if depth is None:
        raise ValueError("per-item values need an (H, k, n) B stack")
    return {"values": np.asarray(values)}, depth


def _softmax_stack(values) -> tuple[dict, int | None]:
    """``(stack, depth)`` of a sparse-softmax run call."""
    if values is None:
        return _NO_KWARGS, None
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"value matrix must be (nnz, H), got {values.shape}")
    return {"values": values}, values.shape[1]


def _cost_stack(h: int) -> tuple[dict, int]:
    """``(stack, depth)`` of a cost call at depth ``h > 1``."""
    if h < 1:
        raise ValueError(f"stack depth h must be >= 1, got {h}")
    return {"h": h}, h


# ----------------------------------------------------------------------
# The operator table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """How one entry point drives a registered operator.

    ``args`` below is the entry point's operand tuple, in the order the
    registry's ``run``/``cost`` callables take them after the context.
    """

    #: Registry operator name.
    op: str
    #: ``workspace(*args)``: transient bytes one item charges per attempt
    #: (a depth-``h`` stack charges ``h`` times that).
    workspace: Callable[..., int]
    #: Call the backends' ``cost`` (simulated cost only) instead of ``run``.
    cost: bool = False
    #: Position in ``args`` of the sparse operand charged to HBM,
    #: validated and faulted (``None`` for dense GEMM).
    charge: int | None = 0
    #: Position in ``args`` of the explicit Sputnik kernel config.
    config: int | None = None

    def _no_config(self, args: tuple) -> tuple:
        pos = self.config
        return args if pos is None else args[:pos] + (None,) + args[pos + 1:]


# One run/cost spec pair per kernel.
_SPMM = OpSpec(
    "spmm", lambda a, b, *_: _spmm_workspace(a, b.shape[-1]), config=2,
)
_SPMM_COST = OpSpec("spmm", _spmm_workspace, cost=True, config=2)
_SDDMM = OpSpec(
    "sddmm", lambda lhs, rhs, mask, *_: _sddmm_workspace(mask, lhs.shape[-1]),
    charge=2, config=3,
)
_SDDMM_COST = OpSpec("sddmm", _sddmm_workspace, cost=True, config=2)
_SOFTMAX = OpSpec("sparse_softmax", _softmax_workspace)
_SOFTMAX_COST = OpSpec("sparse_softmax", _softmax_workspace, cost=True)
_CSC_SPMM = OpSpec(
    "csc_spmm", lambda b, a, _config: _spmm_workspace(a, b.shape[0]),
    charge=1, config=2,
)
_CSC_SPMM_COST = OpSpec("csc_spmm", _spmm_workspace, cost=True, config=2)
_MATMUL = OpSpec(
    "matmul",
    lambda a, b: _gemm_workspace(
        a.shape[0], b.shape[1], a.shape[1], a.dtype.itemsize
    ),
    charge=None,
)
_MATMUL_COST = OpSpec("matmul", _gemm_workspace, cost=True, charge=None)


def _fp32(arg):
    """``arg`` in fp32 if it is a half-precision operand, else ``arg``."""
    values = getattr(arg, "values", arg)  # a sparse operand's values
    if isinstance(values, np.ndarray) and values.dtype == np.float16:
        return arg.astype(np.float32)
    return arg


def _attempt(backend: str, spec: OpSpec, ctx, primary: str, args: tuple,
             kwargs, stack, operands: tuple, workspace: int,
             fp32: bool = False):
    """One attempt of ``spec`` on ``backend``, charging ``operands`` and
    the workspace to HBM for its duration (the policy loop's attempt).

    ``kwargs`` go to the chain's ``primary`` backend only, and so does an
    explicit Sputnik config (Sputnik itself takes one too); ``stack`` goes
    to every backend. With ``fp32=True`` this is the degraded re-run: every
    fp16 operand is upcast and the config re-selected; ``None`` when no
    operand is half precision.
    """
    if fp32:
        upcast = tuple(map(_fp32, args))
        upstack = {name: _fp32(value) for name, value in stack.items()}
        if all(map(
            operator.is_, upcast + tuple(upstack.values()),
            args + tuple(stack.values()),
        )):
            return None
        args, kwargs, stack = spec._no_config(upcast), _NO_KWARGS, upstack
    elif backend != primary:
        kwargs = _NO_KWARGS
        if backend != "sputnik":
            args = spec._no_config(args)
    impl = get_impl(spec.op, backend)
    call = impl.cost if spec.cost else impl.run
    if kwargs or stack:
        call = partial(call, **kwargs, **stack)
    if ctx.memory is None:
        return call(ctx, *args)
    # The context's memory scope, unrolled on the hot path.
    held = ctx._hold(spec.op, backend, operands, workspace)
    try:
        return call(ctx, *args)
    finally:
        ctx._release(held)


def _dispatch(
    spec: OpSpec, args: tuple, context: ExecutionContext | None,
    device: DeviceSpec | None, backend, validate: bool, kwargs=_NO_KWARGS,
    stack=_NO_KWARGS, depth: int | None = None, in_span: bool = False,
):
    """Run one entry-point call through the policy loop.

    ``stack`` is the keywords every backend of a stacked call also gets
    (per-item ``values``, or ``h`` on the cost path), and a stacked call
    (``depth`` is not ``None``) goes only to the backends that take
    stacks. On a traced context the call opens its ``op`` span and
    re-enters here with ``in_span`` set, so traced and untraced calls
    share every line below the span.
    """
    ctx = resolve_context(context, device)
    policy = as_policy(backend, validate or None)
    if ctx.tracer is not None and not in_span:
        return _traced(spec, args, ctx, policy, kwargs, stack, depth)
    op = spec.op
    sets = BACKEND_SETS if depth is None else STACK_BACKEND_SETS
    registered, exact = sets.get(op, NO_BACKENDS)
    operands = () if spec.charge is None else (args[spec.charge],)
    workspace = spec.workspace(*args) * (depth or 1)
    return run_with_policy(
        ctx, op, policy, _attempt,
        (spec, ctx, policy.backends[0], args, kwargs, stack, operands,
         workspace),
        operands, registered, exact,
    )


def _traced(spec: OpSpec, args: tuple, ctx, policy, kwargs, stack, depth):
    """:func:`_dispatch` inside an ``op`` span annotated with its outcome;
    a stacked call's span carries its depth as ``batch``."""
    attrs = {"backend": "/".join(policy.backends), "device": ctx.device.name}
    if ctx.device_id is not None:
        attrs["device_id"] = ctx.device_id
    if depth is not None:
        attrs["batch"] = depth
    with ctx.tracer.span(spec.op, category="op", **attrs) as span:
        result = _dispatch(
            spec, args, ctx, None, policy, policy.validate, kwargs=kwargs,
            stack=stack, depth=depth, in_span=True,
        )
        report = ctx.last_dispatch_report
        span.set(backend_used=report.backend_used)
        if not report.clean:
            span.set(
                retries=report.retries,
                fallbacks=report.fallbacks,
                degraded=report.degraded,
            )
        span.add_sim(result.runtime_s)
        return result


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def spmm(
    a: CSRMatrix,
    b: np.ndarray,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    values: np.ndarray | None = None,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> KernelResult:
    """``C = A @ B`` with sparse ``A``: exact numerics + simulated cost.

    A ``(H, k, n)`` stack ``b`` returns the ``(H, m, n)`` stack of
    products over ``A``'s topology; ``values`` optionally supplies a
    ``(H, nnz)`` per-item value matrix over that structure (per-head
    attention probabilities). The stack resolves ONE plan and costs ONE
    z-scaled launch, amortizing ``H - 1`` launch overheads, and guardrail
    validation scans the whole output stack.
    """
    b = np.asarray(b)
    stack, depth = _spmm_stack(b, values)
    return _dispatch(
        _SPMM, (a, b, config, selector), context, device, backend, validate,
        stack=stack, depth=depth,
    )


def spmm_cost(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    h: int = 1,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
    **kwargs,
) -> ExecutionResult:
    """Simulated SpMM cost only (``n`` = dense batch columns, ``h`` =
    stacked products sharing ``a``'s topology)."""
    stack, depth = (_NO_KWARGS, None) if h == 1 else _cost_stack(h)
    return _dispatch(
        _SPMM_COST, (a, n, config, selector), context, device, backend,
        validate, kwargs, stack, depth,
    )


def sddmm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: CSRMatrix,
    device: DeviceSpec | None = None,
    config: SddmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> KernelResult:
    """``(lhs @ rhs^T) ∘ I[mask]``: exact numerics + simulated cost.

    ``(H, rows, k)``/``(H, cols, k)`` stacks return the column-stacked
    ``(nnz, H)`` value matrix over the shared mask topology — exactly what
    the ``values`` forms of :func:`sparse_softmax` and :func:`spmm`
    consume — from ONE plan and ONE z-scaled launch.
    """
    lhs = np.asarray(lhs)
    depth = _stack_depth(lhs, 3, "lhs must be (rows, k) or an (H, rows, k) stack")
    return _dispatch(
        _SDDMM, (lhs, rhs, mask, config, selector), context, device, backend,
        validate, depth=depth,
    )


def sddmm_cost(
    mask: CSRMatrix,
    k: int,
    device: DeviceSpec | None = None,
    config: SddmmConfig | None = None,
    *,
    h: int = 1,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated SDDMM cost only (``k`` = dot-product inner dimension,
    ``h`` = stacked products sharing the mask)."""
    stack, depth = (_NO_KWARGS, None) if h == 1 else _cost_stack(h)
    return _dispatch(
        _SDDMM_COST, (mask, k, config, selector), context, device, backend,
        validate, stack=stack, depth=depth,
    )


def sparse_softmax(
    a: CSRMatrix,
    device: DeviceSpec | None = None,
    scale: float = 1.0,
    *,
    values: np.ndarray | None = None,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> KernelResult:
    """Row-wise softmax over CSR nonzeros (Section VII-C).

    A ``(nnz, H)`` ``values`` matrix over ``a``'s topology returns the
    ``(nnz, H)`` matrix of its column softmaxes, all ``H`` in one launch.
    """
    stack, depth = _softmax_stack(values)
    return _dispatch(
        _SOFTMAX, (a, scale), context, device, backend, validate,
        stack=stack, depth=depth,
    )


def sparse_softmax_cost(
    a: CSRMatrix,
    device: DeviceSpec | None = None,
    *,
    h: int = 1,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated sparse-softmax cost only (``h`` value columns)."""
    stack, depth = (_NO_KWARGS, None) if h == 1 else _cost_stack(h)
    return _dispatch(
        _SOFTMAX_COST, (a,), context, device, backend, validate,
        stack=stack, depth=depth,
    )


def csc_spmm(
    b: np.ndarray,
    a: CSCMatrix,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> KernelResult:
    """``C = B @ A`` with CSC ``A`` and column-major ``B``/``C``."""
    return _dispatch(
        _CSC_SPMM, (b, a, config), context, device, backend, validate
    )


def csc_spmm_cost(
    a: CSCMatrix,
    n: int,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated CSC-SpMM cost only (``n`` = rows of the dense left operand)."""
    return _dispatch(
        _CSC_SPMM_COST, (a, n, config), context, device, backend, validate
    )


def matmul(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="cublas",
    validate: bool = False,
) -> KernelResult:
    """Dense ``A @ B`` (the models' dense projections and baselines)."""
    return _dispatch(
        _MATMUL, (np.asarray(a), np.asarray(b)), context, device, backend,
        validate,
    )


def matmul_cost(
    m: int,
    n: int,
    k: int,
    device: DeviceSpec | None = None,
    element_bytes: int = 4,
    *,
    context: ExecutionContext | None = None,
    backend="cublas",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated dense-GEMM cost only."""
    return _dispatch(
        _MATMUL_COST, (m, n, k, element_bytes), context, device, backend,
        validate,
    )


# Former names of the stacked entry points, kept as aliases for callers
# that resolve them by name: the depth is the operand's rank (or ``h=``).
# Each alias is its own object, so a tool that wraps functions by identity
# wraps the alias and the op apart.
spmm_batched = partial(spmm)
spmm_batched_cost = partial(spmm_cost)
sddmm_batched = partial(sddmm)
sddmm_batched_cost = partial(sddmm_cost)
sparse_softmax_batched = partial(sparse_softmax)
sparse_softmax_batched_cost = partial(sparse_softmax_cost)
