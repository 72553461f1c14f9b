"""Golden dispatch net: every registered (op, backend), run and cost.

Each case dispatches one public ``ops`` entry point twice (cold, then
warm) on a fresh context and pins, as literals:

- the simulated ``runtime_s`` of both calls, as ``float.hex()``;
- the post-call ``telemetry_snapshot()``, as a canonical string of its
  nonzero counters;
- the ``memory_snapshot()`` peak (allocated and reserved bytes).

Run cases also check that the dispatched output is bit-identical to a
direct ``get_impl(op, backend).run(...)`` on a separate context, so the
dispatch layer adds accounting and never touches the numbers.

The literals were captured before the operator table replaced the
hand-written entry points; regenerate them only for an intended change
to simulated costs, with::

    PYTHONPATH=src python -m tests.test_dispatch_golden
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ops
from repro.gpu import V100
from repro.ops import ExecutionContext
from repro.sparse import CSRMatrix
from repro.sparse.csc import csr_to_csc

#: Fixed capacity, so a ``REPRO_HBM_CAP`` override cannot move the peaks.
CAPACITY = int(V100.dram_capacity)

#: Depth of the stacked cases, run on every backend that takes stacks.
#: Their ids keep the ``<op>_batched`` label of the entry points the
#: depth replaced, so each case keeps the id it was captured under.
H = 3
K = 16
N = 32


def _matrix(seed: int, rows: int, cols: int, density: float, dtype):
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density) * rng.standard_normal(
        (rows, cols)
    )
    dense[rows // 3] = 0.0  # one empty row
    return CSRMatrix.from_dense(dense, dtype=dtype)


MATRICES = {
    "m0": (11, 64, 48, 0.3),
    "m1": (23, 96, 128, 0.1),
    "m2": (37, 256, 64, 0.08),  # ASpT needs 256-divisible row counts
}


def _dense(seed: int, shape, dtype):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _problem(op: str, h: int, name: str, dtype):
    """Positional operands of the op's run and cost entry points at depth
    ``h``, and the stack keywords each one adds."""
    seed, rows, cols, density = MATRICES[name]
    a = _matrix(seed, rows, cols, density, dtype)
    stack = (h,) if h > 1 else ()
    run_kwargs = {}
    cost_kwargs = {"h": h} if h > 1 else {}
    if op == "spmm":
        run = (a, _dense(seed + 1, (*stack, cols, N), dtype))
        return run, run_kwargs, (a, N), cost_kwargs
    if op == "sddmm":
        lhs = _dense(seed + 1, (*stack, rows, K), dtype)
        rhs = _dense(seed + 2, (*stack, cols, K), dtype)
        return (lhs, rhs, a), run_kwargs, (a, K), cost_kwargs
    if op == "sparse_softmax":
        if h > 1:
            run_kwargs["values"] = _dense(seed + 1, (a.nnz, h), dtype)
        return (a,), run_kwargs, (a,), cost_kwargs
    if op == "csc_spmm":
        csc = csr_to_csc(a)
        return (_dense(seed + 1, (N, rows), dtype), csc), {}, (csc, N), {}
    if op == "matmul":
        lhs = _dense(seed + 1, (rows, cols), dtype)
        rhs = _dense(seed + 2, (cols, N), dtype)
        return (lhs, rhs), {}, (rows, N, cols), {}
    raise AssertionError(op)


def _direct_run(ctx, impl, op: str, args, kwargs):
    """The registry implementation called without the dispatch layer."""
    if op in ("spmm", "sddmm"):
        return impl.run(ctx, *args, None, "heuristic", **kwargs)
    if op == "sparse_softmax":
        return impl.run(ctx, *args, 1.0, **kwargs)
    if op == "csc_spmm":
        return impl.run(ctx, *args, None)
    return impl.run(ctx, *args)


def _telemetry(ctx) -> str:
    rows = []
    for key, row in ctx.telemetry_snapshot().items():
        counters = ",".join(
            f"{name}={value.hex() if isinstance(value, float) else value}"
            for name, value in row.items()
            if value
        )
        rows.append(f"{key}:{counters}")
    return ";".join(rows)


def _output_bytes(output) -> tuple:
    if isinstance(output, np.ndarray):
        return (output.dtype.str, output.shape, output.tobytes())
    return (
        output.values.dtype.str,
        output.shape,
        output.values.tobytes(),
        output.row_offsets.tobytes(),
        output.column_indices.tobytes(),
    )


def _labels() -> dict[str, tuple[str, int, list[str]]]:
    """Case label -> (op, depth, backends): every registered op at depth 1
    on all its backends, and at depth :data:`H` on those taking stacks."""
    labels = {}
    for op in {key.split("/")[0] for key in ops.available()}:
        labels[op] = (op, 1, sorted(ops.available(op)))
        if ops.stack_backends(op):
            labels[f"{op}_batched"] = (op, H, sorted(ops.stack_backends(op)))
    return labels


LABELS = _labels()


def _cases():
    for label in sorted(LABELS):
        for backend in LABELS[label][2]:
            for name in MATRICES:
                for dtype in (np.float32, np.float16):
                    for mode in ("run", "cost"):
                        yield label, backend, name, np.dtype(dtype).name, mode


CASES = list(_cases())


def _observe(label, backend, name, dtype, mode):
    """Dispatch one case cold then warm; ``None`` if the backend rejects it."""
    op, h, _ = LABELS[label]
    run_args, run_kwargs, cost_args, cost_kwargs = _problem(
        op, h, name, np.dtype(dtype)
    )
    ctx = ExecutionContext(V100, memory=CAPACITY)
    fn = getattr(ops, op if mode == "run" else f"{op}_cost")
    args = run_args if mode == "run" else cost_args
    kwargs = {"context": ctx, "backend": backend}
    kwargs.update(run_kwargs if mode == "run" else cost_kwargs)
    if op == "matmul" and mode == "cost":
        kwargs["element_bytes"] = np.dtype(dtype).itemsize
    try:
        first = fn(*args, **kwargs)
    except (ValueError, TypeError, NotImplementedError):
        return None
    second = fn(*args, **kwargs)
    snap = ctx.memory_snapshot()
    pinned = (
        first.runtime_s.hex(),
        second.runtime_s.hex(),
        _telemetry(ctx),
        snap["peak_allocated_bytes"],
        snap["peak_reserved_bytes"],
    )
    return pinned, first, second, run_args, run_kwargs


@pytest.mark.parametrize(
    "label,backend,name,dtype,mode", CASES, ids=["-".join(c) for c in CASES]
)
def test_dispatch_golden(label, backend, name, dtype, mode):
    case = "-".join((label, backend, name, dtype, mode))
    observed = _observe(label, backend, name, dtype, mode)
    if observed is None:
        assert case not in GOLDEN, f"{case} stopped accepting its operands"
        pytest.skip("backend does not accept these operands")
    pinned, first, second, run_args, run_kwargs = observed
    assert pinned == GOLDEN[case]
    if mode == "run":
        op = LABELS[label][0]
        direct = _direct_run(
            ExecutionContext(V100, memory=CAPACITY),
            ops.get_impl(op, backend),
            op,
            run_args,
            run_kwargs,
        )
        expected = _output_bytes(direct.output)
        assert _output_bytes(first.output) == expected
        assert _output_bytes(second.output) == expected
        assert direct.execution.runtime_s == first.runtime_s


GOLDEN: dict[str, tuple] = {
    "csc_spmm-sputnik-m0-float32-run": (
        "0x1.1c226a40fe6c1p-18", "0x1.1c226a40fe6c1p-18",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.1c226a40fe6c1p-17",
        28160, 1048576,
    ),
    "csc_spmm-sputnik-m0-float32-cost": (
        "0x1.1c226a40fe6c1p-18", "0x1.1c226a40fe6c1p-18",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.1c226a40fe6c1p-17",
        28160, 1048576,
    ),
    "csc_spmm-sputnik-m0-float16-run": (
        "0x1.a25a2746add88p-19", "0x1.a25a2746add88p-19",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.a25a2746add88p-18",
        17408, 1048576,
    ),
    "csc_spmm-sputnik-m0-float16-cost": (
        "0x1.a25a2746add88p-19", "0x1.a25a2746add88p-19",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.a25a2746add88p-18",
        17408, 1048576,
    ),
    "csc_spmm-sputnik-m1-float32-run": (
        "0x1.f2dab541bf494p-19", "0x1.f2dab541bf494p-19",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.f2dab541bf494p-18",
        48640, 1048576,
    ),
    "csc_spmm-sputnik-m1-float32-cost": (
        "0x1.f2dab541bf494p-19", "0x1.f2dab541bf494p-19",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.f2dab541bf494p-18",
        48640, 1048576,
    ),
    "csc_spmm-sputnik-m1-float16-run": (
        "0x1.7fa517a68f110p-19", "0x1.7fa517a68f110p-19",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.7fa517a68f110p-18",
        29696, 1048576,
    ),
    "csc_spmm-sputnik-m1-float16-cost": (
        "0x1.7fa517a68f110p-19", "0x1.7fa517a68f110p-19",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.7fa517a68f110p-18",
        29696, 1048576,
    ),
    "csc_spmm-sputnik-m2-float32-run": (
        "0x1.92a07e351ae82p-18", "0x1.92a07e351ae82p-18",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.92a07e351ae82p-17",
        58112, 1048576,
    ),
    "csc_spmm-sputnik-m2-float32-cost": (
        "0x1.92a07e351ae82p-18", "0x1.92a07e351ae82p-18",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.92a07e351ae82p-17",
        58112, 1048576,
    ),
    "csc_spmm-sputnik-m2-float16-run": (
        "0x1.0c6c1d9d652a4p-18", "0x1.0c6c1d9d652a4p-18",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.0c6c1d9d652a4p-17",
        32768, 1048576,
    ),
    "csc_spmm-sputnik-m2-float16-cost": (
        "0x1.0c6c1d9d652a4p-18", "0x1.0c6c1d9d652a4p-18",
        "csc_spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulate"
        "d_seconds=0x1.0c6c1d9d652a4p-17",
        32768, 1048576,
    ),
    "matmul-cublas-m0-float32-run": (
        "0x1.4e402189c6826p-18", "0x1.4e402189c6826p-18",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.4e402189c6826p-17",
        28416, 1048576,
    ),
    "matmul-cublas-m0-float32-cost": (
        "0x1.4e402189c6826p-18", "0x1.4e402189c6826p-18",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.4e402189c6826p-17",
        28416, 1048576,
    ),
    "matmul-cublas-m0-float16-run": (
        "0x1.d477de8f75eecp-19", "0x1.d477de8f75eecp-19",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.d477de8f75eecp-18",
        15104, 1048576,
    ),
    "matmul-cublas-m0-float16-cost": (
        "0x1.d477de8f75eecp-19", "0x1.d477de8f75eecp-19",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.d477de8f75eecp-18",
        15104, 1048576,
    ),
    "matmul-cublas-m1-float32-run": (
        "0x1.0671a18edf0aep-18", "0x1.0671a18edf0aep-18",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.0671a18edf0aep-17",
        79616, 1048576,
    ),
    "matmul-cublas-m1-float32-cost": (
        "0x1.0671a18edf0aep-18", "0x1.0671a18edf0aep-18",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.0671a18edf0aep-17",
        79616, 1048576,
    ),
    "matmul-cublas-m1-float16-run": (
        "0x1.8ca95e948e774p-19", "0x1.8ca95e948e774p-19",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.8ca95e948e774p-18",
        40704, 1048576,
    ),
    "matmul-cublas-m1-float16-cost": (
        "0x1.8ca95e948e774p-19", "0x1.8ca95e948e774p-19",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.8ca95e948e774p-18",
        40704, 1048576,
    ),
    "matmul-cublas-m2-float32-run": (
        "0x1.27c85cfa38393p-18", "0x1.27c85cfa38393p-18",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.27c85cfa38393p-17",
        108288, 1048576,
    ),
    "matmul-cublas-m2-float32-cost": (
        "0x1.27c85cfa38393p-18", "0x1.27c85cfa38393p-18",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.27c85cfa38393p-17",
        108288, 1048576,
    ),
    "matmul-cublas-m2-float16-run": (
        "0x1.ae0019ffe7a5ap-19", "0x1.ae0019ffe7a5ap-19",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.ae0019ffe7a5ap-18",
        55040, 1048576,
    ),
    "matmul-cublas-m2-float16-cost": (
        "0x1.ae0019ffe7a5ap-19", "0x1.ae0019ffe7a5ap-19",
        "matmul/cublas:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.ae0019ffe7a5ap-18",
        55040, 1048576,
    ),
    "sddmm-aspt-m0-float32-cost": (
        "0x1.87e59c5dc6528p-19", "0x1.87e59c5dc6528p-19",
        "sddmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.87e59c5dc6528p-18",
        45056, 1048576,
    ),
    "sddmm-aspt-m0-float16-cost": (
        "0x1.87e59c5dc6528p-19", "0x1.87e59c5dc6528p-19",
        "sddmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.87e59c5dc6528p-18",
        24576, 1048576,
    ),
    "sddmm-aspt-m1-float32-cost": (
        "0x1.daec13b6c44a2p-19", "0x1.daec13b6c44a2p-19",
        "sddmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.daec13b6c44a2p-18",
        61952, 1048576,
    ),
    "sddmm-aspt-m1-float16-cost": (
        "0x1.daec13b6c44a2p-19", "0x1.daec13b6c44a2p-19",
        "sddmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.daec13b6c44a2p-18",
        33792, 1048576,
    ),
    "sddmm-aspt-m2-float32-run": (
        "0x1.5f130d8d8edd5p-19", "0x1.5f130d8d8edd5p-19",
        "sddmm/aspt:launches=2,cache_misses=2,simulated_seconds=0x1.5f130"
        "d8d8edd5p-18",
        73472, 1048576,
    ),
    "sddmm-aspt-m2-float32-cost": (
        "0x1.5f130d8d8edd5p-19", "0x1.5f130d8d8edd5p-19",
        "sddmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.5f130d8d8edd5p-18",
        75264, 1048576,
    ),
    "sddmm-aspt-m2-float16-run": (
        "0x1.5f130d8d8edd5p-19", "0x1.5f130d8d8edd5p-19",
        "sddmm/aspt:launches=2,cache_misses=2,simulated_seconds=0x1.5f130"
        "d8d8edd5p-18",
        40960, 1048576,
    ),
    "sddmm-aspt-m2-float16-cost": (
        "0x1.5f130d8d8edd5p-19", "0x1.5f130d8d8edd5p-19",
        "sddmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.5f130d8d8edd5p-18",
        42752, 1048576,
    ),
    "sddmm-cusparse-m0-float32-run": (
        "0x1.6664a49cd492dp-18", "0x1.6664a49cd492dp-18",
        "sddmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.6"
        "664a49cd492dp-17",
        19200, 1048576,
    ),
    "sddmm-cusparse-m0-float32-cost": (
        "0x1.6664a49cd492dp-18", "0x1.6664a49cd492dp-18",
        "sddmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_"
        "seconds=0x1.6664a49cd492dp-17",
        23808, 1048576,
    ),
    "sddmm-cusparse-m0-float16-run": (
        "0x1.6664a49cd492dp-18", "0x1.6664a49cd492dp-18",
        "sddmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.6"
        "664a49cd492dp-17",
        9984, 1048576,
    ),
    "sddmm-cusparse-m0-float16-cost": (
        "0x1.6664a49cd492dp-18", "0x1.6664a49cd492dp-18",
        "sddmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_"
        "seconds=0x1.6664a49cd492dp-17",
        14592, 1048576,
    ),
    "sddmm-cusparse-m1-float32-run": (
        "0x1.baed09970f003p-18", "0x1.baed09970f003p-18",
        "sddmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.b"
        "aed09970f003p-17",
        29440, 1048576,
    ),
    "sddmm-cusparse-m1-float32-cost": (
        "0x1.baed09970f003p-18", "0x1.baed09970f003p-18",
        "sddmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_"
        "seconds=0x1.baed09970f003p-17",
        34304, 1048576,
    ),
    "sddmm-cusparse-m1-float16-run": (
        "0x1.baed09970f003p-18", "0x1.baed09970f003p-18",
        "sddmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.b"
        "aed09970f003p-17",
        15360, 1048576,
    ),
    "sddmm-cusparse-m1-float16-cost": (
        "0x1.baed09970f003p-18", "0x1.baed09970f003p-18",
        "sddmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_"
        "seconds=0x1.baed09970f003p-17",
        20224, 1048576,
    ),
    "sddmm-cusparse-m2-float32-run": (
        "0x1.691dde707c85dp-18", "0x1.691dde707c85dp-18",
        "sddmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.6"
        "91dde707c85dp-17",
        37632, 1048576,
    ),
    "sddmm-cusparse-m2-float32-cost": (
        "0x1.691dde707c85dp-18", "0x1.691dde707c85dp-18",
        "sddmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_"
        "seconds=0x1.691dde707c85dp-17",
        43776, 1048576,
    ),
    "sddmm-cusparse-m2-float16-run": (
        "0x1.691dde707c85dp-18", "0x1.691dde707c85dp-18",
        "sddmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.6"
        "91dde707c85dp-17",
        19968, 1048576,
    ),
    "sddmm-cusparse-m2-float16-cost": (
        "0x1.691dde707c85dp-18", "0x1.691dde707c85dp-18",
        "sddmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_"
        "seconds=0x1.691dde707c85dp-17",
        26112, 1048576,
    ),
    "sddmm-sputnik-m0-float32-run": (
        "0x1.2795ed486e7d6p-19", "0x1.2795ed486e7d6p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.2795ed486e7d6p-18",
        26112, 1048576,
    ),
    "sddmm-sputnik-m0-float32-cost": (
        "0x1.2795ed486e7d6p-19", "0x1.2795ed486e7d6p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.2795ed486e7d6p-18",
        26112, 1048576,
    ),
    "sddmm-sputnik-m0-float16-cost": (
        "0x1.2683570e6e71ap-19", "0x1.2683570e6e71ap-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.2683570e6e71ap-18",
        16896, 1048576,
    ),
    "sddmm-sputnik-m1-float32-run": (
        "0x1.2092031ee07cdp-19", "0x1.2092031ee07cdp-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.2092031ee07cdp-18",
        38144, 1048576,
    ),
    "sddmm-sputnik-m1-float32-cost": (
        "0x1.2092031ee07cdp-19", "0x1.2092031ee07cdp-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.2092031ee07cdp-18",
        38144, 1048576,
    ),
    "sddmm-sputnik-m1-float16-cost": (
        "0x1.1dc0e3714071ap-19", "0x1.1dc0e3714071ap-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.1dc0e3714071ap-18",
        24064, 1048576,
    ),
    "sddmm-sputnik-m2-float32-run": (
        "0x1.1b913d11c3a15p-19", "0x1.1b913d11c3a15p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.1b913d11c3a15p-18",
        55040, 1048576,
    ),
    "sddmm-sputnik-m2-float32-cost": (
        "0x1.1b913d11c3a15p-19", "0x1.1b913d11c3a15p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.1b913d11c3a15p-18",
        55040, 1048576,
    ),
    "sddmm-sputnik-m2-float16-cost": (
        "0x1.18b4e15304a2dp-19", "0x1.18b4e15304a2dp-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.18b4e15304a2dp-18",
        37376, 1048576,
    ),
    "sddmm_batched-sputnik-m0-float32-run": (
        "0x1.297b24fa59747p-19", "0x1.297b24fa59747p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.297b24fa59747p-18",
        54784, 1048576,
    ),
    "sddmm_batched-sputnik-m0-float32-cost": (
        "0x1.297b24fa59747p-19", "0x1.297b24fa59747p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.297b24fa59747p-18",
        54784, 1048576,
    ),
    "sddmm_batched-sputnik-m0-float16-cost": (
        "0x1.2871a1379a45ep-19", "0x1.2871a1379a45ep-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.2871a1379a45ep-18",
        34560, 1048576,
    ),
    "sddmm_batched-sputnik-m1-float32-run": (
        "0x1.30e0414028583p-19", "0x1.30e0414028583p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.30e0414028583p-18",
        86784, 1048576,
    ),
    "sddmm_batched-sputnik-m1-float32-cost": (
        "0x1.30e0414028583p-19", "0x1.30e0414028583p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.30e0414028583p-18",
        86784, 1048576,
    ),
    "sddmm_batched-sputnik-m1-float16-cost": (
        "0x1.2c112fecda9d7p-19", "0x1.2c112fecda9d7p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.2c112fecda9d7p-18",
        53504, 1048576,
    ),
    "sddmm_batched-sputnik-m2-float32-run": (
        "0x1.2a486ecf61cc5p-19", "0x1.2a486ecf61cc5p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.2a486ecf61cc5p-18",
        133888, 1048576,
    ),
    "sddmm_batched-sputnik-m2-float32-cost": (
        "0x1.2a486ecf61cc5p-19", "0x1.2a486ecf61cc5p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.2a486ecf61cc5p-18",
        133888, 1048576,
    ),
    "sddmm_batched-sputnik-m2-float16-cost": (
        "0x1.24936705caba9p-19", "0x1.24936705caba9p-19",
        "sddmm/sputnik:launches=2,cache_hits=1,cache_misses=1,sim"
        "ulated_seconds=0x1.24936705caba9p-18",
        90880, 1048576,
    ),
    "sparse_softmax-sputnik-m0-float32-run": (
        "0x1.1ea60a5c5991dp-19", "0x1.1ea60a5c5991dp-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.1ea60a5c5991dp-18",
        15616, 1048576,
    ),
    "sparse_softmax-sputnik-m0-float32-cost": (
        "0x1.1ea60a5c5991dp-19", "0x1.1ea60a5c5991dp-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.1ea60a5c5991dp-18",
        15616, 1048576,
    ),
    "sparse_softmax-sputnik-m0-float16-run": (
        "0x1.158ac233dc355p-19", "0x1.158ac233dc355p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.158ac233dc355p-18",
        9984, 1048576,
    ),
    "sparse_softmax-sputnik-m0-float16-cost": (
        "0x1.158ac233dc355p-19", "0x1.158ac233dc355p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.158ac233dc355p-18",
        9984, 1048576,
    ),
    "sparse_softmax-sputnik-m1-float32-run": (
        "0x1.1d97bf36439d6p-19", "0x1.1d97bf36439d6p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.1d97bf36439d6p-18",
        19200, 1048576,
    ),
    "sparse_softmax-sputnik-m1-float32-cost": (
        "0x1.1d97bf36439d6p-19", "0x1.1d97bf36439d6p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.1d97bf36439d6p-18",
        19200, 1048576,
    ),
    "sparse_softmax-sputnik-m1-float16-run": (
        "0x1.15039ca0d13b1p-19", "0x1.15039ca0d13b1p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.15039ca0d13b1p-18",
        12288, 1048576,
    ),
    "sparse_softmax-sputnik-m1-float16-cost": (
        "0x1.15039ca0d13b1p-19", "0x1.15039ca0d13b1p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.15039ca0d13b1p-18",
        12288, 1048576,
    ),
    "sparse_softmax-sputnik-m2-float32-run": (
        "0x1.13d38815f8881p-19", "0x1.13d38815f8881p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.13d38815f8881p-18",
        22784, 1048576,
    ),
    "sparse_softmax-sputnik-m2-float32-cost": (
        "0x1.13d38815f8881p-19", "0x1.13d38815f8881p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.13d38815f8881p-18",
        22784, 1048576,
    ),
    "sparse_softmax-sputnik-m2-float16-run": (
        "0x1.1026243c9e431p-19", "0x1.1026243c9e431p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.1026243c9e431p-18",
        15360, 1048576,
    ),
    "sparse_softmax-sputnik-m2-float16-cost": (
        "0x1.1026243c9e431p-19", "0x1.1026243c9e431p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,si"
        "mulated_seconds=0x1.1026243c9e431p-18",
        15360, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m0-float32-run": (
        "0x1.1ea60a5c5991dp-19", "0x1.1ea60a5c5991dp-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.1ea60a5c5991dp-18",
        25088, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m0-float32-cost": (
        "0x1.1ea60a5c5991dp-19", "0x1.1ea60a5c5991dp-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.1ea60a5c5991dp-18",
        25088, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m0-float16-run": (
        "0x1.158ac233dc355p-19", "0x1.158ac233dc355p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.158ac233dc355p-18",
        15616, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m0-float16-cost": (
        "0x1.158ac233dc355p-19", "0x1.158ac233dc355p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.158ac233dc355p-18",
        15616, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m1-float32-run": (
        "0x1.1d97bf36439d6p-19", "0x1.1d97bf36439d6p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.1d97bf36439d6p-18",
        31744, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m1-float32-cost": (
        "0x1.1d97bf36439d6p-19", "0x1.1d97bf36439d6p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.1d97bf36439d6p-18",
        31744, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m1-float16-run": (
        "0x1.15039ca0d13b1p-19", "0x1.15039ca0d13b1p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.15039ca0d13b1p-18",
        19968, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m1-float16-cost": (
        "0x1.15039ca0d13b1p-19", "0x1.15039ca0d13b1p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.15039ca0d13b1p-18",
        19968, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m2-float32-run": (
        "0x1.17cba54a90773p-19", "0x1.17cba54a90773p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.17cba54a90773p-18",
        40704, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m2-float32-cost": (
        "0x1.17cba54a90773p-19", "0x1.17cba54a90773p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.17cba54a90773p-18",
        40704, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m2-float16-run": (
        "0x1.140bc2852ef02p-19", "0x1.140bc2852ef02p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.140bc2852ef02p-18",
        28416, 1048576,
    ),
    "sparse_softmax_batched-sputnik-m2-float16-cost": (
        "0x1.140bc2852ef02p-19", "0x1.140bc2852ef02p-19",
        "sparse_softmax/sputnik:launches=2,cache_hits=1,cache_mis"
        "ses=1,simulated_seconds=0x1.140bc2852ef02p-18",
        28416, 1048576,
    ),
    "spmm-aspt-m0-float32-cost": (
        "0x1.20ef396fe4b0ap-18", "0x1.20ef396fe4b0ap-18",
        "spmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_secon"
        "ds=0x1.20ef396fe4b0ap-17",
        48384, 1048576,
    ),
    "spmm-aspt-m0-float16-cost": (
        "0x1.20ef396fe4b0ap-18", "0x1.20ef396fe4b0ap-18",
        "spmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_secon"
        "ds=0x1.20ef396fe4b0ap-17",
        26112, 1048576,
    ),
    "spmm-aspt-m1-float32-cost": (
        "0x1.4ed94bb1b12b1p-18", "0x1.4ed94bb1b12b1p-18",
        "spmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_secon"
        "ds=0x1.4ed94bb1b12b1p-17",
        71424, 1048576,
    ),
    "spmm-aspt-m1-float16-cost": (
        "0x1.4ed94bb1b12b1p-18", "0x1.4ed94bb1b12b1p-18",
        "spmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_secon"
        "ds=0x1.4ed94bb1b12b1p-17",
        38400, 1048576,
    ),
    "spmm-aspt-m2-float32-run": (
        "0x1.0d308c13917dep-18", "0x1.0d308c13917dep-18",
        "spmm/aspt:launches=2,cache_misses=2,simulated_seconds=0x1.0d308c"
        "13917dep-17",
        88832, 1048576,
    ),
    "spmm-aspt-m2-float32-cost": (
        "0x1.0d308c13917dep-18", "0x1.0d308c13917dep-18",
        "spmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_secon"
        "ds=0x1.0d308c13917dep-17",
        90624, 1048576,
    ),
    "spmm-aspt-m2-float16-run": (
        "0x1.0d308c13917dep-18", "0x1.0d308c13917dep-18",
        "spmm/aspt:launches=2,cache_misses=2,simulated_seconds=0x1.0d308c"
        "13917dep-17",
        48640, 1048576,
    ),
    "spmm-aspt-m2-float16-cost": (
        "0x1.0d308c13917dep-18", "0x1.0d308c13917dep-18",
        "spmm/aspt:launches=2,cache_hits=1,cache_misses=1,simulated_secon"
        "ds=0x1.0d308c13917dep-17",
        50432, 1048576,
    ),
    "spmm-cusparse-m0-float32-run": (
        "0x1.6cfbd180194bep-19", "0x1.6cfbd180194bep-19",
        "spmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.6c"
        "fbd180194bep-18",
        22528, 1048576,
    ),
    "spmm-cusparse-m0-float32-cost": (
        "0x1.6cfbd180194bep-19", "0x1.6cfbd180194bep-19",
        "spmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.6cfbd180194bep-18",
        24320, 1048576,
    ),
    "spmm-cusparse-m0-float16-run": (
        "0x1.4f2632cb279fbp-19", "0x1.4f2632cb279fbp-19",
        "spmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.4f"
        "2632cb279fbp-18",
        11520, 1048576,
    ),
    "spmm-cusparse-m0-float16-cost": (
        "0x1.6cfbd180194bep-19", "0x1.6cfbd180194bep-19",
        "spmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.6cfbd180194bep-18",
        13312, 1048576,
    ),
    "spmm-cusparse-m1-float32-run": (
        "0x1.9ab10aaaa11e4p-19", "0x1.9ab10aaaa11e4p-19",
        "spmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.9a"
        "b10aaaa11e4p-18",
        38912, 1048576,
    ),
    "spmm-cusparse-m1-float32-cost": (
        "0x1.9ab10aaaa11e4p-19", "0x1.9ab10aaaa11e4p-19",
        "spmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.9ab10aaaa11e4p-18",
        40960, 1048576,
    ),
    "spmm-cusparse-m1-float16-run": (
        "0x1.59855a5f3a152p-19", "0x1.59855a5f3a152p-19",
        "spmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.59"
        "855a5f3a152p-18",
        19968, 1048576,
    ),
    "spmm-cusparse-m1-float16-cost": (
        "0x1.9ab10aaaa11e4p-19", "0x1.9ab10aaaa11e4p-19",
        "spmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.9ab10aaaa11e4p-18",
        22016, 1048576,
    ),
    "spmm-cusparse-m2-float32-run": (
        "0x1.41c97de14f635p-19", "0x1.41c97de14f635p-19",
        "spmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.41"
        "c97de14f635p-18",
        52992, 1048576,
    ),
    "spmm-cusparse-m2-float32-cost": (
        "0x1.41c97de14f635p-19", "0x1.41c97de14f635p-19",
        "spmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.41c97de14f635p-18",
        55296, 1048576,
    ),
    "spmm-cusparse-m2-float16-run": (
        "0x1.2a54e4f4cbda1p-19", "0x1.2a54e4f4cbda1p-19",
        "spmm/cusparse:launches=2,cache_misses=2,simulated_seconds=0x1.2a"
        "54e4f4cbda1p-18",
        27648, 1048576,
    ),
    "spmm-cusparse-m2-float16-cost": (
        "0x1.41c97de14f635p-19", "0x1.41c97de14f635p-19",
        "spmm/cusparse:launches=2,cache_hits=1,cache_misses=1,simulated_s"
        "econds=0x1.41c97de14f635p-18",
        29952, 1048576,
    ),
    "spmm-dense-m0-float32-run": (
        "0x1.4e402189c6826p-18", "0x1.4e402189c6826p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.4e402189c6826p-17",
        24320, 1048576,
    ),
    "spmm-dense-m0-float32-cost": (
        "0x1.4e402189c6826p-18", "0x1.4e402189c6826p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.4e402189c6826p-17",
        24320, 1048576,
    ),
    "spmm-dense-m0-float16-run": (
        "0x1.d477de8f75eecp-19", "0x1.d477de8f75eecp-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.d477de8f75eecp-18",
        13312, 1048576,
    ),
    "spmm-dense-m0-float16-cost": (
        "0x1.d477de8f75eecp-19", "0x1.d477de8f75eecp-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.d477de8f75eecp-18",
        13312, 1048576,
    ),
    "spmm-dense-m1-float32-run": (
        "0x1.0671a18edf0aep-18", "0x1.0671a18edf0aep-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.0671a18edf0aep-17",
        40704, 1048576,
    ),
    "spmm-dense-m1-float32-cost": (
        "0x1.0671a18edf0aep-18", "0x1.0671a18edf0aep-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.0671a18edf0aep-17",
        40704, 1048576,
    ),
    "spmm-dense-m1-float16-run": (
        "0x1.8ca95e948e774p-19", "0x1.8ca95e948e774p-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.8ca95e948e774p-18",
        21760, 1048576,
    ),
    "spmm-dense-m1-float16-cost": (
        "0x1.8ca95e948e774p-19", "0x1.8ca95e948e774p-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.8ca95e948e774p-18",
        21760, 1048576,
    ),
    "spmm-dense-m2-float32-run": (
        "0x1.27c85cfa38393p-18", "0x1.27c85cfa38393p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.27c85cfa38393p-17",
        54784, 1048576,
    ),
    "spmm-dense-m2-float32-cost": (
        "0x1.27c85cfa38393p-18", "0x1.27c85cfa38393p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.27c85cfa38393p-17",
        54784, 1048576,
    ),
    "spmm-dense-m2-float16-run": (
        "0x1.ae0019ffe7a5ap-19", "0x1.ae0019ffe7a5ap-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.ae0019ffe7a5ap-18",
        29440, 1048576,
    ),
    "spmm-dense-m2-float16-cost": (
        "0x1.ae0019ffe7a5ap-19", "0x1.ae0019ffe7a5ap-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.ae0019ffe7a5ap-18",
        29440, 1048576,
    ),
    "spmm-merge-m0-float32-run": (
        "0x1.521fcd82ef810p-19", "0x1.521fcd82ef810p-19",
        "spmm/merge:launches=2,cache_misses=2,simulated_seconds=0x1.521fc"
        "d82ef810p-18",
        22528, 1048576,
    ),
    "spmm-merge-m0-float32-cost": (
        "0x1.521fcd82ef810p-19", "0x1.521fcd82ef810p-19",
        "spmm/merge:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.521fcd82ef810p-18",
        24320, 1048576,
    ),
    "spmm-merge-m0-float16-run": (
        "0x1.521fcd82ef810p-19", "0x1.521fcd82ef810p-19",
        "spmm/merge:launches=2,cache_misses=2,simulated_seconds=0x1.521fc"
        "d82ef810p-18",
        11520, 1048576,
    ),
    "spmm-merge-m0-float16-cost": (
        "0x1.521fcd82ef810p-19", "0x1.521fcd82ef810p-19",
        "spmm/merge:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.521fcd82ef810p-18",
        13312, 1048576,
    ),
    "spmm-merge-m1-float32-run": (
        "0x1.626608413372fp-19", "0x1.626608413372fp-19",
        "spmm/merge:launches=2,cache_misses=2,simulated_seconds=0x1.62660"
        "8413372fp-18",
        38912, 1048576,
    ),
    "spmm-merge-m1-float32-cost": (
        "0x1.626608413372fp-19", "0x1.626608413372fp-19",
        "spmm/merge:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.626608413372fp-18",
        40704, 1048576,
    ),
    "spmm-merge-m1-float16-run": (
        "0x1.626608413372fp-19", "0x1.626608413372fp-19",
        "spmm/merge:launches=2,cache_misses=2,simulated_seconds=0x1.62660"
        "8413372fp-18",
        19968, 1048576,
    ),
    "spmm-merge-m1-float16-cost": (
        "0x1.626608413372fp-19", "0x1.626608413372fp-19",
        "spmm/merge:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.626608413372fp-18",
        21760, 1048576,
    ),
    "spmm-merge-m2-float32-run": (
        "0x1.35e34a34d73a3p-19", "0x1.35e34a34d73a3p-19",
        "spmm/merge:launches=2,cache_misses=2,simulated_seconds=0x1.35e34"
        "a34d73a3p-18",
        52992, 1048576,
    ),
    "spmm-merge-m2-float32-cost": (
        "0x1.35e34a34d73a3p-19", "0x1.35e34a34d73a3p-19",
        "spmm/merge:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.35e34a34d73a3p-18",
        55040, 1048576,
    ),
    "spmm-merge-m2-float16-run": (
        "0x1.35e34a34d73a3p-19", "0x1.35e34a34d73a3p-19",
        "spmm/merge:launches=2,cache_misses=2,simulated_seconds=0x1.35e34"
        "a34d73a3p-18",
        27648, 1048576,
    ),
    "spmm-merge-m2-float16-cost": (
        "0x1.35e34a34d73a3p-19", "0x1.35e34a34d73a3p-19",
        "spmm/merge:launches=2,cache_hits=1,cache_misses=1,simulated_seco"
        "nds=0x1.35e34a34d73a3p-18",
        29696, 1048576,
    ),
    "spmm-sputnik-m0-float32-run": (
        "0x1.f700dbd6d246ap-19", "0x1.f700dbd6d246ap-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.f700dbd6d246ap-18",
        29184, 1048576,
    ),
    "spmm-sputnik-m0-float32-cost": (
        "0x1.f700dbd6d246ap-19", "0x1.f700dbd6d246ap-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.f700dbd6d246ap-18",
        29184, 1048576,
    ),
    "spmm-sputnik-m0-float16-run": (
        "0x1.81b82af1188fcp-19", "0x1.81b82af1188fcp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.81b82af1188fcp-18",
        18176, 1048576,
    ),
    "spmm-sputnik-m0-float16-cost": (
        "0x1.81b82af1188fcp-19", "0x1.81b82af1188fcp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.81b82af1188fcp-18",
        18176, 1048576,
    ),
    "spmm-sputnik-m1-float32-run": (
        "0x1.142210d71cfcep-18", "0x1.142210d71cfcep-18",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.142210d71cfcep-17",
        46848, 1048576,
    ),
    "spmm-sputnik-m1-float32-cost": (
        "0x1.142210d71cfcep-18", "0x1.142210d71cfcep-18",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.142210d71cfcep-17",
        46848, 1048576,
    ),
    "spmm-sputnik-m1-float16-run": (
        "0x1.9a59cddccc694p-19", "0x1.9a59cddccc694p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.9a59cddccc694p-18",
        27904, 1048576,
    ),
    "spmm-sputnik-m1-float16-cost": (
        "0x1.9a59cddccc694p-19", "0x1.9a59cddccc694p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.9a59cddccc694p-18",
        27904, 1048576,
    ),
    "spmm-sputnik-m2-float32-run": (
        "0x1.c20e9d9dae829p-19", "0x1.c20e9d9dae829p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.c20e9d9dae829p-18",
        67840, 1048576,
    ),
    "spmm-sputnik-m2-float32-cost": (
        "0x1.c20e9d9dae829p-19", "0x1.c20e9d9dae829p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.c20e9d9dae829p-18",
        67840, 1048576,
    ),
    "spmm-sputnik-m2-float16-run": (
        "0x1.673f0bd486adbp-19", "0x1.673f0bd486adbp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.673f0bd486adbp-18",
        42496, 1048576,
    ),
    "spmm-sputnik-m2-float16-cost": (
        "0x1.673f0bd486adbp-19", "0x1.673f0bd486adbp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simulated_se"
        "conds=0x1.673f0bd486adbp-18",
        42496, 1048576,
    ),
    "spmm_batched-dense-m0-float32-run": (
        "0x1.2f79eab087e17p-18", "0x1.2f79eab087e17p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.2f79eab087e17p-17",
        52992, 1048576,
    ),
    "spmm_batched-dense-m0-float32-cost": (
        "0x1.2f79eab087e17p-18", "0x1.2f79eab087e17p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.2f79eab087e17p-17",
        52992, 1048576,
    ),
    "spmm_batched-dense-m0-float16-run": (
        "0x1.b5b1a7b6374dep-19", "0x1.b5b1a7b6374dep-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.b5b1a7b6374dep-18",
        27648, 1048576,
    ),
    "spmm_batched-dense-m0-float16-cost": (
        "0x1.b5b1a7b6374dep-19", "0x1.b5b1a7b6374dep-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.b5b1a7b6374dep-18",
        27648, 1048576,
    ),
    "spmm_batched-dense-m1-float32-run": (
        "0x1.f18867b1f8316p-19", "0x1.f18867b1f8316p-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.f18867b1f8316p-18",
        98304, 1048576,
    ),
    "spmm_batched-dense-m1-float32-cost": (
        "0x1.f18867b1f8316p-19", "0x1.f18867b1f8316p-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.f18867b1f8316p-18",
        98304, 1048576,
    ),
    "spmm_batched-dense-m1-float16-run": (
        "0x1.7efbf0deab852p-19", "0x1.7efbf0deab852p-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.7efbf0deab852p-18",
        50688, 1048576,
    ),
    "spmm_batched-dense-m1-float16-cost": (
        "0x1.7efbf0deab852p-19", "0x1.7efbf0deab852p-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.7efbf0deab852p-18",
        50688, 1048576,
    ),
    "spmm_batched-dense-m2-float32-run": (
        "0x1.22a753d6031e6p-18", "0x1.22a753d6031e6p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.22a753d6031e6p-17",
        136960, 1048576,
    ),
    "spmm_batched-dense-m2-float32-cost": (
        "0x1.22a753d6031e6p-18", "0x1.22a753d6031e6p-18",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.22a753d6031e6p-17",
        136960, 1048576,
    ),
    "spmm_batched-dense-m2-float16-run": (
        "0x1.a8df10dbb28adp-19", "0x1.a8df10dbb28adp-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.a8df10dbb28adp-18",
        70656, 1048576,
    ),
    "spmm_batched-dense-m2-float16-cost": (
        "0x1.a8df10dbb28adp-19", "0x1.a8df10dbb28adp-19",
        "spmm/dense:launches=2,cache_hits=1,cache_misses=1,simula"
        "ted_seconds=0x1.a8df10dbb28adp-18",
        70656, 1048576,
    ),
    "spmm_batched-sputnik-m0-float32-run": (
        "0x1.f700dbd6d246ap-19", "0x1.f700dbd6d246ap-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.f700dbd6d246ap-18",
        55296, 1048576,
    ),
    "spmm_batched-sputnik-m0-float32-cost": (
        "0x1.f700dbd6d246ap-19", "0x1.f700dbd6d246ap-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.f700dbd6d246ap-18",
        55296, 1048576,
    ),
    "spmm_batched-sputnik-m0-float16-run": (
        "0x1.81b82af1188fcp-19", "0x1.81b82af1188fcp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.81b82af1188fcp-18",
        29952, 1048576,
    ),
    "spmm_batched-sputnik-m0-float16-cost": (
        "0x1.81b82af1188fcp-19", "0x1.81b82af1188fcp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.81b82af1188fcp-18",
        29952, 1048576,
    ),
    "spmm_batched-sputnik-m1-float32-run": (
        "0x1.142210d71cfcep-18", "0x1.142210d71cfcep-18",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.142210d71cfcep-17",
        100608, 1048576,
    ),
    "spmm_batched-sputnik-m1-float32-cost": (
        "0x1.142210d71cfcep-18", "0x1.142210d71cfcep-18",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.142210d71cfcep-17",
        100608, 1048576,
    ),
    "spmm_batched-sputnik-m1-float16-run": (
        "0x1.9a59cddccc694p-19", "0x1.9a59cddccc694p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.9a59cddccc694p-18",
        52992, 1048576,
    ),
    "spmm_batched-sputnik-m1-float16-cost": (
        "0x1.9a59cddccc694p-19", "0x1.9a59cddccc694p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.9a59cddccc694p-18",
        52992, 1048576,
    ),
    "spmm_batched-sputnik-m2-float32-run": (
        "0x1.c20e9d9dae829p-19", "0x1.c20e9d9dae829p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.c20e9d9dae829p-18",
        140800, 1048576,
    ),
    "spmm_batched-sputnik-m2-float32-cost": (
        "0x1.c20e9d9dae829p-19", "0x1.c20e9d9dae829p-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.c20e9d9dae829p-18",
        140800, 1048576,
    ),
    "spmm_batched-sputnik-m2-float16-run": (
        "0x1.673f0bd486adbp-19", "0x1.673f0bd486adbp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.673f0bd486adbp-18",
        74496, 1048576,
    ),
    "spmm_batched-sputnik-m2-float16-cost": (
        "0x1.673f0bd486adbp-19", "0x1.673f0bd486adbp-19",
        "spmm/sputnik:launches=2,cache_hits=1,cache_misses=1,simu"
        "lated_seconds=0x1.673f0bd486adbp-18",
        74496, 1048576,
    ),
}


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple] = {")
    for case in CASES:
        observed = _observe(*case)
        if observed is not None:
            first, second, telemetry, allocated, reserved = observed[0]
            print(f"    {'-'.join(case)!r}: (")
            print(f"        {first!r}, {second!r},")
            pieces = [
                telemetry[i:i + 64] for i in range(0, len(telemetry), 64)
            ]
            for piece in pieces[:-1]:
                print(f"        {piece!r}")
            print(f"        {pieces[-1]!r},")
            print(f"        {allocated}, {reserved},")
            print("    ),")
    print("}")
