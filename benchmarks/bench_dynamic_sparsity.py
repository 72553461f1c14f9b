"""Dynamic-sparsity check: repaired plans are cold plans, with lineage.

A RigL-style training loop (:mod:`repro.nn.dynamic`) mutates a weight
topology — drop lowest-|w|, grow highest-|grad| over a row subset — and
registers each mutation's :class:`TopologyDelta` with the execution
context. The next plan lookups then *repair* the parent's plans: validate
the ancestor against the child, rebuild from the child's memoized
structure analysis (one O(nnz) touched-column count and one swizzle
argsort), and record the lineage. This script checks that path end to end
and writes ``BENCH_dynamic.json`` at the repo root:

- **equivalence** — repaired plans equal cold-built plans field for field
  (swizzle order, extents, launch, simulated execution) and produce the
  same kernel outputs and costs, for SpMM fp32/fp16, SDDMM, and sharded
  execution at K in {1, 4} (shard plan and per-device cost);
- **telemetry and lineage** — the repairs are counted
  (``plan_repairs``/``plan_repair_rows``) and the context's flight ring
  records the parent -> child ``plan_repair`` event.

Every check is evaluated; all failures are printed before the script
exits non-zero. There is no speed gate: a repair costs what a cold plan
of the child costs, because it is one.

Run as a script (pytest collects nothing here)::

    PYTHONPATH=src python benchmarks/bench_dynamic_sparsity.py          # full
    PYTHONPATH=src python benchmarks/bench_dynamic_sparsity.py --smoke  # CI
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from repro import ops
from repro.dist import (
    DeviceGroup,
    plan_shards,
    repair_shard_plan,
    sharded_spmm_cost,
)
from repro.gpu import V100
from repro.nn.dynamic import drop_grow_update, select_rows
from repro.obs.flight import FlightRecorder
from repro.sparse.csr import CSRMatrix

REPO_ROOT = Path(__file__).resolve().parents[1]
OUT_JSON = REPO_ROOT / "BENCH_dynamic.json"

#: Drop/grow fraction within each selected row (RigL's initial fraction).
FRACTION = 0.3


def random_csr(rows: int, cols: int, density: float, seed: int) -> CSRMatrix:
    """A uniform-random CSR with values — Bernoulli(density) per entry."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density).astype(np.float32)
    dense *= rng.standard_normal((rows, cols)).astype(np.float32)
    return CSRMatrix.from_dense(dense)


def plans_equal(a, b) -> bool:
    """Bit-exact field-by-field equality over plan graphs."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and bool(np.array_equal(a, b))
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        if type(a) is not type(b):
            return False
        return all(
            plans_equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(plans_equal(x, y) for x, y in zip(a, b))
        )
    return bool(a == b)


def one_mutation(parent: CSRMatrix, rate: float, seed: int):
    """A single drop/grow child + delta off ``parent``."""
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal(tuple(parent.shape)).astype(np.float32)
    rows = select_rows(parent, rate, rng)
    return drop_grow_update(parent, grad, rows, FRACTION)


def equivalence(size: int, n: int) -> dict:
    """Repaired plans must be bit-identical to cold-built plans.

    Covers SpMM fp32/fp16 and SDDMM plan + output equality, and sharded
    execution at K in {1, 4} (shard plan + per-device cost equality).
    """
    rng = np.random.default_rng(23)
    b = rng.standard_normal((size, n)).astype(np.float32)
    checks = {}

    for dtype in (np.float32, np.float16):
        parent = random_csr(size, size, 0.1, seed=31).astype(dtype)
        child, delta = one_mutation(parent, 0.05, seed=37)
        ctx_r = ops.ExecutionContext(V100)
        ctx_r.spmm_plan(parent, n)
        ctx_r.sddmm_plan(parent, n)
        ctx_r.register_topology_delta(delta)
        ctx_c = ops.ExecutionContext(V100)
        name = np.dtype(dtype).name
        checks[f"spmm_plan_{name}"] = plans_equal(
            ctx_r.spmm_plan(child, n), ctx_c.spmm_plan(child, n)
        )
        checks[f"sddmm_plan_{name}"] = plans_equal(
            ctx_r.sddmm_plan(child, n), ctx_c.sddmm_plan(child, n)
        )
        checks[f"repairs_{name}"] = ctx_r.telemetry.plan_repairs == 2
        out_r = ops.spmm(child, b.astype(dtype), context=ctx_r).output
        out_c = ops.spmm(child, b.astype(dtype), context=ctx_c).output
        checks[f"spmm_output_{name}"] = bool(np.array_equal(out_r, out_c))
        cost_r = ops.sddmm_cost(child, n, context=ctx_r).runtime_s
        cost_c = ops.sddmm_cost(child, n, context=ctx_c).runtime_s
        checks[f"sddmm_cost_{name}"] = cost_r == cost_c

    parent = random_csr(size, size, 0.1, seed=41)
    child, delta = one_mutation(parent, 0.05, seed=43)
    for k in (1, 4):
        group_r = DeviceGroup(k)
        cost_parent = sharded_spmm_cost(parent, n, group_r).runtime_s
        checks[f"sharded_parent_cost_k{k}"] = cost_parent > 0
        group_r.register_topology_delta(delta)
        cost_r = sharded_spmm_cost(child, n, group_r).runtime_s
        group_c = DeviceGroup(k)
        cost_c = sharded_spmm_cost(child, n, group_c).runtime_s
        checks[f"sharded_cost_k{k}"] = cost_r == cost_c
        if k > 1:
            repaired = repair_shard_plan(
                plan_shards(parent, k), child, delta
            )
            checks[f"shard_plan_k{k}"] = plans_equal(
                repaired, plan_shards(child, k)
            )
            checks[f"shard_repairs_k{k}"] = (
                group_r.lead.telemetry.plan_repairs > 0
            )
    return checks


def telemetry_and_lineage(size: int, n: int) -> tuple[dict, dict]:
    """Repair telemetry counters and the flight ring's lineage event.

    Returns ``(record, checks)``: the raw counters and lineage fields for
    the report, and the pass/fail of each expectation on them. The
    context gets its own recorder, so ``REPRO_FLIGHT=off`` cannot hide the
    event.
    """
    parent = random_csr(size, size, 0.1, seed=53)
    child, delta = one_mutation(parent, 0.05, seed=59)
    ctx = ops.ExecutionContext(V100, flight=FlightRecorder())
    ctx.spmm_plan(parent, n)
    ctx.register_topology_delta(delta)
    ctx.spmm_plan(child, n)
    lineage = next(
        (
            dict(attrs)
            for kind, _name, _sim, attrs in ctx.flight.signature()
            if kind == "plan_repair"
        ),
        {},
    )
    tele = ctx.telemetry
    record = {
        "edited_rows": int(delta.rows.size),
        "plan_repairs": tele.plan_repairs,
        "plan_repair_rows": tele.plan_repair_rows,
        "lineage": lineage,
    }
    checks = {
        "plan_repairs": tele.plan_repairs == 1,
        "plan_repair_rows": tele.plan_repair_rows == delta.rows.size > 0,
        "lineage_present": bool(lineage),
        "lineage_parent": lineage.get("parent") == delta.parent,
        "lineage_child": lineage.get("child") == delta.child,
        "lineage_rows": lineage.get("rows") == delta.rows.size,
    }
    return record, checks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller matrices (CI)")
    parser.add_argument("--out", type=Path, default=OUT_JSON,
                        help=f"report path (default {OUT_JSON})")
    args = parser.parse_args()

    size, n = (512, 32) if args.smoke else (1024, 64)
    eq = equivalence(size, n)
    tele, tele_checks = telemetry_and_lineage(size, n)
    checks = {
        **{f"equivalence/{k}": v for k, v in eq.items()},
        **{f"telemetry/{k}": v for k, v in tele_checks.items()},
    }
    for name, ok in checks.items():
        print(f"  {name}: {'ok' if ok else 'FAIL'}")
    print(f"  telemetry: {tele}")

    report = {
        "benchmark": "dynamic sparsity / plan repair correctness",
        "mode": "smoke" if args.smoke else "full",
        "device": V100.name,
        "matrix": {"size": size, "density": 0.1, "batch": n},
        "equivalence": eq,
        "telemetry": {**tele, "checks": tele_checks},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        print(f"FAIL: {len(failed)} of {len(checks)} checks: "
              + ", ".join(failed))
        sys.exit(1)
    print(f"PASS: {len(checks)} equivalence, telemetry and lineage checks")


if __name__ == "__main__":
    main()
