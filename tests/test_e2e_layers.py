"""The traced end-to-end run resolves every layer entry point by name.

``benchmarks/e2e/layers.py`` maps each layer to ``"module:qualname"``
targets and wraps them when ``run.py --trace`` starts; a target that no
longer exists raises ``AttributeError`` there. This resolves every target
without installing anything, so a rename in the package fails here first.
A second test installs the trace in a child process and checks that the
spans of the kernel ops carry the ops' own names.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks/e2e/layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()
TARGETS = [
    (layer, target)
    for layer, targets in layers.LAYERS.items()
    for target in targets
]


@pytest.mark.parametrize(
    "layer,target", TARGETS, ids=[target for _, target in TARGETS]
)
def test_layer_target_resolves(layer, target):
    owner, attr, _ = layers._resolve(target)
    assert callable(getattr(owner, attr)), f"{layer}: {target}"


_TRACED_OPS = """
import importlib.util, json, sys
import numpy as np
spec = importlib.util.spec_from_file_location("e2e_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
trace = layers.LayerTrace("names")
trace.install()
from repro import ops
from repro.gpu import V100
from repro.sparse import CSRMatrix
rng = np.random.default_rng(0)
a = CSRMatrix.from_dense((rng.random((16, 16)) < 0.3).astype(np.float32))
b = rng.standard_normal((2, 16, 8)).astype(np.float32)
ctx = ops.ExecutionContext(V100)
ops.spmm(a, b[0], context=ctx)
ops.spmm(a, b, context=ctx)
ops.sddmm(b, b, a, context=ctx)
ops.sparse_softmax(a, context=ctx)
ops.spmm_cost(a, 8, V100, h=2, context=ctx)
print(json.dumps(sorted({s.name for s in trace.tracer.spans})))
"""


def test_installed_spans_keep_the_op_names():
    """The former ``*_batched`` names are aliases of the ops. Once the
    trace is installed, a call through an op's own name must still open
    a span under that name, not under the alias's."""
    src = str(LAYERS_PY.parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_OPS, str(LAYERS_PY)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout))
    assert {
        "spmm", "spmm_cost", "sddmm", "sparse_softmax",
        "ExecutionContext.spmm_plan", "ExecutionContext.sddmm_plan",
        "ExecutionContext.sparse_softmax_plan",
        "plan_spmm", "plan_sddmm", "plan_sparse_softmax",
        "execute_spmm", "execute_sddmm", "execute_sparse_softmax",
    } <= names
    assert not [n for n in names if "_batched" in n]
