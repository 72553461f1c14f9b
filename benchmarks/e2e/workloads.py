"""The four end-to-end workloads: inputs, set-up, one iteration, checks.

Each workload draws every input from its seed before timing starts and
hands the program only those arrays. The harness runs it closed-loop: it
calls :meth:`Workload.iterate` again only once the previous call has
returned. Checks are never timed. :meth:`Workload.record` runs between
iterations and keeps or compares only what the checks need, and
:meth:`Workload.verify` runs after the loop. An iteration that fails a
check lands in ``bad``; a whole-run check that fails lands in
``problems``.
"""

from __future__ import annotations

import numpy as np

from repro import ops
from repro.datasets import MatrixSpec, banded_random_mask
from repro.gpu import V100
from repro.nn.dynamic import DropGrowSchedule, drop_grow_step
from repro.nn.layers import SparseLinear
from repro.nn.rnn_cells import SparseLstmCell
from repro.nn.transformer_layer import TransformerStack
from repro.sparse.csr import CSRMatrix

#: Tolerance between float32 results whose sums run in another order.
RTOL, ATOL = 1e-3, 1e-4

#: Telemetry counters the per-layer metrics are built from.
COUNTERS = (
    "cache_hits", "cache_misses", "store_hits", "plan_repairs",
    "plan_repair_rows", "plan_invalidations", "plan_evictions", "retries",
    "fallbacks",
)


def sparse_weight(rng, rows: int, cols: int, sparsity: float) -> np.ndarray:
    """Dense array with uniform-random zeros, the Section VII-A2 recipe."""
    dense = rng.standard_normal((rows, cols), dtype=np.float32)
    dense *= np.float32(np.sqrt(1.0 / cols))
    dense *= rng.random((rows, cols)) >= sparsity
    return dense


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Workload:
    name: str
    #: What ``host_work_per_s`` counts, and how many per iteration.
    work_unit: str
    work_per_iter: int
    #: Iterations every run makes at least. The first ``min_iters`` measured
    #: iterations are also the window ``sim_ms_per_iter`` averages over, so
    #: the simulated metrics do not depend on how fast the host was.
    min_iters = 100

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bad: set[int] = set()
        self.problems: list[str] = []

    def setup(self) -> None:
        """Reset the contexts, build the model, run the warm-up."""
        raise NotImplementedError

    def iterate(self, i: int, profile):
        raise NotImplementedError

    def record(self, i: int, out) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        """Whole-run checks after the loop."""

    def contexts(self) -> list:
        """Execution contexts the measured iterations dispatch through."""
        return [ops.default_context(V100)]

    def telemetry_totals(self) -> dict[str, int]:
        return {
            name: sum(getattr(c.telemetry, name) for c in self.contexts())
            for name in COUNTERS
        }

    def hbm_peak_bytes(self) -> int:
        return max(
            c.memory_snapshot()["peak_reserved_bytes"] for c in self.contexts()
        )


class _RepeatedInputs(Workload):
    """A workload that cycles through a few inputs: the first output for
    each input goes to the reference check, and every later output for the
    same input must be bit-identical to it."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: input key -> [first output, iterations that produced it]
        self.runs: dict = {}

    def key(self, i: int):
        raise NotImplementedError

    def record(self, i: int, out) -> None:
        first = self.runs.setdefault(self.key(i), [out, []])
        first[1].append(i)
        if not np.array_equal(first[0], out):
            self.bad.add(i)

    def reject(self, key) -> None:
        self.bad.update(self.runs[key][1])


class RnnInfer(_RepeatedInputs):
    """Sparse LSTM inference in the Fig. 10 shape, one step per iteration.

    The numerics are small, so fingerprinting, plan lookup, telemetry and
    dispatch glue dominate: this is the dispatch-bound workload.
    """

    name = "rnn_infer"
    work_unit = "sequence elements"
    HIDDEN, BATCH, SPARSITY = 1024, 8, 0.9
    SEQUENCES, STEPS, WARMUP_STEPS = 8, 50, 2
    work_per_iter = BATCH
    min_iters = SEQUENCES * STEPS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        gates = 4 * self.HIDDEN
        self.w_input = sparse_weight(rng, gates, self.HIDDEN, self.SPARSITY)
        self.w_hidden = sparse_weight(rng, gates, self.HIDDEN, self.SPARSITY)
        self.xs = rng.standard_normal(
            (self.SEQUENCES, self.STEPS, self.HIDDEN, self.BATCH),
            dtype=np.float32,
        )

    def _zeros(self):
        z = np.zeros((self.HIDDEN, self.BATCH), dtype=np.float32)
        return z, z.copy()

    def setup(self) -> None:
        ops.reset_default_contexts()
        self.cell = SparseLstmCell(
            CSRMatrix.from_dense(self.w_input),
            CSRMatrix.from_dense(self.w_hidden),
        )
        state = self._zeros()
        for t in range(self.WARMUP_STEPS):
            state = self.cell.step(self.xs[0, t], state, V100)

    def key(self, i: int):
        return divmod(i % (self.SEQUENCES * self.STEPS), self.STEPS)

    def iterate(self, i: int, profile):
        seq, t = self.key(i)
        if t == 0:
            self.state = self._zeros()
        self.state = self.cell.step(self.xs[seq, t], self.state, V100, profile)
        return self.state[0]

    def verify(self) -> None:
        """Replay every sequence through a dense numpy LSTM."""
        w_x = self.cell.input_layer.weight.to_dense()
        w_h = self.cell.hidden_layer.weight.to_dense()
        hs = self.HIDDEN
        for seq in sorted({seq for seq, _ in self.runs}):
            h, c = self._zeros()
            for t in range(self.STEPS):
                if (seq, t) not in self.runs:
                    break
                z = w_x @ self.xs[seq, t] + w_h @ h
                i, f, o = (_sigmoid(z[k * hs:(k + 1) * hs]) for k in (0, 1, 3))
                c = f * c + i * np.tanh(z[2 * hs:3 * hs])
                h = o * np.tanh(c)
                if not np.allclose(self.runs[seq, t][0], h, RTOL, ATOL):
                    self.reject((seq, t))


class TransformerFwd(_RepeatedInputs):
    """A scaled Table III sparse Transformer on a Fig. 11 mask, one forward
    per iteration: batched SDDMM, softmax and SpMM plus the dense
    projections dominate, so this is the numerics-bound workload."""

    name = "transformer_fwd"
    work_unit = "tokens"
    LAYERS, D_MODEL, HEADS, D_FFN = 3, 256, 8, 1024
    SEQ, BAND, OFF_DIAGONAL_SPARSITY, INPUTS = 1024, 64, 0.95, 4
    work_per_iter = SEQ
    WEIGHTS = (
        ("w_q", D_MODEL, D_MODEL), ("w_k", D_MODEL, D_MODEL),
        ("w_v", D_MODEL, D_MODEL), ("w_o", D_MODEL, D_MODEL),
        ("w_ffn_in", D_FFN, D_MODEL), ("w_ffn_out", D_MODEL, D_FFN),
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.mask = banded_random_mask(
            self.SEQ, self.BAND, self.OFF_DIAGONAL_SPARSITY, seed=seed
        )
        self.weights = [
            {
                name: rng.standard_normal((rows, cols), dtype=np.float32)
                * np.float32(1.0 / np.sqrt(cols))
                for name, rows, cols in self.WEIGHTS
            }
            for _ in range(self.LAYERS)
        ]
        self.xs = rng.standard_normal(
            (self.INPUTS, self.SEQ, self.D_MODEL), dtype=np.float32
        )

    def setup(self) -> None:
        ops.reset_default_contexts()
        self.model = TransformerStack(
            self.LAYERS, self.D_MODEL, self.HEADS, self.D_FFN, self.mask
        )
        for layer, weights in zip(self.model.layers, self.weights):
            for name, w in weights.items():
                setattr(layer, name, w)
        self.model.forward(self.xs[0], V100)

    def key(self, i: int):
        return i % self.INPUTS

    def iterate(self, i: int, profile):
        return self.model.forward(self.xs[self.key(i)], V100, profile)

    def verify(self) -> None:
        """Compare with a dense masked-attention numpy reference."""
        allowed = self.mask.to_dense() != 0
        for key, (out, _) in self.runs.items():
            if not np.allclose(out, self._reference(self.xs[key], allowed),
                               RTOL, ATOL):
                self.reject(key)

    def _reference(self, x, allowed):
        def norm(v):
            mean = v.mean(axis=1, keepdims=True)
            return (v - mean) / np.sqrt(v.var(axis=1, keepdims=True) + 1e-5)

        seq, heads = self.SEQ, self.HEADS
        dk = self.D_MODEL // heads
        for w in self.weights:
            h = norm(x)
            q, k, v = (
                (h @ w[name].T).reshape(seq, heads, dk).transpose(1, 0, 2)
                for name in ("w_q", "w_k", "w_v")
            )
            logits = np.where(allowed, q @ k.transpose(0, 2, 1) / np.sqrt(dk),
                              -np.inf)
            p = np.exp(logits - logits.max(axis=2, keepdims=True))
            p /= p.sum(axis=2, keepdims=True)
            attended = (p @ v).transpose(1, 0, 2).reshape(seq, self.D_MODEL)
            x = x + attended @ w["w_o"].T
            hidden = np.maximum(norm(x) @ w["w_ffn_in"].T, 0)
            x = x + hidden @ w["w_ffn_out"].T
        return x


class RiglTrain(Workload):
    """RigL training of one ``SparseLinear``: forward, backward (SDDMM δW,
    transposed-SpMM δX) and an SGD value update per iteration, with a
    drop/grow mutation every ``EVERY``-th step. Mutations write to the plan
    cache (topology deltas, repair, invalidation) while the plain steps
    read from it."""

    name = "rigl_train"
    work_unit = "samples"
    SIZE, SPARSITY, BATCH, INPUTS = 2048, 0.9, 64, 8
    EVERY, ROW_FRACTION, DROP_FRACTION = 4, 0.05, 0.3
    LR = 0.01
    #: Warm-up steps 0..4 include one mutation (step 4).
    WARMUP_STEPS = 5
    work_per_iter = BATCH

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.w0 = sparse_weight(rng, self.SIZE, self.SIZE, self.SPARSITY)
        teacher = sparse_weight(rng, self.SIZE, self.SIZE, self.SPARSITY)
        self.xs = rng.standard_normal(
            (self.INPUTS, self.SIZE, self.BATCH), dtype=np.float32
        )
        self.targets = teacher @ self.xs
        #: (iteration, expected forward output) after a mutation.
        self.expected = None

    def setup(self) -> None:
        ops.reset_default_contexts()
        self.layer = SparseLinear(CSRMatrix.from_dense(self.w0))
        # A horizon far past any run keeps the drop fraction at 0.3.
        self.schedule = DropGrowSchedule(
            frequency=self.EVERY, initial_fraction=self.DROP_FRACTION,
            row_fraction=self.ROW_FRACTION, total_steps=10**9, seed=self.seed,
        )
        for step in range(self.WARMUP_STEPS):
            self._step(step, None)

    def _input(self, step: int) -> np.ndarray:
        return self.xs[step % self.INPUTS]

    def _step(self, step: int, profile):
        x = self._input(step)
        y = self.layer.forward(x, V100, profile)
        grad_y = (y - self.targets[step % self.INPUTS]) / self.BATCH
        grad_w, _ = self.layer.backward(x, grad_y, V100, profile)
        new_values = self.layer.weight.values - self.LR * grad_w.values
        self.layer.update_values(new_values)
        mutated = self.schedule.is_update_step(step)
        if mutated:
            drop_grow_step(
                self.layer, grad_y @ x.T, self.schedule, step,
                context=ops.default_context(V100),
            )
        return y, mutated

    def iterate(self, i: int, profile):
        return self._step(self.WARMUP_STEPS + i, profile)

    def record(self, i: int, out) -> None:
        """After a mutation, the next forward must match
        ``SparseLinear.reference_forward`` on the mutated weight."""
        y, mutated = out
        if self.expected is not None and self.expected[0] == i:
            if not np.allclose(y, self.expected[1], RTOL, ATOL):
                self.bad.add(i)
        self.expected = None
        if mutated:
            x_next = self._input(self.WARMUP_STEPS + i + 1)
            self.expected = (i + 1, self.layer.reference_forward(x_next))

    def verify(self) -> None:
        """The final topology's repaired plans cost exactly what cold plans
        cost."""
        ctx = ops.default_context(V100)
        if ctx.telemetry.plan_repairs == 0:
            self.problems.append("rigl_train: no plan was repaired")
        w = self.layer.weight
        costs = {
            "spmm": lambda c: ops.spmm_cost(w, self.BATCH, context=c),
            "sddmm": lambda c: ops.sddmm_cost(w, self.BATCH, context=c),
        }
        for op, cost in costs.items():
            repaired = cost(ctx).runtime_s
            cold = cost(ops.ExecutionContext(V100)).runtime_s
            if repaired != cold:
                self.problems.append(
                    f"rigl_train: repaired {op} plan costs {repaired!r} s, "
                    f"a cold plan {cold!r} s"
                )


class CorpusPlan(Workload):
    """Cold costing of a 200-matrix DNN-corpus slice, one matrix per
    iteration, each pass of the corpus in a fresh context. Plan building,
    config selection and the simulator dominate; there are no numerics."""

    name = "corpus_plan"
    work_unit = "problems"
    SHAPES = ((2048, 1024), (1024, 1024), (3072, 768), (512, 2048))
    SPARSITIES = (0.8, 0.9, 0.95, 0.98)
    COVS = (0.1, 0.2, 0.3, 0.4)
    MATRICES, N, WARMUP_MATRICES = 200, 128, 4
    SPMM_BACKENDS = ("sputnik", "cusparse", "dense")
    work_per_iter = len(SPMM_BACKENDS) + 1
    min_iters = MATRICES

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.matrices = [
            MatrixSpec(
                name=f"e2e{i:03d}", model="bench", layer=f"l{i}",
                rows=self.SHAPES[i % 4][0], cols=self.SHAPES[i % 4][1],
                sparsity=self.SPARSITIES[i % 4],
                row_cov=self.COVS[(i // 4) % 4],
                seed=seed * self.MATRICES + i,
            ).materialize()
            for i in range(self.MATRICES)
        ]
        #: Simulated runtimes of the first pass, per matrix.
        self.first: dict[int, tuple] = {}

    def _cost(self, a, ctx, profile):
        results = [
            ops.spmm_cost(a, self.N, context=ctx, backend=b)
            for b in self.SPMM_BACKENDS
        ]
        results.append(ops.sddmm_cost(a, self.N, context=ctx))
        if profile is not None:
            for r in results:
                profile.add(r)
        return tuple(r.runtime_s for r in results)

    def setup(self) -> None:
        ops.reset_default_contexts()
        warm = ops.ExecutionContext(V100)
        for a in self.matrices[:self.WARMUP_MATRICES]:
            self._cost(a, warm, None)
        #: One context per pass; a finished pass keeps its telemetry and
        #: allocator peaks but drops its plans.
        self.passes: list = []

    def iterate(self, i: int, profile):
        if i % self.MATRICES == 0:
            self.passes.append(ops.ExecutionContext(V100))
        return self._cost(
            self.matrices[i % self.MATRICES], self.passes[-1], profile
        )

    def record(self, i: int, out) -> None:
        """Every pass must give identical simulated runtimes."""
        if self.first.setdefault(i % self.MATRICES, out) != out:
            self.bad.add(i)
        if i % self.MATRICES == self.MATRICES - 1:
            self.passes[-1].clear()

    def contexts(self) -> list:
        return self.passes

WORKLOADS = {
    w.name: w for w in (RnnInfer, TransformerFwd, RiglTrain, CorpusPlan)
}
