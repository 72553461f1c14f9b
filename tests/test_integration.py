"""Cross-module integration tests: full training-style pipelines and the
paper's headline behaviours end-to-end."""

import numpy as np
import pytest

from repro.bench import (
    cusparse_spmm_time,
    dense_spmm_time,
    sputnik_spmm_time,
)
from repro import ops
from repro.core import SpmmConfig
from repro.gpu import V100
from repro.nn import Profile, SparseLinear, train_pruned_mlp, make_regression_task
from repro.sparse import CSRMatrix, CachedTranspose
from repro.datasets import banded_random_mask, imbalanced_matrix
from tests.conftest import random_sparse


class TestTrainingStepPipeline:
    def test_forward_backward_update_cycle(self, rng, device):
        """A full weight-sparse training step: SpMM forward, SDDMM weight
        gradient, cached-transpose input gradient, value update — the
        Section IV-B computation pattern."""
        w = random_sparse(rng, 48, 32, 0.4)
        layer = SparseLinear(w)
        x = rng.standard_normal((32, 16)).astype(np.float32)

        y = layer.forward(x, device)
        grad_y = (y - 1.0).astype(np.float32)  # pretend loss gradient
        grad_w, grad_x = layer.backward(x, grad_y, device)

        lr = 0.005
        new_values = layer.weight.values - lr * grad_w.values
        layer.update_values(new_values)
        y2 = layer.forward(x, device)
        # One SGD step on a quadratic objective reduces the loss.
        assert np.mean((y2 - 1.0) ** 2) < np.mean((y - 1.0) ** 2)
        assert grad_x.shape == x.shape

    def test_gradient_matches_finite_differences(self, rng, device):
        """The SDDMM weight gradient agrees with numeric differentiation."""
        w = random_sparse(rng, 6, 5, 0.6)
        layer = SparseLinear(w)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        target = rng.standard_normal((6, 3)).astype(np.float32)

        def loss(values):
            out = w.with_values(values).to_dense().astype(np.float32) @ x
            return 0.5 * float(np.sum((out - target) ** 2))

        y = layer.forward(x, device).astype(np.float32)
        grad_w, _ = layer.backward(x, y - target, device)

        eps = 1e-3
        for j in range(min(5, w.nnz)):
            v = w.values.astype(np.float64).copy()
            v[j] += eps
            up = loss(v.astype(np.float32))
            v[j] -= 2 * eps
            down = loss(v.astype(np.float32))
            numeric = (up - down) / (2 * eps)
            assert grad_w.values[j] == pytest.approx(numeric, rel=0.05, abs=1e-2)


class TestSparseAttentionPipeline:
    def test_sddmm_softmax_spmm_chain(self, rng, context):
        """The sparse-attention computation graph of Section VII-C."""
        seq, dk = 96, 16
        mask = banded_random_mask(seq, band=12, off_diagonal_sparsity=0.9, seed=2)
        q, k, v = (
            rng.standard_normal((seq, dk)).astype(np.float32) for _ in range(3)
        )
        scores = ops.sddmm(q, k, mask, context=context)
        probs = ops.sparse_softmax(
            scores.output, scale=1.0 / np.sqrt(dk), context=context
        )
        out = ops.spmm(
            probs.output,
            v,
            config=SpmmConfig(block_items_x=16, vector_width=4),
            context=context,
        )

        # Against the dense computation restricted to the mask.
        dense_scores = (q @ k.T) / np.sqrt(dk)
        masked = np.where(mask.to_dense() != 0, dense_scores, -np.inf)
        dense_probs = np.exp(masked - masked.max(axis=1, keepdims=True))
        dense_probs = dense_probs / dense_probs.sum(axis=1, keepdims=True)
        assert np.allclose(out.output, dense_probs @ v, atol=1e-3)


class TestHeadlineBehaviours:
    def test_figure1_crossover_band(self, device):
        """Figure 1: on the LSTM problem, our SpMM beats dense GEMM already
        at moderate sparsity while cuSPARSE needs far more."""
        m, k, n = 2048, 1024, 128  # scaled-down Figure 1 problem
        rng = np.random.default_rng(0)

        def times(sparsity):
            a = random_sparse(rng, m, k, 1.0 - sparsity)
            return (
                sputnik_spmm_time(a, n, device).runtime_s,
                cusparse_spmm_time(a, n, device).runtime_s,
                dense_spmm_time(a, n, device).runtime_s,
            )

        ours_mid, cus_mid, dense_mid = times(0.8)
        assert ours_mid < dense_mid  # we already win at 80 %
        assert cus_mid > ours_mid

        ours_hi, cus_hi, dense_hi = times(0.995)
        assert cus_hi < dense_hi  # cuSPARSE eventually wins, far later

    def test_training_to_kernel_handoff(self, context):
        """Weights trained+pruned by the demo run through the real kernels."""
        x, y = make_regression_task(n_samples=512, n_features=64, seed=5)
        result = train_pruned_mlp(x, y, hidden=32, final_sparsity=0.75, steps=200)
        w = result.sparse_weight  # (hidden, features) CSR
        batch = x[:24].T.astype(np.float32)  # (features, 24)
        out = ops.spmm(
            w,
            batch,
            config=SpmmConfig(block_items_x=8, vector_width=4),
            context=context,
        )
        assert np.allclose(
            out.output, w.to_dense().astype(np.float32) @ batch, atol=1e-3
        )

    def test_cached_transpose_training_loop(self, rng, device):
        """Section IX: topology fixed -> transpose plan reused across value
        updates with no re-planning."""
        w = random_sparse(rng, 40, 30, 0.4)
        plan = CachedTranspose(w)
        for _ in range(3):
            new_vals = rng.standard_normal(w.nnz).astype(np.float32)
            w = w.with_values(new_vals)
            t = plan.transpose(w)
            assert np.array_equal(t.to_dense(), w.to_dense().T)

    def test_figure7_shape(self, device):
        """Load balancing holds throughput as imbalance grows."""
        from repro.core.spmm import build_launch
        from repro.gpu import execute

        n = 128
        baseline = None
        for cov, min_ratio in [(0.0, 0.95), (1.0, 0.75)]:
            a = imbalanced_matrix(cov, m=4096, k=1024, sparsity=0.75)
            on = execute(
                build_launch(a, n, SpmmConfig(load_balance=True), device), device
            ).runtime_s
            off = execute(
                build_launch(a, n, SpmmConfig(load_balance=False), device), device
            ).runtime_s
            if baseline is None:
                baseline = on
            assert on <= off * 1.01
        # Swizzled runtime degrades far less than 2x even at CoV 1.0.
        assert on < 2.0 * baseline
