"""Tests for attention, the Transformer, MobileNet, RNN cells, pruning, and
the training demo."""

import numpy as np
import pytest

from repro.gpu import GTX1080, V100
from repro.nn import (
    MagnitudePruner,
    MobileNetV1,
    Profile,
    TransformerConfig,
    benchmark_mobilenet,
    benchmark_transformer,
    dense_attention,
    gradual_sparsity,
    magnitude_prune,
    make_regression_task,
    profile_sparse,
    prune_to_csr,
    random_cell,
    reference_accuracy,
    scaled_channels,
    softmax,
    sparse_attention,
    train_pruned_mlp,
)
from repro.datasets import banded_random_mask, dense_causal_mask


class TestAttention:
    def test_softmax_normalizes(self, rng):
        x = rng.standard_normal((5, 9)).astype(np.float32)
        assert np.allclose(softmax(x).sum(axis=1), 1.0, atol=1e-5)

    def test_sparse_equals_dense_under_full_causal_mask(self, rng, device):
        """With an all-to-all causal mask, sparse attention must reproduce
        dense causal attention exactly."""
        seq, dk = 48, 16
        q, k, v = (
            rng.standard_normal((seq, dk)).astype(np.float32) for _ in range(3)
        )
        dense_out = dense_attention(q, k, v, device, causal=True)
        sparse_out = sparse_attention(q, k, v, dense_causal_mask(seq), device)
        assert np.allclose(dense_out, sparse_out, atol=1e-3)

    def test_sparse_attention_respects_mask(self, rng, device):
        seq, dk = 64, 8
        mask = banded_random_mask(seq, band=8, off_diagonal_sparsity=0.9, seed=3)
        q, k, v = (
            rng.standard_normal((seq, dk)).astype(np.float32) for _ in range(3)
        )
        out = sparse_attention(q, k, v, mask, device)
        assert out.shape == (seq, dk)
        assert np.all(np.isfinite(out))

    def test_profiles_three_kernels(self, rng, device):
        seq, dk = 32, 8
        mask = dense_causal_mask(seq)
        q, k, v = (
            rng.standard_normal((seq, dk)).astype(np.float32) for _ in range(3)
        )
        p = Profile()
        sparse_attention(q, k, v, mask, device, p)
        assert len(p.records) == 3


class TestTransformer:
    @pytest.fixture(scope="class")
    def config(self):
        # Scaled-down model: same structure, test-friendly size.
        return TransformerConfig(sequence_length=1024, batch_size=2, attention_band=64)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(d_model=100, n_heads=8)

    def test_head_dim_and_tokens(self, config):
        assert config.head_dim == 128
        assert config.tokens == 2048

    def test_sparse_is_faster_and_smaller(self, config, device):
        mask = config.attention_mask()
        dense = benchmark_transformer(config, device, "dense")
        sparse = benchmark_transformer(config, device, "sparse", mask=mask)
        assert sparse.tokens_per_second > dense.tokens_per_second
        # At this scaled-down size weights dominate; the *activation*
        # working set must still shrink dramatically.
        weights = config.weight_bytes()
        assert (sparse.memory_bytes - weights) < (dense.memory_bytes - weights) / 3

    def test_full_size_dense_ooms_on_gtx1080(self):
        config = TransformerConfig()
        report = benchmark_transformer(config, GTX1080, "dense")
        assert not report.fits
        assert report.tokens_per_second == 0.0

    def test_full_size_memory_matches_paper(self):
        """Table III: dense ~9.88 GB, sparse ~0.77 GB on V100."""
        config = TransformerConfig()
        dense = benchmark_transformer(config, V100, "dense")
        sparse = benchmark_transformer(config, V100, "sparse")
        assert dense.memory_gb == pytest.approx(9.88, rel=0.1)
        assert sparse.memory_gb == pytest.approx(0.77, rel=0.2)
        ratio = dense.memory_bytes / sparse.memory_bytes
        assert ratio == pytest.approx(12.8, rel=0.25)

    def test_unknown_variant_rejected(self, config, device):
        with pytest.raises(ValueError):
            benchmark_transformer(config, device, "hybrid")

    def test_wrong_mask_shape_rejected(self, config, device):
        with pytest.raises(ValueError):
            profile_sparse(config, device, mask=dense_causal_mask(16))


class TestMobileNet:
    def test_scaled_channels(self):
        assert scaled_channels(64, 1.0) == 64
        assert scaled_channels(64, 1.5) == 96
        assert scaled_channels(8, 0.25) == 8  # floor at 8
        with pytest.raises(ValueError):
            scaled_channels(64, 0)

    def test_forward_shapes(self, rng, device):
        model = MobileNetV1(width=0.25, sparse=False, seed=0)
        img = rng.standard_normal((3, 224, 224)).astype(np.float32)
        logits = model.forward(img, device)
        assert logits.shape == (1000,)

    def test_sparse_and_dense_agree_structurally(self, rng, device):
        """Same seed -> same dense weights; the sparse model is the pruned
        version, so outputs correlate but differ."""
        img = rng.standard_normal((3, 224, 224)).astype(np.float32)
        dense = MobileNetV1(width=0.25, sparse=False, seed=3).forward(img, device)
        sparse = MobileNetV1(width=0.25, sparse=True, seed=3).forward(img, device)
        assert dense.shape == sparse.shape
        assert not np.allclose(dense, sparse)

    def test_sparse_faster_at_same_width(self, device):
        dense = benchmark_mobilenet(1.0, sparse=False, device=device, use_oracle=False)
        sparse = benchmark_mobilenet(1.0, sparse=True, device=device, use_oracle=False)
        assert sparse.throughput_fps > dense.throughput_fps

    def test_iso_accuracy_speedup_in_paper_band(self, device):
        """Figure 12 / Table IV: ~21-24% faster at matched accuracy."""
        dense = benchmark_mobilenet(1.0, sparse=False, device=device, use_oracle=False)
        sparse = benchmark_mobilenet(1.3, sparse=True, device=device, use_oracle=False)
        assert abs(sparse.accuracy - dense.accuracy) < 0.005
        speedup = sparse.throughput_fps / dense.throughput_fps
        assert 1.05 < speedup < 1.6

    def test_reference_accuracy_interpolates(self):
        assert reference_accuracy("dense", 1.0) == pytest.approx(0.727)
        mid = reference_accuracy("dense", 1.1)
        assert 0.727 < mid < 0.738
        with pytest.raises(ValueError):
            reference_accuracy("quantized", 1.0)

    def test_input_shape_validated(self, device):
        model = MobileNetV1(width=0.25)
        with pytest.raises(ValueError):
            model.forward(np.ones((3, 128, 128), np.float32), device)

    def test_weight_bytes_smaller_when_sparse(self):
        dense = MobileNetV1(width=1.0, sparse=False, seed=0).weight_bytes()
        sparse = MobileNetV1(width=1.0, sparse=True, seed=0).weight_bytes()
        assert sparse < dense


class TestRnnCells:
    def test_lstm_step_matches_dense_math(self, rng, device):
        cell = random_cell("lstm", 32, sparsity=0.6, seed=5)
        x = rng.standard_normal((32, 4)).astype(np.float32)
        h = rng.standard_normal((32, 4)).astype(np.float32)
        c = rng.standard_normal((32, 4)).astype(np.float32)
        h2, c2 = cell.step(x, (h, c), device)

        wx = cell.input_layer.weight.to_dense().astype(np.float32)
        wh = cell.hidden_layer.weight.to_dense().astype(np.float32)
        z = wx @ x + wh @ h
        sig = lambda v: 1 / (1 + np.exp(-v))
        i, f, g, o = z[:32], z[32:64], z[64:96], z[96:]
        c_ref = sig(f) * c + sig(i) * np.tanh(g)
        h_ref = sig(o) * np.tanh(c_ref)
        assert np.allclose(c2, c_ref, atol=1e-3)
        assert np.allclose(h2, h_ref, atol=1e-3)

    def test_rnn_step(self, rng, device):
        cell = random_cell("rnn", 16, sparsity=0.5, seed=1)
        x = rng.standard_normal((16, 2)).astype(np.float32)
        h = np.zeros((16, 2), np.float32)
        out = cell.step(x, h, device)
        assert out.shape == (16, 2)
        assert np.all(np.abs(out) <= 1.0)

    def test_gru_step_shape(self, rng, device):
        cell = random_cell("gru", 16, sparsity=0.5, seed=2)
        out = cell.step(
            rng.standard_normal((16, 3)).astype(np.float32),
            np.zeros((16, 3), np.float32),
            device,
        )
        assert out.shape == (16, 3)

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            random_cell("conv", 16)

    def test_gate_stacking_validated(self, rng):
        from repro.nn import SparseLstmCell
        from tests.conftest import random_sparse

        w = random_sparse(rng, 32, 16, 0.5)  # 2h x h: wrong for 4-gate LSTM
        with pytest.raises(ValueError):
            SparseLstmCell(w, w)


class TestPruning:
    def test_exact_sparsity(self, rng):
        w = rng.standard_normal((40, 50))
        pruned = magnitude_prune(w, 0.9)
        assert (pruned == 0).mean() == pytest.approx(0.9)

    def test_keeps_largest_magnitudes(self, rng):
        w = rng.standard_normal(100)
        pruned = magnitude_prune(w, 0.5)
        kept = np.abs(w[pruned != 0])
        dropped = np.abs(w[pruned == 0])
        assert kept.min() >= dropped.max() - 1e-12

    def test_zero_sparsity_identity(self, rng):
        w = rng.standard_normal((5, 5))
        assert np.array_equal(magnitude_prune(w, 0.0), w)

    def test_invalid_sparsity(self, rng):
        with pytest.raises(ValueError):
            magnitude_prune(np.ones(4), 1.0)

    def test_prune_to_csr(self, rng):
        w = rng.standard_normal((20, 20))
        a = prune_to_csr(w, 0.8)
        assert a.nnz == 80

    def test_gradual_schedule_is_cubic_ramp(self):
        assert gradual_sparsity(0, 100, 0.9) == pytest.approx(0.0)
        assert gradual_sparsity(100, 100, 0.9) == pytest.approx(0.9)
        assert gradual_sparsity(200, 100, 0.9) == pytest.approx(0.9)
        mid = gradual_sparsity(50, 100, 0.9)
        assert 0.9 * 0.5 < mid < 0.9  # cubic ramps faster than linear

    def test_pruner_mask_monotone(self, rng):
        """Once pruned, a weight stays pruned."""
        pruner = MagnitudePruner(0.8, total_steps=100, frequency=10)
        w = rng.standard_normal((30, 30)).astype(np.float32)
        prev_zeros = np.zeros_like(w, dtype=bool)
        for step in range(0, 120, 10):
            out = pruner.apply(w, step)
            zeros = out == 0
            assert np.all(zeros[prev_zeros])
            prev_zeros = zeros
        assert zeros.mean() == pytest.approx(0.8, abs=0.02)

    def test_pruner_validation(self):
        with pytest.raises(ValueError):
            MagnitudePruner(1.0, 100)
        with pytest.raises(ValueError):
            MagnitudePruner(0.5, 100, frequency=0)


class TestTrainingDemo:
    def test_pruned_model_matches_dense_quality(self):
        """The DESIGN.md substitution: pruning mechanics shown on a
        synthetic task — sparse final loss within 50% of dense."""
        x, y = make_regression_task(n_samples=1024, seed=3)
        result = train_pruned_mlp(x, y, hidden=64, final_sparsity=0.8, steps=300)
        assert result.final_sparsity == pytest.approx(0.8, abs=0.03)
        assert result.sparse_loss < result.dense_loss * 1.5
        assert result.sparse_loss < result.loss_history[0]

    def test_sparse_weight_exported_as_csr(self):
        x, y = make_regression_task(n_samples=512, seed=1)
        result = train_pruned_mlp(x, y, hidden=32, final_sparsity=0.7, steps=150)
        assert result.sparse_weight.sparsity == pytest.approx(0.7, abs=0.05)
