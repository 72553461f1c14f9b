"""Tests for the NN substrate: layers, activations, batch norm, convs."""

import numpy as np
import pytest
import scipy.signal

from repro.nn import (
    BatchNorm,
    Linear,
    Profile,
    SparseLinear,
    bias_relu,
    depthwise_conv,
    fuse_into_dense,
    fuse_into_depthwise,
    fuse_into_sparse,
    im2col,
    relu,
)
from repro.sparse import CSRMatrix
from tests.conftest import random_sparse


class TestLinearLayers:
    def test_dense_linear(self, rng, device):
        w = rng.standard_normal((16, 12)).astype(np.float32)
        x = rng.standard_normal((12, 5)).astype(np.float32)
        p = Profile()
        out = Linear(w).forward(x, device, p)
        assert np.allclose(out, w @ x, atol=1e-4)
        assert len(p.records) == 1

    def test_sparse_linear_forward(self, rng, device):
        w = random_sparse(rng, 64, 48, 0.3)
        layer = SparseLinear(w)
        x = rng.standard_normal((48, 16)).astype(np.float32)
        out = layer.forward(x, device)
        assert np.allclose(out, layer.reference_forward(x), atol=1e-4)

    def test_sparse_linear_backward_weight_grad(self, rng, device):
        """δW = δY Xᵀ ∘ I[W]: check against the dense gradient masked to
        the weight's support (Section IV-B)."""
        w = random_sparse(rng, 32, 24, 0.4)
        layer = SparseLinear(w)
        x = rng.standard_normal((24, 8)).astype(np.float32)
        gy = rng.standard_normal((32, 8)).astype(np.float32)
        grad_w, grad_x = layer.backward(x, gy, device)
        dense_grad = gy @ x.T
        support = w.to_dense() != 0
        assert np.allclose(grad_w.to_dense()[support], dense_grad[support], atol=1e-3)
        assert np.all(grad_w.to_dense()[~support] == 0)
        assert np.allclose(grad_x, w.to_dense().T @ gy, atol=1e-3)

    def test_backward_profiles_sddmm_and_spmm(self, rng, device):
        w = random_sparse(rng, 32, 24, 0.4)
        layer = SparseLinear(w)
        p = Profile()
        layer.backward(
            rng.standard_normal((24, 8)).astype(np.float32),
            rng.standard_normal((32, 8)).astype(np.float32),
            device,
            p,
        )
        names = set(p.by_kernel())
        assert "sputnik_sddmm" in names and "sputnik_spmm_fp32" in names

    def test_update_values_keeps_topology(self, rng, device):
        w = random_sparse(rng, 16, 16, 0.5)
        layer = SparseLinear(w)
        layer.update_values(np.zeros(w.nnz, np.float32))
        x = rng.standard_normal((16, 4)).astype(np.float32)
        assert np.allclose(layer.forward(x, device), 0, atol=1e-6)


class TestActivations:
    def test_relu(self, rng, device):
        x = rng.standard_normal((8, 8)).astype(np.float32)
        out, _ = relu(x, device)
        assert np.array_equal(out, np.maximum(x, 0))

    def test_bias_relu(self, rng, device):
        x = rng.standard_normal((4, 10)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out, execution = bias_relu(x, b, device)
        assert np.allclose(out, np.maximum(x + b[:, None], 0), atol=1e-6)
        assert execution.runtime_s > 0

    def test_bias_shape_validated(self, device):
        with pytest.raises(ValueError):
            bias_relu(np.ones((4, 10), np.float32), np.ones(5, np.float32), device)


class TestBatchNorm:
    def make_bn(self, rng, ch):
        return BatchNorm(
            gamma=rng.uniform(0.5, 1.5, ch),
            beta=rng.uniform(-0.2, 0.2, ch),
            running_mean=rng.standard_normal(ch) * 0.2,
            running_var=rng.uniform(0.5, 2.0, ch),
        )

    def test_dense_fusion_equivalence(self, rng):
        bn = self.make_bn(rng, 16)
        w = rng.standard_normal((16, 12)).astype(np.float32)
        x = rng.standard_normal((12, 9)).astype(np.float32)
        fw, fb = fuse_into_dense(w, None, bn)
        fused = fw @ x + fb[:, None]
        unfused = bn.apply(w @ x)
        assert np.allclose(fused, unfused, atol=1e-4)

    def test_sparse_fusion_equivalence(self, rng):
        bn = self.make_bn(rng, 32)
        w = random_sparse(rng, 32, 24, 0.4)
        x = rng.standard_normal((24, 5)).astype(np.float32)
        fw, fb = fuse_into_sparse(w, None, bn)
        fused = fw.to_dense() @ x + fb[:, None]
        unfused = bn.apply(w.to_dense() @ x)
        assert np.allclose(fused, unfused, atol=1e-4)

    def test_sparse_fusion_preserves_topology(self, rng):
        bn = self.make_bn(rng, 32)
        w = random_sparse(rng, 32, 24, 0.4)
        fw, _ = fuse_into_sparse(w, None, bn)
        assert np.array_equal(fw.column_indices, w.column_indices)

    def test_depthwise_fusion_equivalence(self, rng):
        bn = self.make_bn(rng, 8)
        f = rng.standard_normal((8, 3, 3)).astype(np.float32)
        x = rng.standard_normal((8, 6, 6)).astype(np.float32)
        ff, fb = fuse_into_depthwise(f, None, bn)
        direct = np.einsum("chwij,cij->chw", _windows(x, 3), f)
        assert np.allclose(
            np.einsum("chwij,cij->chw", _windows(x, 3), ff) + fb[:, None, None],
            bn.apply(direct),
            atol=1e-4,
        )

    def test_existing_bias_folded(self, rng):
        bn = self.make_bn(rng, 4)
        w = rng.standard_normal((4, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        fw, fb = fuse_into_dense(w, bias, bn)
        assert np.allclose(
            fw @ x + fb[:, None], bn.apply(w @ x + bias[:, None]), atol=1e-4
        )

    def test_channel_mismatch_rejected(self, rng):
        bn = self.make_bn(rng, 4)
        with pytest.raises(ValueError):
            fuse_into_dense(np.ones((5, 4), np.float32), None, bn)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -1.0]))


def _windows(x, k):
    pad = k // 2
    xp = np.pad(x, [(0, 0), (pad, pad), (pad, pad)])
    return np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))


class TestConv:
    def test_im2col_shape(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        cols = im2col(x, kernel=3, stride=1, padding=1)
        assert cols.shape == (27, 64)

    def test_im2col_conv_matches_scipy(self, rng):
        """GEMM over im2col == direct 2-D correlation."""
        x = rng.standard_normal((2, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        cols = im2col(x, 3, stride=1, padding=1)
        out = (w.reshape(4, -1) @ cols).reshape(4, 9, 9)
        for o in range(4):
            direct = sum(
                scipy.signal.correlate2d(x[c], w[o, c], mode="same")
                for c in range(2)
            )
            assert np.allclose(out[o], direct, atol=1e-3)

    def test_im2col_stride(self, rng):
        x = rng.standard_normal((1, 8, 8)).astype(np.float32)
        cols = im2col(x, 3, stride=2, padding=1)
        assert cols.shape == (9, 16)

    def test_im2col_validation(self):
        with pytest.raises(ValueError):
            im2col(np.ones((4, 4)), 3)
        with pytest.raises(ValueError):
            im2col(np.ones((1, 2, 2), np.float32), 5, padding=0)

    def test_depthwise_matches_direct(self, rng, device):
        x = rng.standard_normal((4, 7, 7)).astype(np.float32)
        f = rng.standard_normal((4, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = depthwise_conv(x, f, b, device)
        direct = np.einsum("chwij,cij->chw", _windows(x, 3), f)
        expected = np.maximum(direct + b[:, None, None], 0)
        assert np.allclose(out, expected, atol=1e-4)

    def test_depthwise_stride_two(self, rng, device):
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        f = rng.standard_normal((2, 3, 3)).astype(np.float32)
        out = depthwise_conv(x, f, np.zeros(2, np.float32), device, stride=2)
        assert out.shape == (2, 4, 4)

