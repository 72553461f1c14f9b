"""Tests for repro.gpu.memory — transaction and cache accounting."""

import numpy as np
import pytest

from repro.gpu import V100
from repro.gpu.memory import (
    aligned_extent,
    dram_bytes_with_reuse,
    l1_hit_fraction,
    latency_hiding_factor,
    validate_vector_width,
)


class TestVectorWidth:
    @pytest.mark.parametrize("vw", [1, 2, 4])
    def test_legal_widths(self, vw):
        validate_vector_width(vw)

    @pytest.mark.parametrize("vw", [0, 3, 8, -1])
    def test_illegal_widths(self, vw):
        with pytest.raises(ValueError):
            validate_vector_width(vw)


class TestAlignedExtent:
    def test_identity_for_scalar_width(self):
        off, ln = aligned_extent(np.array([3, 7]), np.array([5, 2]), 1)
        assert list(off) == [3, 7] and list(ln) == [5, 2]

    def test_backs_up_to_alignment(self):
        off, ln = aligned_extent(np.array([5]), np.array([10]), 4)
        assert off[0] == 4 and ln[0] == 11

    def test_already_aligned_unchanged(self):
        off, ln = aligned_extent(np.array([8]), np.array([12]), 4)
        assert off[0] == 8 and ln[0] == 12

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            aligned_extent(np.array([0]), np.array([-1]), 2)


class TestDramReuse:
    def test_fits_in_cache_only_unique_traffic(self):
        assert dram_bytes_with_reuse(1e9, 1e6, 6 << 20) == pytest.approx(1e6)

    def test_no_reuse_all_unique(self):
        assert dram_bytes_with_reuse(5e6, 5e6, 1 << 20) == pytest.approx(5e6)

    def test_partial_reuse_between_bounds(self):
        out = dram_bytes_with_reuse(1e8, 1e7, 1 << 20)
        assert 1e7 < out < 1e8

    def test_zero_traffic(self):
        assert dram_bytes_with_reuse(0, 0, 1024) == 0.0

    def test_unique_exceeding_total_rejected(self):
        with pytest.raises(ValueError):
            dram_bytes_with_reuse(10, 20, 1024)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            dram_bytes_with_reuse(-1, 0, 1024)


class TestL1HitFraction:
    def test_no_reuse_no_hits(self):
        assert l1_hit_fraction(1.0, 1000, 1 << 17) == 0.0
        assert l1_hit_fraction(0.5, 1000, 1 << 17) == 0.0

    def test_high_reuse_small_window(self):
        frac = l1_hit_fraction(20.0, 1 << 14, 1 << 17)
        assert frac == pytest.approx(0.95)

    def test_capacity_limits_hits(self):
        big = l1_hit_fraction(20.0, 1 << 20, 1 << 17)
        assert big == pytest.approx(0.95 * (1 << 17) / (1 << 20))

    def test_zero_working_set_full_coverage(self):
        assert l1_hit_fraction(4.0, 0, 1 << 17) == pytest.approx(0.75)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            l1_hit_fraction(2.0, -1, 1024)


class TestLatencyHiding:
    def test_zero_warps_zero_factor(self):
        assert latency_hiding_factor(0, V100) == 0.0

    def test_saturates_at_one(self):
        assert latency_hiding_factor(V100.warps_to_saturate, V100) == pytest.approx(1.0)
        assert latency_hiding_factor(1000, V100) == pytest.approx(1.0)

    def test_monotone_in_occupancy(self):
        values = [latency_hiding_factor(w, V100) for w in range(1, 17)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_partial_occupancy_below_one(self):
        assert 0.0 < latency_hiding_factor(4, V100) < 1.0
