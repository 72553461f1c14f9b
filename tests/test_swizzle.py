"""Tests for row-swizzle load balancing (Section V-C)."""

import numpy as np
import pytest

from repro.core import (
    bundle_rows,
    bundle_weights,
    identity_swizzle,
    row_swizzle,
    swizzled_row_groups,
)


class TestRowSwizzle:
    def test_is_a_permutation(self, rng):
        lengths = rng.integers(0, 50, size=64)
        order = row_swizzle(lengths)
        assert sorted(order) == list(range(64))

    def test_sorted_by_decreasing_length(self, rng):
        lengths = rng.integers(0, 50, size=64)
        order = row_swizzle(lengths)
        assert np.all(np.diff(lengths[order]) <= 0)

    def test_stable_for_ties(self):
        order = row_swizzle(np.array([5, 5, 5, 9]))
        assert list(order) == [3, 0, 1, 2]

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            row_swizzle(np.array([1, -2]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            row_swizzle(np.ones((2, 2)))

    def test_identity_swizzle(self):
        assert list(identity_swizzle(5)) == [0, 1, 2, 3, 4]


class TestBundling:
    def test_bundles_partition_rows(self, rng):
        order = row_swizzle(rng.integers(0, 50, size=70))
        bundles = bundle_rows(order, 8)
        flat = np.concatenate(bundles)
        assert sorted(flat) == list(range(70))

    def test_last_bundle_may_be_partial(self):
        bundles = bundle_rows(np.arange(10), 4)
        assert [len(b) for b in bundles] == [4, 4, 2]

    def test_bundle_size_validation(self):
        with pytest.raises(ValueError):
            bundle_rows(np.arange(4), 0)

    def test_sorted_bundles_have_monotone_weights(self, rng):
        """Sorted order -> bundle heaviness non-increasing: the binning
        heuristic schedules heavy bundles first."""
        lengths = rng.integers(0, 100, size=128)
        order = row_swizzle(lengths)
        weights = bundle_weights(lengths, order, 8)
        assert np.all(np.diff(weights) <= 0)

    def test_bundle_weights_conserve_work(self, rng):
        lengths = rng.integers(0, 100, size=50)
        weights = bundle_weights(lengths, identity_swizzle(50), 8)
        assert weights.sum() == lengths.sum()

    def test_sorted_bundles_group_similar_rows(self, rng):
        """Row bundling: in-bundle length spread is smaller when sorted."""
        lengths = rng.integers(0, 100, size=256)
        def spread(order):
            grouped = lengths[np.asarray(order[:256])].reshape(-1, 8)
            return float(np.mean(grouped.max(axis=1) - grouped.min(axis=1)))
        assert spread(row_swizzle(lengths)) < spread(identity_swizzle(256))


class TestSwizzledRowGroups:
    def test_groups_cover_all_rows(self, small_sparse):
        _, groups = swizzled_row_groups(small_sparse, 8)
        present = groups[groups >= 0]
        assert sorted(present) == list(range(small_sparse.n_rows))

    def test_padding_uses_minus_one(self, small_sparse):
        _, groups = swizzled_row_groups(small_sparse, 7)
        pad = (-small_sparse.n_rows) % 7
        assert (groups == -1).sum() == pad

    def test_disabled_keeps_natural_order(self, small_sparse):
        order, groups = swizzled_row_groups(small_sparse, 8, enabled=False)
        assert np.array_equal(order, np.arange(small_sparse.n_rows))
        assert groups[0, 0] == 0

    def test_enabled_puts_heaviest_row_first(self, small_sparse):
        _, groups = swizzled_row_groups(small_sparse, 8, enabled=True)
        assert groups[0, 0] == int(np.argmax(small_sparse.row_lengths))
