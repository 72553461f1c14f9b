"""Tests for the workload datasets (Section II corpora and benchmark grids)."""

import numpy as np
import pytest

from repro.datasets import (
    CELL_GATES,
    MatrixSpec,
    NEURAL_NETWORK_COV,
    banded_random_mask,
    contrast,
    dense_causal_mask,
    dnn_corpus,
    imbalanced_matrix,
    imbalanced_spec,
    mask_statistics,
    materialize_rows,
    problem_grid,
    row_length_cov,
    row_lengths_with_cov,
    stats_from_row_lengths,
    suitesparse,
    summarize,
)


class TestSpec:
    def test_row_lengths_hit_exact_total(self, rng):
        lengths = row_lengths_with_cov(100, 200, 5000, 0.3, rng)
        assert lengths.sum() == 5000
        assert np.all(lengths >= 0) and np.all(lengths <= 200)

    def test_cov_close_to_target(self, rng):
        lengths = row_lengths_with_cov(2000, 500, 100000, 0.8, rng)
        assert row_length_cov(lengths) == pytest.approx(0.8, rel=0.15)

    def test_zero_cov_near_uniform(self, rng):
        lengths = row_lengths_with_cov(10, 100, 1000, 0.0, rng)
        assert lengths.max() - lengths.min() <= 1

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            row_lengths_with_cov(4, 4, 17, 0.1, rng)  # nnz > rows*cols
        with pytest.raises(ValueError):
            row_lengths_with_cov(4, 4, 4, -0.1, rng)

    def test_materialize_rows_structure(self, rng):
        lengths = np.array([3, 0, 5])
        a = materialize_rows(lengths, 16, rng)
        assert np.array_equal(a.row_lengths, lengths)
        for i in range(3):
            row = a.column_indices[a.row_offsets[i] : a.row_offsets[i + 1]]
            assert np.all(np.diff(row) > 0)  # sorted, no duplicates

    def test_spec_deterministic(self):
        s = MatrixSpec("t", "m", "l", 64, 48, 0.7, 0.2, seed=9)
        a, b = s.materialize(), s.materialize()
        assert np.array_equal(a.column_indices, b.column_indices)
        assert np.array_equal(a.values, b.values)

    def test_spec_stats_match_materialized(self):
        s = MatrixSpec("t", "m", "l", 64, 48, 0.7, 0.2, seed=9)
        assert s.stats().nnz == s.materialize().nnz

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MatrixSpec("t", "m", "l", 64, 48, 1.0, 0.2, seed=0)
        with pytest.raises(ValueError):
            MatrixSpec("t", "m", "l", 0, 48, 0.5, 0.2, seed=0)


class TestStatistics:
    def test_cov_of_uniform_is_zero(self):
        assert row_length_cov(np.full(10, 7)) == 0.0

    def test_cov_of_empty(self):
        assert row_length_cov(np.array([])) == 0.0

    def test_stats_from_row_lengths(self):
        s = stats_from_row_lengths(np.array([2, 4]), 8)
        assert s.nnz == 6 and s.sparsity == pytest.approx(1 - 6 / 16)
        assert s.avg_row_length == 3.0

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            stats_from_row_lengths(np.array([9]), 8)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestDnnCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return dnn_corpus.build_corpus()

    def test_paper_counts(self, corpus):
        assert len(corpus) == 3012
        assert len({s.model for s in corpus}) == 49

    def test_sample_is_deterministic_and_stratified(self, corpus):
        s1 = dnn_corpus.sample_corpus(100, corpus=corpus)
        s2 = dnn_corpus.sample_corpus(100, corpus=corpus)
        assert [a.name for a in s1] == [b.name for b in s2]
        assert len({s.model for s in s1}) > 20

    def test_sample_validation(self, corpus):
        with pytest.raises(ValueError):
            dnn_corpus.sample_corpus(0, corpus=corpus)

    def test_figure2_contrast_ratios(self, corpus):
        """The headline Figure 2 numbers: DL matrices ~13.4x less sparse,
        ~2.3x longer rows, ~25x lower CoV than SuiteSparse."""
        dl = summarize([s.stats() for s in corpus])
        sci = summarize([s.stats() for s in suitesparse.build_corpus()])
        ratios = contrast(dl, sci)
        assert ratios["density_ratio"] == pytest.approx(13.4, rel=0.2)
        assert ratios["row_length_ratio"] == pytest.approx(2.3, rel=0.25)
        assert ratios["cov_ratio"] == pytest.approx(25.0, rel=0.25)

    def test_batch_columns_padded_for_vectors(self, corpus):
        for s in corpus:
            for n in s.batch_columns:
                assert n % 4 == 0


class TestSuitesparse:
    def test_corpus_size(self):
        assert len(suitesparse.build_corpus()) == suitesparse.CORPUS_SIZE

    def test_extremely_sparse(self):
        sample = suitesparse.build_corpus()[:100]
        assert all(s.sparsity > 0.95 for s in sample)

    def test_square_matrices(self):
        sample = suitesparse.build_corpus()[:50]
        assert all(s.rows == s.cols for s in sample)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            suitesparse.build_corpus(size=0)


class TestRnnGrid:
    def test_grid_size(self):
        assert len(problem_grid()) == 3 * 4 * 3 * 2

    def test_gate_structure(self):
        assert CELL_GATES == {"rnn": 1, "gru": 3, "lstm": 4}
        lstm = [p for p in problem_grid() if p.cell == "lstm"][0]
        assert lstm.m == 4 * lstm.state_size

    def test_label_format(self):
        p = problem_grid()[0]
        assert p.label == f"{p.m}/{p.k}/{p.n}/{int(p.sparsity * 100)}%"

    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError):
            problem_grid(cells=("transformer",))

    def test_uniform_sparsity_cov(self):
        """Bernoulli masks have CoV ~= sqrt(s / ((1-s) K))."""
        p = [g for g in problem_grid() if g.state_size == 1024][0]
        a = p.materialize()
        expected = np.sqrt(p.sparsity / ((1 - p.sparsity) * p.k))
        assert row_length_cov(a.row_lengths) == pytest.approx(expected, rel=0.3)


class TestAttentionMasks:
    def test_causal(self):
        m = banded_random_mask(128, band=16, seed=0)
        dense = m.to_dense()
        assert np.all(np.triu(dense, k=1) == 0)

    def test_band_fully_connected(self):
        m = banded_random_mask(128, band=16, seed=0)
        dense = m.to_dense()
        for i in range(128):
            lo = max(0, i - 15)
            assert np.all(dense[i, lo : i + 1] == 1)

    def test_off_band_density_matches_target(self):
        m = banded_random_mask(2048, band=64, off_diagonal_sparsity=0.95, seed=1)
        stats = mask_statistics(m, band=64)
        assert stats["off_band_density"] == pytest.approx(0.05, abs=0.01)

    def test_dense_causal_mask_count(self):
        m = dense_causal_mask(64)
        assert m.nnz == 64 * 65 // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            banded_random_mask(0)
        with pytest.raises(ValueError):
            banded_random_mask(16, band=0)
        with pytest.raises(ValueError):
            banded_random_mask(16, off_diagonal_sparsity=1.0)


class TestImbalance:
    def test_fig7_configuration(self):
        s = imbalanced_spec(0.5)
        assert (s.rows, s.cols, s.sparsity) == (8192, 2048, 0.75)

    def test_realized_cov(self):
        a = imbalanced_matrix(1.0, m=2048, k=512, sparsity=0.8)
        assert row_length_cov(a.row_lengths) == pytest.approx(1.0, rel=0.2)

    def test_nn_marker_in_plausible_range(self):
        assert 0.1 < NEURAL_NETWORK_COV < 0.6

    def test_negative_cov_rejected(self):
        with pytest.raises(ValueError):
            imbalanced_spec(-0.5)
