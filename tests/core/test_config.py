"""Tests for the D3L configuration."""

import pytest

from repro.core.config import D3LConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = D3LConfig()
        assert config.qgram_size == 4
        assert config.num_hashes == 256
        assert config.lsh_threshold == 0.7

    def test_candidate_pool_grows_with_k(self):
        config = D3LConfig(candidate_multiplier=5, min_candidates=50)
        assert config.candidate_pool_size(1) == 50
        assert config.candidate_pool_size(100) == 500

    def test_candidate_pool_floor(self):
        config = D3LConfig(min_candidates=40)
        assert config.candidate_pool_size(0) == 40


class TestValidation:
    def test_rejects_bad_qgram_size(self):
        with pytest.raises(ValueError):
            D3LConfig(qgram_size=0)

    def test_rejects_bad_num_hashes(self):
        with pytest.raises(ValueError):
            D3LConfig(num_hashes=0)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            D3LConfig(lsh_threshold=0.0)
        with pytest.raises(ValueError):
            D3LConfig(lsh_threshold=1.0)

    def test_rejects_bad_trees(self):
        with pytest.raises(ValueError):
            D3LConfig(num_trees=0)
        with pytest.raises(ValueError):
            D3LConfig(num_hashes=16, num_trees=32)

    def test_rejects_bad_embedding_dimension(self):
        with pytest.raises(ValueError):
            D3LConfig(embedding_dimension=0)

    def test_rejects_bad_candidate_parameters(self):
        with pytest.raises(ValueError):
            D3LConfig(candidate_multiplier=0)
        with pytest.raises(ValueError):
            D3LConfig(min_candidates=0)

    def test_rejects_bad_overlap_threshold(self):
        with pytest.raises(ValueError):
            D3LConfig(overlap_threshold=0.0)

    def test_rejects_bad_join_path_length(self):
        with pytest.raises(ValueError):
            D3LConfig(max_join_path_length=0)

    def test_rejects_negative_hash_counts(self):
        with pytest.raises(ValueError, match="^num_hashes must be positive$"):
            D3LConfig(num_hashes=-256)
        with pytest.raises(ValueError, match="^qgram_size must be positive$"):
            D3LConfig(qgram_size=-4)

    def test_rejects_out_of_range_thresholds(self):
        with pytest.raises(ValueError, match=r"^lsh_threshold must be in \(0, 1\)$"):
            D3LConfig(lsh_threshold=-0.3)
        with pytest.raises(ValueError, match=r"^lsh_threshold must be in \(0, 1\)$"):
            D3LConfig(lsh_threshold=1.7)
        with pytest.raises(ValueError, match=r"^overlap_threshold must be in \(0, 1\]$"):
            D3LConfig(overlap_threshold=1.2)


class TestSharedValidationHelpers:
    """The config helpers are the validation surface QueryRequest reuses."""

    def test_require_positive_message(self):
        from repro.core.config import require_positive

        with pytest.raises(ValueError, match="^widgets must be positive$"):
            require_positive("widgets", 0)
        require_positive("widgets", 1)  # no raise

    def test_query_request_shares_the_helper(self):
        from repro.core.api import QueryRequest
        from repro.tables.table import Table

        target = Table.from_dict("t", {"a": ["x", "y"]})
        with pytest.raises(ValueError, match="^k must be positive$"):
            QueryRequest(target=target, k=0)


class TestJoinConfigValidation:
    def test_join_candidate_pool_must_be_positive(self):
        with pytest.raises(ValueError, match="join_candidate_pool must be positive"):
            D3LConfig(join_candidate_pool=0)
        with pytest.raises(ValueError, match="join_candidate_pool must be positive"):
            D3LConfig(join_candidate_pool=-5)

    def test_join_prefilter_margin_range(self):
        with pytest.raises(ValueError, match="join_prefilter_margin"):
            D3LConfig(join_prefilter_margin=-0.1)
        with pytest.raises(ValueError, match="join_prefilter_margin"):
            D3LConfig(join_prefilter_margin=1.5)
        assert D3LConfig(join_prefilter_margin=0.0).join_prefilter_margin == 0.0
        assert D3LConfig(join_prefilter_margin=1.0).join_prefilter_margin == 1.0

    def test_default_pool_is_a_fixed_cap(self):
        config = D3LConfig()
        assert config.join_candidate_pool == 128
