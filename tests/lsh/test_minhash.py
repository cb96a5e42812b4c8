"""Tests for MinHash signatures."""

import numpy as np
import pytest

from repro.lsh.minhash import MinHashFactory, exact_jaccard, exact_jaccard_distance


@pytest.fixture
def factory():
    return MinHashFactory(num_perm=256, seed=1)


class TestExactJaccard:
    def test_identical_sets(self):
        assert exact_jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert exact_jaccard({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert exact_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert exact_jaccard(set(), set()) == 0.0

    def test_distance_is_complement(self):
        assert exact_jaccard_distance({"a", "b"}, {"b", "c"}) == pytest.approx(2 / 3)


class TestMinHashFactory:
    def test_rejects_non_positive_num_perm(self):
        with pytest.raises(ValueError):
            MinHashFactory(num_perm=0)

    def test_signature_length(self, factory):
        signature = factory.from_tokens({"a", "b"})
        assert signature.hashvalues.shape == (256,)

    def test_from_hashvalues_round_trip(self, factory):
        signature = factory.from_tokens({"a", "b"})
        rebuilt = factory.from_hashvalues(signature.hashvalues)
        assert rebuilt == signature

    def test_from_hashvalues_rejects_wrong_shape(self, factory):
        with pytest.raises(ValueError):
            factory.from_hashvalues(np.zeros(10, dtype=np.uint64))

    def test_empty_signature_flag(self, factory):
        assert factory.empty().is_empty()
        assert not factory.from_tokens({"a"}).is_empty()

    def test_merge_equals_union_signature(self, factory):
        first = factory.from_tokens({"a", "b"})
        second = factory.from_tokens({"c"})
        union = factory.from_tokens({"a", "b", "c"})
        assert factory.merge(first, second) == union


class TestJaccardEstimation:
    def test_identical_sets_estimate_one(self, factory):
        tokens = {"salford", "bolton", "bury"}
        assert factory.from_tokens(tokens).jaccard(factory.from_tokens(tokens)) == 1.0

    def test_disjoint_sets_estimate_near_zero(self, factory):
        first = factory.from_tokens({f"a{i}" for i in range(50)})
        second = factory.from_tokens({f"b{i}" for i in range(50)})
        assert first.jaccard(second) < 0.05

    def test_estimate_close_to_exact(self, factory):
        first = {f"tok{i}" for i in range(0, 60)}
        second = {f"tok{i}" for i in range(30, 90)}
        exact = exact_jaccard(first, second)
        estimate = factory.from_tokens(first).jaccard(factory.from_tokens(second))
        assert abs(estimate - exact) < 0.12

    def test_distance_in_unit_interval(self, factory):
        first = factory.from_tokens({"a", "b", "c"})
        second = factory.from_tokens({"b", "c", "d"})
        assert 0.0 <= first.jaccard_distance(second) <= 1.0

    def test_symmetric(self, factory):
        first = factory.from_tokens({"a", "b", "c"})
        second = factory.from_tokens({"c", "d"})
        assert first.jaccard(second) == second.jaccard(first)

    def test_incompatible_signatures_raise(self, factory):
        other_factory = MinHashFactory(num_perm=256, seed=2)
        with pytest.raises(ValueError):
            factory.from_tokens({"a"}).jaccard(other_factory.from_tokens({"a"}))

    def test_different_num_perm_raise(self, factory):
        other_factory = MinHashFactory(num_perm=128, seed=1)
        with pytest.raises(ValueError):
            factory.from_tokens({"a"}).jaccard(other_factory.from_tokens({"a"}))

    def test_bytes_size_reflects_signature(self, factory):
        assert factory.from_tokens({"a"}).bytes_size() == 256 * 4
