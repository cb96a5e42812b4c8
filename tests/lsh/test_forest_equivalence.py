"""Equivalence of the vectorized LSH backend with the scalar reference.

The vectorized forest/distance paths must return byte-identical signatures
and identical ``(key, distance)`` rankings to the scalar seed implementation
kept in ``repro.lsh.reference``; these tests pin that contract on a seeded
synthetic lake, and property tests cover insert/remove/re-insert consistency
under tombstone compaction.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lsh.hashing import HashFamily, clear_token_hash_cache, hash_token, hash_tokens
from repro.lsh.lsh_forest import LSHForest
from repro.lsh.minhash import MinHashFactory, batch_jaccard_distances
from repro.lsh.random_projection import RandomProjectionFactory, batch_cosine_distances
from repro.lsh.reference import (
    ScalarLSHForest,
    scalar_hash_tokens,
    scalar_ks_statistic,
    scalar_signature_distance,
)
from repro.stats.ks import ks_statistic, ks_statistic_sorted

NUM_HASHES = 128
NUM_TREES = 8


def _synthetic_lake(num_items, seed, num_families=12, family_size=40, noise=8):
    """Seeded token sets grouped into overlapping families (near-neighbors)."""
    rng = random.Random(seed)
    families = [
        {f"fam{f}-tok{t}" for t in range(family_size)} for f in range(num_families)
    ]
    items = []
    for index in range(num_items):
        base = families[rng.randrange(num_families)]
        kept = {token for token in base if rng.random() > 0.2}
        extra = {f"item{index}-noise{j}" for j in range(rng.randrange(noise))}
        items.append((f"attr{index}", kept | extra))
    return items


@pytest.fixture
def factory():
    return MinHashFactory(num_perm=NUM_HASHES, seed=5)


@pytest.fixture
def lake(factory):
    items = _synthetic_lake(num_items=60, seed=17)
    return [(key, factory.from_tokens(tokens)) for key, tokens in items]


def _paired_forests(lake):
    vectorized = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
    scalar = ScalarLSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
    for key, signature in lake:
        vectorized.insert(key, signature.hashvalues)
        scalar.insert(key, signature.hashvalues)
    return vectorized, scalar


def _assert_batch_matches_scalar(vectorized, scalar, signatures, k):
    """``multi_query`` entry ``i`` equals the scalar descent of signature
    ``i`` element for element (``None`` signatures: empty lists)."""
    expected = [[] if signature is None else scalar.query(signature, k) for signature in signatures]
    assert named(vectorized, vectorized.multi_query(signatures, k)) == expected


def named(forest, answers):
    """``multi_query`` answers (id arrays) read back as lists of items."""
    return [[forest.ids.items[item] for item in ids.tolist()] for ids in answers]


class TestSignatureEquivalence:
    def test_hash_tokens_matches_scalar_reference(self):
        rng = random.Random(3)
        for _ in range(20):
            tokens = {f"tok{rng.randrange(200)}" for _ in range(rng.randrange(1, 40))}
            fast = hash_tokens(tokens, seed=9)
            reference = scalar_hash_tokens(tokens, seed=9)
            assert np.array_equal(np.sort(fast), np.sort(reference))

    def test_hash_tokens_cache_returns_identical_values(self):
        clear_token_hash_cache()
        tokens = {f"cached{i}" for i in range(50)}
        first = np.sort(hash_tokens(tokens, seed=2))
        second = np.sort(hash_tokens(tokens, seed=2))  # fully cached pass
        assert np.array_equal(first, second)
        assert all(
            hash_token(token, seed=2) in set(first.tolist()) for token in tokens
        )

    def test_minhash_signatures_byte_identical(self, factory):
        family = HashFamily(NUM_HASHES, seed=5)
        for _, tokens in _synthetic_lake(num_items=15, seed=23):
            fast = factory.from_tokens(tokens).hashvalues
            reference = family.minhash_values(scalar_hash_tokens(tokens, seed=5))
            assert fast.tobytes() == reference.tobytes()


class TestForestEquivalence:
    def test_candidates_identical_across_ks(self, lake):
        vectorized, scalar = _paired_forests(lake)
        for key, signature in lake[::5]:
            for k in (1, 3, 10, 25, 200):
                assert vectorized.query(signature.hashvalues, k) == scalar.query(
                    signature.hashvalues, k
                ), f"divergence at key={key} k={k}"
        batch = [signature.hashvalues for _, signature in lake[::5]]
        for k in (1, 3, 10, 25, 200):
            _assert_batch_matches_scalar(vectorized, scalar, batch, k)

    def test_candidates_identical_with_exclude(self, lake):
        vectorized, scalar = _paired_forests(lake)
        for key, signature in lake[::7]:
            assert vectorized.query(
                signature.hashvalues, 10, exclude=key
            ) == scalar.query(signature.hashvalues, 10, exclude=key)

    def test_query_all_identical(self, lake):
        vectorized, scalar = _paired_forests(lake)
        _, signature = lake[0]
        assert vectorized.query_all(signature.hashvalues) == scalar.query_all(
            signature.hashvalues
        )
        answers = vectorized.multi_query([signature.hashvalues], len(lake) + 1)
        assert named(vectorized, answers) == [scalar.query_all(signature.hashvalues)]

    def test_rankings_identical(self, lake):
        """(key, distance) rankings — the contract the discovery engine needs."""
        vectorized, scalar = _paired_forests(lake)
        signatures = dict(lake)

        def ranking(forest, key, signature):
            candidates = forest.query(signature.hashvalues, 20, exclude=key)
            return sorted(
                (scalar_signature_distance(signature, signatures[other]), other)
                for other in candidates
            )

        for key, signature in lake[::6]:
            assert ranking(vectorized, key, signature) == ranking(scalar, key, signature)

    def test_equivalence_after_removals(self, lake):
        vectorized, scalar = _paired_forests(lake)
        for key, _ in lake[::3]:
            vectorized.remove(key)
            scalar.remove(key)
        for key, signature in lake[1::4]:
            assert vectorized.query(signature.hashvalues, 15) == scalar.query(
                signature.hashvalues, 15
            )
        batch = [signature.hashvalues for _, signature in lake]
        _assert_batch_matches_scalar(vectorized, scalar, batch, 15)

    def test_equivalence_under_compaction(self, factory):
        """Enough removals to trigger tombstone compaction, then re-inserts."""
        items = _synthetic_lake(num_items=80, seed=31)
        lake = [(key, factory.from_tokens(tokens)) for key, tokens in items]
        vectorized, scalar = _paired_forests(lake)
        # Remove well over half the rows: compaction fires in every tree.
        for key, _ in lake[:50]:
            vectorized.remove(key)
            scalar.remove(key)
        # Re-insert a third of the removed items.
        for key, signature in lake[:17]:
            vectorized.insert(key, signature.hashvalues)
            scalar.insert(key, signature.hashvalues)
        assert len(vectorized) == len(scalar)
        # The batch is the first query after the re-inserts: it merges the
        # pending buffer itself.
        batch = [signature.hashvalues for _, signature in lake[::4]]
        _assert_batch_matches_scalar(vectorized, scalar, batch, 12)
        for key, signature in lake[::4]:
            assert vectorized.query(signature.hashvalues, 12) == scalar.query(
                signature.hashvalues, 12
            )

    def test_batch_over_tombstones_and_pending_inserts(self, lake):
        vectorized, scalar = _paired_forests(lake[:40])
        batch = [signature.hashvalues for _, signature in lake[::3]]
        _assert_batch_matches_scalar(vectorized, scalar, batch, 5)
        # Tombstones below the compaction threshold: dead rows stay in place.
        for key, _ in lake[:6]:
            vectorized.remove(key)
            scalar.remove(key)
        assert all(tree._dead for tree in vectorized._trees)
        for k in (1, 7, 30):
            _assert_batch_matches_scalar(vectorized, scalar, batch, k)
        # Unmerged inserts: the batch merges them before descending.
        for key, signature in lake[40:]:
            vectorized.insert(key, signature.hashvalues)
            scalar.insert(key, signature.hashvalues)
        assert all(tree._pending for tree in vectorized._trees)
        for k in (1, 7, 30):
            _assert_batch_matches_scalar(vectorized, scalar, batch, k)

    def test_bit_signatures_match_scalar(self):
        """Random-projection bits (the embedding evidence): two key values per
        position, so wide prefix ranges and many non-empty steps."""
        rng = np.random.default_rng(7)
        projections = RandomProjectionFactory(num_bits=NUM_HASHES, seed=3)
        lake = [
            (f"vec{index}", projections.from_vector(rng.standard_normal(16)).bits)
            for index in range(80)
        ]
        vectorized = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        scalar = ScalarLSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        for key, bits in lake:
            vectorized.insert(key, bits)
            scalar.insert(key, bits)
        batch = [bits for _, bits in lake[::4]]
        for k in (1, 10, 40, 100):
            _assert_batch_matches_scalar(vectorized, scalar, batch, k)
            for _, bits in lake[::9]:
                assert vectorized.query(bits, k) == scalar.query(bits, k)

    def test_mixed_batch_with_none_signatures(self, lake):
        vectorized, scalar = _paired_forests(lake)
        batch = [None, lake[3][1].hashvalues, None, None, lake[8][1].hashvalues, None]
        for k in (1, 10, 100):
            _assert_batch_matches_scalar(vectorized, scalar, batch, k)
        assert named(vectorized, vectorized.multi_query([None, None], 5)) == [[], []]
        assert vectorized.multi_query([], 5) == []

    def test_non_positive_k_yields_empty_lists(self, lake):
        vectorized, scalar = _paired_forests(lake)
        batch = [lake[0][1].hashvalues, None, lake[1][1].hashvalues]
        for k in (0, -3):
            assert named(vectorized, vectorized.multi_query(batch, k)) == [[], [], []]
            assert vectorized.query(batch[0], k) == scalar.query(batch[0], k) == []

    def test_empty_forest_yields_empty_lists(self, lake):
        vectorized = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        signature = lake[0][1].hashvalues
        assert named(vectorized, vectorized.multi_query([signature, None], 10)) == [[], []]
        assert vectorized.query(signature, 10) == []
        assert vectorized.query_all(signature) == []
        # Emptied by removals: every row is dead or compacted away.
        vectorized, scalar = _paired_forests(lake[:5])
        for key, _ in lake[:5]:
            vectorized.remove(key)
            scalar.remove(key)
        _assert_batch_matches_scalar(vectorized, scalar, [signature, None], 10)


class TestBatchDistanceEquivalence:
    def test_jaccard_batch_matches_pairwise(self, factory, lake):
        query = lake[0][1]
        matrix = np.vstack([signature.hashvalues for _, signature in lake])
        empty_rows = np.array([signature.is_empty() for _, signature in lake])
        batched = batch_jaccard_distances(
            query.hashvalues, matrix, query_empty=query.is_empty(), empty_rows=empty_rows
        )
        for row, (_, signature) in enumerate(lake):
            assert batched[row] == query.jaccard_distance(signature)

    def test_jaccard_batch_empty_conventions(self, factory):
        empty = factory.empty()
        full = factory.from_tokens({"a", "b", "c"})
        matrix = np.vstack([empty.hashvalues, full.hashvalues])
        flags = np.array([True, False])
        batched = batch_jaccard_distances(
            full.hashvalues, matrix, query_empty=False, empty_rows=flags
        )
        assert batched[0] == 1.0  # empty stored row
        assert batch_jaccard_distances(
            empty.hashvalues, matrix, query_empty=True, empty_rows=flags
        ).tolist() == [1.0, 1.0]

    def test_cosine_batch_matches_pairwise(self):
        rng = np.random.default_rng(11)
        projections = RandomProjectionFactory(num_bits=64, seed=3)
        signatures = [
            projections.from_vector(rng.standard_normal(16)) for _ in range(30)
        ]
        signatures.append(projections.from_vector(np.zeros(16)))
        query = signatures[0]
        matrix = np.vstack([signature.bits for signature in signatures])
        zero_rows = np.array([signature.is_zero for signature in signatures])
        batched = batch_cosine_distances(
            query.bits, matrix, query_zero=query.is_zero, zero_rows=zero_rows
        )
        for row, signature in enumerate(signatures):
            assert batched[row] == query.cosine_distance(signature)


class TestKSFastPath:
    def test_sorted_fast_path_matches_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            a = rng.normal(size=rng.integers(1, 80)).tolist()
            b = (rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(1, 80))).tolist()
            a_sorted = np.sort(np.asarray(a, dtype=np.float64))
            b_sorted = np.sort(np.asarray(b, dtype=np.float64))
            expected = scalar_ks_statistic(a, b)
            assert ks_statistic(a, b) == expected
            assert ks_statistic_sorted(a_sorted, b_sorted) == expected

    def test_sorted_fast_path_empty_samples(self):
        empty = np.empty(0, dtype=np.float64)
        values = np.array([1.0, 2.0])
        assert ks_statistic_sorted(empty, values) == 1.0
        assert ks_statistic_sorted(values, empty) == 1.0


# --------------------------------------------------------------------- #
# property tests: insert / remove / re-insert under tombstone compaction
# --------------------------------------------------------------------- #

_PROPERTY_FACTORY = MinHashFactory(num_perm=64, seed=13)

operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=11), st.booleans()),
    min_size=1,
    max_size=60,
)


class TestInsertRemoveProperties:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_vectorized_tracks_scalar_model(self, ops):
        vectorized = LSHForest(num_hashes=64, num_trees=4)
        scalar = ScalarLSHForest(num_hashes=64, num_trees=4)
        versions = {}
        for item_id, is_insert in ops:
            key = f"item{item_id}"
            if is_insert:
                version = versions.get(key, 0) + 1
                versions[key] = version
                tokens = {f"{key}-v{version}-t{t}" for t in range(12)}
                signature = _PROPERTY_FACTORY.from_tokens(tokens).hashvalues
                vectorized.insert(key, signature)
                scalar.insert(key, signature)
            else:
                vectorized.remove(key)
                scalar.remove(key)
        assert len(vectorized) == len(scalar)
        assert set(vectorized.keys()) == set(scalar.keys())
        for key in vectorized.keys():
            stored = vectorized.signature(key)
            assert np.array_equal(stored, scalar.signature(key))
            assert vectorized.query(stored, 8) == scalar.query(stored, 8)
        batch = [vectorized.signature(key) for key in vectorized.keys()]
        _assert_batch_matches_scalar(vectorized, scalar, batch, 8)

    @given(st.integers(min_value=20, max_value=48), st.integers(min_value=0, max_value=9999))
    @settings(max_examples=25, deadline=None)
    def test_remove_then_reinsert_is_consistent(self, count, seed):
        rng = random.Random(seed)
        forest = LSHForest(num_hashes=64, num_trees=4)
        signatures = {}
        for index in range(count):
            key = f"k{index}"
            tokens = {f"{key}-{seed}-{t}" for t in range(10)}
            signatures[key] = _PROPERTY_FACTORY.from_tokens(tokens).hashvalues
            forest.insert(key, signatures[key])
        removed = rng.sample(sorted(signatures), k=count * 3 // 4)
        for key in removed:
            forest.remove(key)
        assert len(forest) == count - len(removed)
        for key in removed:
            assert key not in forest
            assert key not in forest.query_all(signatures[key])
        for key in removed:
            forest.insert(key, signatures[key])
        assert len(forest) == count
        for key, signature in signatures.items():
            assert forest.query(signature, 1) == [key] or key in forest.query(
                signature, count
            )
