"""Property-based tests for the LSH index structures."""

from hypothesis import assume, given, settings, strategies as st

from repro.lsh.lsh_forest import LSHForest
from repro.lsh.minhash import MinHashFactory
from repro.lsh.random_projection import RandomProjectionFactory

import numpy as np

_FACTORY = MinHashFactory(num_perm=64, seed=7)

token_sets = st.lists(
    st.sets(st.text(alphabet="abcdef012345", min_size=1, max_size=6), min_size=1, max_size=20),
    min_size=1,
    max_size=10,
)


class TestForestProperties:
    @given(token_sets)
    @settings(max_examples=40, deadline=None)
    def test_every_item_retrieves_itself(self, sets):
        forest = LSHForest(num_hashes=64, num_trees=8)
        signatures = {}
        for i, tokens in enumerate(sets):
            signature = _FACTORY.from_tokens(tokens)
            signatures[i] = signature
            forest.insert(i, signature.hashvalues)
        for i, signature in signatures.items():
            assert i in forest.query(signature.hashvalues, k=len(sets))

    @given(token_sets, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_query_never_exceeds_available_items(self, sets, k):
        forest = LSHForest(num_hashes=64, num_trees=8)
        for i, tokens in enumerate(sets):
            forest.insert(i, _FACTORY.from_tokens(tokens).hashvalues)
        results = forest.query(_FACTORY.from_tokens(sets[0]).hashvalues, k=k)
        assert len(results) <= len(sets)
        assert len(set(results)) == len(results)

    @given(token_sets, st.data())
    @settings(max_examples=40, deadline=None)
    def test_removed_items_are_never_returned(self, sets, data):
        forest = LSHForest(num_hashes=64, num_trees=8)
        signatures = [_FACTORY.from_tokens(tokens).hashvalues for tokens in sets]
        for i, signature in enumerate(signatures):
            forest.insert(i, signature)
        removed = data.draw(st.sets(st.sampled_from(range(len(sets)))))
        for i in removed:
            forest.remove(i)
        assert len(forest) == len(sets) - len(removed)
        for i, signature in enumerate(signatures):
            results = forest.query(signature, k=len(sets))
            assert removed.isdisjoint(results)
            assert (i in results) == (i not in removed)

    @given(token_sets)
    @settings(max_examples=40, deadline=None)
    def test_reinserted_items_retrieve_themselves(self, sets):
        forest = LSHForest(num_hashes=64, num_trees=8)
        signatures = [_FACTORY.from_tokens(tokens).hashvalues for tokens in sets]
        for i, signature in enumerate(signatures):
            forest.insert(i, signature)
        for i in range(len(sets)):
            forest.remove(i)
        assert len(forest) == 0
        assert forest.query(signatures[0], k=len(sets)) == []
        for i, signature in enumerate(signatures):
            forest.insert(i, signature)
        for i, signature in enumerate(signatures):
            assert i in forest.query(signature, k=len(sets))


class TestRandomProjectionProperties:
    vectors = st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=4
    )

    @given(vectors)
    @settings(max_examples=80, deadline=None)
    def test_scaling_invariance(self, vector):
        factory = RandomProjectionFactory(num_bits=64, seed=3)
        array = np.asarray(vector)
        # Vectors whose squared norm underflows to zero are treated as zero
        # vectors by design; scaling invariance only applies above that.
        assume(float(np.linalg.norm(array)) > 1e-6)
        original = factory.from_vector(array)
        scaled = factory.from_vector(array * 3.5)
        assert original.cosine_distance(scaled) == 0.0

    @given(vectors, vectors)
    @settings(max_examples=80, deadline=None)
    def test_distance_bounded(self, first, second):
        factory = RandomProjectionFactory(num_bits=64, seed=5)
        a = factory.from_vector(np.asarray(first))
        b = factory.from_vector(np.asarray(second))
        assert 0.0 <= a.cosine_distance(b) <= 1.0
