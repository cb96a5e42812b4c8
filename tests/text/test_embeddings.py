"""Tests for the word-embedding model substrates."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lsh.random_projection import exact_cosine_similarity
from repro.text.embeddings import (
    CooccurrenceEmbedding,
    HashingSubwordEmbedding,
    _normalise,
    _standard_normal_rows,
    aggregate_vectors,
)


# --------------------------------------------------------------------------- #
# Oracle: one NumPy Generator per subword, the draw's defining formula.
# --------------------------------------------------------------------------- #
def reference_seed(model, ngram):
    digest = hashlib.blake2b(
        ngram.encode("utf-8", errors="replace"),
        digest_size=8,
        key=model.seed.to_bytes(8, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


def reference_subword_vector(model, ngram):
    generator = np.random.default_rng(reference_seed(model, ngram))
    return generator.standard_normal(model.dimension)


def reference_vector(model, word):
    word = word.strip().lower()
    if not word:
        return np.zeros(model.dimension, dtype=np.float64)
    vectors = np.vstack([reference_subword_vector(model, gram) for gram in model._ngrams(word)])
    return _normalise(vectors.mean(axis=0))


def reference_cache_keys(words, cache_size):
    """The words a fresh model caches after ``vector(w) for w in words``."""
    keys = []
    for word in words:
        key = word.strip().lower()
        if key and key not in keys and len(keys) < cache_size:
            keys.append(key)
    return keys


#: N-gram text, including lone surrogates (the ``errors="replace"`` path).
ngram_text = st.text(
    alphabet=st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=8
)
#: Words with case and whitespace variants, empties and in-batch duplicates.
word_lists = st.lists(
    st.one_of(
        ngram_text,
        st.sampled_from(["", "  ", "Street", "street", " STREET ", "gp", "M1 3BE", "\ud800x"]),
    ),
    max_size=12,
)


class TestAggregateVectors:
    def test_empty_input_gives_zero_vector(self):
        result = aggregate_vectors([], dimension=8)
        assert result.shape == (8,)
        assert not np.any(result)

    def test_single_vector_is_normalised(self):
        result = aggregate_vectors([np.array([3.0, 4.0])], dimension=2)
        assert np.linalg.norm(result) == pytest.approx(1.0)

    def test_mean_of_identical_vectors(self):
        vector = np.array([1.0, 0.0])
        result = aggregate_vectors([vector, vector], dimension=2)
        assert result == pytest.approx(vector)


class TestHashingSubwordEmbedding:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HashingSubwordEmbedding(dimension=0)
        with pytest.raises(ValueError):
            HashingSubwordEmbedding(ngram_range=(3, 2))

    def test_dimension(self):
        model = HashingSubwordEmbedding(dimension=32)
        assert model.vector("street").shape == (32,)

    def test_deterministic(self):
        model = HashingSubwordEmbedding(dimension=32, seed=5)
        assert np.array_equal(model.vector("street"), model.vector("street"))

    def test_case_insensitive(self):
        model = HashingSubwordEmbedding(dimension=32)
        assert np.array_equal(model.vector("Street"), model.vector("street"))

    def test_empty_word_gives_zero_vector(self):
        model = HashingSubwordEmbedding(dimension=16)
        assert not np.any(model.vector(""))

    def test_vectors_are_normalised(self):
        model = HashingSubwordEmbedding(dimension=32)
        assert np.linalg.norm(model.vector("postcode")) == pytest.approx(1.0)

    def test_morphologically_similar_words_are_close(self):
        model = HashingSubwordEmbedding(dimension=64)
        similar = exact_cosine_similarity(model.vector("practice"), model.vector("practices"))
        different = exact_cosine_similarity(model.vector("practice"), model.vector("payment"))
        assert similar > different

    def test_short_word_still_embedded(self):
        model = HashingSubwordEmbedding(dimension=16)
        assert np.any(model.vector("gp"))


class TestCooccurrenceEmbedding:
    @pytest.fixture(scope="class")
    def trained(self):
        sentences = []
        # street / road / avenue co-occur with addresses; city names co-occur
        # with each other.
        for i in range(30):
            sentences.append(["address", "street", "road", f"number{i % 5}"])
            sentences.append(["address", "avenue", "road", f"number{i % 7}"])
            sentences.append(["city", "manchester", "salford", "bolton"])
            sentences.append(["payment", "amount", "funding", "spend"])
        return CooccurrenceEmbedding.train(sentences, dimension=16, seed=1)

    def test_vocabulary_contains_frequent_words(self, trained):
        assert "street" in trained
        assert "road" in trained

    def test_rare_words_fall_back_to_subwords(self, trained):
        vector = trained.vector("neverseenword")
        assert vector.shape == (16,)
        assert np.any(vector)

    def test_cooccurring_words_are_closer_than_non_cooccurring(self, trained):
        street_road = exact_cosine_similarity(trained.vector("street"), trained.vector("road"))
        street_payment = exact_cosine_similarity(
            trained.vector("street"), trained.vector("payment")
        )
        assert street_road > street_payment

    def test_vectors_normalised(self, trained):
        assert np.linalg.norm(trained.vector("street")) == pytest.approx(1.0)

    def test_empty_training_corpus(self):
        model = CooccurrenceEmbedding.train([], dimension=8)
        assert model.vector("anything").shape == (8,)

    def test_min_count_filters_rare_words(self):
        model = CooccurrenceEmbedding.train(
            [["common", "common", "rare"]], dimension=8, min_count=2
        )
        assert "rare" not in model


class TestBatchedDraw:
    """The batched draw equals one ``default_rng`` per subword, bit for bit."""

    @pytest.mark.parametrize("dimension", [1, 8, 64])
    def test_explicit_seeds(self, dimension):
        seeds = [0, 1, 2, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        rows = _standard_normal_rows(np.array(seeds, dtype=np.uint64), dimension)
        for row, seed in zip(rows, seeds):
            expected = np.random.default_rng(seed).standard_normal(dimension)
            assert row.tobytes() == expected.tobytes()

    def test_empty_batch(self):
        assert _standard_normal_rows(np.array([], dtype=np.uint64), 8).shape == (0, 8)

    @given(st.lists(ngram_text, min_size=1, max_size=20), st.sampled_from([8, 64]))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_reference(self, ngrams, dimension):
        model = HashingSubwordEmbedding(dimension=dimension, seed=3)
        seeds = model._subword_seeds(ngrams)
        assert seeds.tolist() == [reference_seed(model, gram) for gram in ngrams]
        rows = _standard_normal_rows(seeds, dimension)
        for row, gram in zip(rows, ngrams):
            assert row.tobytes() == reference_subword_vector(model, gram).tobytes()

    @given(word_lists, st.sampled_from([8, 64]))
    @settings(max_examples=60, deadline=None)
    def test_vectors_equal_reference(self, words, dimension):
        model = HashingSubwordEmbedding(dimension=dimension)
        vectors = model.vectors(words)
        assert len(vectors) == len(words)
        for vector, word in zip(vectors, words):
            assert vector.dtype == np.float64
            assert np.array_equal(vector, reference_vector(model, word))
        assert list(model._cache) == reference_cache_keys(words, 50000)

    @given(word_lists, word_lists)
    @settings(max_examples=40, deadline=None)
    def test_full_cache(self, first, second):
        model = HashingSubwordEmbedding(dimension=8, cache_size=2)
        for words in (first, second):
            for vector, word in zip(model.vectors(words), words):
                assert np.array_equal(vector, reference_vector(model, word))
        assert list(model._cache) == reference_cache_keys(first + second, 2)

    def test_cached_words_are_reused(self):
        model = HashingSubwordEmbedding(dimension=8)
        first = model.vector("street")
        assert model.vectors(["Street", " street"])[0] is first
        assert model.vectors(["Street", " street"])[1] is first

    def test_vector_is_single_batch(self):
        model = HashingSubwordEmbedding(dimension=8)
        for word in ["street", "", "gp", "\ud800"]:
            assert np.array_equal(model.vector(word), reference_vector(model, word))


class TestCooccurrenceVectors:
    def test_vectors_equal_per_word_vector(self):
        sentences = [["street", "road", "avenue"], ["street", "road", "lane"]] * 3
        model = CooccurrenceEmbedding.train(sentences, dimension=8, seed=2)
        words = ["street", "Road ", "unseen", "", "street", "UNSEEN", "other"]
        expected = [model.vector(word) for word in words]
        fresh = CooccurrenceEmbedding.train(sentences, dimension=8, seed=2)
        for vector, reference in zip(fresh.vectors(words), expected):
            assert np.array_equal(vector, reference)
        assert "street" in model and "unseen" not in model
