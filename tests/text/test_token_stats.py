"""Tests for token histograms and informative-token selection."""

from hypothesis import given, settings, strategies as st

from repro.text.token_stats import (
    TokenHistogram,
    informative_and_frequent_tokens,
    value_token_set,
)
from repro.text.tokenizer import tokenize_parts


def reference_informative_and_frequent_tokens(values):
    """Oracle: Algorithm 1's token pass, one value at a time."""
    histogram = TokenHistogram()
    per_value_parts = []
    for value in values:
        parts = tokenize_parts(str(value))
        per_value_parts.append(parts)
        histogram.insert([token for part in parts for token in part])

    tset = set()
    embedding_tokens = set()
    for parts in per_value_parts:
        for part in parts:
            if not part:
                continue
            rarest = min(part, key=lambda token: (histogram.count(token), -len(token), token))
            commonest = max(part, key=lambda token: (histogram.count(token), len(token), token))
            tset.add(rarest)
            embedding_tokens.add(commonest)
    return tset, embedding_tokens


def reference_value_token_set(values):
    tokens = set()
    for value in values:
        for part in tokenize_parts(str(value)):
            tokens.update(part)
    return tokens


#: Extents of a few values repeated many times, with whitespace-only,
#: punctuation-only and case-variant values in the mix.
repetitive_extents = st.lists(
    st.one_of(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=30),
        st.sampled_from(
            [
                "",
                " ",
                "\t \n",
                "--",
                "/.,;",
                "Salford",
                "SALFORD",
                "salford",
                "18 Portland Street, M1 3BE",
                "18 portland STREET, m1 3be",
                "a b a, b",
            ]
        ),
    ),
    min_size=1,
    max_size=6,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40))


class TestTokenHistogram:
    def test_counts_accumulate(self):
        histogram = TokenHistogram()
        histogram.insert(["street", "portland"])
        histogram.insert(["street", "oxford"])
        assert histogram.count("street") == 2
        assert histogram.count("oxford") == 1
        assert histogram.count("missing") == 0

    def test_total_values(self):
        histogram = TokenHistogram()
        histogram.insert(["a"])
        histogram.insert(["b"])
        assert histogram.total_values == 2

    def test_len_counts_distinct_tokens(self):
        histogram = TokenHistogram()
        histogram.insert(["a", "b", "a"])
        assert len(histogram) == 2

    def test_frequent_and_infrequent_partition(self):
        histogram = TokenHistogram()
        for _ in range(5):
            histogram.insert(["street", f"unique{_}"])
        frequent = histogram.frequent()
        infrequent = histogram.infrequent()
        assert "street" in frequent
        assert all(token in infrequent for token in [f"unique{i}" for i in range(5)])
        assert frequent.isdisjoint(infrequent)
        assert frequent | infrequent == set(histogram.as_dict())

    def test_empty_histogram(self):
        histogram = TokenHistogram()
        assert histogram.frequent() == set()
        assert histogram.infrequent() == set()
        assert histogram.frequency_threshold() == 0.0

    def test_most_common(self):
        histogram = TokenHistogram()
        histogram.insert(["a", "a", "b"])
        assert histogram.most_common(1) == [("a", 2)]

    def test_insert_times_equals_repeated_inserts(self):
        repeated, weighted = TokenHistogram(), TokenHistogram()
        for _ in range(3):
            repeated.insert(["a", "b", "a"])
        weighted.insert(["a", "b", "a"], times=3)
        assert weighted.as_dict() == repeated.as_dict() == {"a": 6, "b": 3}
        assert weighted.total_values == repeated.total_values == 3


class TestInformativeTokens:
    def test_paper_example_addresses(self):
        # The paper's Example 2: street-type words and postcode-area tokens
        # are frequent (weak value signal, strong type signal); house/street
        # identifiers are informative.
        values = [
            "18 Portland Street, M1 3BE",
            "41 Oxford Street, M13 9PL",
            "9 Mirabel Street, M3 1NN",
        ]
        tset, embedding_tokens = informative_and_frequent_tokens(values)
        assert "street" not in tset
        assert "street" in embedding_tokens
        assert {"portland", "oxford", "mirabel"} <= tset | embedding_tokens
        # The distinctive postcode units end up carrying value signal.
        assert {"3be", "9pl", "1nn"} & tset

    def test_unique_values_all_informative(self):
        values = ["alpha", "beta", "gamma"]
        tset, _ = informative_and_frequent_tokens(values)
        assert tset == {"alpha", "beta", "gamma"}

    def test_empty_extent(self):
        tset, embedding_tokens = informative_and_frequent_tokens([])
        assert tset == set()
        assert embedding_tokens == set()

    def test_deterministic(self):
        values = ["a b", "a c", "a d"]
        assert informative_and_frequent_tokens(values) == informative_and_frequent_tokens(values)

    def test_single_word_values(self):
        tset, embedding_tokens = informative_and_frequent_tokens(["Salford", "Salford", "Bolton"])
        assert "salford" in embedding_tokens
        assert "bolton" in tset

    def test_repeats_weight_the_counts(self):
        # "a" is commoner than "b" only when the repeated value counts twice.
        values = ["a b", "a b", "b c", "a"]
        assert informative_and_frequent_tokens(values) == (
            reference_informative_and_frequent_tokens(values)
        )
        assert informative_and_frequent_tokens(values)[1] == {"a", "b"}

    @given(repetitive_extents)
    @settings(max_examples=150, deadline=None)
    def test_equals_per_value_reference(self, values):
        # Equal iteration order too: the sets are filled in the same order,
        # so a pickled profile is byte-identical.
        tset, embedding_tokens = informative_and_frequent_tokens(values)
        expected_tset, expected_tokens = reference_informative_and_frequent_tokens(values)
        assert list(tset) == list(expected_tset)
        assert list(embedding_tokens) == list(expected_tokens)


class TestValueTokenSet:
    def test_union_of_all_tokens(self):
        tokens = value_token_set(["18 Portland Street", "M1 3BE"])
        assert {"18", "portland", "street", "m1", "3be"} == tokens

    def test_empty(self):
        assert value_token_set([]) == set()

    def test_lowercased(self):
        assert value_token_set(["SALFORD"]) == {"salford"}

    @given(repetitive_extents)
    @settings(max_examples=100, deadline=None)
    def test_equals_per_value_reference(self, values):
        assert list(value_token_set(values)) == list(reference_value_token_set(values))
