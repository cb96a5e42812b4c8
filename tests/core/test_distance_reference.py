"""An independent check of the two distance kernels.

The batched kernels score MinHash agreement (``uint32`` rows) and random
projection XOR popcounts (bits packed 8 to a byte) through precomputed
lookup tables; the scalar signature methods use the same tables' formulas.
Here the distances are recomputed from the signatures position by position
in plain Python, with ``math.cos`` — no kernel, no lookup table, no packed
row — for every (target attribute, candidate) pair of a small lake, and for
drawn rows: empty (all ``MAX_HASH``) rows, zero-vector rows, values sharing
their low 16 bits, and bit counts that do not fill a byte.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lsh.hashing import MAX_HASH
from repro.lsh.minhash import batch_jaccard_distances
from repro.lsh.random_projection import batch_cosine_distances

_MAX = int(MAX_HASH)


def reference_jaccard(query, row, query_empty, row_empty):
    """Estimated Jaccard distance: the share of agreeing positions."""
    if query_empty or row_empty:
        return 1.0
    agreements = 0
    for first, second in zip(query.tolist(), row.tolist()):
        agreements += first == second
    return min(1.0, max(0.0, 1.0 - agreements / len(query)))


def reference_cosine(query_bits, row_bits, query_zero, row_zero):
    """Estimated cosine distance: the share of differing bits, as an angle."""
    if query_zero or row_zero:
        return 1.0
    differing = 0
    for first, second in zip(query_bits.tolist(), row_bits.tolist()):
        differing += first != second
    return min(1.0, max(0.0, 1.0 - math.cos(differing / len(query_bits) * math.pi)))


def reference_distance(evidence, query, stored):
    if evidence is EvidenceType.EMBEDDING:
        return reference_cosine(query.bits, stored.bits, query.is_zero, stored.is_zero)
    return reference_jaccard(
        query.hashvalues,
        stored.hashvalues,
        all(value == _MAX for value in query.hashvalues.tolist()),
        all(value == _MAX for value in stored.hashvalues.tolist()),
    )


@pytest.fixture(scope="module")
def lake_engine():
    corpus = generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3, tables_per_base=2, base_rows=30, min_rows=12, max_rows=24, seed=8
        )
    )
    engine = D3L(config=D3LConfig(num_hashes=128, num_trees=8, embedding_dimension=16))
    engine.index_lake(corpus.lake)
    yield corpus, engine
    engine.close()


class TestLakeDistances:
    @pytest.mark.parametrize("evidence", EvidenceType.indexed(), ids=str)
    def test_every_pair_matches_the_reference(self, lake_engine, evidence):
        corpus, engine = lake_engine
        indexes = engine.indexes
        # Each stored signature, signed again from its profile: the
        # reference never reads a matrix row.
        stored = {
            item: indexes.signatures_for(profile)[evidence]
            for item, profile in enumerate(indexes._profile_of)
            if profile is not None
        }
        every_id = np.asarray(sorted(stored), dtype=np.int32)
        targets = [
            profile
            for name in corpus.lake.table_names[::2]
            for profile in indexes.profile_table(corpus.lake.table(name)).attributes.values()
        ]
        queries = [indexes.signatures_for(profile)[evidence] for profile in targets]
        answers = indexes.multi_lookup(evidence, queries, k=len(stored))
        everything = indexes.multi_batch_attribute_distances(
            evidence, targets, [every_id] * len(targets), signatures=queries
        )
        checked = 0
        for query, answer, distances in zip(queries, answers, everything):
            if query is None:
                assert len(answer.ids) == 0
                continue
            for item, distance in zip(answer.ids.tolist(), answer.distances.tolist()):
                assert distance == reference_distance(evidence, query, stored[item])
                checked += 1
            for item, distance in zip(every_id.tolist(), distances.tolist()):
                expected = (
                    1.0 if stored[item] is None
                    else reference_distance(evidence, query, stored[item])
                )
                assert distance == expected
        assert checked


_VALUES = st.sampled_from([0, 5, 5 + 2**16, 5 + 2**31, 2**20, _MAX])


@st.composite
def minhash_rows(draw):
    width = draw(st.integers(min_value=1, max_value=40))
    row = st.lists(_VALUES, min_size=width, max_size=width)
    query = draw(row)
    rows = draw(st.lists(st.one_of(row, st.just([_MAX] * width)), min_size=1, max_size=8))
    return np.array(query, dtype=np.uint32), np.array(rows, dtype=np.uint32)


@st.composite
def projection_rows(draw):
    width = draw(st.integers(min_value=1, max_value=40))
    bits = st.lists(st.integers(min_value=0, max_value=1), min_size=width, max_size=width)
    query = draw(bits)
    rows = draw(st.lists(bits, min_size=1, max_size=8))
    zero = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    return (
        np.array(query, dtype=np.uint8),
        np.array(rows, dtype=np.uint8),
        draw(st.booleans()),
        np.array(zero, dtype=bool),
    )


class TestDrawnRows:
    @settings(max_examples=100, deadline=None)
    @given(minhash_rows())
    def test_jaccard_kernel(self, drawn):
        query, rows = drawn
        query_empty = bool((query == _MAX).all())
        empty = (rows == _MAX).all(axis=1)
        batched = batch_jaccard_distances(query, rows, query_empty=query_empty, empty_rows=empty)
        assert batched.tolist() == [
            reference_jaccard(query, row, query_empty, row_empty)
            for row, row_empty in zip(rows, empty.tolist())
        ]

    @settings(max_examples=100, deadline=None)
    @given(projection_rows())
    def test_cosine_kernel_on_packed_rows(self, drawn):
        query, rows, query_zero, zero = drawn
        batched = batch_cosine_distances(
            query, np.packbits(rows, axis=1), query_zero=query_zero, zero_rows=zero
        )
        assert batched.tolist() == [
            reference_cosine(query, row, query_zero, row_zero)
            for row, row_zero in zip(rows, zero.tolist())
        ]
