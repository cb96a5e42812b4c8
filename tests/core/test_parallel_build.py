"""Determinism harness for sharded (multi-process) index construction.

``workers=1`` and ``workers=N`` builds of the same lake must be
indistinguishable: identical signature-matrix contents, identical forest key
arrays *and* item orders, and therefore identical top-k query rankings.
Shard partitioning and the merge order are functions of the sorted table
names, so the tests also shuffle lake insertion order and assert nothing
changes.
"""

import numpy as np
import pytest

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.core.parallel import ParallelIndexBuilder, partition_tables
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lake.datalake import DataLake
from tests.core.test_batched_query import submit


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=4,
            tables_per_base=4,
            base_rows=50,
            min_rows=20,
            max_rows=40,
            seed=13,
        )
    )


@pytest.fixture(scope="module")
def config():
    return D3LConfig(num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16)


def _build(corpus, config, workers):
    indexes = D3LIndexes(config=config)
    indexes.add_lake(corpus.lake, workers=workers)
    return indexes


@pytest.fixture(scope="module")
def serial_indexes(corpus, config):
    return _build(corpus, config, workers=1)


@pytest.fixture(scope="module")
def sharded_indexes(corpus, config):
    return _build(corpus, config, workers=4)


def _assert_identical_indexes(first: D3LIndexes, second: D3LIndexes) -> None:
    assert first.table_names == second.table_names
    assert list(first.profiles) == list(second.profiles)
    for evidence in EvidenceType.indexed():
        refs_a, matrix_a, flags_a = first._matrices[evidence].export_state()
        refs_b, matrix_b, flags_b = second._matrices[evidence].export_state()
        assert refs_a == refs_b
        assert matrix_a.dtype == matrix_b.dtype
        assert np.array_equal(matrix_a, matrix_b)
        assert np.array_equal(flags_a, flags_b)
        forest_a = first.forest(evidence).export_state()
        forest_b = second.forest(evidence).export_state()
        for tree_a, tree_b in zip(forest_a["trees"], forest_b["trees"]):
            assert np.array_equal(tree_a["keys"], tree_b["keys"])
            assert tree_a["items"] == tree_b["items"]


class TestShardedBuildDeterminism:
    def test_matrices_and_forests_identical(self, serial_indexes, sharded_indexes):
        _assert_identical_indexes(serial_indexes, sharded_indexes)

    def test_more_workers_than_tables(self, corpus, config):
        small = DataLake("small", corpus.lake.tables[:3])
        serial = D3LIndexes(config=config)
        serial.add_lake(small)
        sharded = D3LIndexes(config=config)
        sharded.add_lake(small, workers=8)
        _assert_identical_indexes(serial, sharded)

    def test_insertion_order_does_not_matter(self, corpus, config, serial_indexes):
        reversed_lake = DataLake("reversed", list(reversed(corpus.lake.tables)))
        sharded = D3LIndexes(config=config)
        sharded.add_lake(reversed_lake, workers=3)
        _assert_identical_indexes(serial_indexes, sharded)

    def test_top_k_rankings_identical(self, corpus, config):
        serial_engine = D3L(config=config)
        serial_engine.index_lake(corpus.lake)
        sharded_engine = D3L(config=config)
        sharded_engine.index_lake(corpus.lake, workers=4)
        for target_name in corpus.lake.table_names[::5]:
            target = corpus.lake.table(target_name)
            serial_answer = submit(serial_engine, target, 5, engine="sequential")
            sharded_answer = submit(sharded_engine, target, 5, engine="sequential")
            assert serial_answer.table_names(5) == sharded_answer.table_names(5)
            assert [result.distance for result in serial_answer.results] == [
                result.distance for result in sharded_answer.results
            ]


class TestParallelBuilderApi:
    def test_invalid_workers_rejected(self, serial_indexes):
        with pytest.raises(ValueError):
            ParallelIndexBuilder(serial_indexes, workers=0)

    def test_build_returns_target_indexes(self, corpus, config):
        indexes = D3LIndexes(config=config)
        built = ParallelIndexBuilder(indexes, workers=2).build(corpus.lake)
        assert built is indexes
        assert built.attribute_count == corpus.lake.attribute_count


class TestPartitioning:
    def test_partition_is_sorted_and_covers_everything(self):
        names = [f"t{i}" for i in range(10)]
        shards = partition_tables(list(reversed(names)), 3)
        assert sorted(name for shard in shards for name in shard) == sorted(names)
        for shard in shards:
            assert shard == sorted(shard)

    def test_partition_independent_of_input_order(self):
        names = ["b", "a", "d", "c", "e"]
        assert partition_tables(names, 2) == partition_tables(sorted(names), 2)

    def test_partition_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            partition_tables(["a"], 0)
