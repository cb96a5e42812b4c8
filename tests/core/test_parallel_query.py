"""Determinism harness for the process-parallel query fan-out.

Mirror of ``test_parallel_build.py`` for the query side: ``workers=1`` and
``workers=N`` runs of the batched engine must produce indistinguishable
answers — identical rankings, distances, matches, and weights — including
after a persistence-v3 round-trip of the engine.
"""

import pytest

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.parallel import ParallelQueryExecutor
from repro.core.persistence import load_engine, save_engine
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)

from tests.core.test_batched_query import assert_identical_answers, submit


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
def engine(corpus):
    engine = D3L(
        config=D3LConfig(
            num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16
        )
    )
    engine.index_lake(corpus.lake)
    return engine


class TestWorkerDeterminism:
    def test_workers_1_vs_4_identical(self, corpus, engine):
        for name in corpus.lake.table_names[::5]:
            target = corpus.lake.table(name)
            assert_identical_answers(
                submit(engine, target, 5, workers=1),
                submit(engine, target, 5, workers=4),
            )

    def test_more_workers_than_attributes(self, corpus, engine):
        target = corpus.lake.tables[0]
        assert_identical_answers(
            submit(engine, target, 5, workers=1),
            submit(engine, target, 5, workers=4 * target.arity),
        )

    def test_fanned_out_query_matches_sequential_oracle(self, corpus, engine):
        target = corpus.lake.tables[1]
        assert_identical_answers(
            submit(engine, target, 5, engine="sequential"),
            submit(engine, target, 5, workers=3),
        )


class TestPersistenceRoundTrip:
    def test_loaded_engine_queries_identically_across_workers(
        self, corpus, engine, tmp_path
    ):
        path = save_engine(engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        for name in corpus.lake.table_names[::7]:
            target = corpus.lake.table(name)
            original = submit(engine, target, 5, workers=1)
            assert_identical_answers(original, submit(loaded, target, 5, workers=1))
            assert_identical_answers(original, submit(loaded, target, 5, workers=4))
            assert_identical_answers(
                original, submit(loaded, target, 5, engine="sequential")
            )


class TestExecutorApi:
    def test_invalid_workers_rejected(self, engine):
        with pytest.raises(ValueError):
            ParallelQueryExecutor(engine.indexes, workers=0)

    def test_pool_reuse_stays_identical(self, corpus):
        # Repeated fanned-out queries reuse one worker pool (the indexes are
        # shipped once); answers must stay identical to the oracle each time.
        engine = D3L(
            config=D3LConfig(
                num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16
            )
        )
        engine.index_lake(corpus.lake)
        targets = [corpus.lake.tables[0], corpus.lake.tables[3]]
        for _ in range(2):
            for target in targets:
                assert_identical_answers(
                    submit(engine, target, 4, engine="sequential"),
                    submit(engine, target, 4, workers=2),
                )
        assert list(engine._query_executors) == [2]

    def test_lake_mutation_refreshes_worker_pools(self, corpus):
        # The worker pool snapshots the indexes; indexing or removing a table
        # keeps the pool alive (the mutation ships as a per-table delta with
        # the next fanned-out task) while answers must see the new lake.
        engine = D3L(
            config=D3LConfig(
                num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16
            )
        )
        engine.index_lake(corpus.lake)
        target = corpus.lake.tables[1]
        submit(engine, target, 4, workers=2)
        assert engine._query_executors
        executor = engine._query_executors[2]
        pool_before = executor.backend._pool
        extra = corpus.lake.tables[2].with_name("zz_brand_new_table")
        engine.index_table(extra)
        # Single-table mutations no longer tear down the executor cache.
        assert engine._query_executors
        after = submit(engine, extra, 4, exclude_self=False, workers=2)
        # The delta-refreshed pool must see the new table (its byte-identical
        # source ties with it and wins the name tie-break, so check the top
        # two) without having been recreated.
        assert executor.backend._pool is pool_before
        assert "zz_brand_new_table" in after.table_names(2)
        assert_identical_answers(
            submit(engine, extra, 4, engine="sequential", exclude_self=False), after
        )
        engine.remove_table("zz_brand_new_table")
        assert engine._query_executors
        assert_identical_answers(
            submit(engine, target, 4, engine="sequential"),
            submit(engine, target, 4, workers=2),
        )
        after_removal = submit(engine, extra, 4, exclude_self=False, workers=2)
        assert "zz_brand_new_table" not in after_removal.table_names(4)
        # Bulk re-indexing still invalidates wholesale.
        engine.index_lake(corpus.lake)
        assert not engine._query_executors

    def test_cli_workers_route(self, corpus, engine):
        # The default request and workers=1 run the same in-process path.
        target = corpus.lake.tables[2]
        assert_identical_answers(
            submit(engine, target, 4),
            submit(engine, target, 4, workers=1),
        )
