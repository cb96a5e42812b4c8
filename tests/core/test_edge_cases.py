"""Edge-case behaviour of the discovery engine.

Data lakes contain degenerate members: purely numeric tables, single-column
tables, tables full of missing values, unicode content.  Discovery must stay
well-defined (no crashes, distances within bounds) on all of them.  Queries
run on the sequential engine, the batched engine's oracle.
"""

import pytest

from repro.core.discovery import D3L
from repro.lake.datalake import DataLake
from repro.tables.table import Table
from tests.core.test_batched_query import candidate_tables, submit


def query(d3l, target, k, **options):
    """The sequential engine's explained answer, through a fresh session."""
    return submit(d3l, target, k, engine="sequential", **options)


@pytest.fixture
def engine(fast_config):
    return D3L(config=fast_config)


class TestDegenerateLakes:
    def test_query_on_empty_index(self, engine, figure1_tables):
        answer = query(engine, figure1_tables["target"], k=5)
        assert answer.results == []
        assert answer.table_names() == []

    def test_single_table_lake(self, engine, figure1_tables):
        engine.index_table(figure1_tables["sources"][0])
        answer = query(engine, figure1_tables["target"], k=5)
        assert candidate_tables(answer) <= {"gp_practices_s1"}

    def test_numeric_only_lake(self, engine, figure1_tables):
        numbers = Table.from_dict(
            "numbers_only",
            {"Count": ["1", "2", "3"], "Total": ["10", "20", "30"]},
        )
        engine.index_table(numbers)
        answer = query(engine, figure1_tables["target"], k=5)
        for result in answer.results:
            assert 0.0 <= result.distance <= 1.0

    def test_mostly_missing_table(self, engine, figure1_tables):
        sparse = Table.from_dict(
            "sparse",
            {"Practice": [None, "", "Blackfriars"], "City": [None, None, None]},
        )
        engine.index_table(sparse)
        engine.index_table(figure1_tables["sources"][1])
        answer = query(engine, figure1_tables["target"], k=5)
        assert "gp_funding_s2" in candidate_tables(answer)

    def test_unicode_values(self, engine):
        unicode_table = Table.from_dict(
            "unicode_places",
            {"Ort": ["Zürich", "København", "Łódź"], "Einwohner": ["400000", "600000", "700000"]},
        )
        engine.index_table(unicode_table)
        target = Table.from_dict("t", {"City": ["Zürich", "Genève"]})
        answer = query(engine, target, k=3, exclude_self=False)
        assert all(0.0 <= result.distance <= 1.0 for result in answer.results)

    def test_duplicate_indexing_is_idempotent_in_size(self, engine, figure1_tables):
        engine.index_table(figure1_tables["sources"][0])
        count_once = engine.indexes.attribute_count
        engine.index_table(figure1_tables["sources"][0])
        assert engine.indexes.attribute_count == count_once


class TestDegenerateTargets:
    def test_single_column_target(self, figure1_engine):
        target = Table.from_dict("tiny_target", {"City": ["Salford", "Bolton"]})
        answer = query(figure1_engine, target, k=3, exclude_self=False)
        assert answer.results
        assert all(
            match.target_attribute == "City"
            for result in answer.results
            for match in result.matches
        )

    def test_numeric_only_target(self, figure1_engine):
        target = Table.from_dict("numeric_target", {"Patients": ["1000", "2000", "1500"]})
        answer = query(figure1_engine, target, k=3, exclude_self=False)
        for result in answer.results:
            assert 0.0 <= result.distance <= 1.0

    def test_target_with_empty_column(self, figure1_engine):
        target = Table.from_dict(
            "partial_target", {"Practice": ["Blackfriars"], "Notes": [None]}
        )
        answer = query(figure1_engine, target, k=3, exclude_self=False)
        assert answer.results

    def test_k_larger_than_lake(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=500)
        assert len(answer.top()) == len(answer.results) <= 3

    def test_join_query_on_degenerate_target(self, figure1_engine):
        target = Table.from_dict("tiny_target", {"City": ["Salford"]})
        response = query(figure1_engine, target, k=2, exclude_self=False, joins=True)
        assert set(response.join_paths.joined_tables).isdisjoint(response.table_names(2))
