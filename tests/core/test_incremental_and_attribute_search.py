"""Tests for incremental index maintenance and attribute-level search."""

import pytest

from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.lake.datalake import AttributeRef, DataLake
from repro.tables.table import Table
from tests.core.test_batched_query import candidate_tables, submit, submit_attributes


def related(d3l, target, attribute_name, k, **options):
    """The sequential engine's ranking of the lake attributes related to one
    target attribute, through a fresh session."""
    response = submit_attributes(
        d3l, target, k, [attribute_name], engine="sequential", **options
    )
    return response.attribute_results[attribute_name]


def sequential_candidates(d3l, target, k):
    """Tables in the sequential engine's full ranking for ``target``."""
    return candidate_tables(submit(d3l, target, k, engine="sequential"))


@pytest.fixture
def engine(figure1_tables, fast_config):
    engine = D3L(config=fast_config)
    engine.index_lake(figure1_tables["lake"])
    return engine


class TestRemoveTable:
    def test_remove_known_table(self, engine, figure1_tables):
        assert engine.remove_table("gp_funding_s2") is True
        assert "gp_funding_s2" not in engine.indexes.table_names
        target = figure1_tables["target"]
        assert "gp_funding_s2" not in sequential_candidates(engine, target, 3)

    def test_remove_unknown_table(self, engine):
        assert engine.remove_table("not_there") is False

    def test_remove_clears_all_indexes(self, engine):
        removed_refs = [
            ref for ref in engine.indexes.profiles if ref.table == "local_gps_s3"
        ]
        assert removed_refs
        engine.remove_table("local_gps_s3")
        for ref in removed_refs:
            assert ref not in engine.indexes.profiles
            for evidence in EvidenceType.indexed():
                assert engine.indexes.signature(evidence, ref) is None

    def test_reinsert_after_removal(self, engine, figure1_tables):
        engine.remove_table("gp_funding_s2")
        engine.index_table(figure1_tables["sources"][1])
        assert "gp_funding_s2" in sequential_candidates(engine, figure1_tables["target"], 3)

    def test_remove_invalidates_join_graph(self, engine):
        graph_before = engine.join_graph
        engine.remove_table("gp_practices_s1")
        assert engine.join_graph is not graph_before
        assert "gp_practices_s1" not in engine.join_graph.table_names or not list(
            engine.join_graph.graph.edges("gp_practices_s1")
        )

    def test_attribute_count_shrinks(self, engine):
        before = engine.indexes.attribute_count
        engine.remove_table("gp_practices_s1")
        assert engine.indexes.attribute_count < before


class TestReindexUpsert:
    """Re-indexing an existing table name replaces its previous attributes.

    Regression: add_profiled_table used to overwrite table_profiles without
    removing the previous attributes' forest and signature-matrix rows, so a
    re-added table with a changed column set left ghost candidates in every
    evidence index.
    """

    def test_reindex_with_changed_columns_leaves_no_ghosts(self, engine):
        name = "gp_practices_s1"
        old_refs = [ref for ref in engine.indexes.profiles if ref.table == name]
        assert old_refs
        replacement = Table.from_dict(
            name, {"completely_new_column": ["alpha", "beta", "gamma"]}
        )
        engine.index_table(replacement)

        new_ref = AttributeRef(name, "completely_new_column")
        assert new_ref in engine.indexes.profiles
        surviving = {ref for ref in engine.indexes.profiles if ref.table == name}
        assert surviving == {new_ref}
        for ref in old_refs:
            for evidence in EvidenceType.indexed():
                assert engine.indexes.signature(evidence, ref) is None
                assert ref not in engine.indexes._matrices[evidence]
                assert ref not in engine.indexes._forests[evidence]

    def test_reindex_equals_fresh_build(self, engine, figure1_tables, fast_config):
        # Upserting a mutated table and then restoring the original content
        # must converge to exactly the state a from-scratch build produces.
        name = "gp_practices_s1"
        original = next(
            table for table in figure1_tables["sources"] if table.name == name
        )
        engine.index_table(Table.from_dict(name, {"other": ["x", "y"]}))
        engine.index_table(original)

        oracle = D3L(config=fast_config)
        oracle.index_lake(figure1_tables["lake"])
        assert set(engine.indexes.profiles) == set(oracle.indexes.profiles)
        answer = submit(engine, figure1_tables["target"], 3)
        expected = submit(oracle, figure1_tables["target"], 3)
        assert [(r.table_name, r.distance) for r in answer.results] == [
            (r.table_name, r.distance) for r in expected.results
        ]

    def test_matrix_row_registry_stays_packed(self, engine):
        name = "local_gps_s3"
        engine.index_table(Table.from_dict(name, {"col": ["1", "2", "3"]}))
        for evidence in EvidenceType.indexed():
            matrix = engine.indexes._matrices[evidence]
            refs = matrix.refs
            assert len(refs) == len(set(refs))
            for ref in refs:
                row = matrix.row(ref)
                assert row is not None and 0 <= row < len(refs)
                assert refs[row] == ref


class TestRelatedAttributes:
    def test_returns_ranked_attributes(self, engine, figure1_tables):
        results = related(engine, figure1_tables["target"], "Postcode", k=5)
        assert results
        refs = [result.source for result in results]
        assert AttributeRef("gp_funding_s2", "Postcode") in refs
        distances = [result.distance for result in results]
        assert distances == sorted(distances)

    def test_respects_k(self, engine, figure1_tables):
        assert len(related(engine, figure1_tables["target"], "City", k=1)) == 1

    def test_distances_complete_and_bounded(self, engine, figure1_tables):
        results = related(engine, figure1_tables["target"], "City", k=5)
        for result in results:
            assert set(result.distances) == set(EvidenceType.all())
            assert all(0.0 <= value <= 1.0 for value in result.distances.values())
            assert 0.0 <= result.distance <= 1.0

    def test_unknown_attribute_raises(self, engine, figure1_tables):
        with pytest.raises(KeyError):
            related(engine, figure1_tables["target"], "NotAColumn", k=3)

    def test_invalid_k_raises(self, engine, figure1_tables):
        with pytest.raises(ValueError):
            related(engine, figure1_tables["target"], "City", k=0)

    def test_exclude_self(self, engine, figure1_tables):
        source = figure1_tables["sources"][1]
        included = related(engine, source, "City", k=10, exclude_self=False)
        excluded = related(engine, source, "City", k=10, exclude_self=True)
        assert any(result.source.table == source.name for result in included)
        assert all(result.source.table != source.name for result in excluded)

    def test_numeric_attribute_search(self, engine, figure1_tables):
        results = related(engine, figure1_tables["sources"][0], "Patients", k=5)
        # Numeric attributes are indexed by name and format, so candidates
        # exist; the distribution distance must be defined for numeric pairs.
        assert results
        for result in results:
            assert 0.0 <= result.distances[EvidenceType.DISTRIBUTION] <= 1.0
