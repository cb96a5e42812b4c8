"""Tests for the D3L discovery engine (top-k query).

Most queries run on the sequential engine, the batched engine's oracle.
"""

import pytest

from repro.core.discovery import D3L, QueryResult, TableResult
from repro.core.evidence import EvidenceType
from repro.core.weights import EvidenceWeights
from repro.lake.datalake import DataLake
from tests.core.test_batched_query import candidate_tables, submit


def query(d3l, target, k, engine="sequential", **options):
    """The explained answer of one engine (default: the sequential oracle)."""
    return submit(d3l, target, k, engine=engine, **options)


class TestFigure1Example:
    """The paper's running example: the GP-practices target and sources."""

    def test_all_sources_are_candidates(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        assert candidate_tables(answer) == {
            "gp_practices_s1",
            "gp_funding_s2",
            "local_gps_s3",
        }

    def test_top_k_size(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=2)
        assert len(answer.top()) == 2
        assert len(answer.top(1)) == 1

    def test_results_sorted_by_distance(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        distances = [result.distance for result in answer.results]
        assert distances == sorted(distances)

    def test_distances_bounded(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        for result in answer.results:
            assert 0.0 <= result.distance <= 1.0
            for value in result.evidence_distances.values():
                assert 0.0 <= value <= 1.0

    def test_identical_attribute_names_matched(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        s2 = answer.result_for("gp_funding_s2")
        assert s2 is not None
        matched_pairs = {
            (match.target_attribute, match.source.column) for match in s2.matches
        }
        assert ("City", "City") in matched_pairs
        assert ("Postcode", "Postcode") in matched_pairs

    def test_practice_aligned_across_different_names(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        s3 = answer.result_for("local_gps_s3")
        assert s3 is not None
        covered = s3.covered_target_attributes()
        assert "Hours" in covered or "Practice" in covered

    def test_result_for_unknown_table(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        assert answer.result_for("not_a_table") is None

    def test_aligned_sources_listed(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=3)
        s2 = answer.result_for("gp_funding_s2")
        assert all(match.source.table == "gp_funding_s2" for match in s2.matches)


class TestQueryOptions:
    def test_k_must_be_positive(self, figure1_engine, figure1_tables):
        with pytest.raises(ValueError):
            query(figure1_engine, figure1_tables["target"], k=0)

    def test_single_evidence_query(self, figure1_engine, figure1_tables):
        answer = query(
            figure1_engine, figure1_tables["target"], k=3, evidence=[EvidenceType.NAME]
        )
        assert answer.results
        # Ranking with only name evidence should place the table sharing
        # three attribute names (S2) first.
        assert answer.table_names(1) == ["gp_funding_s2"]

    def test_exclude_self_removes_target_table(self, figure1_engine, figure1_tables):
        source = figure1_tables["sources"][0]
        included = query(figure1_engine, source, k=3, exclude_self=False)
        excluded = query(figure1_engine, source, k=3, exclude_self=True)
        assert source.name in candidate_tables(included)
        assert source.name not in candidate_tables(excluded)

    def test_self_query_ranks_itself_first_when_included(self, figure1_engine, figure1_tables):
        source = figure1_tables["sources"][1]
        answer = query(figure1_engine, source, k=3, exclude_self=False)
        assert answer.table_names(1) == [source.name]

    def test_custom_weights_change_ranking_inputs(self, figure1_engine, figure1_tables):
        uniform = query(
            figure1_engine, figure1_tables["target"], k=3, weights=EvidenceWeights.uniform()
        )
        name_only = query(
            figure1_engine,
            figure1_tables["target"],
            k=3,
            weights=EvidenceWeights.single(EvidenceType.NAME),
        )
        assert uniform.results[0].distance != name_only.results[0].distance

    def test_query_result_metadata(self, figure1_engine, figure1_tables):
        answer = query(figure1_engine, figure1_tables["target"], k=2)
        assert answer.target_name == "gps_target"
        assert answer.target_arity == 5
        assert answer.k == 2


class TestResultSlicing:
    """Edge cases of QueryResult.top / table_names: k=0, k>len, ties."""

    @pytest.fixture(scope="class")
    def answer(self, figure1_engine, figure1_tables):
        return query(figure1_engine, figure1_tables["target"], k=2)

    def test_top_zero_is_empty(self, answer):
        assert answer.top(0) == []
        assert answer.table_names(0) == []

    def test_top_beyond_length_returns_whole_ranking(self, answer):
        assert answer.top(len(answer.results) + 100) == answer.results
        assert answer.table_names(len(answer.results) + 100) == [
            result.table_name for result in answer.results
        ]

    def test_negative_k_rejected(self, answer):
        with pytest.raises(ValueError):
            answer.top(-1)
        with pytest.raises(ValueError):
            answer.table_names(-3)

    def test_default_k_is_requested_k(self, answer):
        assert len(answer.top()) == min(answer.k, len(answer.results))

    def test_score_ties_ordered_by_table_name(self):
        # A hand-built ranking with tied scores must expose a deterministic,
        # name-sorted order through top()/table_names().
        tied = [
            TableResult(table_name=name, distance=0.25, evidence_distances={}, matches=[])
            for name in ("delta", "alpha", "charlie")
        ]
        tied.sort(key=lambda result: (result.distance, result.table_name))
        answer = QueryResult(
            target_name="t", target_arity=1, requested_k=3, results=tied
        )
        assert answer.table_names() == ["alpha", "charlie", "delta"]

    def test_tied_duplicate_tables_rank_deterministically(
        self, fast_config, figure1_tables
    ):
        # Two byte-identical lake tables produce identical distances; the
        # ranking must break the tie by table name, on both query engines.
        base = figure1_tables["sources"][0]
        lake = DataLake(
            "dupes", [base.with_name("zz_copy"), base.with_name("aa_copy")]
        )
        engine = D3L(config=fast_config)
        engine.index_lake(lake)
        for name in ("sequential", "batched"):
            answer = query(engine, figure1_tables["target"], k=2, engine=name)
            tied = [
                result.table_name
                for result in answer.results
                if result.distance == answer.results[0].distance
            ]
            assert tied == sorted(tied)
            assert {"aa_copy", "zz_copy"} <= set(answer.table_names(2))


class TestOnGeneratedCorpus:
    def test_related_tables_rank_above_unrelated(self, indexed_d3l, small_synthetic_benchmark):
        benchmark = small_synthetic_benchmark
        target = benchmark.pick_targets(1, seed=2)[0]
        related = benchmark.ground_truth.related_to(target.name)
        answer = query(indexed_d3l, target, k=len(related))
        top = set(answer.table_names(len(related)))
        # At least half of the top-k should be truly related tables.
        assert len(top & related) >= max(1, len(related) // 2)

    def test_full_ranking_contains_most_related_tables(
        self, indexed_d3l, small_synthetic_benchmark
    ):
        benchmark = small_synthetic_benchmark
        target = benchmark.pick_targets(1, seed=4)[0]
        related = benchmark.ground_truth.related_to(target.name)
        answer = query(indexed_d3l, target, k=10)
        candidates = candidate_tables(answer)
        assert len(candidates & related) >= max(1, int(0.75 * len(related)))

    def test_index_table_invalidates_join_graph(self, fast_config, small_synthetic_benchmark):
        engine = D3L(config=fast_config)
        engine.index_lake(small_synthetic_benchmark.lake)
        first_graph = engine.join_graph
        engine.index_table(small_synthetic_benchmark.lake.tables[0].with_name("extra_copy"))
        assert engine.join_graph is not first_graph

    def test_set_weights(self, fast_config):
        engine = D3L(config=fast_config)
        new_weights = EvidenceWeights.uniform()
        engine.set_weights(new_weights)
        assert engine.weights is new_weights
