"""End-to-end integration tests: generate a corpus, index it, discover, join.

These tests exercise the public API the way the examples and benchmarks do,
and assert the qualitative behaviours the paper reports (related tables rank
high, join paths increase coverage, D3L beats the value-equality baselines on
dirty data).
"""

import pytest

from repro.baselines.aurum import Aurum
from repro.baselines.tus import TableUnionSearch
from repro.core.api import DiscoverySession, QueryRequest
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.datagen.corpus import build_knowledge_base
from repro.evaluation.coverage import target_coverage_at_k, target_coverage_with_joins
from repro.evaluation.metrics import precision_recall_at_k


def query(engine, target, k, **options):
    """D3L's sequential-engine answer, explained, through a session."""
    return DiscoverySession(engine).submit(
        QueryRequest(target=target, k=k, engine="sequential", explain=True, **options)
    )


class TestDiscoveryOnSyntheticCorpus:
    def test_average_precision_above_chance(self, indexed_d3l, small_synthetic_benchmark):
        benchmark = small_synthetic_benchmark
        targets = benchmark.pick_targets(6, seed=1)
        k = 4
        precisions = []
        chance = benchmark.average_answer_size() / max(len(benchmark.lake) - 1, 1)
        for target in targets:
            answer = query(indexed_d3l, target, k)
            precision, _ = precision_recall_at_k(
                answer, benchmark.ground_truth, target.name, k
            )
            precisions.append(precision)
        assert sum(precisions) / len(precisions) > 2 * chance

    def test_recall_grows_with_k(self, indexed_d3l, small_synthetic_benchmark):
        benchmark = small_synthetic_benchmark
        target = benchmark.pick_targets(1, seed=3)[0]
        answer = query(indexed_d3l, target, 12)
        _, recall_small = precision_recall_at_k(answer, benchmark.ground_truth, target.name, 2)
        _, recall_large = precision_recall_at_k(answer, benchmark.ground_truth, target.name, 12)
        assert recall_large >= recall_small

    def test_matches_point_at_same_domain_attributes(
        self, indexed_d3l, small_synthetic_benchmark
    ):
        benchmark = small_synthetic_benchmark
        target = benchmark.pick_targets(1, seed=5)[0]
        answer = query(indexed_d3l, target, 3)
        correct = 0
        total = 0
        for result in answer.top(3):
            if not benchmark.ground_truth.is_related(target.name, result.table_name):
                continue
            for match in result.matches:
                total += 1
                if benchmark.ground_truth.are_attributes_related(
                    type(match.source)(target.name, match.target_attribute), match.source
                ):
                    correct += 1
        if total:
            assert correct / total > 0.5


class TestJoinPathsIncreaseCoverage:
    def test_coverage_with_joins_never_lower(self, indexed_d3l, small_synthetic_benchmark):
        benchmark = small_synthetic_benchmark
        targets = benchmark.pick_targets(4, seed=9)
        k = 3
        for target in targets:
            response = query(indexed_d3l, target, k, joins=True)
            joined_per_start = {
                start: response.join_paths.paths.reached_from(start)
                for start in response.table_names(k)
            }
            plain = target_coverage_at_k(response, target, k)
            joined = target_coverage_with_joins(response, joined_per_start, target, k)
            assert joined >= plain - 1e-9


class TestComparativeBehaviour:
    def test_d3l_beats_value_equality_baselines_on_dirty_data(
        self, small_real_benchmark, fast_config
    ):
        # Use the full D3L pipeline the paper evaluates: corpus-trained
        # embeddings, subject-attribute classifier, and Equation 3 weights
        # trained on the benchmark ground truth.
        from repro.evaluation.experiments import build_engine_suite

        benchmark = small_real_benchmark
        suite = build_engine_suite(
            benchmark,
            systems=("d3l", "tus", "aurum"),
            config=fast_config,
            train_weights=True,
            weight_training_targets=8,
        )

        targets = benchmark.pick_targets(6, seed=2)
        k = 4
        scores = {"d3l": 0.0, "tus": 0.0, "aurum": 0.0}
        for target in targets:
            for name, engine in suite.systems().items():
                answer = (
                    query(engine, target, k)
                    if isinstance(engine, D3L)
                    else engine.query(target, k=k)
                )
                _, recall = precision_recall_at_k(
                    answer, benchmark.ground_truth, target.name, k
                )
                scores[name] += recall
        # The headline qualitative result of the paper: on inconsistently
        # represented data D3L finds more of the related tables.
        assert scores["d3l"] >= scores["tus"]
        assert scores["d3l"] >= scores["aurum"]

    def test_single_evidence_weaker_than_aggregate(self, indexed_d3l_real, small_real_benchmark):
        benchmark = small_real_benchmark
        targets = benchmark.pick_targets(5, seed=4)
        k = 4
        aggregate_recall = 0.0
        format_recall = 0.0
        for target in targets:
            full = query(indexed_d3l_real, target, k)
            format_only = query(
                indexed_d3l_real, target, k, evidence=[EvidenceType.FORMAT]
            )
            _, recall_full = precision_recall_at_k(full, benchmark.ground_truth, target.name, k)
            _, recall_format = precision_recall_at_k(
                format_only, benchmark.ground_truth, target.name, k
            )
            aggregate_recall += recall_full
            format_recall += recall_format
        # Format evidence alone is the weakest signal in the paper (Figure 3).
        assert aggregate_recall >= format_recall
