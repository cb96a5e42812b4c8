"""Oracle harness for the batched query engine.

The sequential engine (``QueryRequest(engine="sequential")``: per-attribute
fan-out, per-pair Algorithm 2) is the oracle; the batched table-level and
attribute-level engines must reproduce its answers *exactly* — same
rankings, same combined and per-evidence distances, same aligned matches
with the same Equation 2 weights, same tie order — across seeds, evidence
subsets, weight settings, and degenerate lakes.
"""

import numpy as np
import pytest

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.weights import EvidenceWeights
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lake.datalake import DataLake
from repro.tables.table import Table


def submit(d3l, target, k, **options):
    """One explained request through a fresh session.

    A fresh session per call keeps each side of a comparison from reading
    the other's cached target profile.
    """
    return DiscoverySession(d3l).submit(
        QueryRequest(target=target, k=k, explain=True, **options)
    )


def sequential_and_batched(d3l, target, k, **options):
    """The oracle's and the batched engine's answers to the same request."""
    return (
        submit(d3l, target, k, engine="sequential", **options),
        submit(d3l, target, k, **options),
    )


def candidate_tables(answer):
    """Every table in a response's full ranking: related by at least one index."""
    return {ranking.table_name for ranking in answer.results}


def submit_attributes(d3l, target, k, attributes=None, **options):
    """One explained attribute-level request through a fresh session."""
    return DiscoverySession(d3l).related_attributes(
        target, attributes, k=k, explain=True, **options
    )


def attribute_entries(response, name):
    """``(source, distance, per-evidence distances)`` of one attribute's ranking."""
    return [
        (entry.source, entry.distance, entry.distances)
        for entry in response.attribute_results[name]
    ]


def assert_identical_answers(sequential, batched):
    """Full structural equality of two explained table-level responses."""
    assert sequential.target_name == batched.target_name
    assert sequential.target_arity == batched.target_arity
    assert sequential.k == batched.k
    assert [result.table_name for result in sequential.results] == [
        result.table_name for result in batched.results
    ]
    assert [result.distance for result in sequential.results] == [
        result.distance for result in batched.results
    ]
    for first, second in zip(sequential.results, batched.results):
        assert first.evidence_distances == second.evidence_distances
        assert [
            (match.target_attribute, match.source, match.distances, match.weights)
            for match in first.matches
        ] == [
            (match.target_attribute, match.source, match.distances, match.weights)
            for match in second.matches
        ]


def _engine(lake, **config_overrides):
    defaults = dict(num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16)
    defaults.update(config_overrides)
    engine = D3L(config=D3LConfig(**defaults))
    engine.index_lake(lake)
    return engine


@pytest.fixture(scope="module", params=[3, 21, 99])
def seeded_corpus(request):
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=4,
            tables_per_base=3,
            base_rows=50,
            min_rows=20,
            max_rows=40,
            seed=request.param,
        )
    )


@pytest.fixture(scope="module")
def seeded_engine(seeded_corpus):
    return _engine(seeded_corpus.lake)


class TestOracleEquivalence:
    def test_identical_across_seeds_and_targets(self, seeded_corpus, seeded_engine):
        for name in seeded_corpus.lake.table_names[::4]:
            target = seeded_corpus.lake.table(name)
            assert_identical_answers(*sequential_and_batched(seeded_engine, target, 5))

    @pytest.mark.parametrize(
        "evidence_types",
        [
            [EvidenceType.NAME],
            [EvidenceType.DISTRIBUTION],
            [EvidenceType.NAME, EvidenceType.DISTRIBUTION],
            [EvidenceType.VALUE, EvidenceType.EMBEDDING, EvidenceType.FORMAT],
        ],
    )
    def test_identical_per_evidence_subset(
        self, seeded_corpus, seeded_engine, evidence_types
    ):
        target = seeded_corpus.lake.tables[0]
        assert_identical_answers(
            *sequential_and_batched(seeded_engine, target, 4, evidence=evidence_types)
        )

    @pytest.mark.parametrize(
        "weights",
        [
            EvidenceWeights.uniform(),
            EvidenceWeights.single(EvidenceType.NAME),
            EvidenceWeights(
                {
                    EvidenceType.NAME: 0.9,
                    EvidenceType.VALUE: 0.1,
                    EvidenceType.FORMAT: 0.4,
                    EvidenceType.EMBEDDING: 0.0,
                    EvidenceType.DISTRIBUTION: 0.7,
                }
            ),
        ],
    )
    def test_identical_per_weight_setting(self, seeded_corpus, seeded_engine, weights):
        target = seeded_corpus.lake.tables[1]
        assert_identical_answers(
            *sequential_and_batched(seeded_engine, target, 4, weights=weights)
        )

    def test_identical_with_self_included(self, seeded_corpus, seeded_engine):
        target = seeded_corpus.lake.tables[2]
        assert_identical_answers(
            *sequential_and_batched(seeded_engine, target, 4, exclude_self=False)
        )

    def test_identical_on_profiled_target(self, seeded_corpus, seeded_engine):
        target = seeded_corpus.lake.tables[0]
        profile = seeded_engine.profile_target(target)
        assert_identical_answers(
            submit(seeded_engine, target, 5, engine="sequential"),
            submit(seeded_engine, profile, 5),
        )

    def test_k_must_be_positive(self, seeded_engine, seeded_corpus):
        with pytest.raises(ValueError):
            submit(seeded_engine, seeded_corpus.lake.tables[0], 0)


class TestDegenerateLakes:
    def _roundtrip(self, lake, target, **query_kwargs):
        engine = _engine(lake)
        assert_identical_answers(
            *sequential_and_batched(engine, target, 3, **query_kwargs)
        )
        return engine

    def test_all_numeric_lake(self):
        tables = [
            Table.from_dict(
                f"numeric{i}",
                {
                    "amount": [float(i + j) for j in range(30)],
                    "total": [float(i * j % 17) for j in range(30)],
                },
            )
            for i in range(5)
        ]
        lake = DataLake("numeric", tables)
        self._roundtrip(lake, tables[0])

    def test_all_text_lake(self):
        tables = [
            Table.from_dict(
                f"text{i}",
                {
                    "city": ["belfast", "salford", "york", "leeds"] * 5,
                    "street": [f"street {i} {j}" for j in range(20)],
                },
            )
            for i in range(4)
        ]
        lake = DataLake("text", tables)
        self._roundtrip(lake, tables[1])

    def test_single_attribute_tables(self):
        tables = [
            Table.from_dict(f"single{i}", {"name": [f"value {i} {j}" for j in range(10)]})
            for i in range(3)
        ]
        lake = DataLake("single", tables)
        self._roundtrip(lake, tables[0])

    def test_empty_extent_tables(self):
        tables = [
            Table.from_dict("empty_a", {"col": [], "other": []}),
            Table.from_dict("empty_b", {"col": [], "different": []}),
            Table.from_dict(
                "full", {"col": ["x", "y", "z"], "other": ["1", "2", "3"]}
            ),
        ]
        lake = DataLake("empties", tables)
        self._roundtrip(lake, tables[0])
        self._roundtrip(lake, tables[2])

    def test_target_not_in_lake(self):
        tables = [
            Table.from_dict(f"lake{i}", {"city": ["belfast", "york"], "n": ["1", "2"]})
            for i in range(3)
        ]
        lake = DataLake("lake", tables)
        stranger = Table.from_dict("stranger", {"city": ["belfast", "leeds"]})
        self._roundtrip(lake, stranger)

    def test_zero_attribute_profile_target(self):
        from repro.core.profiles import TableProfile

        tables = [
            Table.from_dict(f"lake{i}", {"city": ["belfast", "york"]}) for i in range(2)
        ]
        lake = DataLake("lake", tables)
        engine = _engine(lake)
        profile = TableProfile(
            table_name="no_columns",
            attributes={},
            subject_attribute=None,
            arity=0,
            cardinality=0,
        )
        assert submit(engine, profile, 3, engine="sequential").results == []
        assert submit(engine, profile, 3).results == []


class TestRelatedAttributesBulk:
    def test_bulk_matches_sequential_per_attribute(self, seeded_corpus, seeded_engine):
        target = seeded_corpus.lake.tables[0]
        bulk = submit_attributes(seeded_engine, target, 6)
        assert set(bulk.attribute_results) == {column.name for column in target.columns}
        for column in target.columns:
            sequential = submit_attributes(
                seeded_engine, target, 6, [column.name], engine="sequential"
            )
            assert attribute_entries(sequential, column.name) == attribute_entries(
                bulk, column.name
            )

    def test_bulk_respects_attribute_selection(self, seeded_corpus, seeded_engine):
        target = seeded_corpus.lake.tables[0]
        names = [column.name for column in target.columns][:2]
        bulk = submit_attributes(seeded_engine, target, 3, names)
        assert list(bulk.attribute_results) == names

    def test_bulk_rejects_unknown_attribute(self, seeded_corpus, seeded_engine):
        with pytest.raises(KeyError):
            submit_attributes(
                seeded_engine, seeded_corpus.lake.tables[0], 10, ["no_such_column"]
            )

    def test_bulk_rejects_nonpositive_k(self, seeded_corpus, seeded_engine):
        with pytest.raises(ValueError):
            submit_attributes(seeded_engine, seeded_corpus.lake.tables[0], 0)

    def test_bulk_custom_weights(self, seeded_corpus, seeded_engine):
        target = seeded_corpus.lake.tables[1]
        weights = EvidenceWeights.single(EvidenceType.NAME)
        column = target.columns[0]
        sequential = submit_attributes(
            seeded_engine, target, 4, [column.name], weights=weights, engine="sequential"
        )
        bulk = submit_attributes(seeded_engine, target, 4, [column.name], weights=weights)
        assert attribute_entries(sequential, column.name) == attribute_entries(
            bulk, column.name
        )
