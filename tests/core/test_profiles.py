"""Tests for attribute and table profiling (Algorithm 1 feature extraction)."""

import numpy as np
import pytest

from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.profiles import AttributeMatch, AttributeProfile
from repro.lake.datalake import AttributeRef
from repro.tables.column import Column
from repro.text.embeddings import HashingSubwordEmbedding, aggregate_vectors
from tests.text.test_embeddings import reference_vector
from tests.text.test_regex_format import reference_format_set
from tests.text.test_token_stats import reference_informative_and_frequent_tokens


@pytest.fixture(scope="module")
def config():
    return D3LConfig(num_hashes=128, embedding_dimension=16)


@pytest.fixture(scope="module")
def embedding_model(config):
    return HashingSubwordEmbedding(dimension=config.embedding_dimension)


def _profile(column, config, embedding_model, table_name="t"):
    return AttributeProfile.build(table_name, column, embedding_model, config)


class TestTextualProfile:
    @pytest.fixture(scope="class")
    def address_profile(self, config, embedding_model):
        column = Column(
            "Address",
            ["18 Portland Street, M1 3BE", "41 Oxford Road, M13 9PL", "9 Mirabel Street, M3 1NN"],
        )
        return _profile(column, config, embedding_model)

    def test_ref(self, address_profile):
        assert address_profile.ref == AttributeRef("t", "Address")

    def test_not_numeric(self, address_profile):
        assert not address_profile.is_numeric

    def test_qgrams_from_name(self, address_profile):
        assert "addr" in address_profile.qgrams

    def test_tokens_informative(self, address_profile):
        assert "portland" in address_profile.tokens
        assert "street" not in address_profile.tokens

    def test_formats_extracted(self, address_profile):
        assert address_profile.formats

    def test_embedding_nonzero(self, address_profile):
        assert address_profile.has_embedding()
        assert address_profile.embedding.shape == (16,)

    def test_no_numeric_values(self, address_profile):
        assert address_profile.numeric_values == []

    def test_cardinality_and_distinct(self, address_profile):
        assert address_profile.cardinality == 3
        assert address_profile.distinct_count == 3

    def test_set_representation_lookup(self, address_profile):
        assert address_profile.set_representation(EvidenceType.NAME) == address_profile.qgrams
        assert address_profile.set_representation(EvidenceType.VALUE) == address_profile.tokens
        assert address_profile.set_representation(EvidenceType.FORMAT) == address_profile.formats

    def test_set_representation_rejects_non_jaccard_evidence(self, address_profile):
        with pytest.raises(ValueError):
            address_profile.set_representation(EvidenceType.EMBEDDING)

    def test_estimated_bytes_positive(self, address_profile):
        assert address_profile.estimated_bytes() > 0


class TestNumericProfile:
    @pytest.fixture(scope="class")
    def patients_profile(self, config, embedding_model):
        column = Column("Patients", ["1202", "3572", "2209", "1840"])
        return _profile(column, config, embedding_model)

    def test_numeric_flag(self, patients_profile):
        assert patients_profile.is_numeric

    def test_numeric_values_preserved(self, patients_profile):
        assert patients_profile.numeric_values == [1202.0, 3572.0, 2209.0, 1840.0]

    def test_no_tokens(self, patients_profile):
        assert patients_profile.tokens == set()

    def test_no_embedding(self, patients_profile):
        assert not patients_profile.has_embedding()

    def test_name_and_format_still_available(self, patients_profile):
        assert patients_profile.qgrams
        assert patients_profile.formats


class TestReferenceProfiles:
    """Profiles equal those of the per-value, per-subword oracle helpers."""

    def test_every_column_of_a_synthetic_lake(self, small_synthetic_benchmark, config):
        model = HashingSubwordEmbedding(dimension=config.embedding_dimension)
        oracle = HashingSubwordEmbedding(dimension=config.embedding_dimension)
        columns = 0
        for table in small_synthetic_benchmark.lake.tables:
            for column in table.columns:
                profile = _profile(column, config, model, table_name=table.name)
                values = column.non_missing
                assert profile.formats == reference_format_set(values)
                if column.is_numeric:
                    tokens, frequent = set(), set()
                else:
                    tokens, frequent = reference_informative_and_frequent_tokens(values)
                    columns += 1
                embedding = aggregate_vectors(
                    [reference_vector(oracle, token) for token in sorted(frequent)],
                    config.embedding_dimension,
                )
                assert profile.tokens == tokens
                assert profile.embedding.dtype == embedding.dtype
                assert np.array_equal(profile.embedding, embedding)
        assert columns > 50


class TestTableProfile:
    def test_profiles_and_subject(self, figure1_engine, figure1_tables):
        table_profile = figure1_engine.indexes.profile_table(figure1_tables["sources"][0])
        assert set(table_profile.attributes) == set(
            figure1_tables["sources"][0].column_names
        )
        assert table_profile.subject_attribute == "Practice Name"
        assert table_profile.subject_profile().ref.column == "Practice Name"
        assert table_profile.arity == 5

    def test_attribute_refs(self, figure1_engine, figure1_tables):
        table_profile = figure1_engine.indexes.profile_table(figure1_tables["sources"][2])
        refs = table_profile.attribute_refs
        assert AttributeRef("local_gps_s3", "GP") in refs

    def test_estimated_bytes(self, figure1_engine, figure1_tables):
        table_profile = figure1_engine.indexes.profile_table(figure1_tables["sources"][0])
        assert table_profile.estimated_bytes() > 0


class TestAttributeMatch:
    def _match(self, distances):
        return AttributeMatch(
            target_attribute="City",
            source=AttributeRef("s", "Town"),
            distances=distances,
        )

    def test_mean_distance(self):
        distances = {evidence: 0.5 for evidence in EvidenceType.all()}
        assert self._match(distances).mean_distance() == pytest.approx(0.5)

    def test_best_evidence(self):
        distances = {evidence: 1.0 for evidence in EvidenceType.all()}
        distances[EvidenceType.VALUE] = 0.1
        assert self._match(distances).best_evidence() is EvidenceType.VALUE
