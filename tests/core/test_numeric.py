"""Tests for the numeric special case (Algorithm 2)."""

import pytest

from repro.core.config import D3LConfig
from repro.core.indexes import D3LIndexes
from repro.core.numeric import (
    compute_d_relatedness,
    subject_attributes_related,
)
from repro.lake.datalake import AttributeRef, DataLake
from repro.tables.table import Table


@pytest.fixture(scope="module")
def numeric_lake():
    practices_a = Table.from_dict(
        "practices_a",
        {
            "Practice": ["Blackfriars", "Radclife Care", "Bolton Medical", "Dr E Cullen"],
            "City": ["Salford", "Manchester", "Bolton", "Belfast"],
            "Patients": ["1202", "3572", "2209", "1840"],
        },
    )
    practices_b = Table.from_dict(
        "practices_b",
        {
            "Practice": ["Blackfriars", "Radclife Care", "The London Clinic", "Dr E Cullen"],
            "Patients": ["1250", "3500", "2300", "1800"],
            "Payment": ["15530", "73648", "20981", "17764"],
        },
    )
    unrelated = Table.from_dict(
        "road_lengths",
        {
            "Route": ["A56", "A6", "M60", "A34"],
            "Distance": ["12.5", "30.1", "57.8", "22.0"],
        },
    )
    return DataLake("numeric_lake", [practices_a, practices_b, unrelated])


@pytest.fixture(scope="module")
def numeric_indexes(numeric_lake):
    indexes = D3LIndexes(config=D3LConfig(num_hashes=128, embedding_dimension=16))
    indexes.add_lake(numeric_lake)
    return indexes


class TestSubjectGuard:
    def test_related_subject_attributes_detected(self, numeric_indexes, numeric_lake):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        assert subject_attributes_related(
            numeric_indexes, target_profile, "practices_b", exclude_table="practices_a"
        )

    def test_unrelated_subject_attributes_not_detected(self, numeric_indexes, numeric_lake):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        assert not subject_attributes_related(
            numeric_indexes, target_profile, "road_lengths", exclude_table="practices_a"
        )


class TestComputeDRelatedness:
    def test_numeric_pair_with_related_subjects_gets_ks(self, numeric_indexes, numeric_lake):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        patients = target_profile.profile("Patients")
        distance = compute_d_relatedness(
            numeric_indexes,
            target_profile,
            patients,
            AttributeRef("practices_b", "Patients"),
            exclude_table="practices_a",
        )
        # Same underlying distribution of list sizes: small KS distance.
        assert distance < 0.5

    def test_same_name_guard_applies_even_without_subject_link(
        self, numeric_indexes, numeric_lake
    ):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        patients = target_profile.profile("Patients")
        distance = compute_d_relatedness(
            numeric_indexes,
            target_profile,
            patients,
            AttributeRef("practices_b", "Patients"),
            subject_guard=False,
            exclude_table="practices_a",
        )
        assert distance < 1.0

    def test_unguarded_pair_gets_maximal_distance(self, numeric_indexes, numeric_lake):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        patients = target_profile.profile("Patients")
        distance = compute_d_relatedness(
            numeric_indexes,
            target_profile,
            patients,
            AttributeRef("road_lengths", "Distance"),
            subject_guard=False,
            exclude_table="practices_a",
        )
        assert distance == 1.0

    def test_textual_attribute_gets_maximal_distance(self, numeric_indexes, numeric_lake):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        city = target_profile.profile("City")
        distance = compute_d_relatedness(
            numeric_indexes,
            target_profile,
            city,
            AttributeRef("practices_b", "Patients"),
            exclude_table="practices_a",
        )
        assert distance == 1.0

    def test_unknown_reference_gets_maximal_distance(self, numeric_indexes, numeric_lake):
        target_profile = numeric_indexes.profile_table(numeric_lake.table("practices_a"))
        patients = target_profile.profile("Patients")
        distance = compute_d_relatedness(
            numeric_indexes,
            target_profile,
            patients,
            AttributeRef("missing_table", "missing_column"),
        )
        assert distance == 1.0
