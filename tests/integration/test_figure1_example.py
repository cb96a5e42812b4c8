"""Integration test reproducing the paper's running example (Figure 1 / Table I)."""

import pytest

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.evidence import EvidenceType
from repro.evaluation.experiments import experiment_example_distances, figure1_tables


def query(engine, target, k, **options):
    """The sequential engine's explained answer, through a session."""
    return DiscoverySession(engine).submit(
        QueryRequest(target=target, k=k, engine="sequential", explain=True, **options)
    )


class TestTable1Reproduction:
    @pytest.fixture(scope="class")
    def rows(self):
        return {row["pair"]: row for row in experiment_example_distances()}

    def test_identically_named_attributes_have_zero_name_distance(self, rows):
        for pair in ["(T.City, S2.City)", "(T.Postcode, S2.Postcode)"]:
            assert pair in rows
            assert rows[pair]["DN"] == 0.0

    def test_textual_pairs_have_maximal_distribution_distance(self, rows):
        # Table I: all three pairs are textual, so DD = 1.
        for pair in ["(T.City, S2.City)", "(T.Postcode, S2.Postcode)", "(T.Practice, S2.Practice)"]:
            if pair in rows:
                assert rows[pair]["DD"] == 1.0

    def test_value_and_embedding_evidence_present(self, rows):
        # The paper's Table I has DV and DE below 1 for the three aligned pairs.
        city = rows.get("(T.City, S2.City)")
        assert city is not None
        assert city["DV"] < 1.0
        assert city["DE"] < 1.0

    def test_practice_pair_aligned_despite_value_differences(self, rows):
        practice = rows.get("(T.Practice, S2.Practice)")
        assert practice is not None
        assert practice["DN"] == 0.0


class TestFigure1Discovery:
    def test_s2_is_among_the_most_related(self, figure1_engine):
        target, _ = figure1_tables()
        answer = query(figure1_engine, target, 2)
        top_two = set(answer.table_names(2))
        # S2 shares three attribute names and most of its instance values
        # with the target, so it must be in the top 2 of 3 sources.
        assert "gp_funding_s2" in top_two

    def test_all_three_sources_are_candidates(self, figure1_engine):
        target, _ = figure1_tables()
        answer = query(figure1_engine, target, 3)
        assert {ranking.table_name for ranking in answer.results} == {
            "gp_practices_s1",
            "gp_funding_s2",
            "local_gps_s3",
        }

    def test_s3_reachable_through_join_paths(self, figure1_engine):
        target, _ = figure1_tables()
        response = query(figure1_engine, target, 2, joins=True)
        reachable = set(response.join_paths.joined_tables) | set(response.table_names(2))
        assert "local_gps_s3" in reachable

    def test_hours_covered_only_via_s3(self, figure1_engine):
        target, _ = figure1_tables()
        answer = query(figure1_engine, target, 3)
        s3 = answer.result_for("local_gps_s3")
        assert s3 is not None
        assert "Hours" in s3.covered_target_attributes()
