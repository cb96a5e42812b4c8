"""Integration test: materialise a corpus to CSV, reload it, and discover.

This is the workflow of a real deployment: the lake lives on disk as CSV
files; discovery must behave identically after a round trip through CSV.
"""

import pytest

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.discovery import D3L
from repro.lake.datalake import DataLake


class TestCsvRoundTripDiscovery:
    @pytest.fixture(scope="class")
    def reloaded_lake(self, small_synthetic_benchmark, tmp_path_factory):
        directory = tmp_path_factory.mktemp("lake_csv")
        small_synthetic_benchmark.lake.to_directory(directory)
        return DataLake.from_directory(directory, name="reloaded")

    def test_all_tables_survive_round_trip(self, reloaded_lake, small_synthetic_benchmark):
        assert set(reloaded_lake.table_names) == set(
            small_synthetic_benchmark.lake.table_names
        )

    def test_schemas_survive_round_trip(self, reloaded_lake, small_synthetic_benchmark):
        for table in small_synthetic_benchmark.lake:
            assert reloaded_lake.table(table.name).column_names == table.column_names

    def test_discovery_results_consistent_after_round_trip(
        self, reloaded_lake, small_synthetic_benchmark, fast_config
    ):
        original_engine = D3L(config=fast_config)
        original_engine.index_lake(small_synthetic_benchmark.lake)
        reloaded_engine = D3L(config=fast_config)
        reloaded_engine.index_lake(reloaded_lake)

        target = small_synthetic_benchmark.pick_targets(1, seed=8)[0]
        k = 5
        request = QueryRequest(target=target, k=k, engine="sequential")
        original_top = DiscoverySession(original_engine).submit(request).table_names(k)
        reloaded_top = DiscoverySession(reloaded_engine).submit(request).table_names(k)
        # The rankings should agree on most of the top-k (CSV round-tripping
        # can only perturb cell renderings, not the content).
        assert len(set(original_top) & set(reloaded_top)) >= k - 1
