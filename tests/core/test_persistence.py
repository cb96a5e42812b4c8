"""Tests for engine/index persistence (v3 multi-section format)."""

import pickle

import numpy as np
import pytest

from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.core.persistence import (
    FORMAT_VERSION,
    PersistenceError,
    load_engine,
    load_indexes,
    save_engine,
    save_indexes,
)
from tests.core.test_batched_query import submit


class TestEngineRoundTrip:
    def test_save_and_load_engine(self, figure1_engine, figure1_tables, tmp_path):
        path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        assert path.exists()
        loaded = load_engine(path)
        assert isinstance(loaded, D3L)
        assert set(loaded.indexes.table_names) == set(figure1_engine.indexes.table_names)

    def test_loaded_engine_answers_queries_identically(
        self, figure1_engine, figure1_tables, tmp_path
    ):
        path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        target = figure1_tables["target"]
        original = submit(figure1_engine, target, 3, engine="sequential")
        restored = submit(loaded, target, 3, engine="sequential")
        assert original.table_names(3) == restored.table_names(3)
        assert [round(r.distance, 9) for r in original.results] == [
            round(r.distance, 9) for r in restored.results
        ]

    def test_save_creates_parent_directories(self, figure1_engine, tmp_path):
        path = save_engine(figure1_engine, tmp_path / "nested" / "deeper" / "engine.pkl")
        assert path.exists()

    def test_weights_survive_round_trip(self, figure1_engine, tmp_path):
        path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        assert loaded.weights.values == figure1_engine.weights.values


class TestIndexRoundTrip:
    def test_save_and_load_indexes(self, figure1_engine, tmp_path):
        path = save_indexes(figure1_engine.indexes, tmp_path / "indexes.pkl")
        loaded = load_indexes(path)
        assert isinstance(loaded, D3LIndexes)
        assert loaded.attribute_count == figure1_engine.indexes.attribute_count

    def test_kind_mismatch_rejected(self, figure1_engine, tmp_path):
        engine_path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        with pytest.raises(PersistenceError):
            load_indexes(engine_path)
        indexes_path = save_indexes(figure1_engine.indexes, tmp_path / "indexes.pkl")
        with pytest.raises(PersistenceError):
            load_engine(indexes_path)


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_engine(tmp_path / "missing.pkl")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(PersistenceError):
            load_engine(path)

    def test_wrong_payload_type(self, tmp_path):
        path = tmp_path / "wrong.pkl"
        with path.open("wb") as handle:
            pickle.dump(["something", "else"], handle)
        with pytest.raises(PersistenceError):
            load_engine(path)

    def test_version_mismatch(self, figure1_engine, tmp_path):
        path = tmp_path / "old.pkl"
        with path.open("wb") as handle:
            pickle.dump(
                {"kind": "d3l_engine", "version": -1, "engine": figure1_engine}, handle
            )
        with pytest.raises(PersistenceError):
            load_engine(path)

    def test_v2_payload_rejected_with_clear_message(self, figure1_engine, tmp_path):
        """v2 pickled whole engine objects; loading one must say so and how to recover."""
        path = tmp_path / "v2.pkl"
        with path.open("wb") as handle:
            pickle.dump(
                {"kind": "d3l_engine", "version": 2, "engine": figure1_engine}, handle
            )
        with pytest.raises(PersistenceError) as excinfo:
            load_engine(path)
        message = str(excinfo.value)
        assert "version 2" in message
        assert f"expected {FORMAT_VERSION}" in message
        assert "re-index" in message

    def test_v2_indexes_payload_rejected(self, figure1_engine, tmp_path):
        path = tmp_path / "v2_indexes.pkl"
        with path.open("wb") as handle:
            pickle.dump(
                {"kind": "d3l_indexes", "version": 2, "indexes": figure1_engine.indexes},
                handle,
            )
        with pytest.raises(PersistenceError, match="version 2"):
            load_indexes(path)

    def test_current_version_without_sections_rejected(self, tmp_path):
        path = tmp_path / "hollow.pkl"
        with path.open("wb") as handle:
            pickle.dump({"kind": "d3l_engine", "version": FORMAT_VERSION}, handle)
        with pytest.raises(PersistenceError, match="sections"):
            load_engine(path)


class TestRawBufferRoundTrip:
    """v3 regression: signature matrices and forest arrays survive byte for byte."""

    def test_signature_matrices_byte_equal(self, figure1_engine, tmp_path):
        path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        for evidence in EvidenceType.indexed():
            refs, matrix, flags = figure1_engine.indexes._matrices[evidence].export_state()
            loaded_refs, loaded_matrix, loaded_flags = loaded.indexes._matrices[
                evidence
            ].export_state()
            assert refs == loaded_refs
            assert matrix.dtype == loaded_matrix.dtype
            assert matrix.tobytes() == loaded_matrix.tobytes()
            assert flags.tobytes() == loaded_flags.tobytes()

    def test_forest_arrays_byte_equal(self, figure1_engine, tmp_path):
        path = save_indexes(figure1_engine.indexes, tmp_path / "indexes.pkl")
        loaded = load_indexes(path)
        for evidence in EvidenceType.indexed():
            original = figure1_engine.indexes.forest(evidence).export_state()
            restored = loaded.forest(evidence).export_state()
            assert len(original["trees"]) == len(restored["trees"])
            for tree_a, tree_b in zip(original["trees"], restored["trees"]):
                assert tree_a["keys"].tobytes() == tree_b["keys"].tobytes()
                assert tree_a["items"] == tree_b["items"]

    def test_loaded_indexes_signatures_match_matrix_rows(self, figure1_engine, tmp_path):
        path = save_indexes(figure1_engine.indexes, tmp_path / "indexes.pkl")
        loaded = load_indexes(path)
        for evidence in EvidenceType.indexed():
            refs, matrix, flags = loaded._matrices[evidence].export_state()
            for row, ref in enumerate(refs):
                signature = loaded.signature(evidence, ref)
                assert signature is not None
                raw = (
                    signature.bits
                    if evidence is EvidenceType.EMBEDDING
                    else signature.hashvalues
                )
                assert np.array_equal(raw, matrix[row])
                assert np.array_equal(loaded.forest(evidence).signature(ref), matrix[row])

    def test_round_trip_twice_is_stable(self, figure1_engine, tmp_path):
        first = load_engine(save_engine(figure1_engine, tmp_path / "first.pkl"))
        second = load_engine(save_engine(first, tmp_path / "second.pkl"))
        for evidence in EvidenceType.indexed():
            refs_a, matrix_a, flags_a = first.indexes._matrices[evidence].export_state()
            refs_b, matrix_b, flags_b = second.indexes._matrices[evidence].export_state()
            assert refs_a == refs_b
            assert matrix_a.tobytes() == matrix_b.tobytes()
            assert flags_a.tobytes() == flags_b.tobytes()

    def test_loaded_engine_supports_incremental_updates(
        self, figure1_engine, figure1_tables, tmp_path
    ):
        path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        victim = loaded.indexes.table_names[0]
        assert loaded.remove_table(victim)
        loaded.index_table(figure1_tables["target"])
        result = submit(
            loaded, figure1_tables["target"], 2, engine="sequential", exclude_self=True
        )
        assert victim not in result.table_names(2)


class TestJoinGraphPersistence:
    """The v3 join-graph section: save -> load -> identical edges/overlaps."""

    @pytest.fixture()
    def join_engine(self, figure1_tables, fast_config):
        engine = D3L(config=fast_config)
        engine.index_lake(figure1_tables["lake"])
        return engine

    @staticmethod
    def _edge_map(graph):
        return {
            tuple(sorted(pair)): (
                graph.edge(*pair).left,
                graph.edge(*pair).right,
                graph.edge(*pair).overlap,
            )
            for pair in graph.graph.edges
        }

    def test_built_graph_round_trips(self, join_engine, tmp_path):
        from repro.core.persistence import save_engine as save

        original = join_engine.join_graph
        assert original.edge_count() >= 1
        path = save(join_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        restored = loaded.cached_join_graph
        assert restored is not None
        assert set(restored.table_names) == set(original.table_names)
        assert self._edge_map(restored) == self._edge_map(original)

    def test_restored_graph_is_served_without_rebuilding(
        self, join_engine, tmp_path, monkeypatch
    ):
        from repro.core import joins as joins_module

        join_engine.join_graph  # build + cache
        path = save_engine(join_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)

        def _fail(*args, **kwargs):  # pragma: no cover - the assertion is the call
            raise AssertionError("restored join graph must not be rebuilt")

        monkeypatch.setattr(joins_module.SAJoinGraph, "build", classmethod(_fail))
        assert loaded.join_graph.edge_count() == join_engine.join_graph.edge_count()

    def test_unbuilt_graph_persists_as_absent(self, join_engine, tmp_path):
        path = save_engine(join_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        assert loaded.cached_join_graph is None
        # And the lazy build still works on the restored engine.
        assert loaded.join_graph.edge_count() == join_engine.join_graph.edge_count()

    def test_lake_mutation_invalidates_restored_graph(
        self, join_engine, tmp_path, figure1_tables
    ):
        from repro.tables.table import Table

        join_engine.join_graph
        path = save_engine(join_engine, tmp_path / "engine.pkl")
        loaded = load_engine(path)
        assert loaded.cached_join_graph is not None
        loaded.index_table(
            Table.from_dict("new_clinics", {"Clinic": ["Ordsall Health"], "City": ["Salford"]})
        )
        assert loaded.cached_join_graph is None

    def test_session_round_trip_restores_graph(self, join_engine, tmp_path):
        from repro.core.api import DiscoverySession
        from repro.core.persistence import load_session, save_session

        session = DiscoverySession(join_engine)
        join_engine.join_graph
        path = save_session(session, tmp_path / "session.pkl")
        restored = load_session(path)
        graph = restored.engine.cached_join_graph
        assert graph is not None
        assert self._edge_map(graph) == self._edge_map(join_engine.join_graph)
