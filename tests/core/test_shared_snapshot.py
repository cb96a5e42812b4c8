"""Lifecycle and determinism harness for the shared-memory snapshot layer.

Covers the zero-copy worker-pool contract: a ``SharedIndexSnapshot`` attach
must reconstruct the index bit-identically as read-only views (no array
copies), segments must never outlive their owners (explicit close,
abandoned-backend finalization, version bumps), and every answer over the
shared path — served queries and join-graph verification, including after a
persistence-v3 round trip — must equal the in-process oracle.
"""

import gc
import os
import pickle
import time

import numpy as np
import pytest

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.execution import create_backend
from repro.core.evidence import EvidenceType
from repro.core.joins import SAJoinGraph
from repro.core.parallel import live_worker_pids
from repro.core.persistence import load_engine, save_engine
from repro.core.profiles import sample_overlap
from repro.core.shared import SharedIndexSnapshot, SharedSnapshotError
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.tables.table import Table

from tests.core.test_batched_query import assert_identical_answers, submit


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3,
            tables_per_base=3,
            base_rows=40,
            min_rows=15,
            max_rows=30,
            seed=21,
        )
    )


def _build_engine(corpus):
    engine = D3L(
        config=D3LConfig(
            num_hashes=64, num_trees=8, min_candidates=15, embedding_dimension=16
        )
    )
    engine.index_lake(corpus.lake)
    return engine


@pytest.fixture(scope="module")
def engine(corpus):
    return _build_engine(corpus)


def assert_states_identical(indexes, attached):
    """Bit-exact equality of matrices, flags, refs, and forest contents."""
    for evidence in EvidenceType.indexed():
        refs, matrix, flags = indexes._matrices[evidence].export_state(copy=False)
        a_refs, a_matrix, a_flags = attached._matrices[evidence].export_state(
            copy=False
        )
        assert refs == a_refs
        assert np.array_equal(matrix, a_matrix)
        assert np.array_equal(flags, a_flags)
        forest = indexes._forests[evidence].export_state(copy=False)
        a_forest = attached._forests[evidence].export_state(copy=False)
        for tree, a_tree in zip(forest["trees"], a_forest["trees"]):
            assert np.array_equal(tree["keys"], a_tree["keys"])
            assert tree["items"] == a_tree["items"]
    assert sorted(indexes.profiles) == sorted(attached.profiles)
    assert sorted(indexes.table_profiles) == sorted(attached.table_profiles)


class TestAttach:
    def test_shm_attach_is_identical_and_zero_copy(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            assert snapshot.descriptor[0] == "shm"
            attached = SharedIndexSnapshot.attach(snapshot.descriptor)
            assert attached.version == engine.indexes.version
            assert_states_identical(engine.indexes, attached)
            for evidence in EvidenceType.indexed():
                matrix = attached._matrices[evidence]._matrix
                # Views over the segment, not copies: no owned data, frozen.
                assert not matrix.flags.owndata
                assert not matrix.flags.writeable
        finally:
            snapshot.close()

    def test_attach_is_cached_per_process(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            first = SharedIndexSnapshot.attach(snapshot.descriptor)
            assert SharedIndexSnapshot.attach(snapshot.descriptor) is first
        finally:
            snapshot.close()

    def test_file_backing_round_trip(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes, backing="file")
        try:
            kind, locator = snapshot.descriptor
            assert kind == "file"
            assert os.path.exists(locator)
            attached = SharedIndexSnapshot.attach(snapshot.descriptor)
            assert_states_identical(engine.indexes, attached)
        finally:
            snapshot.close()
        assert not os.path.exists(locator)

    def test_descriptor_ships_a_fraction_of_the_pickled_index(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            pickled = len(pickle.dumps(engine.indexes))
            assert snapshot.shipped_bytes() * 10 <= pickled
        finally:
            snapshot.close()

    def test_pickle_descriptor_degrades_to_the_shipped_object(self, engine):
        assert (
            SharedIndexSnapshot.attach(("pickle", engine.indexes))
            is engine.indexes
        )

    def test_attached_engine_answers_like_the_source(self, corpus, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            attached = SharedIndexSnapshot.attach(snapshot.descriptor)
            mirror = D3L(
                config=attached.config,
                embedding_model=attached.embedding_model,
                weights=engine.weights,
                subject_classifier=attached.subject_classifier,
            )
            mirror.indexes = attached
            for name in corpus.lake.table_names[::4]:
                target = corpus.lake.table(name)
                assert_identical_answers(
                    submit(engine, target, 5), submit(mirror, target, 5)
                )
        finally:
            snapshot.close()


class TestLifecycle:
    def test_close_unlinks_and_is_idempotent(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        kind, name = snapshot.descriptor
        assert os.path.exists(f"/dev/shm/{name}")
        snapshot.close()
        assert snapshot.closed
        assert not os.path.exists(f"/dev/shm/{name}")
        snapshot.close()  # second close is a no-op
        with pytest.raises(SharedSnapshotError):
            SharedIndexSnapshot.attach((kind, name))

    def test_finalize_backstop_reclaims_abandoned_snapshots(self, engine):
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        _, name = snapshot.descriptor
        del snapshot
        gc.collect()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_abandoned_backend_finalization(self, engine):
        refs = sorted(engine.indexes.profiles)[:4]
        pairs = [(refs[0], refs[1]), (refs[2], refs[3]), (refs[0], refs[2])]
        pids_before = live_worker_pids()
        backend = create_backend("process", engine.indexes, 2)
        overlaps = backend.verify_overlaps(pairs)
        expected = {
            (left, right): sample_overlap(
                engine.indexes.profiles[left].value_sample,
                engine.indexes.profiles[right].value_sample,
            )
            for left, right in pairs
        }
        assert overlaps == expected
        snapshot = backend.snapshot
        assert snapshot is not None
        _, name = snapshot.descriptor
        # Only this backend's workers: other live pools elsewhere in the
        # suite keep workers of their own.
        own_pids = live_worker_pids() - pids_before
        assert own_pids
        del backend
        gc.collect()
        assert not os.path.exists(f"/dev/shm/{name}")
        deadline = time.monotonic() + 5.0
        while live_worker_pids() & own_pids and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not (live_worker_pids() & own_pids)

    def test_version_bump_delta_refreshes_the_snapshot_pool(self, corpus):
        engine = _build_engine(corpus)
        refs = sorted(engine.indexes.profiles)[:4]
        pairs = [(refs[0], refs[1]), (refs[2], refs[3])]
        with create_backend("process", engine.indexes, 2) as backend:
            backend.verify_overlaps(pairs)
            first = backend.snapshot
            assert first is not None
            assert first.version == engine.indexes.version
            extra = Table.from_dict(
                "version_bump_extra", {"code": ["aa", "bb", "cc", "dd"]}
            )
            engine.indexes.add_table(extra)
            backend.verify_overlaps(pairs)
            # A single-table mutation rides to the workers as a delta: the
            # snapshot (and pool) survive, and the pending delta targets the
            # current version from the snapshot's fixed base.
            assert backend.snapshot is first
            assert not first.closed
            pool = backend._pool
            assert pool._delta is not None
            assert pool._delta[0] == engine.indexes.version
            assert [op[:2] for op in pool._delta[1]] == [
                ("upsert", "version_bump_extra")
            ]
            assert pool._delta_version == engine.indexes.version
            assert pool._snapshot_version == first.version
        assert first.closed


class TestSharedPathDeterminism:
    def test_persistence_round_trip_then_served_by_process_workers(
        self, corpus, engine, tmp_path
    ):
        from repro.core.server import DiscoveryServer

        path = save_engine(engine, tmp_path / "engine.d3l")
        restored = load_engine(path)
        with DiscoveryServer(restored, port=0, workers=2, backend="process") as server:
            for name in corpus.lake.table_names[::4]:
                request = QueryRequest(target=corpus.lake.table(name), k=5)
                with DiscoverySession(engine) as oracle:
                    expected = oracle.submit(request).truncated().to_dict()
                assert server.submit(request) == expected

    def test_join_graph_over_a_process_backend(self, corpus):
        engine = _build_engine(corpus)
        try:
            oracle = SAJoinGraph.build_sequential(engine.indexes, engine.config)
            shared = engine.build_join_graph(workers=2)

            def edge_map(graph):
                return {
                    tuple(sorted(pair)): (
                        graph.edge(*pair).left,
                        graph.edge(*pair).right,
                        graph.edge(*pair).overlap,
                    )
                    for pair in graph.graph.edges
                }

            assert edge_map(shared) == edge_map(oracle)
            with create_backend("process", engine.indexes, 2) as backend:
                sharded = SAJoinGraph.build(engine.indexes, engine.config, backend=backend)
            assert edge_map(sharded) == edge_map(oracle)
        finally:
            engine.close()
