"""Backend-equivalence sweeps for the pluggable execution layer.

Every :class:`~repro.core.execution.ExecutionBackend` must be an
interchangeable strategy: for a fixed request, ``serial``, ``thread`` and
``process`` runs — at any worker count, including after lake mutations —
must produce indistinguishable answers.  The serial backend is the oracle;
the sweeps here pin the other two to it through the public request
protocol, the SA-join verification kernel, and the raw ``map_shards``
surface.  The index lock's writer preference is checked last.
"""

import itertools
import threading
import time

import pytest

from repro.core.api import (
    DiscoverySession,
    QueryRequest,
    query_request_from_wire,
    query_request_to_wire,
)
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.execution import BACKENDS, IndexReadWriteLock, create_backend
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)

POOLED_BACKENDS = ("thread", "process")


def _double_shard(indexes, payload):
    """Module-level shard fn so process workers can unpickle it."""
    return [value * 2 for value in payload]


def _tiny_config():
    return D3LConfig(
        num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16
    )


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3,
            tables_per_base=3,
            base_rows=40,
            min_rows=20,
            max_rows=35,
            seed=23,
        )
    )


@pytest.fixture(scope="module")
def engine(corpus):
    engine = D3L(config=_tiny_config())
    engine.index_lake(corpus.lake)
    yield engine
    engine.close()


def _submit(engine, target, *, backend, workers, **kwargs):
    with DiscoverySession(engine) as session:
        request = QueryRequest(
            target=target, k=4, workers=workers, backend=backend, **kwargs
        )
        return session.submit(request).to_dict()


class TestCreateBackend:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend("quantum", None, 2)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_invalid_workers_rejected(self, kind):
        with pytest.raises(ValueError, match="workers must be positive"):
            create_backend(kind, None, 0)

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_map_shards_matches_inline(self, kind, engine):
        payloads = [[1, 2], [3], [4, 5, 6]]
        expected = [_double_shard(None, payload) for payload in payloads]
        with create_backend(kind, engine.indexes, 3) as backend:
            assert list(backend.map_shards(_double_shard, payloads)) == expected

    def test_close_is_idempotent(self, engine):
        backend = create_backend("thread", engine.indexes, 2)
        backend.map_shards(_double_shard, [[1], [2]])
        backend.close()
        backend.close()


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_workers_1_vs_4_identical(self, corpus, engine, backend):
        target = corpus.lake.tables[0]
        assert _submit(engine, target, backend=backend, workers=1) == _submit(
            engine, target, backend=backend, workers=4
        )

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_pooled_backends_match_serial_oracle(self, corpus, engine, backend):
        for target in (corpus.lake.tables[1], corpus.lake.tables[4]):
            oracle = _submit(engine, target, backend="serial", workers=1)
            assert _submit(engine, target, backend=backend, workers=3) == oracle

    def test_backends_agree_after_mutation_deltas(self, corpus):
        engine = D3L(config=_tiny_config())
        engine.index_lake(corpus.lake)
        try:
            target = corpus.lake.tables[2]
            # Warm a pool per backend so the mutations below refresh live
            # workers via deltas instead of building fresh pools.
            for backend in POOLED_BACKENDS:
                _submit(engine, target, backend=backend, workers=2)
            extra = corpus.lake.tables[0].with_name("zz_delta_table")
            engine.index_table(extra)
            engine.remove_table(corpus.lake.table_names[-1])
            for probe in (target, extra):
                oracle = _submit(
                    engine, probe, backend="serial", workers=1, exclude_self=False
                )
                for backend in POOLED_BACKENDS:
                    assert (
                        _submit(
                            engine,
                            probe,
                            backend=backend,
                            workers=2,
                            exclude_self=False,
                        )
                        == oracle
                    )
        finally:
            engine.close()


class TestJoinVerificationBackends:
    def test_verify_overlaps_identical_across_backends(self, engine):
        refs = sorted(engine.indexes.profiles)[:6]
        pairs = list(itertools.combinations(refs, 2))
        with create_backend("serial", engine.indexes, 1) as oracle:
            expected = oracle.verify_overlaps(pairs)
        for kind in POOLED_BACKENDS:
            with create_backend(kind, engine.indexes, 3) as backend:
                assert backend.verify_overlaps(pairs) == expected

    @pytest.mark.parametrize("backend", POOLED_BACKENDS)
    def test_join_graph_identical_across_backends(self, corpus, backend):
        serial = D3L(config=_tiny_config())
        serial.index_lake(corpus.lake)
        pooled = D3L(config=_tiny_config())
        pooled.index_lake(corpus.lake)
        try:
            oracle = serial.build_join_graph(workers=1)
            graph = pooled.build_join_graph(workers=3, backend=backend)
            assert [
                (edge.left, edge.right, edge.overlap) for edge in oracle.edges()
            ] == [(edge.left, edge.right, edge.overlap) for edge in graph.edges()]
        finally:
            serial.close()
            pooled.close()


class TestRequestBackendField:
    def test_unknown_backend_rejected(self, corpus):
        with pytest.raises(ValueError, match="unknown backend"):
            QueryRequest(target=corpus.lake.tables[0], backend="quantum")

    def test_wire_round_trip_preserves_backend(self, corpus):
        request = QueryRequest(
            target=corpus.lake.tables[0], k=3, workers=2, backend="thread"
        )
        payload = query_request_to_wire(request)
        assert payload["backend"] == "thread"
        restored = query_request_from_wire(payload)
        assert restored.backend == "thread"


def _start(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _wait_for_writer(lock: IndexReadWriteLock) -> None:
    """Return once a writer is parked on ``lock``."""
    deadline = time.monotonic() + 5
    while not lock._writers_waiting:
        assert time.monotonic() < deadline, "the writer never started waiting"
        time.sleep(0.001)


class TestIndexReadWriteLock:
    def test_a_writer_gets_in_under_looping_readers(self):
        """Readers that overlap without a pause kept the reader count above
        zero, so a writer waited until the traffic stopped."""
        lock = IndexReadWriteLock()
        stop, wrote = threading.Event(), threading.Event()

        def reader():
            while not stop.is_set():
                with lock.read():
                    time.sleep(0.005)

        def writer():
            with lock.write():
                wrote.set()

        readers = [_start(reader) for _ in range(3)]
        time.sleep(0.05)
        threads = readers + [_start(writer)]
        got_in = wrote.wait(2.0)
        stop.set()
        for thread in threads:
            thread.join(5)
        assert got_in
        assert not any(thread.is_alive() for thread in threads)

    def test_a_nested_read_succeeds_while_a_writer_waits(self):
        lock = IndexReadWriteLock()
        wrote = threading.Event()

        def writer():
            with lock.write():
                wrote.set()

        with lock.read():
            thread = _start(writer)
            _wait_for_writer(lock)
            # This thread already reads: parking it behind the writer, which
            # waits for it, would deadlock.
            with lock.read():
                assert not wrote.is_set()
        thread.join(5)
        assert wrote.is_set()

    def test_a_new_reader_waits_behind_a_waiting_writer(self):
        lock = IndexReadWriteLock()
        order = []

        def writer():
            with lock.write():
                order.append("write")

        def reader():
            with lock.read():
                order.append("read")

        with lock.read():
            first = _start(writer)
            _wait_for_writer(lock)
            second = _start(reader)
            time.sleep(0.05)
            assert order == []
        first.join(5)
        second.join(5)
        assert order == ["write", "read"]
