"""Backend-equivalence sweeps for the pluggable execution layer.

Every :class:`~repro.core.execution.ExecutionBackend` must be an
interchangeable strategy: for fixed payloads, ``serial`` and ``process``
runs — at any worker count, including after lake mutations — must produce
indistinguishable answers.  The serial backend is the oracle; the sweeps
here pin the process backend to it through the SA-join verification
kernel, the engine's join-graph build, and the raw ``map_shards`` surface.
The one process runtime's behaviour under concurrency, crashes and a dead
parent follows, and the index lock's writer preference is checked last.
"""

import glob
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.execution import BACKENDS, IndexReadWriteLock, create_backend
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)

ROOT = Path(__file__).resolve().parents[2]


def _double_shard(indexes, payload):
    """Module-level shard fn so process workers can unpickle it."""
    return [value * 2 for value in payload]


def _table_names(indexes, payload):
    """Shard fn: the tables of the view a shard runs against."""
    return sorted(indexes.table_profiles)


class _Unpicklable(Exception):
    def __init__(self, value):
        super().__init__(f"bad payload {value}")
        self.hook = lambda: value  # a lambda attribute: does not pickle


def _die_once_shard(indexes, payload):
    """Shard fn that kills its own worker mid-message on the first call for
    value 0 (the marker file in the payload records that call)."""
    marker, value = payload
    if value == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def _fail_shard(indexes, payload):
    """Shard fn: ``[2]`` raises an exception, ``[3]`` one that does not
    pickle, anything else passes through."""
    if payload == [2]:
        raise ValueError("bad payload 2")
    if payload == [3]:
        raise _Unpicklable(3)
    return payload


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
        backend = create_backend("process", engine.indexes, 2)
        backend.map_shards(_double_shard, [[1], [2]])
        backend.close()
        backend.close()
        assert backend.worker_pids() == set()


class TestBackendEquivalence:
    def test_backends_agree_after_mutation_deltas(self, corpus):
        engine = D3L(config=_tiny_config())
        engine.index_lake(corpus.lake)
        extra = corpus.lake.tables[0].with_name("zz_delta_table")
        refs = sorted(engine.indexes.profiles)
        with create_backend("process", engine.indexes, 2) as backend:
            # Warm the pool so the mutations below reach live workers as a
            # delta, not as a re-export to fresh workers.
            assert backend.map_shards(_table_names, [None, None]) == [
                sorted(corpus.lake.table_names)
            ] * 2
            pids = backend.worker_pids()
            engine.index_table(extra)
            engine.remove_table(corpus.lake.table_names[-1])
            expected = sorted(engine.indexes.table_profiles)
            assert "zz_delta_table" in expected
            assert backend.map_shards(_table_names, [None, None]) == [expected] * 2
            assert backend.worker_pids() == pids
            # Pairs of the added table's attributes and of untouched ones.
            added = sorted(
                ref for ref in engine.indexes.profiles if ref.table == extra.name
            )
            pairs = list(itertools.combinations(added + refs[:4], 2))
            with create_backend("serial", engine.indexes, 2) as oracle:
                assert backend.verify_overlaps(pairs) == oracle.verify_overlaps(pairs)


class TestJoinVerificationBackends:
    def test_verify_overlaps_identical_across_backends(self, engine):
        refs = sorted(engine.indexes.profiles)[:6]
        pairs = list(itertools.combinations(refs, 2))
        with create_backend("serial", engine.indexes, 1) as oracle:
            expected = oracle.verify_overlaps(pairs)
        for kind in BACKENDS:
            with create_backend(kind, engine.indexes, 3) as backend:
                assert backend.verify_overlaps(pairs) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
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


def _running(pids):
    """The pids that are still running (a zombie counts as gone)."""
    running = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if state not in ("Z", "X"):
            running.append(pid)
    return running


def _segments(prefix):
    return glob.glob(f"/dev/shm/{prefix}*") + glob.glob(
        os.path.join(tempfile.gettempdir(), f"{prefix}*")
    )


_ORPHANING_PARENT = """
import json, os, sys, time
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.execution import create_backend
from repro.core.server import DiscoveryServer
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig, generate_synthetic_benchmark)

corpus = generate_synthetic_benchmark(SyntheticBenchmarkConfig(
    num_base_tables=2, tables_per_base=2, base_rows=30, min_rows=20, max_rows=25,
    seed=5))
engine = D3L(config=D3LConfig(
    num_hashes=64, num_trees=8, min_candidates=20, embedding_dimension=16))
engine.index_lake(corpus.lake)
backend = create_backend("process", engine.indexes, 2)
refs = sorted(engine.indexes.profiles)[:4]
backend.verify_overlaps([(refs[0], refs[1]), (refs[2], refs[3])])
server = DiscoveryServer(engine, port=0, workers=2, backend="process")
with open(sys.argv[1] + ".part", "w") as handle:
    json.dump(sorted(backend.worker_pids() | server.worker_pids()), handle)
os.rename(sys.argv[1] + ".part", sys.argv[1])
time.sleep(120)
"""


class TestProcessWorkers:
    """The one process runtime under concurrency, crashes and a dead parent."""

    def test_concurrent_maps_on_one_backend_all_answer(self, engine):
        # More mapping threads than workers, switching threads often.
        payloads = [[index, index + 1] for index in range(6)]
        expected = [_double_shard(None, payload) for payload in payloads]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with create_backend("process", engine.indexes, 2) as backend:

                def mapper(name):
                    results[name] = [
                        backend.map_shards(_double_shard, payloads) for _ in range(5)
                    ]

                threads = [threading.Thread(target=mapper, args=(n,)) for n in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                assert not any(t.is_alive() for t in threads), "maps deadlocked"
        finally:
            sys.setswitchinterval(interval)
        assert results == {name: [expected] * 5 for name in range(4)}

    def test_a_worker_dying_mid_message_is_replaced_and_sent_it_again(
        self, engine, tmp_path
    ):
        marker = str(tmp_path / "died")
        with create_backend("process", engine.indexes, 2) as backend:
            assert backend.map_shards(_double_shard, [[1], [2]]) == [[2], [4]]
            pids = backend.worker_pids()
            payloads = [(marker, value) for value in range(4)]
            assert backend.map_shards(_die_once_shard, payloads) == [0, 1, 2, 3]
            assert os.path.exists(marker)
            after = backend.worker_pids()
            assert len(after) == 2
            assert len(after & pids) == 1  # exactly one worker was replaced

    def test_a_killed_worker_is_replaced_and_the_map_answers(self, engine):
        payloads = [[1], [2], [3]]
        expected = [_double_shard(None, payload) for payload in payloads]
        with create_backend("process", engine.indexes, 2) as backend:
            assert backend.map_shards(_double_shard, payloads) == expected
            victim = min(backend.worker_pids())
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5
            while victim in backend.worker_pids():
                assert time.monotonic() < deadline, "the worker never died"
                time.sleep(0.01)
            assert backend.map_shards(_double_shard, payloads) == expected
            assert victim not in backend.worker_pids()
            assert len(backend.worker_pids()) == 2

    def test_worker_exceptions_are_raised_as_raised(self, engine):
        with create_backend("process", engine.indexes, 2) as backend:
            assert backend.map_shards(_fail_shard, [[1], [4]]) == [[1], [4]]
            pids = backend.worker_pids()
            with pytest.raises(ValueError, match="bad payload 2"):
                backend.map_shards(_fail_shard, [[1], [2]])
            with pytest.raises(RuntimeError, match="_Unpicklable: bad payload 3"):
                backend.map_shards(_fail_shard, [[1], [3]])
            # A worker-side exception leaves its worker running.
            assert backend.map_shards(_double_shard, [[1], [2]]) == [[2], [4]]
            assert backend.worker_pids() == pids

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat")
    def test_workers_and_segments_go_when_their_parent_is_killed(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        ready = tmp_path / "pids.json"
        with open(tmp_path / "stderr.txt", "w") as stderr:
            parent = subprocess.Popen(
                [sys.executable, "-c", _ORPHANING_PARENT, str(ready)],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
        pids = []
        try:
            deadline = time.monotonic() + 120
            while not ready.exists() and parent.poll() is None:
                assert time.monotonic() < deadline, "the parent never started"
                time.sleep(0.05)
            assert ready.exists(), (tmp_path / "stderr.txt").read_text()
            pids = json.loads(ready.read_text())
            assert len(pids) == 4
        finally:
            parent.kill()
            parent.wait()
        prefix = f"d3l_snap_{parent.pid:x}_"
        try:
            deadline = time.monotonic() + 5
            while (_running(pids) or _segments(prefix)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _running(pids) == []
            assert _segments(prefix) == []
        finally:
            for pid in _running(pids):
                os.kill(pid, signal.SIGKILL)


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
