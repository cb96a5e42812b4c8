"""Tests for the ``repro serve`` discovery service (``core/server.py``).

The server must answer exactly like an in-process
:class:`~repro.core.api.DiscoverySession` — byte-for-byte on the wire — and
shut down leak-free (the suite-wide autouse fixture audits shared-memory
segments and child processes around every test).
"""

import http.client
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.core.api import (
    DiscoverySession,
    QueryRequest,
    QueryResponse,
    query_request_to_wire,
)
from repro.core.server import (
    MAX_REQUEST_BYTES,
    SERVER_NAME,
    SERVING_BACKENDS,
    DiscoveryServer,
    _DiscoveryRequestHandler,
    index_status,
)


@pytest.fixture()
def server(indexed_d3l):
    with DiscoveryServer(indexed_d3l, port=0, workers=2) as running:
        yield running


@pytest.fixture(params=SERVING_BACKENDS)
def any_server(request, indexed_d3l):
    """A running server under each serving backend."""
    with DiscoveryServer(
        indexed_d3l, port=0, workers=2, backend=request.param
    ) as running:
        yield running


def _post_raw(server, body: bytes):
    """``POST /query`` with ``body`` as given: the status and the raw reply."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(
            "POST", "/query", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _request(server, method, path, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _oracle_payload(engine, request):
    with DiscoverySession(engine) as oracle:
        return oracle.submit(request).truncated().to_dict()


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _request(server, "GET", "/healthz")
        assert status == 200
        assert payload == {"status": "ok", "server": SERVER_NAME}

    def test_index_status_reports_engine_state(self, server, indexed_d3l):
        status, payload = _request(server, "GET", "/index-status")
        assert status == 200
        assert payload["lake"]["tables"] == len(indexed_d3l.indexes.table_profiles)
        assert payload["lake"]["attributes"] == len(indexed_d3l.indexes.profiles)
        assert payload["version"] == indexed_d3l.indexes.version
        assert payload["workers"] == 2
        assert payload["snapshot"]["backing"] in ("shm", "file")
        assert set(payload["cache"]) == {"hits", "misses", "size", "capacity"}
        assert payload["index_bytes"] == {
            key: int(value)
            for key, value in indexed_d3l.indexes.index_bytes().items()
        }

    def test_index_status_helper_aggregates_session_caches(self, indexed_d3l):
        sessions = [DiscoverySession(indexed_d3l) for _ in range(3)]
        payload = index_status(indexed_d3l, sessions)
        assert payload["cache"]["capacity"] == sum(
            session.profile_cache_size for session in sessions
        )


class TestQueryEquivalence:
    @pytest.mark.parametrize("explain", [False, True])
    def test_served_response_is_bit_identical_to_in_process(
        self, server, indexed_d3l, small_synthetic_benchmark, explain
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        request = QueryRequest(target=target, k=5, explain=explain)
        status, payload = _request(
            server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload == _oracle_payload(indexed_d3l, request)
        restored = QueryResponse.from_dict(payload)
        assert restored.to_dict() == payload

    def test_evidence_subset_and_joins_travel(
        self, server, indexed_d3l, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[1]
        request = QueryRequest(target=target, k=5, evidence=["N", "V"], joins=True)
        status, payload = _request(
            server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload["evidence"] == ["N", "V"]
        assert payload["join_paths"] is not None
        assert payload == _oracle_payload(indexed_d3l, request)

    def test_attribute_level_requests_travel(
        self, server, indexed_d3l, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[2]
        request = QueryRequest(
            target=target, k=3, attributes=(target.columns[0].name,)
        )
        status, payload = _request(
            server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload["mode"] == "attributes"
        assert payload == _oracle_payload(indexed_d3l, request)

    def test_concurrent_clients_all_get_oracle_answers(
        self, server, indexed_d3l, small_synthetic_benchmark
    ):
        targets = small_synthetic_benchmark.lake.tables[:3]
        requests = [QueryRequest(target=target, k=5) for target in targets]
        expected = [_oracle_payload(indexed_d3l, request) for request in requests]
        results = {}
        errors = []

        def client(worker):
            try:
                for index, request in enumerate(requests):
                    status, payload = _request(
                        server, "POST", "/query", query_request_to_wire(request)
                    )
                    assert status == 200
                    results[(worker, index)] = payload
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(worker,)) for worker in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for (worker, index), payload in results.items():
            assert payload == expected[index], (worker, index)


class TestErrorHandling:
    def test_invalid_json_is_400(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request(
                "POST", "/query", body="{not json", headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "invalid JSON" in payload["error"]

    def test_missing_body_is_400(self, server):
        status, payload = _request(server, "POST", "/query")
        assert status == 400
        assert "body" in payload["error"]

    def test_validation_errors_are_400_with_the_api_message(
        self, server, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        wire = query_request_to_wire(QueryRequest(target=target, k=5))
        wire["evidence"] = ["bogus"]
        status, payload = _request(server, "POST", "/query", wire)
        assert status == 400
        assert "unknown evidence type" in payload["error"]

    def test_unknown_request_field_is_400(self, server, small_synthetic_benchmark):
        target = small_synthetic_benchmark.lake.tables[0]
        wire = query_request_to_wire(QueryRequest(target=target, k=5))
        wire["answer_size"] = 3
        status, payload = _request(server, "POST", "/query", wire)
        assert status == 400
        assert "answer_size" in payload["error"]

    def test_unknown_paths_are_404(self, server):
        assert _request(server, "GET", "/nope")[0] == 404
        assert _request(server, "POST", "/nope", {})[0] == 404

    @pytest.mark.parametrize(
        "body",
        [b"[" * 100_000, b'{"target": "\xff\xfe"}'],
        ids=["nested-past-the-recursion-limit", "invalid-utf-8"],
    )
    def test_malformed_body_is_400_and_the_server_keeps_serving(
        self, any_server, small_synthetic_benchmark, body
    ):
        status, reply = _post_raw(any_server, body)
        assert status == 400
        assert json.loads(reply)["error"].startswith("invalid JSON body: ")
        request = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=5)
        status, payload = _request(
            any_server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload == _oracle_payload(any_server.engine, request)

    @pytest.mark.parametrize("weights", [5, [1.0, 2.0]], ids=["number", "list"])
    def test_weights_that_are_not_an_object_are_400(
        self, any_server, small_synthetic_benchmark, weights
    ):
        request = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=5)
        wire = query_request_to_wire(request)
        status, payload = _request(any_server, "POST", "/query", wire | {"weights": weights})
        assert status == 400
        assert "weights must be an object" in payload["error"]
        status, payload = _request(any_server, "POST", "/query", wire)
        assert status == 200
        assert payload == _oracle_payload(any_server.engine, request)

    @pytest.mark.parametrize("flag", ["exclude_self", "explain", "joins"])
    def test_non_boolean_flags_are_400(self, any_server, small_synthetic_benchmark, flag):
        request = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=5)
        wire = query_request_to_wire(request)
        status, payload = _request(any_server, "POST", "/query", wire | {flag: "false"})
        assert status == 400
        assert f"{flag} must be a boolean" in payload["error"]
        status, payload = _request(any_server, "POST", "/query", wire)
        assert status == 200
        assert payload == _oracle_payload(any_server.engine, request)

    def test_oversized_body_is_413_and_the_server_keeps_serving(
        self, server, indexed_d3l, small_synthetic_benchmark
    ):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            # Only the headers go out: the server must answer without
            # waiting for a body it will never read.
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_REQUEST_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        assert str(MAX_REQUEST_BYTES) in payload["error"]
        request = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=5)
        status, payload = _request(server, "POST", "/query", query_request_to_wire(request))
        assert status == 200
        assert payload == _oracle_payload(indexed_d3l, request)


class TestRetiredRequestFields:
    """v1 clients may still send ``workers`` and ``backend``: the server
    validates them as before, then answers exactly as without them."""

    @pytest.mark.parametrize(
        "retired",
        [{"workers": 2, "backend": "thread"}, {"workers": 1, "backend": "serial"}],
        ids=["thread-fanout", "serial"],
    )
    def test_answer_is_byte_identical_to_the_request_without_them(
        self, any_server, small_synthetic_benchmark, retired
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        plain = query_request_to_wire(
            QueryRequest(target=target, k=5, joins=True, explain=True)
        )
        status, expected = _post_raw(any_server, json.dumps(plain).encode())
        assert status == 200
        status, reply = _post_raw(any_server, json.dumps(plain | retired).encode())
        assert status == 200
        assert reply == expected

    @pytest.mark.parametrize(
        "retired, message",
        [
            ({"workers": 0}, "workers must be positive"),
            ({"workers": True}, "workers must be an integer"),
            ({"workers": 1.5}, "workers must be an integer"),
            (
                {"backend": "quantum"},
                "unknown backend 'quantum'; valid backends: serial, thread, process",
            ),
        ],
        ids=["zero-workers", "bool-workers", "float-workers", "unknown-backend"],
    )
    def test_invalid_values_are_400_with_their_old_messages(
        self, any_server, small_synthetic_benchmark, retired, message
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        wire = query_request_to_wire(QueryRequest(target=target, k=5)) | retired
        assert _request(any_server, "POST", "/query", wire) == (400, {"error": message})

    def test_attribute_requests_still_refuse_more_than_one_worker(
        self, any_server, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[2]
        request = QueryRequest(target=target, k=3, attributes=(target.columns[0].name,))
        wire = query_request_to_wire(request)
        status, payload = _request(any_server, "POST", "/query", wire | {"workers": 1})
        assert status == 200
        assert payload == _oracle_payload(any_server.engine, request)
        assert _request(any_server, "POST", "/query", wire | {"workers": 2}) == (
            400,
            {"error": "workers are not supported for attribute-level requests"},
        )


class _RecordingFile:
    """Wraps a handler's socket file and records every write to it."""

    def __init__(self, inner, writes):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def flush(self):
        self._inner.flush()

    def close(self):
        self._inner.close()

    @property
    def closed(self):
        return self._inner.closed


class TestResponsePath:
    def test_nagle_is_off_and_each_reply_is_one_write(
        self, indexed_d3l, small_synthetic_benchmark, monkeypatch
    ):
        nodelay, writes = [], []
        setup = _DiscoveryRequestHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            handler.wfile = _RecordingFile(handler.wfile, writes)

        monkeypatch.setattr(_DiscoveryRequestHandler, "setup", recording_setup)
        request = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=5)
        invalid = query_request_to_wire(request)
        invalid["evidence"] = ["bogus"]
        with DiscoveryServer(indexed_d3l, port=0, workers=1) as server:
            ok = _request(server, "POST", "/query", query_request_to_wire(request))
            bad = _request(server, "POST", "/query", invalid)
        assert [ok[0], bad[0]] == [200, 400]
        assert len(nodelay) == 2 and all(nodelay)
        # One write per reply, holding the status line, the headers and the
        # whole body.
        assert len(writes) == 2
        for data, (status, payload) in zip(writes, (ok, bad)):
            head, _, body = data.partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert f"Content-Length: {len(body)}".encode() in head
            assert json.loads(body) == payload


class TestLifecycle:
    def test_close_is_idempotent_and_final(self, indexed_d3l):
        server = DiscoveryServer(indexed_d3l, port=0, workers=1)
        server.start()
        assert _request(server, "GET", "/healthz")[0] == 200
        server.close()
        server.close()
        assert server.closed
        with pytest.raises(RuntimeError):
            server.start()
        with pytest.raises(OSError):
            _request(server, "GET", "/healthz")

    def test_context_manager_starts_and_closes(self, indexed_d3l):
        with DiscoveryServer(indexed_d3l, port=0, workers=1) as server:
            assert _request(server, "GET", "/healthz")[0] == 200
        assert server.closed

    def test_close_without_start_releases_the_socket(self, indexed_d3l):
        server = DiscoveryServer(indexed_d3l, port=0, workers=1)
        port = server.port
        server.close()
        assert port > 0
        assert server.closed

    def test_submit_matches_http_payload(
        self, server, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        request = QueryRequest(target=target, k=5)
        direct = server.submit(request)
        status, payload = _request(
            server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload == direct

    def test_rejects_non_positive_workers(self, indexed_d3l):
        with pytest.raises(ValueError):
            DiscoveryServer(indexed_d3l, port=0, workers=0)


@pytest.fixture()
def process_server(small_synthetic_benchmark, fast_config):
    from repro.core.discovery import D3L
    from repro.lake.datalake import DataLake

    engine = D3L(config=fast_config)
    engine.index_lake(
        DataLake("process-served", small_synthetic_benchmark.lake.tables[:8])
    )
    with DiscoveryServer(
        engine, port=0, workers=2, backend="process"
    ) as running:
        yield running


class TestProcessBackendEquivalence:
    """``--backend process`` must be indistinguishable on the wire.

    Worker processes each hold a read-only attachment of the shared snapshot
    plus a mirror engine/session; every payload they produce must be
    byte-identical to an in-process :class:`DiscoverySession` over the live
    engine, including explain traces, evidence subsets, join paths and
    attribute mode.
    """

    def test_rejects_unknown_backend(self, indexed_d3l):
        with pytest.raises(ValueError):
            DiscoveryServer(indexed_d3l, port=0, workers=2, backend="quantum")

    def test_index_status_reports_process_backend(self, process_server):
        status, payload = _request(process_server, "GET", "/index-status")
        assert status == 200
        assert payload["backend"] == "process"
        assert payload["workers"] == 2
        assert payload["version"] == process_server.engine.indexes.version
        assert set(payload["cache"]) == {"hits", "misses", "size", "capacity"}

    @pytest.mark.parametrize("explain", [False, True])
    def test_served_response_is_bit_identical_to_in_process(
        self, process_server, small_synthetic_benchmark, explain
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        request = QueryRequest(target=target, k=5, explain=explain)
        status, payload = _request(
            process_server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload == _oracle_payload(process_server.engine, request)
        restored = QueryResponse.from_dict(payload)
        assert restored.to_dict() == payload

    def test_evidence_joins_and_attributes_travel(
        self, process_server, small_synthetic_benchmark
    ):
        tables = small_synthetic_benchmark.lake.tables[:8]
        requests = [
            QueryRequest(target=tables[1], k=5, evidence=["N", "V"], joins=True),
            QueryRequest(target=tables[2], k=3, attributes=(tables[2].columns[0].name,)),
        ]
        for request in requests:
            status, payload = _request(
                process_server, "POST", "/query", query_request_to_wire(request)
            )
            assert status == 200
            assert payload == _oracle_payload(process_server.engine, request)

    def test_submit_matches_http_payload(self, process_server, small_synthetic_benchmark):
        target = small_synthetic_benchmark.lake.tables[0]
        request = QueryRequest(target=target, k=5)
        direct = process_server.submit(request)
        status, payload = _request(
            process_server, "POST", "/query", query_request_to_wire(request)
        )
        assert status == 200
        assert payload == direct

    def test_validation_errors_travel_back_as_400(
        self, process_server, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        wire = query_request_to_wire(QueryRequest(target=target, k=5))
        wire["evidence"] = ["bogus"]
        status, payload = _request(process_server, "POST", "/query", wire)
        assert status == 400
        assert "unknown evidence type" in payload["error"]

    def test_mutations_ship_to_workers_as_deltas(
        self, process_server, small_synthetic_benchmark
    ):
        extra = small_synthetic_benchmark.lake.tables[10].with_name("served_extra")
        request = QueryRequest(target=extra, k=5, exclude_self=False)
        wire = query_request_to_wire(request)

        status, payload = _request(process_server, "POST", "/query", wire)
        assert status == 200
        assert "served_extra" not in [r["table"] for r in payload["results"]]
        pids_before = sorted(process_server.worker_pids())

        process_server.engine.index_table(extra)
        status, payload = _request(process_server, "POST", "/query", wire)
        assert status == 200
        assert "served_extra" in [r["table"] for r in payload["results"]]
        assert payload == _oracle_payload(process_server.engine, request)

        process_server.engine.remove_table("served_extra")
        status, payload = _request(process_server, "POST", "/query", wire)
        assert status == 200
        assert "served_extra" not in [r["table"] for r in payload["results"]]
        assert payload == _oracle_payload(process_server.engine, request)
        # Small mutations refresh live workers via journal deltas — the
        # worker fleet must not have been respawned.
        assert sorted(process_server.worker_pids()) == pids_before


class TestWorkerCrash:
    def test_a_killed_worker_is_replaced_and_its_request_retried(
        self, process_server, small_synthetic_benchmark
    ):
        request = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=5)
        expected = _oracle_payload(process_server.engine, request)
        victim = min(process_server.worker_pids())
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 5
        while victim in process_server.worker_pids():
            assert time.monotonic() < deadline, "the worker never died"
            time.sleep(0.01)
        # Sequential submits take the workers in turn: one lands on the dead
        # worker, whose replacement answers it.
        for _ in range(2 * process_server.worker_count):
            assert process_server.submit(request) == expected
        pids = process_server.worker_pids()
        assert victim not in pids
        assert len(pids) == process_server.worker_count


class TestReExportUnderLoad:
    def test_writes_past_the_journal_window_restart_the_workers_under_load(
        self, process_server, small_synthetic_benchmark
    ):
        """When the journal cannot describe the writes since the snapshot,
        the pool re-exports and restarts its workers while submits and
        status calls keep arriving; none of them fails or deadlocks."""
        engine = process_server.engine
        steady = QueryRequest(target=small_synthetic_benchmark.lake.tables[0], k=3)
        extra = small_synthetic_benchmark.lake.tables[10].with_name("reexport_extra")
        stop = threading.Event()
        errors = []

        def loop(call):
            while not stop.is_set():
                try:
                    call()
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)
                    return

        threads = [
            threading.Thread(target=loop, args=(lambda: process_server.submit(steady),)),
            threading.Thread(target=loop, args=(lambda: process_server.submit(steady),)),
            threading.Thread(target=loop, args=(process_server.status_payload,)),
        ]
        pids_before = process_server.worker_pids()
        for thread in threads:
            thread.start()
        try:
            for _ in range(40):  # 80 journal entries: past its 64-entry window
                engine.index_table(extra)
                engine.remove_table(extra.name)
            engine.index_table(extra)
        finally:
            stop.set()
            for thread in threads:
                thread.join(60)
        assert not any(thread.is_alive() for thread in threads), "the pool deadlocked"
        assert not errors
        probe = QueryRequest(target=extra, k=5, exclude_self=False)
        assert process_server.submit(probe) == _oracle_payload(engine, probe)
        pids = process_server.worker_pids()
        assert len(pids) == process_server.worker_count
        assert pids.isdisjoint(pids_before)


class TestWorkerCacheAcrossWrites:
    """Process workers keep their session caches across journal deltas and
    evict only the entries of the tables a write touched."""

    @staticmethod
    def _warm(server, request):
        # Sequential submits check idle workers out first-in first-out, so
        # one submit per worker leaves the target cached in every worker.
        for _ in range(server.worker_count):
            server.submit(request)

    @staticmethod
    def _served_and_counted(server, request):
        before = server.status_payload()["cache"]
        payload = server.submit(request)
        after = server.status_payload()["cache"]
        counts = {key: after[key] - before[key] for key in ("hits", "misses")}
        assert json.dumps(payload) == json.dumps(_oracle_payload(server.engine, request))
        return counts

    def test_write_to_another_table_keeps_the_cached_target(
        self, process_server, small_synthetic_benchmark
    ):
        tables = small_synthetic_benchmark.lake.tables
        request = QueryRequest(target=tables[0], k=5)
        self._warm(process_server, request)
        process_server.engine.index_table(tables[10].with_name("unrelated_extra"))
        assert self._served_and_counted(process_server, request) == {"hits": 1, "misses": 0}
        # A second write re-ships the first table in the delta from the
        # snapshot; the target still stays cached.
        process_server.engine.remove_table(tables[5].name)
        assert self._served_and_counted(process_server, request) == {"hits": 1, "misses": 0}

    def test_write_to_the_target_evicts_its_entry(
        self, process_server, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        request = QueryRequest(target=target, k=5)
        self._warm(process_server, request)
        process_server.engine.index_table(target)
        assert self._served_and_counted(process_server, request) == {"hits": 0, "misses": 1}

    def test_bases_older_than_the_journal_are_not_reconstructible(
        self, process_server, small_synthetic_benchmark
    ):
        from repro.core.shared import (
            SharedIndexSnapshot,
            apply_index_delta,
            build_index_delta,
        )

        tables = small_synthetic_benchmark.lake.tables
        engine = process_server.engine
        snapshot = SharedIndexSnapshot.create(engine.indexes)
        try:
            replica = SharedIndexSnapshot.attach(snapshot.descriptor)
            base = replica.version
            assert replica.mutated_tables_since(base) == set()
            assert replica.mutated_tables_since(base - 1) is None
            engine.index_table(tables[10].with_name("journal_extra"))
            engine.remove_table(tables[1].name)
            apply_index_delta(replica, build_index_delta(engine.indexes, base))
            assert replica.version == engine.indexes.version
            assert replica.mutated_tables_since(base) == {"journal_extra", tables[1].name}
            assert replica.mutated_tables_since(base - 1) is None
        finally:
            snapshot.close()


class TestChurnUnderLoad:
    """Interleaved mutations and concurrent query traffic, both backends.

    Extends :class:`TestMutationVisibility`: while client threads hammer
    ``/query`` with a steady request, the main thread adds and removes
    tables and asserts — between each mutation — that ``/index-status``
    tracks the version and that a fresh query reflects the post-mutation
    lake exactly (oracle-equal).  The mutation count stays far below the
    journal window so the delta path, not a respawn, is what's exercised.
    """

    @pytest.fixture(params=["thread", "process"])
    def churn_server(self, request, small_synthetic_benchmark, fast_config):
        from repro.core.discovery import D3L
        from repro.lake.datalake import DataLake

        engine = D3L(config=fast_config)
        engine.index_lake(
            DataLake("churn", small_synthetic_benchmark.lake.tables[:8])
        )
        with DiscoveryServer(
            engine, port=0, workers=2, backend=request.param
        ) as running:
            yield running
        if request.param == "thread":
            engine.close()

    def test_mutations_stay_fresh_under_concurrent_traffic(
        self, churn_server, small_synthetic_benchmark
    ):
        steady_target = small_synthetic_benchmark.lake.tables[0]
        steady_wire = query_request_to_wire(QueryRequest(target=steady_target, k=3))
        stop = threading.Event()
        errors = []

        def client():
            while not stop.is_set():
                try:
                    status, payload = _request(
                        churn_server, "POST", "/query", steady_wire
                    )
                    assert status == 200, payload
                    assert payload["results"]
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)
                    return

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            _, before = _request(churn_server, "GET", "/index-status")
            base_version = before["version"]
            donor = small_synthetic_benchmark.lake.tables[10]
            for round_number in range(3):
                name = f"churn_table_{round_number}"
                extra = donor.with_name(name)
                probe = QueryRequest(target=extra, k=5, exclude_self=False)
                probe_wire = query_request_to_wire(probe)

                churn_server.engine.index_table(extra)
                status, payload = _request(
                    churn_server, "POST", "/query", probe_wire
                )
                assert status == 200
                assert name in [r["table"] for r in payload["results"]]
                assert payload == _oracle_payload(churn_server.engine, probe)
                _, tracked = _request(churn_server, "GET", "/index-status")
                assert tracked["version"] == base_version + 2 * round_number + 1

                churn_server.engine.remove_table(name)
                status, payload = _request(
                    churn_server, "POST", "/query", probe_wire
                )
                assert status == 200
                assert name not in [r["table"] for r in payload["results"]]
                assert payload == _oracle_payload(churn_server.engine, probe)
                _, tracked = _request(churn_server, "GET", "/index-status")
                assert tracked["version"] == base_version + 2 * round_number + 2
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors


class TestMutationVisibility:
    """A live server must reflect lake mutations on the very next request.

    Regression coverage for the mutation path: ``GET /index-status`` and
    ``POST /query`` are served off the engine's live indexes and the
    per-session profile caches evict per mutated table, so neither endpoint
    may answer from pre-mutation state.  Uses a private engine — the shared
    ``indexed_d3l`` fixture is session-scoped and must stay pristine.
    """

    @pytest.fixture()
    def mutable_server(self, small_synthetic_benchmark, fast_config):
        from repro.core.discovery import D3L
        from repro.lake.datalake import DataLake

        engine = D3L(config=fast_config)
        engine.index_lake(
            DataLake("mutable", small_synthetic_benchmark.lake.tables[:8])
        )
        with DiscoveryServer(engine, port=0, workers=2) as running:
            yield running

    def test_index_status_tracks_mutations(
        self, mutable_server, small_synthetic_benchmark
    ):
        _, before = _request(mutable_server, "GET", "/index-status")
        extra = small_synthetic_benchmark.lake.tables[10].with_name("served_extra")
        mutable_server.engine.index_table(extra)
        _, after = _request(mutable_server, "GET", "/index-status")
        assert after["version"] == before["version"] + 1
        assert after["lake"]["tables"] == before["lake"]["tables"] + 1
        assert after["lake"]["attributes"] > before["lake"]["attributes"]
        mutable_server.engine.remove_table("served_extra")
        _, final = _request(mutable_server, "GET", "/index-status")
        assert final["version"] == before["version"] + 2
        assert final["lake"] == before["lake"]

    def test_query_sees_added_and_removed_tables(
        self, mutable_server, small_synthetic_benchmark
    ):
        extra = small_synthetic_benchmark.lake.tables[10].with_name("served_extra")
        request = QueryRequest(target=extra, k=5, exclude_self=False)
        wire = query_request_to_wire(request)

        status, payload = _request(mutable_server, "POST", "/query", wire)
        assert status == 200
        assert "served_extra" not in [r["table"] for r in payload["results"]]

        mutable_server.engine.index_table(extra)
        status, payload = _request(mutable_server, "POST", "/query", wire)
        assert status == 200
        served_tables = [r["table"] for r in payload["results"]]
        assert "served_extra" in served_tables
        # The served answer must equal a fresh in-process oracle over the
        # post-mutation engine (cache staleness would diverge here).
        assert payload == _oracle_payload(mutable_server.engine, request)

        mutable_server.engine.remove_table("served_extra")
        status, payload = _request(mutable_server, "POST", "/query", wire)
        assert status == 200
        assert "served_extra" not in [r["table"] for r in payload["results"]]
        assert payload == _oracle_payload(mutable_server.engine, request)


class TestServedJoinsAfterWrites:
    """Process workers update their own SA-join graphs after each delta.

    Each worker builds its graph on its first joins request; later writes
    reach it as journal deltas, and its next joins request edits that
    graph for the written tables.  A pool of 6 candidates truncates the
    walks on this lake, so the updates insert into and drain pools.  Every
    joins-and-explain payload must stay byte-identical to the in-process
    session's.
    """

    def test_joins_payloads_match_in_process_after_every_write(
        self, small_synthetic_benchmark, fast_config
    ):
        import dataclasses

        from repro.core.discovery import D3L
        from repro.lake.datalake import DataLake

        tables = small_synthetic_benchmark.lake.tables
        engine = D3L(config=dataclasses.replace(fast_config, join_candidate_pool=6))
        engine.index_lake(DataLake("served-joins", tables[:14]))
        requests = [
            QueryRequest(target=target, k=4, joins=True, explain=True)
            for target in tables[:3]
        ]

        def served_equals_in_process(server):
            for request in requests:
                # Sequential submits take the idle workers in turn.
                for _ in range(server.worker_count):
                    payload = server.submit(request)
                    assert json.dumps(payload) == json.dumps(
                        _oracle_payload(engine, request)
                    )

        writes = [
            lambda: engine.index_table(tables[20].with_name("joins_extra")),
            lambda: engine.remove_table(tables[6].name),
            lambda: engine.index_table(tables[22].with_name(tables[8].name)),
            lambda: engine.remove_table("joins_extra"),
            lambda: engine.index_table(tables[6]),
        ]
        with DiscoveryServer(engine, port=0, workers=2, backend="process") as server:
            served_equals_in_process(server)
            for write in writes:
                write()
                served_equals_in_process(server)
