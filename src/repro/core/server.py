"""The ``repro serve`` discovery service: a long-lived multi-worker HTTP tier.

The wire protocol (:mod:`repro.core.api`, ``d3l.query_response/v1``) and the
caching :class:`~repro.core.api.DiscoverySession` existed before this module,
but nothing served them.  :class:`DiscoveryServer` is that missing tier — a
stdlib-only HTTP server (no new dependencies) over one loaded engine:

* ``POST /query`` accepts a ``d3l.query_request/v1`` JSON body (target table
  inline, plus ``k``/``evidence``/``explain``/``joins``/``workers``/…),
  submits it through a :class:`~repro.core.api.DiscoverySession`, and returns
  ``QueryResponse.truncated().to_dict()`` — the exact payload the CLI's
  ``--json`` mode emits, bit-identical to an in-process session;
* ``GET /index-status`` reports the lake size, per-index byte footprint,
  ``D3LIndexes.version``, the snapshot backing workers would attach, and
  aggregated session-cache statistics;
* ``GET /healthz`` answers ``{"status": "ok"}`` for load balancers.

Concurrency model — two serving backends (:data:`SERVING_BACKENDS`), chosen
at construction and on the CLI via ``repro serve --backend``:

``thread``
    A :class:`~http.server.ThreadingHTTPServer` accepts connections on
    demand, and request handlers check a
    :class:`~repro.core.api.DiscoverySession` out of a fixed pool of
    ``workers`` sessions, all sharing the one engine.  Simple and
    zero-copy, but CPU-bound query work serialises on the GIL.

``process``
    The same HTTP front end, but each of the ``workers`` slots is a
    *worker process* attached read-only to one
    :class:`~repro.core.shared.SharedIndexSnapshot` of the engine's
    indexes.  Requests travel over a per-worker duplex pipe; each worker
    runs its own caching session (sessions and caches live worker-side),
    so queries execute with true parallelism — the GIL ceiling ROADMAP
    open item 1 names is lifted.  Lake mutations propagate exactly as
    pooled fan-out payloads do: the parent computes one net delta from the
    index journal (:func:`~repro.core.shared.build_index_delta`) against
    the fixed snapshot version and ships it with each request until the
    snapshot is re-exported; the apply is idempotent, so workers converge
    from any intermediate state.  Responses remain byte-identical to an
    in-process session (the worker runs the very same
    ``session.submit(request).truncated().to_dict()``).

Lifecycle: :meth:`DiscoveryServer.close` (idempotent, also the
``__exit__``) stops accepting, drains handler threads, then closes every
session or worker process — which reaps the engine's worker pools and
unlinks its ``/dev/shm`` segments — so a served engine shuts down
leak-free under either backend.  :meth:`run_until_interrupt` wires
SIGINT/SIGTERM to that teardown for the CLI's foreground mode.
"""

from __future__ import annotations

import builtins
import io
import json
import multiprocessing
import queue
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple
from urllib.parse import urlsplit

from repro.analysis.sanitizer import tracked_scope
from repro.core.api import (
    DiscoverySession,
    QueryRequest,
    query_request_from_wire,
)
from repro.core.config import require_positive
from repro.core.discovery import D3L
from repro.core.execution import (
    _DELTA_MAX_TABLES,
    _snapshot_descriptor,
    register_worker_owner,
)

#: Server identifier reported by ``/healthz`` and the ``Server`` header.
SERVER_NAME = "repro-serve/1"

#: The serving concurrency models ``DiscoveryServer(backend=...)`` accepts.
SERVING_BACKENDS = ("thread", "process")

#: Largest ``POST /query`` body accepted (bytes).  A request declaring more
#: is answered 413 without its body being read.  Inline 1000-row targets
#: take 50-100 KB, so only a broken or hostile client comes near this.
MAX_REQUEST_BYTES = 64 * 1024 * 1024


def index_status(engine: D3L, sessions: List[DiscoverySession]) -> Dict[str, object]:
    """The ``GET /index-status`` payload for one engine + its session pool."""
    from repro.core.shared import live_segment_locators

    indexes = engine.indexes
    cache = {"hits": 0, "misses": 0, "size": 0, "capacity": 0}
    for session in sessions:
        info = session.cache_info()
        for key in cache:
            cache[key] += info[key]
    return {
        "status": "ok",
        "server": SERVER_NAME,
        "lake": {
            "tables": len(indexes.table_profiles),
            "attributes": len(indexes.profiles),
        },
        "index_bytes": indexes.index_bytes(),
        "version": indexes.version,
        "snapshot": {
            "backing": "shm" if Path("/dev/shm").is_dir() else "file",
            "live_segments": live_segment_locators(),
        },
        "workers": len(sessions),
        "cache": cache,
    }


# --------------------------------------------------------------------------- #
# process-backend worker machinery
# --------------------------------------------------------------------------- #


def _serving_worker_main(conn, descriptor, weights, cache_size: int) -> None:
    """A serving worker process: one caching session over the attached index.

    The worker attaches the shipped snapshot descriptor read-only, mirrors
    the parent engine around it (same config, embedding model, weights, and
    subject classifier — all carried by the snapshot or shipped once), and
    answers ``("query", request, delta)`` messages with the exact
    ``QueryResponse.truncated().to_dict()`` payload an in-process session
    produces.  A non-None ``delta`` is applied before the query (idempotent;
    skipped when this worker already converged), with the parent's
    per-table cache eviction (:meth:`~repro.core.discovery.D3L._note_mutation`)
    replayed for each delta op so worker-side join-overlap caches never
    serve stale pairs.
    """
    from repro.core.shared import SharedIndexSnapshot, apply_index_delta

    # A foreground Ctrl-C delivers SIGINT to the whole process group; shutdown
    # is the parent's job (a "stop" message or pipe EOF), so ignore it here
    # rather than dying mid-recv with a KeyboardInterrupt traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    attached = SharedIndexSnapshot.attach(descriptor)
    engine = D3L(
        config=attached.config,
        embedding_model=attached.embedding_model,
        weights=weights,
        subject_classifier=attached.subject_classifier,
    )
    engine.indexes = attached
    session = DiscoverySession(engine, profile_cache_size=cache_size)
    try:
        while True:
            try:
                command, request, delta = conn.recv()
            except (EOFError, OSError):
                break
            if command == "stop":
                break
            try:
                if delta is not None and attached.version < delta[0]:
                    apply_index_delta(attached, delta)
                    for op in delta[1]:
                        engine._note_mutation(op[1])
                if command == "status":
                    conn.send(("ok", session.cache_info()))
                else:
                    response = session.submit(request)
                    conn.send(("ok", response.truncated().to_dict()))
            except Exception as error:  # noqa: BLE001 - shipped to the parent
                conn.send(("error", type(error).__name__, str(error)))
    finally:
        session.close()
        conn.close()


def _rebuild_error(type_name: str, message: str) -> Exception:
    """Reconstruct a worker-side exception for the parent's 500 formatting.

    Builtin exception types round-trip exactly (the HTTP handler formats
    ``{type name}: {message}`` either way); anything else degrades to a
    ``RuntimeError`` carrying both.
    """
    exc_type = getattr(builtins, type_name, None)
    if isinstance(exc_type, type) and issubclass(exc_type, Exception):
        return exc_type(message)
    return RuntimeError(f"{type_name}: {message}")


class _ServingWorker:
    """One serving worker process plus the parent end of its request pipe.

    A worker answers exactly one request at a time (the server's idle-queue
    checkout discipline guarantees exclusive pipe access).  A broken pipe
    marks the worker :attr:`dead`; the server swaps in a replacement on
    check-in.
    """

    def __init__(self, descriptor, weights, cache_size: int) -> None:
        parent_end, child_end = multiprocessing.Pipe()
        self._conn = parent_end
        # Not a daemon: requests carrying ``workers > 1`` fan out *inside*
        # the worker through the engine's own process pools, and daemonic
        # processes may not have children.  Orphaning is still bounded — a
        # worker blocks in ``recv()`` and exits on EOF when the parent end
        # of the pipe goes away, engine teardown included.
        self._process = multiprocessing.Process(
            target=_serving_worker_main,
            args=(child_end, descriptor, weights, cache_size),
            name="repro-serve-worker",
        )
        self._process.start()
        # The child holds its own copy; closing the parent's reference makes
        # worker death observable as EOF on the parent end.
        child_end.close()
        self.dead = False

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return not self.dead and self._process.is_alive()

    def _roundtrip(self, message):
        try:
            self._conn.send(message)
            reply = self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as error:
            self.dead = True
            raise RuntimeError("serving worker process died") from error
        if reply[0] == "ok":
            return reply[1]
        raise _rebuild_error(reply[1], reply[2])

    def query(self, request: QueryRequest, delta) -> Dict[str, object]:
        """Answer one request worker-side, applying ``delta`` first if any."""
        return self._roundtrip(("query", request, delta))

    def cache_info(self, delta=None) -> Dict[str, int]:
        """The worker session's hit/miss/occupancy counters."""
        return self._roundtrip(("status", None, delta))

    def close(self) -> None:
        """Stop the worker and join it (idempotent; terminate as backstop)."""
        if self._process.is_alive() and not self.dead:
            try:
                self._conn.send(("stop", None, None))
            except (BrokenPipeError, OSError):
                pass
        self._conn.close()
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - unresponsive worker
            self._process.terminate()
            self._process.join()
        self.dead = True


class _DiscoveryRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange against the owning :class:`DiscoveryServer`.

    The handler is intentionally thin: route, borrow a session or worker,
    delegate.  Validation errors surface as 400s carrying the same messages
    the :class:`~repro.core.api.QueryRequest` constructor raises in-process
    (the wire is parsed in the parent under either backend).
    """

    protocol_version = "HTTP/1.1"
    server_version = SERVER_NAME
    # TCP_NODELAY on every accepted connection: a reply must not wait for
    # the client to acknowledge an earlier segment (see _respond).
    disable_nagle_algorithm = True
    # Idle keep-alive connections drop after this many seconds, bounding how
    # long a forgotten client can stall the shutdown join.
    timeout = 5

    # The ThreadingHTTPServer subclass below carries the DiscoveryServer in
    # this attribute; annotate for readability only.
    server: "_ServingHTTPServer"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.owner.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        if path == "/healthz":
            self._respond(200, {"status": "ok", "server": SERVER_NAME})
        elif path == "/index-status":
            self._respond(200, self.server.owner.status_payload())
        else:
            self._respond(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = urlsplit(self.path).path
        if path != "/query":
            self._respond(404, {"error": f"unknown path {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0:
            self._respond(400, {"error": "request body required"})
            return
        if length > MAX_REQUEST_BYTES:
            # The body stays unread, so the connection cannot carry another
            # request: answer and close it.
            message = f"request body of {length} bytes exceeds {MAX_REQUEST_BYTES} bytes"
            self._respond(413, {"error": message}, close=True)
            return
        body = self.rfile.read(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            self._respond(400, {"error": f"invalid JSON body: {error}"})
            return
        try:
            request = query_request_from_wire(payload)
        except (ValueError, KeyError, TypeError) as error:
            self._respond(400, {"error": str(error)})
            return
        try:
            response = self.server.owner.submit(request)
        except Exception as error:  # noqa: BLE001 - one request must not kill the server
            self._respond(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._respond(200, response)

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    def _respond(
        self, status: int, payload: Dict[str, object], close: bool = False
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        # The status line and headers are captured and sent together with
        # the body in one write.  Sent apart, the body is a second small
        # segment that Nagle's algorithm holds until the client acknowledges
        # the first, and clients delay that ACK by up to 40 ms.
        socket_file, self.wfile = self.wfile, io.BytesIO()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            head = self.wfile.getvalue()
        finally:
            self.wfile = socket_file
        try:
            socket_file.write(head + body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to clean up


class _ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows its owning :class:`DiscoveryServer`."""

    daemon_threads = True
    # Handler threads are joined on shutdown so `close()` really is the last
    # word — no request can outlive the sessions it borrows from.
    block_on_close = True

    def __init__(self, address: Tuple[str, int], owner: "DiscoveryServer") -> None:
        super().__init__(address, _DiscoveryRequestHandler)
        self.owner = owner


class DiscoveryServer:
    """A long-lived discovery service over one indexed engine.

    Programmatic usage (tests, benchmarks)::

        with DiscoveryServer(engine, port=0, workers=4) as server:
            server.start()
            ... HTTP traffic against server.host:server.port ...
        # closed: sessions drained, pools reaped, segments unlinked

    Foreground usage (the CLI)::

        server = DiscoveryServer(engine, host=host, port=port, workers=n)
        server.run_until_interrupt()      # SIGINT/SIGTERM → clean teardown

    ``backend`` selects the concurrency model (:data:`SERVING_BACKENDS`):
    ``thread`` checks sessions out of an in-process pool, ``process`` runs
    ``workers`` snapshot-attached worker processes with worker-side
    sessions.  Served payloads are identical under both.
    """

    def __init__(
        self,
        engine: D3L,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        profile_cache_size: int = 64,
        verbose: bool = False,
        backend: str = "thread",
    ) -> None:
        require_positive("workers", workers)
        require_positive("profile_cache_size", profile_cache_size)
        if backend not in SERVING_BACKENDS:
            raise ValueError(
                f"unknown serving backend {backend!r}; "
                f"valid backends: {', '.join(SERVING_BACKENDS)}"
            )
        self.engine = engine
        self.verbose = verbose
        self.backend = backend
        #: The serving concurrency width (sessions or worker processes).
        self.worker_count = workers
        self._profile_cache_size = profile_cache_size
        #: One caching session per serving worker under the thread backend
        #: (empty under the process backend — sessions live worker-side).
        self.sessions: List[DiscoverySession] = []
        self._idle: "queue.Queue" = queue.Queue()
        self._workers: List[_ServingWorker] = []
        # Guards the worker-list membership during crash replacement.
        self._workers_lock = threading.Lock()
        # Serialises delta computation, snapshot re-export, and the
        # drain-all-workers paths (respawn, cache aggregation) so no two of
        # them compete for the same idle workers.
        self._state_lock = threading.Lock()
        self._snapshot = None
        self._descriptor = None
        # Version the worker snapshot was exported at — the fixed base every
        # shipped delta is computed against (workers may sit anywhere between
        # it and the live version) — plus the cached pending delta.
        self._base_version: Optional[int] = None
        self._delta = None
        self._delta_version: Optional[int] = None
        if backend == "process":
            self._descriptor, self._snapshot = _snapshot_descriptor(engine.indexes)
            self._base_version = engine.indexes.version
            self._workers = [self._spawn_worker() for _ in range(workers)]
            for worker in self._workers:
                self._idle.put(worker)
            register_worker_owner(self)
        else:
            self.sessions = [
                DiscoverySession(engine, profile_cache_size=profile_cache_size)
                for _ in range(workers)
            ]
            for session in self.sessions:
                self._idle.put(session)
        self._httpd = _ServingHTTPServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # addressing
    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` — bind to a free one)."""
        return self._httpd.server_address[1]

    # ------------------------------------------------------------------ #
    # process-backend plumbing
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> _ServingWorker:
        """One fresh worker over the current snapshot (ownership → caller)."""
        return _ServingWorker(
            self._descriptor, self.engine.weights, self._profile_cache_size
        )

    def worker_pids(self) -> Set[int]:
        """PIDs of live serving worker processes (leak-audit accounting)."""
        with self._workers_lock:
            return {
                worker.pid
                for worker in self._workers
                if worker.pid is not None and worker._process.is_alive()
            }

    def _pending_delta(self):
        """The delta bringing snapshot-based workers up to the live indexes.

        None when workers are current.  Computed once per index version
        against the fixed snapshot base (so it is valid for a worker at any
        intermediate state) and cached until the next mutation.  When the
        journal cannot reconstruct the mutation set (or too many tables
        moved), the worker fleet is respawned over a fresh snapshot instead
        — the same self-heal the fan-out pools perform.
        """
        from repro.core.shared import build_index_delta

        with self._state_lock, self.engine.index_lock.read():
            version = self.engine.indexes.version
            if version == self._base_version:
                return None
            if self._delta_version != version:
                delta = build_index_delta(
                    self.engine.indexes,
                    self._base_version,
                    max_tables=_DELTA_MAX_TABLES,
                )
                if delta is None:
                    self._respawn_workers_locked()
                    return None
                self._delta = delta
                self._delta_version = version
            return self._delta

    def _respawn_workers_locked(self) -> None:
        """Replace every worker with one over a fresh snapshot (holding
        ``_state_lock``).  Draining the idle queue waits for in-flight
        requests to check their workers back in."""
        drained = [self._idle.get() for _ in range(self.worker_count)]
        for worker in drained:
            worker.close()
        if self._snapshot is not None:
            self._snapshot.close()
        self._descriptor, self._snapshot = _snapshot_descriptor(self.engine.indexes)
        self._base_version = self.engine.indexes.version
        self._delta = None
        self._delta_version = None
        with self._workers_lock:
            self._workers = [self._spawn_worker() for _ in range(self.worker_count)]
            fresh = list(self._workers)
        for worker in fresh:
            self._idle.put(worker)

    def _replace_dead_worker(self, dead: _ServingWorker) -> _ServingWorker:
        """Swap a crashed worker for a fresh one over the current snapshot."""
        dead.close()
        with self._workers_lock:
            if self._closed:
                return dead
            try:
                replacement = self._spawn_worker()
            except Exception:  # pragma: no cover - spawn raced the teardown
                return dead
            if dead in self._workers:
                self._workers.remove(dead)
            self._workers.append(replacement)
            return replacement

    def _worker_cache_stats(self) -> Dict[str, int]:
        """Aggregated worker-side session-cache counters (process backend).

        Checks out the whole fleet (briefly blocking new queries behind the
        state lock) so every worker is counted exactly once.
        """
        cache = {"hits": 0, "misses": 0, "size": 0, "capacity": 0}
        with self._state_lock, tracked_scope("discovery-server.session-pool"):
            workers = [self._idle.get() for _ in range(self.worker_count)]
            try:
                for worker in workers:
                    try:
                        info = worker.cache_info()
                    except Exception:  # noqa: BLE001 - dead worker counts as empty
                        continue
                    for key in cache:
                        cache[key] += info[key]
            finally:
                for worker in workers:
                    self._idle.put(worker)
        return cache

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def status_payload(self) -> Dict[str, object]:
        """The ``GET /index-status`` payload for this server's backend."""
        payload = index_status(self.engine, self.sessions)
        payload["backend"] = self.backend
        if self.backend == "process":
            payload["workers"] = self.worker_count
            payload["cache"] = self._worker_cache_stats()
        return payload

    def submit(self, request: QueryRequest) -> Dict[str, object]:
        """Answer one request through an idle session or worker process
        (blocks until one frees).

        Returns the wire payload — ``QueryResponse.truncated().to_dict()`` —
        so HTTP handlers and in-process callers serve byte-identical answers
        under either backend.
        """
        if self.backend == "process":
            delta = self._pending_delta()
            with tracked_scope("discovery-server.session-pool"):
                worker = self._idle.get()
                try:
                    return worker.query(request, delta)
                finally:
                    if worker.dead:
                        worker = self._replace_dead_worker(worker)
                    self._idle.put(worker)
        # Under REPRO_SANITIZE=1 the tracker flags a handler that tries to
        # check out a second session while holding one (a deadlock once the
        # bounded pool is exhausted) and any inverted nesting against the
        # server state lock; otherwise this is a no-op context.
        with tracked_scope("discovery-server.session-pool"):
            session = self._idle.get()
            try:
                response = session.submit(request)
            finally:
                self._idle.put(session)
        return response.truncated().to_dict()

    def start(self) -> "DiscoveryServer":
        """Serve in a background thread (idempotent); returns ``self``."""
        with tracked_scope("discovery-server.state-lock"), self._lock:
            if self._closed:
                raise RuntimeError("server is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._httpd.serve_forever,
                    name=f"repro-serve:{self.port}",
                    daemon=True,
                )
                self._thread.start()
        return self

    def run_until_interrupt(self) -> None:
        """Serve in the foreground until SIGINT/SIGTERM, then tear down.

        Must run on the main thread (signal handlers).  The previous
        handlers are restored before :meth:`close` runs, so a second Ctrl-C
        during a slow teardown still interrupts the process.
        """
        stop = threading.Event()

        def _request_shutdown(signum, frame) -> None:  # noqa: ARG001
            stop.set()

        previous = {
            sig: signal.signal(sig, _request_shutdown)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }
        self.start()
        try:
            # Polled wait rather than a bare wait(): a signal delivered to a
            # non-main thread only sets CPython's pending-handler flag, which
            # an indefinitely blocked main thread would never re-check.
            while not stop.wait(0.5):
                pass
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.close()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop serving and release every resource (idempotent).

        Order matters: stop accepting and join handler threads first (no
        request may hold a session or worker past this point), then close
        the sessions or worker processes — which reaps the engine's fan-out
        pools and unlinks its shared-memory segments.
        """
        with tracked_scope("discovery-server.state-lock"), self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._thread = None
        if thread is not None:
            self._httpd.shutdown()
            thread.join()
        self._httpd.server_close()
        for session in self.sessions:
            session.close()
        with self._workers_lock:
            workers = list(self._workers)
            self._workers = []
        for worker in workers:
            worker.close()
        if self._snapshot is not None:
            self._snapshot.close()
            self._snapshot = None
        if self.backend == "process":
            # Thread-backend sessions reap the engine through session.close();
            # mirror that here so a served engine never strands fan-out pools.
            self.engine.close()

    def __enter__(self) -> "DiscoveryServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
