"""The ``repro serve`` discovery service: a long-lived multi-worker HTTP tier.

The wire protocol (:mod:`repro.core.api`, ``d3l.query_response/v1``) and the
caching :class:`~repro.core.api.DiscoverySession` existed before this module,
but nothing served them.  :class:`DiscoveryServer` is that missing tier — a
stdlib-only HTTP server (no new dependencies) over one loaded engine:

* ``POST /query`` accepts a ``d3l.query_request/v1`` JSON body (target table
  inline, plus ``k``/``evidence``/``explain``/``joins``/…),
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
    The same HTTP front end over a :class:`~repro.core.execution.WorkerPool`
    of ``workers`` processes — the runtime sharded work also uses —
    attached read-only to one
    :class:`~repro.core.shared.SharedIndexSnapshot` of the engine's indexes.
    Each request goes to the next idle worker, whose own caching session
    answers it with true parallelism (no GIL ceiling); lake mutations reach
    the workers as the pool's journal deltas.  Responses remain
    byte-identical to an in-process session (the worker runs the very same
    ``session.submit(request).truncated().to_dict()``), worker-side
    exceptions are raised again as they were raised, and a worker that dies
    mid-request is replaced and the request sent once more.

Lifecycle: the port is bound before any worker starts.
:meth:`DiscoveryServer.close` (idempotent, also the ``__exit__``) stops
accepting, drains handler threads, then closes every session or the worker
pool — which stops the workers and unlinks the snapshot's ``/dev/shm``
segment — so a served engine shuts down leak-free under either backend.
Workers also exit on their own when the server process dies.
:meth:`run_until_interrupt` wires SIGINT/SIGTERM to that teardown for the
CLI's foreground mode.
"""

from __future__ import annotations

import io
import json
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
from repro.core.execution import WorkerPool

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
# process-backend serving (runs inside the pool's worker processes)
# --------------------------------------------------------------------------- #

#: This worker process's ``[session, version]``: its caching session over
#: the attached view, and the index version its join-overlap cache reflects.
_served: list = []


def _worker_session(view, weights, cache_size: int) -> DiscoverySession:
    """This worker's session over ``view``, built on first use.

    The engine mirrors the parent's around the attached view (config,
    embedding model and subject classifier travel with the snapshot; the
    weights with each request).  Before each request, the verified join
    overlaps of the tables written since the worker's last request are
    evicted, as the parent's own writes evict them; all of them when the
    journal cannot say which.
    """
    if not _served:
        engine = D3L(
            config=view.config,
            embedding_model=view.embedding_model,
            subject_classifier=view.subject_classifier,
        )
        engine.indexes = view
        session = DiscoverySession(engine, profile_cache_size=cache_size)
        _served[:] = [session, view.version]
    session, version = _served
    session.engine.weights = weights
    mutated = view.mutated_tables_since(version)
    overlaps = session.engine._join_overlap_cache
    if mutated is None:
        overlaps.clear()
    for name in sorted(mutated or ()):
        overlaps.evict_table(name)
    _served[1] = view.version
    return session


def _serve_request(view, job) -> Dict[str, object]:
    """Pool function: the wire payload of one request, answered worker-side."""
    request, weights, cache_size = job
    session = _worker_session(view, weights, cache_size)
    return session.submit(request).truncated().to_dict()


def _session_cache_info(view, job) -> Dict[str, int]:
    """Pool function: this worker's session-cache counters."""
    _, weights, cache_size = job
    return _worker_session(view, weights, cache_size).cache_info()


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
        except (ValueError, RecursionError) as error:
            # Malformed JSON and bytes that are not UTF-8 raise ValueError;
            # nesting deeper than the interpreter's recursion limit raises
            # RecursionError.  Either would otherwise end this handler
            # thread without a reply.
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
        # Bound before any worker starts: a taken port raises with nothing
        # left running.
        self._httpd = _ServingHTTPServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._lock = threading.Lock()
        #: One caching session per serving worker under the thread backend
        #: (empty under the process backend — sessions live worker-side).
        self.sessions: List[DiscoverySession] = []
        self._idle: "queue.Queue" = queue.Queue()
        self._pool: Optional[WorkerPool] = None
        if backend == "process":
            try:
                self._pool = WorkerPool(
                    engine.indexes, workers, index_lock=engine.index_lock
                )
            except BaseException:
                self._httpd.server_close()
                raise
        else:
            self.sessions = [
                DiscoverySession(engine, profile_cache_size=profile_cache_size)
                for _ in range(workers)
            ]
            for session in self.sessions:
                self._idle.put(session)

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

    def worker_pids(self) -> Set[int]:
        """PIDs of the live worker processes (process backend; leak audit)."""
        return self._pool.worker_pids() if self._pool is not None else set()

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def _job(self, request: Optional[QueryRequest]) -> tuple:
        return (request, self.engine.weights, self._profile_cache_size)

    def status_payload(self) -> Dict[str, object]:
        """The ``GET /index-status`` payload for this server's backend."""
        payload = index_status(self.engine, self.sessions)
        payload["backend"] = self.backend
        if self._pool is not None:
            # One job per worker: the map deals one to each.
            jobs = [self._job(None)] * self.worker_count
            infos = self._pool.map(_session_cache_info, jobs)
            payload["workers"] = self.worker_count
            payload["cache"] = {
                key: sum(info[key] for info in infos) for key in payload["cache"]
            }
        return payload

    def submit(self, request: QueryRequest) -> Dict[str, object]:
        """Answer one request through an idle session or worker process
        (blocks until one frees).

        Returns the wire payload — ``QueryResponse.truncated().to_dict()`` —
        so HTTP handlers and in-process callers serve byte-identical answers
        under either backend.
        """
        # Under REPRO_SANITIZE=1 the tracker flags a handler that tries to
        # check out a second session or worker while holding one (a deadlock
        # once the bounded pool is exhausted) and any inverted nesting
        # against the server state lock; otherwise this is a no-op context.
        with tracked_scope("discovery-server.session-pool"):
            if self._pool is not None:
                return self._pool.run(_serve_request, self._job(request))
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
        the sessions or the worker pool, which stops its processes and
        unlinks its shared-memory snapshot.
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
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "DiscoveryServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
