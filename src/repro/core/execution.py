"""Pluggable execution backends behind the sharded call sites, and the one
process-worker runtime.

:class:`ExecutionBackend` is the contract the sharded call sites — sharded
index builds (:class:`~repro.core.parallel.ParallelIndexBuilder`) and
SA-join overlap verification — program against: *run a pure shard function
over a list of payloads against one logical view of the indexes*.  Two
implementations:

``serial``
    :class:`SerialBackend` — a list comprehension in the calling thread.
    The oracle the process backend is equivalence-tested against.

``process``
    :class:`ProcessBackend` — a :class:`WorkerPool`: worker processes
    attached read-only to one :class:`~repro.core.shared.SharedIndexSnapshot`
    (descriptor shipping, ~50 bytes per worker), refreshed after lake
    mutations by net deltas from the index journal
    (:func:`~repro.core.shared.build_index_delta`) riding on each message.
    True parallelism; the default for sharded work.

Queries do not shard: a request collects its candidates in the calling
process.  :class:`WorkerPool` is also what ``repro serve --backend process``
runs on (:mod:`repro.core.server`), parallelising across requests, so
attach, delta, re-export, crash replacement and shutdown exist once.

A shard function is a module-level callable ``fn(indexes, payload)`` — pure
in both arguments.  Backends differ only in *which object* arrives as
``indexes`` (the live object, or a worker-resident attached reconstruction)
and in scheduling; since the function is pure and all merges downstream are
keyed, both backends return the identical result list for identical
payloads.  ``tests/core/test_execution.py`` sweeps that equivalence.

Lifecycle: every backend is a context manager, ``close()`` is idempotent,
and pools carry a finalizer backstop so abandoning one without closing
leaks neither worker processes nor ``/dev/shm`` segments; workers also exit
when their parent dies.  Worker pools register in a weak set so the
leak-audit helper :func:`live_worker_pids` can distinguish owned workers
from strays.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import queue
import signal
import threading
import weakref
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.indexes import D3LIndexes
    from repro.core.shared import Descriptor, SharedIndexSnapshot
    from repro.lake.datalake import AttributeRef

#: The recognised backend kinds, in oracle-first order.
BACKENDS = ("serial", "process")

#: Largest mutated-table count a worker pool refreshes via a delta; beyond
#: this, tearing the pool down and re-exporting a fresh snapshot is cheaper
#: than shipping per-table profiles and signatures with every task.
_DELTA_MAX_TABLES = 32

#: Every live :class:`WorkerPool` in this process, for the leak audit
#: (:func:`live_worker_pids`; ``tests/conftest.py`` treats those PIDs as
#: accounted for).  Weak, so dropped pools vanish from the audit.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def live_worker_pids() -> Set[int]:
    """PIDs of worker processes owned by live worker pools."""
    pids: Set[int] = set()
    for pool in list(_LIVE_POOLS):
        pids.update(pool.worker_pids())
    return pids


class IndexReadWriteLock:
    """Many concurrent readers (queries) or one exclusive writer (mutations).

    The thread-serving path answers queries off the engine's *live* indexes,
    so an ``index_table``/``remove_table`` that swaps signature matrices
    mid-query would hand a reader inconsistent array shapes.  Queries enter
    through :meth:`repro.core.api.DiscoverySession.submit` on the read side;
    the engine's mutators take the write side, which waits for in-flight
    readers to drain.

    A waiting writer goes first: a reader arriving while a writer waits is
    parked behind it, so a mutation under steady query traffic waits only
    for the queries already running, not until overlapping queries happen
    to leave the reader count at zero.  A thread that already holds the
    read side may read again while a writer waits — parking it would
    deadlock, since the writer waits for it — which a per-thread hold count
    tells apart.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0
        self._held = threading.local()

    def __getstate__(self) -> dict:
        # Lock state never travels: an engine copied across a process
        # boundary (or pickled into a legacy container) starts unlocked.
        return {}

    def __setstate__(self, state: dict) -> None:
        self.__init__()

    @contextmanager
    def read(self):
        held = getattr(self._held, "count", 0)
        with self._condition:
            while self._writing or (self._writers_waiting and not held):
                self._condition.wait()
            self._readers += 1
        self._held.count = held + 1
        try:
            yield
        finally:
            self._held.count = held
            with self._condition:
                self._readers -= 1
                if not self._readers:
                    self._condition.notify_all()

    @contextmanager
    def write(self):
        with self._condition:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._condition:
                self._writing = False
                self._condition.notify_all()


def _pool_size(requested: int) -> int:
    """Worker count for a pool: the request clamped to the host CPUs.

    Only the *pool* is clamped — shard partitioning stays a pure function of
    the requested worker count, so ``workers=N`` produces identical shards
    (and therefore identical merged results) on any host size.
    """
    return max(1, min(requested, os.cpu_count() or 1))


def _snapshot_descriptor(
    indexes: "D3LIndexes",
) -> Tuple["Descriptor", Optional["SharedIndexSnapshot"]]:
    """A shared snapshot of ``indexes`` plus the descriptor workers attach.

    Falls back to the degraded ``("pickle", indexes)`` descriptor — the old
    ship-a-copy-per-worker behavior — when no shared backing can be created,
    so pools keep working (at the old cost) on hosts without ``/dev/shm``
    or a writable temp directory.
    """
    from repro.core.shared import SharedIndexSnapshot, SharedSnapshotError

    try:
        snapshot = SharedIndexSnapshot.create(indexes)
    except SharedSnapshotError:
        return ("pickle", indexes), None
    return snapshot.descriptor, snapshot


def _verify_overlaps_shard(
    indexes: "D3LIndexes", pairs
) -> List[Tuple["AttributeRef", "AttributeRef", float]]:
    """Shard fn: exact value overlaps of candidate pairs over ``indexes``.

    The value samples are resolved from the indexes' profiles — over the
    process backend that is the worker-resident attached snapshot, so the
    payload is the bare pair list and no samples are shipped at all.
    """
    from repro.core.profiles import sample_overlap

    profiles = indexes.profiles
    return [
        (
            left,
            right,
            sample_overlap(
                profiles[left].value_sample, profiles[right].value_sample
            ),
        )
        for left, right in pairs
    ]


# --------------------------------------------------------------------------- #
# process workers
# --------------------------------------------------------------------------- #

#: Seconds an idle worker waits for a message before it checks that its
#: parent is still alive.
_PARENT_CHECK_S = 1.0


def _worker_main(conn, descriptor: "Descriptor", parent: int) -> None:
    """The worker loop: attach ``descriptor`` once, then answer messages.

    ``(fn, delta, payload)`` is answered with ``(True, fn(view, payload))``
    after the (idempotent) ``delta`` apply, or with ``(False, exception)``;
    an exception that does not pickle travels as ``RuntimeError("Type:
    message")``.  ``None``, EOF or the parent's death ends the loop.  The
    parent is polled for because a forked worker holds its own and its older
    siblings' parent-side pipe ends, so the parent dying is never EOF here.
    """
    from repro.core.shared import SharedIndexSnapshot, apply_index_delta

    # A foreground Ctrl-C reaches the whole process group; stopping workers
    # is the parent's job, so do not die mid-message with a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    view = SharedIndexSnapshot.attach(descriptor)
    try:
        while True:
            while not conn.poll(_PARENT_CHECK_S):
                if os.getppid() != parent:
                    return
            message = conn.recv()
            if message is None:
                return
            fn, delta, payload = message
            try:
                if delta is not None:
                    apply_index_delta(view, delta)
                reply = (True, fn(view, payload))
            except Exception as error:  # noqa: BLE001 - raised again in the parent
                reply = (False, error)
            try:
                conn.send(reply)
            except Exception as error:  # noqa: BLE001 - the reply does not pickle
                failed = error if reply[0] else reply[1]
                conn.send((False, RuntimeError(f"{type(failed).__name__}: {failed}")))
    except (EOFError, OSError):
        pass  # the parent closed its end
    finally:
        conn.close()


class WorkerDied(RuntimeError):
    """A worker process exited before it replied."""


class ProcessWorker:
    """One worker process and the parent's end of its duplex pipe.

    The owner sends one message, then reads its reply.  A worker whose reply
    is unread (:attr:`awaiting` — it died, or its caller gave up) must be
    closed: its next caller would read the stale reply.
    """

    def __init__(self, descriptor: "Descriptor") -> None:
        self.descriptor = descriptor
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main,
            args=(child, descriptor, os.getpid()),
            name="repro-worker",
            daemon=True,
        )
        self.process.start()
        child.close()  # the worker holds the only copy: its death is EOF here
        self.awaiting = False

    def send(self, message) -> None:
        try:
            self.conn.send(message)  # a message that does not pickle is never sent
        except OSError:
            pass  # the worker is gone; receive() reports it
        self.awaiting = True

    def receive(self):
        """The reply's value, or the worker-side exception raised here."""
        try:
            ok, value = self.conn.recv()
        except (EOFError, OSError) as error:
            raise WorkerDied("worker process died") from error
        self.awaiting = False
        if ok:
            return value
        raise value

    def close(self) -> None:
        """Stop the worker and reap it (idempotent)."""
        if self.awaiting:
            self.process.terminate()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - an unresponsive worker
            self.process.terminate()
            self.process.join()


def _shutdown(workers: List[ProcessWorker], snapshot) -> None:
    """Stop ``workers`` and unlink ``snapshot``: a pool's close, and its
    backstop when it is dropped unclosed or the interpreter exits."""
    for worker in workers:
        worker.close()
    workers.clear()
    if snapshot is not None:
        snapshot.close()


class WorkerPool:
    """``processes`` worker processes over one snapshot of ``indexes``: the
    runtime of :class:`ProcessBackend` and ``repro serve --backend process``.

    The pool exports the snapshot (the pickle descriptor when no shared
    backing can be made, and under ``share_index=False``, which ships
    ``indexes`` itself).  Once the indexes move past it, every message
    carries one net delta against the snapshot's fixed version, built once
    per index version; when the journal cannot build one, or more than
    :data:`_DELTA_MAX_TABLES` tables moved, the workers restart over a fresh
    export.  A worker that dies before replying is replaced and sent the
    message once more (pool functions are pure reads).  Workers are checked
    out first-in first-out, so sequential :meth:`run` calls take them in
    turn.  ``index_lock``, when given, is read-held while the pool reads the
    indexes (callers of :class:`ProcessBackend` already hold it).
    """

    def __init__(
        self,
        indexes: Optional["D3LIndexes"],
        processes: int,
        share_index: bool = True,
        index_lock: Optional[IndexReadWriteLock] = None,
    ) -> None:
        self.indexes = indexes
        self.processes = processes
        self._share_index = share_index and indexes is not None
        self._reading = index_lock.read if index_lock is not None else nullcontext
        # Held by every checkout and by a re-export, which drains the idle
        # queue; check-in takes no lock, so a re-export can wait for it.
        self._lock = threading.Lock()
        self._idle: "queue.Queue[ProcessWorker]" = queue.Queue()
        self._workers: List[ProcessWorker] = []
        self._snapshot: Optional["SharedIndexSnapshot"] = None
        self._snapshot_version: Optional[int] = None
        self._delta = None
        self._delta_version: Optional[int] = None
        self._closed = False
        _LIVE_POOLS.add(self)
        with self._lock, self._reading():
            self._export()

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot (None under the pickle descriptor)."""
        return self._snapshot

    def worker_pids(self) -> Set[int]:
        """PIDs of this pool's live worker processes (leak audit)."""
        return {w.process.pid for w in list(self._workers) if w.process.is_alive()}

    def run(self, fn: Callable, payload):
        """``fn(view, payload)`` on the next idle worker."""
        return self.map(fn, [payload])[0]

    def map(self, fn: Callable, payloads: Sequence) -> List:
        """``fn(view, payload)`` for every payload, dealt across the workers,
        in payload order."""
        payloads = list(payloads)
        if not payloads:
            return []
        delta, workers = self._checkout(min(self.processes, len(payloads)))
        results = []
        try:
            for start in range(0, len(payloads), len(workers)):
                messages = [(fn, delta, p) for p in payloads[start : start + len(workers)]]
                for worker, message in zip(workers, messages):
                    worker.send(message)
                for slot, message in enumerate(messages):
                    results.append(self._receive(workers, slot, message))
        finally:
            for worker in workers:
                self._checkin(worker)
        return results

    def close(self) -> None:
        """Stop every worker and unlink the snapshot (idempotent)."""
        with self._lock:
            self._closed = True
            self._finalizer()
            self._snapshot = None

    def _export(self) -> None:
        """Export a snapshot and start the workers on it."""
        if self._share_index:
            descriptor, self._snapshot = _snapshot_descriptor(self.indexes)
            self._snapshot_version = self.indexes.version
        else:
            descriptor = ("pickle", self.indexes)
        self._delta = self._delta_version = None
        # Stops the workers and unlinks the snapshot when the pool is dropped
        # unclosed or the interpreter exits.  multiprocessing's finalizer: at
        # exit it runs before multiprocessing terminates its daemonic
        # children, so the workers get their stop message, not SIGTERM.
        self._finalizer = multiprocessing.util.Finalize(
            self, _shutdown, args=(self._workers, self._snapshot), exitpriority=0
        )
        for _ in range(self.processes):
            self._idle.put(self._spawn(descriptor))

    def _spawn(self, descriptor: "Descriptor") -> ProcessWorker:
        worker = ProcessWorker(descriptor)
        self._workers.append(worker)
        return worker

    def _checkout(self, count: int) -> Tuple[object, List[ProcessWorker]]:
        """The delta every message carries, and ``count`` idle workers."""
        from repro.core import shared

        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            with self._reading():
                version = self.indexes.version if self._share_index else None
                if version != self._snapshot_version and version != self._delta_version:
                    delta = shared.build_index_delta(
                        self.indexes, self._snapshot_version, max_tables=_DELTA_MAX_TABLES
                    )
                    if delta is None:
                        for _ in range(self.processes):  # every worker checked in
                            self._idle.get()
                        self._finalizer()
                        # A failed export leaves the pool closed (raising on
                        # use), not empty (hanging the next checkout).
                        self._closed = True
                        self._export()
                        self._closed = False
                    else:
                        self._delta, self._delta_version = delta, version
            return self._delta, [self._idle.get() for _ in range(count)]

    def _receive(self, workers: List[ProcessWorker], slot: int, message):
        """``workers[slot]``'s reply to ``message``; a worker that died first
        is replaced and sent the message once more."""
        try:
            return workers[slot].receive()
        except WorkerDied:
            workers[slot] = self._replace(workers[slot])
            workers[slot].send(message)
            return workers[slot].receive()

    def _replace(self, worker: ProcessWorker) -> ProcessWorker:
        """A fresh worker in ``worker``'s place, over the same descriptor, so
        a delta computed for the old one holds for the new."""
        worker.close()
        if self._closed:
            raise RuntimeError("worker pool is closed")
        fresh = ProcessWorker(worker.descriptor)
        self._workers[self._workers.index(worker)] = fresh
        return fresh

    def _checkin(self, worker: ProcessWorker) -> None:
        if worker.awaiting and not self._closed:
            try:
                worker = self._replace(worker)
            except OSError:  # pragma: no cover - no process to be had
                pass  # the closed worker keeps its slot; its next use replaces it
        self._idle.put(worker)


# --------------------------------------------------------------------------- #
# the backends
# --------------------------------------------------------------------------- #


class ExecutionBackend:
    """One logical view of the indexes plus a way to map shards over it.

    The contract every sharded call site programs against:

    * :meth:`map_shards` — run a pure module-level ``fn(indexes, payload)``
      over payloads, preserving payload order in the result list;
    * :meth:`verify_overlaps` — the SA-join verification kernel, sharded
      round-robin with the same single-shard short-circuit every backend
      shares (so routing never changes the answer);
    * :attr:`snapshot` — the live shared snapshot backing worker processes
      (None for in-process backends);
    * ``close()`` / context manager — release pools and snapshots
      (idempotent; the backend is reusable afterwards).
    """

    #: The registry name of this backend (overridden per subclass).
    kind = "serial"

    def __init__(self, indexes: Optional["D3LIndexes"], workers: int) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.indexes = indexes
        self.workers = workers

    # -- the protocol ---------------------------------------------------- #
    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        """Run ``fn(indexes, payload)`` for every payload, in payload order."""
        raise NotImplementedError

    def verify_overlaps(
        self, pairs: Sequence[Tuple["AttributeRef", "AttributeRef"]]
    ) -> Dict[Tuple["AttributeRef", "AttributeRef"], float]:
        """Exact value overlaps of candidate pairs over this backend's view.

        Shards the deduplicated pairs round-robin across ``workers``; each
        worker resolves value samples from its view of the indexes, so
        payloads are bare pair lists.  Single-pair (or single-worker) calls
        short-circuit in-process over the live profiles — the result is
        routing- and backend-independent either way.
        """
        from repro.core.profiles import sample_overlap

        ordered = list(dict.fromkeys(pairs))
        if not ordered:
            return {}
        shards = [
            shard
            for shard in (
                ordered[index :: self.workers] for index in range(self.workers)
            )
            if shard
        ]
        if self.workers <= 1 or len(shards) <= 1 or len(ordered) <= 1:
            profiles = self.indexes.profiles
            return {
                (left, right): sample_overlap(
                    profiles[left].value_sample, profiles[right].value_sample
                )
                for left, right in ordered
            }
        shard_results = self.map_shards(_verify_overlaps_shard, shards)
        return {
            (left, right): overlap
            for result in shard_results
            for left, right, overlap in result
        }

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot backing workers (None when in-process)."""
        return None

    def close(self) -> None:
        """Release pools and snapshots (idempotent; backend stays usable)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """The oracle: every shard runs inline, in the calling thread."""

    kind = "serial"

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        return [fn(self.indexes, payload) for payload in payloads]


class ProcessBackend(ExecutionBackend):
    """Shards on worker processes attached to a shared index snapshot.

    The first multi-shard map starts a :class:`WorkerPool` of
    ``_pool_size(workers)`` processes, kept for the backend's lifetime: one
    exported :class:`~repro.core.shared.SharedIndexSnapshot` whose ~50-byte
    descriptor every worker attaches read-only, so N workers cost neither N×
    index memory nor per-pool pickling.  When the indexes move past the
    snapshot, the pool ships a per-table journal delta with each shard, or
    re-exports when the journal cannot build one.

    ``share_index=False`` skips the snapshot/delta machinery and ships the
    given view (a profiling clone, or None) to each worker verbatim through
    the degraded pickle descriptor — the mode index builds use, where
    workers need the configuration but not the (still empty) index
    contents.
    """

    kind = "process"

    def __init__(
        self,
        indexes: Optional["D3LIndexes"],
        workers: int,
        share_index: bool = True,
    ) -> None:
        super().__init__(indexes, workers)
        self._share_index = share_index
        self._pool: Optional[WorkerPool] = None
        self._pool_lock = threading.Lock()

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot backing the pool (None before spin-up or
        under the degraded pickle descriptor)."""
        return self._pool.snapshot if self._pool is not None else None

    def worker_pids(self) -> Set[int]:
        """PIDs of this backend's live worker processes (leak audit)."""
        return self._pool.worker_pids() if self._pool is not None else set()

    def close(self) -> None:
        """Stop the pool and unlink its snapshot (the backend can be reused
        afterwards — the next multi-shard map starts a new pool)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        payloads = list(payloads)
        if len(payloads) <= 1:
            # Single-shard maps run inline against the live view — the same
            # short-circuit every call site used before the backend layer,
            # so one-shard work never pays for pool spin-up.
            return [fn(self.indexes, payload) for payload in payloads]
        with self._pool_lock:
            if self._pool is None:
                self._pool = WorkerPool(
                    self.indexes,
                    _pool_size(self.workers),
                    share_index=self._share_index,
                )
            pool = self._pool
        return pool.map(fn, payloads)


def create_backend(
    kind: str,
    indexes: Optional["D3LIndexes"],
    workers: int,
    share_index: bool = True,
) -> ExecutionBackend:
    """The backend factory every dispatching layer funnels through.

    ``kind`` must name a member of :data:`BACKENDS`.  Ownership transfers to
    the caller — close the backend (or use it as a context manager) when the
    sharded work ends.
    """
    if kind not in BACKENDS:
        raise ValueError(
            f"unknown backend {kind!r}; valid backends: {', '.join(BACKENDS)}"
        )
    if kind == "serial":
        return SerialBackend(indexes, workers)
    return ProcessBackend(indexes, workers, share_index=share_index)
