"""Pluggable execution backends behind every fan-out call site.

Three parallel-execution stacks grew up side by side — the worker pools of
:mod:`repro.core.parallel`, the snapshot ship/attach/delta machinery of
:mod:`repro.core.shared`, and the serving session pool of
:mod:`repro.core.server`.  This module extracts the one abstraction they all
shared implicitly: *run a pure shard function over a list of payloads against
one logical view of the indexes*.  :class:`ExecutionBackend` is that
contract, with three implementations:

``serial``
    :class:`SerialBackend` — a list comprehension in the calling thread.
    The oracle every other backend is equivalence-tested against.

``thread``
    :class:`ThreadBackend` — a lazily created
    :class:`~concurrent.futures.ThreadPoolExecutor` over the live, shared
    indexes.  No serialization cost, but CPU-bound shard work serialises on
    the GIL.

``process``
    :class:`ProcessBackend` — worker processes attached read-only to a
    :class:`~repro.core.shared.SharedIndexSnapshot` (descriptor shipping,
    ~50 bytes per worker), refreshed after lake mutations by net deltas from
    the index journal (:func:`~repro.core.shared.build_index_delta`) riding
    on task payloads.  True parallelism; the default for fan-out.

A shard function is a module-level callable ``fn(indexes, payload)`` — pure
in both arguments.  Backends differ only in *which object* arrives as
``indexes`` (the live object, or a worker-resident attached reconstruction)
and in scheduling; since the function is pure and all merges downstream are
keyed, every backend returns the identical result list for identical
payloads.  ``tests/core/test_execution.py`` sweeps that equivalence.

Lifecycle: every backend is a context manager, ``close()`` is idempotent,
and pooled backends carry a ``weakref.finalize`` backstop so abandoning one
without closing leaks neither worker processes nor ``/dev/shm`` segments.
Process-owning backends (and the process-backend serving tier) register in a
weak set so the leak-audit helper :func:`live_worker_pids` can distinguish
owned workers from strays.
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
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
BACKENDS = ("serial", "thread", "process")

#: Largest mutated-table count a worker pool refreshes via a delta; beyond
#: this, tearing the pool down and re-exporting a fresh snapshot is cheaper
#: than shipping per-table profiles and signatures with every task.
_DELTA_MAX_TABLES = 32

#: Every live owner of worker *processes* in this process (pooled backends
#: and process-backend servers), for the leak-audit helpers
#: (:func:`live_worker_pids`).  Weak so dropped owners vanish from the audit
#: once their finalizer has run.  Owners expose ``worker_pids() -> Set[int]``.
_LIVE_WORKER_OWNERS: "weakref.WeakSet" = weakref.WeakSet()


def register_worker_owner(owner) -> None:
    """Track ``owner`` (weakly) as a holder of worker processes.

    ``owner`` must expose ``worker_pids() -> Set[int]``; the leak audit in
    ``tests/conftest.py`` treats those PIDs as accounted for.
    """
    _LIVE_WORKER_OWNERS.add(owner)


def live_worker_pids() -> Set[int]:
    """PIDs of worker processes owned by live pools and servers."""
    pids: Set[int] = set()
    for owner in list(_LIVE_WORKER_OWNERS):
        pids.update(owner.worker_pids())
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
    so fan-out keeps working (at the old cost) on hosts without ``/dev/shm``
    or a writable temp directory.
    """
    from repro.core.shared import SharedIndexSnapshot, SharedSnapshotError

    try:
        snapshot = SharedIndexSnapshot.create(indexes)
    except SharedSnapshotError:
        return ("pickle", indexes), None
    return snapshot.descriptor, snapshot


# --------------------------------------------------------------------------- #
# process-worker residency
# --------------------------------------------------------------------------- #

#: The worker process's resident view of the indexes, attached once by the
#: pool initializer.  Over the shared-memory path this is a read-only
#: reconstruction whose arrays are views into the host's one segment; only
#: under the degraded ``("pickle", ...)`` descriptor is it a private copy.
_WORKER_INDEXES: Optional["D3LIndexes"] = None


def _init_process_worker(descriptor: "Descriptor") -> None:
    """Pool initializer: attach this worker process to the shipped view."""
    global _WORKER_INDEXES
    from repro.core.shared import SharedIndexSnapshot

    _WORKER_INDEXES = (
        SharedIndexSnapshot.attach(descriptor) if descriptor is not None else None
    )


def _refresh_worker_indexes(delta) -> None:
    """Bring this worker's resident index up to the host's version.

    ``delta`` is a :func:`~repro.core.shared.build_index_delta` result (or
    None when the pool's snapshot is already current).  The delta rides on
    every task payload rather than being broadcast — each worker applies it
    on its next task, and the apply is idempotent and convergent from any
    intermediate state, so no barrier across the pool is needed.
    """
    if delta is not None:
        from repro.core.shared import apply_index_delta

        apply_index_delta(_WORKER_INDEXES, delta)


def _run_process_shard(task):
    """Trampoline for pooled shards: refresh, then run the pure shard fn."""
    fn, delta, payload = task
    _refresh_worker_indexes(delta)
    return fn(_WORKER_INDEXES, payload)


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


def _finalize_pool(pool, snapshot) -> None:
    """Backstop for backends dropped without ``close()``: reap pool, unlink
    segment (worker mappings stay valid through their own exit)."""
    pool.shutdown(wait=False)
    if snapshot is not None:
        snapshot.close()


# --------------------------------------------------------------------------- #
# the backends
# --------------------------------------------------------------------------- #


class ExecutionBackend:
    """One logical view of the indexes plus a way to map shards over it.

    The contract every fan-out call site programs against:

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


class ThreadBackend(ExecutionBackend):
    """Shards scheduled on a lazily created thread pool over the live indexes.

    Today's serving-tier concurrency model made explicit: no serialization,
    no snapshot, shard functions read the one live index object — and
    CPU-bound work serialises on the GIL, which is exactly the ceiling the
    process backend lifts.
    """

    kind = "thread"

    def __init__(self, indexes: Optional["D3LIndexes"], workers: int) -> None:
        super().__init__(indexes, workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        payloads = list(payloads)
        if len(payloads) <= 1:
            return [fn(self.indexes, payload) for payload in payloads]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=_pool_size(self.workers))
            self._finalizer = weakref.finalize(
                self, ThreadPoolExecutor.shutdown, self._pool, wait=False
            )
        indexes = self.indexes
        return list(self._pool.map(lambda payload: fn(indexes, payload), payloads))

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class ProcessBackend(ExecutionBackend):
    """Shards on worker processes attached to a shared index snapshot.

    The worker pool is created lazily on the first multi-shard map and kept
    alive for the backend's lifetime.  Pool spin-up exports one
    :class:`~repro.core.shared.SharedIndexSnapshot` of the indexes and ships
    each worker only the segment descriptor (~50 bytes); workers attach
    read-only array views over the one host-resident segment, so N workers
    cost neither N× index memory nor per-pool pickling.  The snapshot is
    taken at pool creation; when the index version moves past it,
    :meth:`_ensure_pool` self-heals — preferably by computing a per-table
    delta (:func:`~repro.core.shared.build_index_delta`) that subsequent task
    payloads carry to the workers, falling back to recreating pool and
    snapshot when the mutation set is too large or no longer reconstructible.

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
        self._share_index = share_index and indexes is not None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._snapshot: Optional["SharedIndexSnapshot"] = None
        self._pool_version: Optional[int] = None
        # Version the current snapshot was exported at (the fixed delta base:
        # individual workers may sit at any state between it and the current
        # version, depending on which deltas they have already applied), and
        # the pending delta shipped with every pooled task payload.
        self._snapshot_version: Optional[int] = None
        self._delta = None
        self._finalizer: Optional[weakref.finalize] = None
        register_worker_owner(self)

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot backing the pool (None before spin-up or
        under the degraded pickle descriptor)."""
        return self._snapshot

    def worker_pids(self) -> Set[int]:
        """PIDs of this backend's live worker processes (leak audit)."""
        processes = getattr(self._pool, "_processes", None) if self._pool else None
        return set(processes.keys()) if processes else set()

    def close(self) -> None:
        """Shut the pool down and unlink its snapshot (the backend can be
        reused afterwards — the next fan-out re-creates both)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._snapshot is not None:
            self._snapshot.close()
            self._snapshot = None
        self._pool_version = None
        self._snapshot_version = None
        self._delta = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if (
            self._pool is not None
            and self._share_index
            and self._pool_version != self.indexes.version
        ):
            # The indexes moved past the state the workers hold.  Prefer a
            # per-table delta refresh over tearing the pool down: the delta
            # is always computed against the fixed snapshot version, so it is
            # valid for a worker at any intermediate state.
            from repro.core.shared import build_index_delta

            delta = build_index_delta(
                self.indexes, self._snapshot_version, max_tables=_DELTA_MAX_TABLES
            )
            if delta is None:
                # Not reconstructible (journal window exceeded) or too many
                # tables mutated — re-export the current state.
                self.close()
            else:
                self._delta = delta
                self._pool_version = self.indexes.version
        if self._pool is None:
            if self._share_index:
                descriptor, self._snapshot = _snapshot_descriptor(self.indexes)
                self._pool_version = self.indexes.version
                self._snapshot_version = self.indexes.version
            else:
                descriptor = ("pickle", self.indexes)
            self._delta = None
            self._pool = ProcessPoolExecutor(
                max_workers=_pool_size(self.workers),
                initializer=_init_process_worker,
                initargs=(descriptor,),
            )
            # Reap the pool and unlink the segment when the backend is
            # dropped without an explicit close(), so abandoned engines leak
            # neither worker processes nor /dev/shm segments (and do not
            # trip the interpreter-exit wakeup of concurrent.futures on an
            # already-collected pipe).
            self._finalizer = weakref.finalize(
                self, _finalize_pool, self._pool, self._snapshot
            )
        return self._pool

    def map_shards(self, fn: Callable, payloads: Sequence) -> List:
        payloads = list(payloads)
        if len(payloads) <= 1:
            # Single-shard maps run inline against the live view — the same
            # short-circuit every call site used before the backend layer,
            # so one-shard work never pays for pool spin-up.
            return [fn(self.indexes, payload) for payload in payloads]
        pool = self._ensure_pool()
        tasks = [(fn, self._delta, payload) for payload in payloads]
        return list(pool.map(_run_process_shard, tasks))


def create_backend(
    kind: str,
    indexes: Optional["D3LIndexes"],
    workers: int,
    share_index: bool = True,
) -> ExecutionBackend:
    """The backend factory every dispatching layer funnels through.

    ``kind`` must name a member of :data:`BACKENDS`.  Ownership transfers to
    the caller — close the backend (or use it as a context manager) when the
    fan-out scope ends.
    """
    if kind not in BACKENDS:
        raise ValueError(
            f"unknown backend {kind!r}; valid backends: {', '.join(BACKENDS)}"
        )
    if kind == "serial":
        return SerialBackend(indexes, workers)
    if kind == "thread":
        return ThreadBackend(indexes, workers)
    return ProcessBackend(indexes, workers, share_index=share_index)
