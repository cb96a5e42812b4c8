"""Sharded index construction and query fan-out over execution backends.

Figure 6a of the paper shows index construction dominating end-to-end cost:
a deployment indexes the lake once and answers many queries afterwards.
:class:`ParallelIndexBuilder` splits that one expensive pass across workers;
:class:`ParallelQueryExecutor` applies the same shard/merge discipline to
the query side, fanning one target's attributes out across workers for the
batched query engine (``QueryRequest(workers=N)``).

Neither class constructs pools itself any more: both dispatch through an
:class:`~repro.core.execution.ExecutionBackend` (serial / thread / process,
``process`` by default), which owns pool lifecycle, the shared index
snapshot, and journal-driven delta refresh.  Sharding stays here — it is a
pure function of the requested worker count, so a given ``workers=N``
produces identical shards under every backend, and the keyed merges make
the final result backend-independent (locked down by
``tests/core/test_execution.py`` on top of the original
``tests/core/test_parallel_build.py`` / ``test_parallel_query.py`` oracles).

:class:`ParallelIndexBuilder` works as follows:

1. the lake's table names are sorted and dealt round-robin into one shard
   per worker (deterministic for a given lake and worker count);
2. each worker profiles its shard's tables and computes their signatures
   with the table-level batched passes
   (:meth:`~repro.core.indexes.D3LIndexes.table_signatures`);
3. the main process merges the shard results **in globally sorted table
   order** through :meth:`~repro.core.indexes.D3LIndexes.add_profiled_table`,
   i.e. the existing buffered forest inserts and batched signature-matrix
   appends.

Because signature computation is deterministic and the merge order is the
same sorted order a serial ``add_lake`` uses, a sharded build produces
signature matrices, forest contents, and therefore query rankings identical
to a single-process build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.execution import ExecutionBackend, create_backend, live_worker_pids
from repro.lake.datalake import DataLake
from repro.tables.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.indexes import D3LIndexes
    from repro.core.shared import SharedIndexSnapshot

#: ``live_worker_pids`` is re-exported: the suite-wide leak audit imports it
#: from here (the historical home of worker-process bookkeeping).
__all__ = [
    "ParallelIndexBuilder",
    "ParallelQueryExecutor",
    "live_worker_pids",
    "partition_tables",
]

#: One shard worker's result: per table, the profile plus the per-attribute
#: signatures (``{attribute name: {evidence: signature or None}}``).
ShardResult = List[Tuple[object, Dict[str, dict]]]


def partition_tables(table_names: Sequence[str], shards: int) -> List[List[str]]:
    """Deal the sorted table names round-robin into ``shards`` groups.

    Sorting first makes the partition a pure function of the name set, so
    rebuilding the same lake — regardless of the order its tables were added
    in — always yields the same shards.
    """
    if shards <= 0:
        raise ValueError("shards must be positive")
    ordered = sorted(table_names)
    return [ordered[index::shards] for index in range(shards)]


def _profile_and_sign_shard(
    indexes: "D3LIndexes", tables: List[Table]
) -> ShardResult:
    """Shard fn: profile and sign every table of one shard.

    ``indexes`` is the profiling clone — a fresh (empty) ``D3LIndexes`` with
    exactly the same configuration, embedding model, and subject classifier
    as the merging process, shipped once per worker by the backend; nothing
    is inserted into it.  Signatures are batched across the whole shard, so
    every worker exploits the same cross-table vocabulary sharing a serial
    ``add_lake`` does.
    """
    table_profiles = [indexes.profile_table(table) for table in tables]
    signatures = indexes.batch_signatures(table_profiles)
    return [
        (table_profile, signatures[table_profile.table_name])
        for table_profile in table_profiles
    ]


class ParallelIndexBuilder:
    """Builds a :class:`~repro.core.indexes.D3LIndexes` over worker shards.

    The target indexes (and through them the configuration, embedding model,
    and subject classifier) must be picklable under the process backend,
    since an empty clone is shipped to every worker.  ``workers=1``
    degenerates to profiling in the main process through the identical code
    path, which is how the determinism tests compare the two.
    """

    def __init__(
        self, indexes: "D3LIndexes", workers: int, backend: str = "process"
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.indexes = indexes
        self.workers = workers
        self.backend = backend

    def _worker_clone(self) -> "D3LIndexes":
        """A fresh, empty indexes object sharing the target's configuration."""
        from repro.core.indexes import D3LIndexes

        return D3LIndexes(
            config=self.indexes.config,
            embedding_model=self.indexes.embedding_model,
            subject_classifier=self.indexes.subject_classifier,
        )

    def build(self, lake: DataLake) -> "D3LIndexes":
        """Profile and sign ``lake`` across the shards, then merge in order.

        The profiling clone is shipped once per worker through the backend
        (``share_index=False`` — builds need the configuration, not the
        still-empty index contents); per-shard payloads carry only the
        shard's tables.  Pool sizing is the backend's concern — sharding is
        a pure function of the requested worker count alone, so the merged
        result is too.
        """
        shards = [
            names for names in partition_tables(lake.table_names, self.workers) if names
        ]
        payloads = [[lake.table(name) for name in names] for names in shards]
        if len(payloads) <= 1:
            clone = self._worker_clone()
            shard_results = [
                _profile_and_sign_shard(clone, payload) for payload in payloads
            ]
        else:
            with create_backend(
                self.backend, self._worker_clone(), self.workers, share_index=False
            ) as backend:
                shard_results = backend.map_shards(_profile_and_sign_shard, payloads)

        by_table: Dict[str, Tuple[object, Dict[str, dict]]] = {}
        for result in shard_results:
            for table_profile, signatures in result:
                by_table[table_profile.table_name] = (table_profile, signatures)
        for name in sorted(by_table):
            table_profile, signatures = by_table[name]
            self.indexes.add_profiled_table(table_profile, signatures)
        return self.indexes


#: One query shard worker's result: per target attribute, the candidate
#: refs in ref order plus the per-evidence distance columns aligned with
#: them (``[(attribute name, refs, {evidence: column})]``).  Refs, not
#: attribute ids: ids are process-local.
QueryShardResult = List[Tuple[str, List, Dict]]


def _collect_shard_candidate_distances(
    indexes: "D3LIndexes", payload
) -> QueryShardResult:
    """Shard fn: batched candidate collection for one shard.

    ``payload`` is ``(table_name, entries, context)``: the target's name,
    this shard's ``(attribute name, profile)`` pairs, and the shared query
    context (active evidence, pool, exclusions, subject-related tables).
    ``indexes`` is the backend's view — over the process backend a
    delta-refreshed worker-resident attachment; the worker runs exactly the
    same batched sweeps the single-process engine runs on its shard.
    """
    table_name, entries, context = payload
    from repro.core.discovery import collect_attribute_candidate_distances

    refs = indexes.ids.items
    return [
        (name, [refs[item] for item in ids.tolist()], columns)
        for name, ids, columns in collect_attribute_candidate_distances(
            indexes, table_name, entries, **context
        )
    ]


class ParallelQueryExecutor:
    """Fans one query's target attributes out across backend workers.

    The sorted attribute names are dealt round-robin into one shard per
    worker (:func:`partition_tables` — the partition is a pure function of
    the attribute-name set), each worker collects its shard's candidate
    distance vectors through the batched sweeps of
    :func:`~repro.core.discovery.collect_attribute_candidate_distances`, and
    the merge re-emits the results in the target profile's original
    attribute order — the order the sequential engine iterates.  Because
    every per-attribute result is a pure function of the (read-only) indexes
    and the shared query context, ``workers=1`` and ``workers=N`` answers
    are identical under every backend, which
    ``tests/core/test_parallel_query.py`` and ``test_execution.py`` lock
    down.

    Pool lifecycle, snapshot export, and journal-driven delta refresh are
    the owned :class:`~repro.core.execution.ExecutionBackend`'s concern
    (:class:`~repro.core.execution.ProcessBackend` by default), exposed as
    :attr:`backend`; SA-join verification runs on that backend too
    (:meth:`~repro.core.execution.ExecutionBackend.verify_overlaps`).
    """

    def __init__(
        self, indexes: "D3LIndexes", workers: int, backend: str = "process"
    ) -> None:
        self.indexes = indexes
        self.workers = workers
        self._backend = create_backend(backend, indexes, workers)

    @property
    def backend(self) -> ExecutionBackend:
        """The owned execution backend shards dispatch through."""
        return self._backend

    @property
    def snapshot(self) -> Optional["SharedIndexSnapshot"]:
        """The live shared snapshot backing the pool (None before spin-up,
        for in-process backends, or under the degraded pickle descriptor)."""
        return self._backend.snapshot

    def close(self) -> None:
        """Shut the backend's pool down and unlink its snapshot (the executor
        can be reused afterwards — the next fan-out re-creates both)."""
        self._backend.close()

    def collect(
        self,
        table_name: str,
        entries: Sequence[Tuple[str, object]],
        **context,
    ) -> List[Tuple[str, "np.ndarray", Dict]]:
        """Collect every attribute's candidate distances across the shards.

        Returns what
        :func:`~repro.core.discovery.collect_attribute_candidate_distances`
        returns for all of ``entries``: candidates as this process's
        attribute ids, attributes in the target profile's order.

        When the shared query context carries memoized target signatures
        (``signature_maps``, from a serving session's profile cache), each
        worker is shipped only its own shard's slice of the map so repeated
        queries neither re-sign the target nor pay for signatures of
        attributes another shard owns.
        """
        entries = list(entries)
        profile_of = dict(entries)
        signature_maps = context.pop("signature_maps", None)
        shards = [
            names
            for names in partition_tables([name for name, _ in entries], self.workers)
            if names
        ]
        shard_entries = [
            [(name, profile_of[name]) for name in names] for names in shards
        ]

        def shard_signatures(names):
            if signature_maps is None:
                return None
            return {name: signature_maps[name] for name in names}

        payloads = [
            (
                table_name,
                entries_for_shard,
                context
                | {
                    "signature_maps": shard_signatures(
                        [name for name, _ in entries_for_shard]
                    )
                },
            )
            for entries_for_shard in shard_entries
        ]
        shard_results = self._backend.map_shards(
            _collect_shard_candidate_distances, payloads
        )
        find = self.indexes.ids.find
        by_attribute = {
            name: (np.fromiter(map(find, refs), dtype=np.int32, count=len(refs)), columns)
            for result in shard_results
            for name, refs, columns in result
        }
        return [
            (name, *by_attribute[name])
            for name, _ in entries
            if name in by_attribute
        ]
