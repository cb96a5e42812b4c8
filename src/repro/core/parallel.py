"""Sharded index construction over execution backends.

Figure 6a of the paper shows index construction dominating end-to-end cost:
a deployment indexes the lake once and answers many queries afterwards.
:class:`ParallelIndexBuilder` splits that one expensive pass across workers.
Queries do not fan out: one request's candidate collection runs in the
calling process, and serving parallelises across requests instead
(``repro serve --backend process``).

The builder does not construct pools itself: it dispatches through an
:class:`~repro.core.execution.ExecutionBackend` (serial / process,
``process`` by default) opened for the length of one build.  Sharding stays
here — it is a pure function of the requested worker count, so a given
``workers=N`` produces identical shards under every backend, and the keyed
merge makes the result backend-independent (locked down by
``tests/core/test_parallel_build.py``).

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

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.execution import create_backend, live_worker_pids
from repro.lake.datalake import DataLake
from repro.tables.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.indexes import D3LIndexes

#: ``live_worker_pids`` is re-exported: the suite-wide leak audit imports it
#: from here (the historical home of worker-process bookkeeping).
__all__ = [
    "ParallelIndexBuilder",
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
