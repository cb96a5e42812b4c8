"""The D3L discovery engine: top-k related-dataset search (sections III and IV).

Querying proceeds exactly as the paper describes:

1. the target table is profiled with the same feature extraction as the lake
   (Algorithm 1), but nothing is inserted into the indexes;
2. every target attribute is looked up in each of the four LSH indexes,
   returning related lake attributes paired with estimated distances;
3. numeric target attributes additionally receive KS-based D distances for
   candidates passing the Algorithm 2 guard;
4. results are grouped by source table, each (target, source) pair is
   aggregated into a 5-dimensional distance vector (Equation 1 with the
   Equation 2 CCDF weights), and the vector is reduced to a scalar with the
   Equation 3 weighted l2-norm;
5. the k smallest distances are the answer; optionally, the answer is
   extended with tables reachable through SA-join paths (Algorithm 3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.aggregation import combined_distance, evidence_vector
from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.execution import IndexReadWriteLock
from repro.core.indexes import D3LIndexes
from repro.core.joins import JoinOverlapCache, JoinPathTree, SAJoinGraph, find_join_paths
from repro.core.profiles import AttributeMatch, AttributeProfile, TableProfile
from repro.core.weights import EvidenceWeights
from repro.lake.datalake import AttributeRef, DataLake
from repro.ml.subject_attribute import SubjectAttributeClassifier
from repro.stats.distributions import ccdf_weight, ccdf_weights_many
from repro.stats.ks import ks_statistic_sorted, ks_statistic_sorted_many
from repro.tables.table import Table
from repro.text.embeddings import WordEmbeddingModel

#: A query target: either a raw table (profiled on the fly) or a profile
#: prepared earlier with :meth:`D3L.profile_target` — repeated queries against
#: the same target (k sweeps, evidence ablations, sequential-vs-batched
#: comparisons) skip re-profiling this way.
QueryTarget = Union[Table, TableProfile]


def _shim_evidence(
    evidence_types: Optional[Sequence[EvidenceType]],
) -> Optional[Tuple[EvidenceType, ...]]:
    """Map a legacy ``evidence_types`` argument onto the request protocol.

    The legacy engines treated an *empty* sequence like "all five types with
    binary (uniform) ranking weights" — distinct from ``None``, which uses
    the engine's trained weights.  An explicit all-five subset reproduces
    that exactly through ``QueryRequest``, which rejects empty subsets.
    """
    if evidence_types is None:
        return None
    return tuple(evidence_types) or EvidenceType.all()


def _warn_deprecated(old: str, new: str) -> None:
    """Soft-deprecation notice for the legacy query entry points.

    The legacy methods stay behaviourally identical (they are thin shims over
    the unified planner in :mod:`repro.core.api`), so the warning is purely a
    migration signpost.
    """
    warnings.warn(
        f"{old} is deprecated; use {new} instead (see docs/api.md)",
        DeprecationWarning,
        stacklevel=3,
    )


@dataclass
class TableResult:
    """One ranked source table with its relatedness evidence."""

    table_name: str
    distance: float
    evidence_distances: Dict[EvidenceType, float]
    matches: List[AttributeMatch]

    def covered_target_attributes(self) -> Set[str]:
        """Target attributes aligned with at least one attribute of this table."""
        return {match.target_attribute for match in self.matches}

    def aligned_sources(self) -> List[AttributeRef]:
        """Lake attributes participating in the alignment."""
        return [match.source for match in self.matches]


@dataclass
class QueryResult:
    """The full ranked answer for one target table.

    ``results`` contains every candidate table found by any index, ranked by
    ascending combined distance; ``top(k)`` slices the ranking.  Keeping the
    full ranking around is what makes coverage/precision sweeps over k cheap
    and lets the join-path machinery test the ``I*.lookup(T)`` condition.
    """

    target_name: str
    target_arity: int
    requested_k: int
    results: List[TableResult]

    def top(self, k: Optional[int] = None) -> List[TableResult]:
        """The ``k`` most related tables (default: the requested k).

        ``k = 0`` yields an empty answer and any ``k`` beyond the ranking
        yields the whole ranking; negative values are rejected rather than
        silently truncating from the tail the way a raw slice would.
        """
        k = self.requested_k if k is None else k
        if k < 0:
            raise ValueError("k must be non-negative")
        return self.results[:k]

    def table_names(self, k: Optional[int] = None) -> List[str]:
        """Names of the top-k tables."""
        return [result.table_name for result in self.top(k)]

    def candidate_tables(self) -> Set[str]:
        """Every table related to the target by at least one index."""
        return {result.table_name for result in self.results}

    def result_for(self, table_name: str) -> Optional[TableResult]:
        """The result entry of a specific table, when present."""
        for result in self.results:
            if result.table_name == table_name:
                return result
        return None


@dataclass
class AttributeSearchResult:
    """One ranked lake attribute returned by :meth:`D3L.related_attributes`."""

    ref: AttributeRef
    distances: Dict[EvidenceType, float]
    distance: float


@dataclass
class JoinAugmentedResult:
    """A query result extended with SA-join paths (``D3L+J``).

    ``join_paths`` is Algorithm 3's :class:`~repro.core.joins.JoinPathTree`:
    a read-only sequence that builds each :class:`~repro.core.joins.JoinPath`
    on access (``list()`` copies it).
    ``truncated`` is True when the ``max_join_paths`` cap stopped Algorithm 3
    before every top-k start table was fully explored, so callers can tell a
    complete path enumeration from a capped one.
    """

    base: QueryResult
    join_paths: JoinPathTree
    joined_tables: Set[str]
    truncated: bool = False

    def tables_for(self, start: str) -> Set[str]:
        """Tables reachable through join paths starting at ``start``.

        Answered from the tree's columns in one pass, building no path.
        """
        return self.join_paths.reached_from(start)


class D3L:
    """The D3L dataset-discovery engine.

    Typical usage::

        engine = D3L()
        engine.index_lake(lake)
        result = engine.query(target_table, k=10)
        for entry in result.top():
            print(entry.table_name, entry.distance)
    """

    def __init__(
        self,
        config: Optional[D3LConfig] = None,
        embedding_model: Optional[WordEmbeddingModel] = None,
        weights: Optional[EvidenceWeights] = None,
        subject_classifier: Optional[SubjectAttributeClassifier] = None,
    ) -> None:
        self.config = config or D3LConfig()
        self.weights = weights or EvidenceWeights()
        self.indexes = D3LIndexes(
            config=self.config,
            embedding_model=embedding_model,
            subject_classifier=subject_classifier,
        )
        # Readers (query execution) vs writer (lake mutation) coordination:
        # the serving tier answers off these live indexes from many threads,
        # so mutations must wait for in-flight queries to drain.
        self.index_lock = IndexReadWriteLock()
        self._join_graph: Optional[SAJoinGraph] = None
        # Indexes version the cached join graph was built against; a stale
        # version (or a restored graph riding a persisted engine) is detected
        # against D3LIndexes.version exactly like the serving-tier caches.
        self._join_graph_version: Optional[int] = None
        # Lazily created query-fan-out executors, keyed by worker count.
        # Each keeps a live worker pool holding a snapshot of the indexes, so
        # repeated queries do not re-ship the index state; single-table
        # mutations leave the pools alive (they refresh themselves with a
        # delta on the next fanned-out request) while bulk re-indexing
        # discards them (see _invalidate_query_executors).
        self._query_executors: Dict[int, "ParallelQueryExecutor"] = {}
        # Exact value-overlap coefficients verified by previous join-graph
        # builds, keyed by (subject ref, candidate ref).  An overlap is a pure
        # function of the two tables' value samples, so entries stay valid
        # until either side mutates — a mutation evicts only the pairs
        # touching its table.
        self._join_overlap_cache = JoinOverlapCache()

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def index_lake(
        self,
        lake: DataLake,
        workers: Optional[int] = None,
        backend: str = "process",
    ) -> None:
        """Profile and index every table of ``lake`` (Algorithm 1).

        ``workers > 1`` shards the lake across that many workers
        (:class:`~repro.core.parallel.ParallelIndexBuilder`, dispatching
        through the named execution ``backend``); the resulting indexes are
        identical to a single-process build.
        """
        with self.index_lock.write():
            self.indexes.add_lake(lake, workers=workers, backend=backend)
            self._join_graph = None
            self._join_overlap_cache.clear()
            self._invalidate_query_executors()

    def index_table(self, table: Table) -> None:
        """Profile and (re-)index a single table, invalidating per table.

        Re-indexing an already known name replaces its previous attributes
        (the lake's documented replace semantics).  Only state derived from
        the mutated table is dropped: verified join overlaps touching it, and
        the cached join graph (updated for the mutated tables on next use,
        see :meth:`build_join_graph`).  Fan-out worker pools stay alive and
        refresh themselves with a delta on the next request.
        """
        with self.index_lock.write():
            self.indexes.add_table(table)
            self._note_mutation(table.name)

    def remove_table(self, table_name: str) -> bool:
        """Remove a table from the indexes (incremental lake maintenance)."""
        with self.index_lock.write():
            removed = self.indexes.remove_table(table_name)
            if removed:
                self._note_mutation(table_name)
        return removed

    def _note_mutation(self, table_name: str) -> None:
        """Per-table invalidation after a single-table mutation.

        Evicts only the verified overlaps involving ``table_name``; worker
        pools are left running (delta refresh) and the join graph is updated
        lazily because its cached version no longer matches the indexes.
        """
        self._join_overlap_cache.evict_table(table_name)

    def _invalidate_query_executors(self) -> None:
        """Discard fan-out worker pools holding a now-stale index snapshot."""
        for executor in self._query_executors.values():
            executor.close()
        self._query_executors = {}

    def close(self) -> None:
        """Release every fan-out worker pool and shared-memory snapshot.

        The engine stays fully usable — pools and snapshots are re-created
        lazily on the next fanned-out request.  Call this (or
        :meth:`~repro.core.api.DiscoverySession.close`) when done serving so
        worker processes and ``/dev/shm`` segments are reclaimed promptly
        rather than by the garbage-collection backstop.
        """
        self._invalidate_query_executors()

    def __enter__(self) -> "D3L":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Release pools and segments on scope exit (exceptions included)."""
        self.close()

    def _fanout_executor(
        self, workers: int, backend: str = "process"
    ) -> "ParallelQueryExecutor":
        """The cached fan-out executor for ``workers``, created on demand.

        One executor (and thus one execution backend holding at most one
        worker pool over one shared index snapshot) exists per requested
        worker count — keyed by the bare count for the default ``process``
        backend and by ``(backend, workers)`` otherwise; any lake mutation
        discards the cache (see :meth:`_invalidate_query_executors`).
        """
        from repro.core.parallel import ParallelQueryExecutor

        key = workers if backend == "process" else (backend, workers)
        executor = self._query_executors.get(key)
        if executor is None or executor.indexes is not self.indexes:
            # The indexes object is only rebound on engine restore (when
            # the cache is empty), but close any displaced executor so a
            # rebind can never strand a live worker pool.
            if executor is not None:
                executor.close()
            executor = ParallelQueryExecutor(self.indexes, workers, backend=backend)
            self._query_executors[key] = executor
        return executor

    @property
    def join_graph(self) -> SAJoinGraph:
        """The SA-join graph, built lazily and cached until the lake changes.

        The cache is keyed by :attr:`~repro.core.indexes.D3LIndexes.version`,
        so graphs restored by :func:`~repro.core.persistence.load_engine` /
        ``load_session`` are served without recomputation while any lake
        mutation forces an update (see :meth:`build_join_graph`).
        """
        return self.build_join_graph()

    def build_join_graph(
        self, workers: Optional[int] = None, backend: str = "process"
    ) -> SAJoinGraph:
        """Build (or return the cached) SA-join graph for the current lake.

        ``workers > 1`` shards the exact value-overlap verification across
        the engine's persistent fan-out executor for that worker count and
        ``backend`` (the same executor the batched query engine uses,
        created on demand); the resulting edge set is identical to a
        single-process build, so the cache keys on neither the worker count
        nor the backend.

        After a mutation the stale graph is updated rather than rebuilt:
        the mutation journal names the tables mutated since the graph's
        version, and :meth:`SAJoinGraph.build` edits the previous build's
        candidate pools for those tables only.  When the journal cannot
        answer (the graph fell out of its window) or the graph kept no
        pools (restored by a load, or none built yet after ``index_lake``),
        every probe is walked again.
        """
        graph, graph_version = self._join_graph, self._join_graph_version
        version = self.indexes.version
        if graph is None or graph_version != version:
            executor = (
                self._fanout_executor(workers, backend)
                if workers is not None and workers > 1
                else None
            )
            mutated = (
                None
                if graph is None or graph_version is None
                else self.indexes.mutated_tables_since(graph_version)
            )
            graph = SAJoinGraph.build(
                self.indexes,
                self.config,
                workers=workers,
                executor=executor,
                overlap_cache=self._join_overlap_cache,
                backend=backend,
                previous=graph,
                mutated_tables=mutated,
            )
            self._join_graph, self._join_graph_version = graph, version
        return graph

    @property
    def cached_join_graph(self) -> Optional[SAJoinGraph]:
        """The cached SA-join graph when fresh, else None (never builds).

        Persistence uses this to decide whether an engine payload should
        carry a join-graph section.
        """
        if self._join_graph_version != self.indexes.version:
            return None
        return self._join_graph

    def restore_join_graph(self, graph: SAJoinGraph) -> None:
        """Adopt a previously persisted join graph for the current lake state."""
        self._join_graph = graph
        self._join_graph_version = self.indexes.version

    def set_weights(self, weights: EvidenceWeights) -> None:
        """Replace the Equation 3 evidence weights."""
        self.weights = weights

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def profile_target(self, target: Table) -> TableProfile:
        """Profile a query target once, for reuse across many queries.

        The returned profile can be passed wherever :meth:`query`,
        :meth:`query_batch` or :meth:`query_with_joins` accept a target, so
        answer-size sweeps and sequential-vs-batched comparisons do not pay
        the Algorithm 1 feature extraction repeatedly.  Nothing is inserted
        into the indexes.
        """
        return self.indexes.profile_table(target)

    def query(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]] = None,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
    ) -> QueryResult:
        """Return the ranked answer for ``target`` (sequential engine).

        .. deprecated::
            ``D3L.query`` is a compatibility shim over the unified query
            protocol; build a :class:`~repro.core.api.QueryRequest` with
            ``engine="sequential"`` and submit it through a
            :class:`~repro.core.api.DiscoverySession` instead.  Behaviour
            (rankings, scores, tie order, error messages) is unchanged.
        """
        _warn_deprecated(
            "D3L.query", "DiscoverySession.submit(QueryRequest(engine='sequential'))"
        )
        from repro.core.api import QueryRequest, execute

        request = QueryRequest(
            target=target,
            k=k,
            evidence=_shim_evidence(evidence_types),
            weights=weights,
            exclude_self=exclude_self,
            engine="sequential",
        )
        return execute(self, request).legacy

    def _execute_query(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]] = None,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
    ) -> QueryResult:
        """The sequential per-attribute engine (the batched engine's oracle).

        ``evidence_types`` restricts both candidate generation and ranking to
        a subset of the evidence (Experiment 1 queries with a single type);
        by default all five are used.  ``exclude_self`` removes the target's
        own lake entry from the answer, which is how the evaluation queries
        targets drawn from the lake.

        Each target attribute fans out on its own and Algorithm 2 scores
        candidates pair by pair.  It is kept as the oracle for the batched
        engine, which produces the identical answer through batched sweeps.
        """
        target_profile, active_indexed, use_distribution, ranking_weights = (
            self._prepare_query(target, k, evidence_types, weights)
        )
        exclude_table = target_profile.table_name if exclude_self else None
        pool = self.config.candidate_pool_size(k)

        matches = self._collect_matches(
            target_profile, active_indexed, use_distribution, pool, exclude_table
        )
        return QueryResult(
            target_name=target_profile.table_name,
            target_arity=target_profile.arity,
            requested_k=k,
            results=self._rank_tables(matches, ranking_weights),
        )

    def query_batch(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]] = None,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
        workers: Optional[int] = None,
    ) -> QueryResult:
        """The batched query engine: :meth:`query`'s answer, computed in sweeps.

        .. deprecated::
            ``D3L.query_batch`` is a compatibility shim over the unified
            query protocol; build a :class:`~repro.core.api.QueryRequest`
            and submit it through a :class:`~repro.core.api.DiscoverySession`
            instead (the session additionally caches target profiles across
            repeated requests).  Behaviour is unchanged.
        """
        _warn_deprecated("D3L.query_batch", "DiscoverySession.submit(QueryRequest(...))")
        from repro.core.api import QueryRequest, execute

        request = QueryRequest(
            target=target,
            k=k,
            evidence=_shim_evidence(evidence_types),
            weights=weights,
            exclude_self=exclude_self,
            # The legacy engine treated any workers <= 1 (including 0) as
            # "no fan-out"; the request protocol only accepts positive counts.
            workers=workers if workers is not None and workers > 1 else 1,
        )
        return execute(self, request).legacy

    def _execute_query_batch(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]] = None,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
        workers: Optional[int] = None,
        signature_maps: Optional[Dict[str, Dict[EvidenceType, object]]] = None,
        backend: str = "process",
    ) -> QueryResult:
        """The batched counterpart of :meth:`_execute_query`, in sweeps.

        Every target attribute's forest candidates are collected in one pass,
        distance computations are grouped by evidence type into single matrix
        kernels (:meth:`~repro.core.indexes.D3LIndexes.multi_lookup` /
        ``multi_batch_attribute_distances``), the Algorithm 2 KS loop runs as
        one vectorized sweep per attribute over the candidates sharing its
        cached sorted extent, and the Equation 2 weights are assigned per
        candidate pool instead of per pair.  ``workers > 1`` additionally
        fans the target attributes out across worker processes
        (:class:`~repro.core.parallel.ParallelQueryExecutor`).

        Rankings, scores, and tie order are identical to :meth:`query` by
        construction: the same exact lookup tables score the signatures, the
        same counts feed every CDF, and the same sort keys break ties — which
        ``tests/core/test_batched_query.py`` locks down.
        """
        target_profile, active_indexed, use_distribution, ranking_weights = (
            self._prepare_query(target, k, evidence_types, weights)
        )
        exclude_table = target_profile.table_name if exclude_self else None
        pool = self.config.candidate_pool_size(k)

        matches = self._collect_matches_batched(
            target_profile,
            active_indexed,
            use_distribution,
            pool,
            exclude_table,
            workers=workers,
            signature_maps=signature_maps,
            backend=backend,
        )
        return QueryResult(
            target_name=target_profile.table_name,
            target_arity=target_profile.arity,
            requested_k=k,
            results=self._rank_tables(matches, ranking_weights),
        )

    def query_with_joins(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]] = None,
        exclude_self: bool = True,
    ) -> JoinAugmentedResult:
        """D3L+J: the ranked answer extended with SA-join paths (section IV).

        .. deprecated::
            ``D3L.query_with_joins`` is a compatibility shim over the unified
            query protocol; build a :class:`~repro.core.api.QueryRequest`
            with ``joins=True`` and submit it through a
            :class:`~repro.core.api.DiscoverySession` (join paths then also
            travel on the ``QueryResponse`` wire format).  Behaviour is
            unchanged.
        """
        _warn_deprecated(
            "D3L.query_with_joins", "DiscoverySession.submit(QueryRequest(joins=True))"
        )
        from repro.core.api import QueryRequest, execute

        request = QueryRequest(
            target=target,
            k=k,
            evidence=_shim_evidence(evidence_types),
            exclude_self=exclude_self,
            engine="sequential",
            joins=True,
        )
        return execute(self, request).legacy

    def augment_with_joins(self, base: QueryResult, k: int) -> JoinAugmentedResult:
        """Extend a ranked answer with SA-join paths (Algorithm 3).

        The join-path building block underneath every ``joins=True`` request:
        walks the (cached) SA-join graph from the top-``k`` tables of
        ``base`` through the tables related to the target by at least one
        index, honouring the configured length and path-count caps.
        """
        search = find_join_paths(
            self.join_graph,
            base.table_names(k),
            related_tables=base.candidate_tables(),
            max_length=self.config.max_join_path_length,
            max_paths=self.config.max_join_paths,
        )
        return JoinAugmentedResult(
            base=base,
            join_paths=search.paths,
            joined_tables=search.paths.reached(),
            truncated=search.truncated,
        )

    def related_attributes(
        self,
        target: Table,
        attribute_name: str,
        k: int = 10,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
    ) -> List[AttributeSearchResult]:
        """Attribute-level discovery: the lake attributes most related to one
        target attribute.

        .. deprecated::
            ``D3L.related_attributes`` is a compatibility shim; build a
            :class:`~repro.core.api.QueryRequest` with ``attributes=(name,)``
            and ``engine="sequential"`` and submit it through a
            :class:`~repro.core.api.DiscoverySession`.  Behaviour is
            unchanged.
        """
        _warn_deprecated(
            "D3L.related_attributes",
            "DiscoverySession.submit(QueryRequest(attributes=..., engine='sequential'))",
        )
        from repro.core.api import QueryRequest, execute

        request = QueryRequest(
            target=target,
            k=k,
            attributes=(attribute_name,),
            weights=weights,
            exclude_self=exclude_self,
            engine="sequential",
        )
        return execute(self, request).legacy[attribute_name]

    def _execute_related_attributes(
        self,
        target: Table,
        attribute_name: str,
        k: int = 10,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
    ) -> List[AttributeSearchResult]:
        """The sequential single-attribute engine (the bulk path's oracle).

        This exposes the building block underneath table relatedness — useful
        when the caller wants join or union candidates for a single column
        rather than whole-table rankings.  Distances follow the same
        definitions as the table-level query; the combined score is the
        Equation 3 norm restricted to a single attribute pair.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not target.has_column(attribute_name):
            raise KeyError(f"target {target.name!r} has no attribute {attribute_name!r}")
        ranking_weights = weights or self.weights
        exclude_table = target.name if exclude_self else None

        profile = AttributeProfile.build(
            target.name,
            target.column(attribute_name),
            self.indexes.embedding_model,
            self.config,
        )
        query_signatures = self.indexes.signatures_for(profile)
        pool = self.config.candidate_pool_size(k)

        candidates: Set[AttributeRef] = set()
        for evidence in EvidenceType.indexed():
            for ref, _ in self.indexes.lookup(
                evidence,
                profile,
                k=pool,
                exclude_table=exclude_table,
                query_signatures=query_signatures,
            ):
                candidates.add(ref)

        # One vectorized distance pass per evidence type over all candidates.
        refs = sorted(candidates)
        distance_columns = {
            evidence: self.indexes.batch_attribute_distances(
                evidence, profile, refs, query_signatures
            )
            for evidence in EvidenceType.all()
        }
        results: List[AttributeSearchResult] = []
        for position, ref in enumerate(refs):
            distances = {
                evidence: float(distance_columns[evidence][position])
                for evidence in EvidenceType.all()
            }
            results.append(
                AttributeSearchResult(
                    ref=ref,
                    distances=distances,
                    distance=combined_distance(distances, ranking_weights),
                )
            )
        results.sort(key=lambda result: (result.distance, result.ref))
        return results[:k]

    def related_attributes_bulk(
        self,
        target: Table,
        attribute_names: Optional[Sequence[str]] = None,
        k: int = 10,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
    ) -> Dict[str, List[AttributeSearchResult]]:
        """Bulk :meth:`related_attributes`: many target attributes, one pass.

        .. deprecated::
            ``D3L.related_attributes_bulk`` is a compatibility shim; build a
            :class:`~repro.core.api.QueryRequest` with ``attributes=...`` and
            submit it through a :class:`~repro.core.api.DiscoverySession`.
            Behaviour is unchanged.
        """
        _warn_deprecated(
            "D3L.related_attributes_bulk",
            "DiscoverySession.submit(QueryRequest(attributes=...))",
        )
        # k is validated before the empty-names early return so a bad k is
        # reported even for an empty selection, as the legacy path did;
        # QueryRequest dedups the names and re-checks everything else.
        if k <= 0:
            raise ValueError("k must be positive")
        names = (
            tuple(attribute_names)
            if attribute_names is not None
            else tuple(column.name for column in target.columns)
        )
        if not names:
            return {}
        from repro.core.api import QueryRequest, execute

        request = QueryRequest(
            target=target,
            k=k,
            attributes=names,
            weights=weights,
            exclude_self=exclude_self,
        )
        return execute(self, request).legacy

    def _execute_related_attributes_bulk(
        self,
        target: Table,
        attribute_names: Optional[Sequence[str]] = None,
        k: int = 10,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
    ) -> Dict[str, List[AttributeSearchResult]]:
        """The batched attribute-level engine: many target attributes, one pass.

        All requested attributes (default: every column of ``target``) are
        profiled and signed together, their forest candidates are collected
        through one multi-query lookup per evidence type, and the distance
        columns of the whole group — including the KS distances of every
        numeric attribute — are computed as per-evidence sweeps.  The entry
        of each attribute equals the single-attribute sequential path
        exactly (same refs, distances, scores, and tie order).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        names = (
            list(dict.fromkeys(attribute_names))
            if attribute_names is not None
            else [column.name for column in target.columns]
        )
        for name in names:
            if not target.has_column(name):
                raise KeyError(f"target {target.name!r} has no attribute {name!r}")
        ranking_weights = weights or self.weights
        exclude_table = target.name if exclude_self else None
        pool = self.config.candidate_pool_size(k)

        profiles = [
            AttributeProfile.build(
                target.name,
                target.column(name),
                self.indexes.embedding_model,
                self.config,
            )
            for name in names
        ]
        signature_maps = attribute_signature_maps(
            self.indexes, target.name, list(zip(names, profiles))
        )

        candidate_sets: List[Set[AttributeRef]] = [set() for _ in names]
        for evidence in EvidenceType.indexed():
            per_query = self.indexes.multi_lookup(
                evidence,
                [signature_maps[name][evidence] for name in names],
                k=pool,
                exclude_table=exclude_table,
            )
            for candidates, pairs in zip(candidate_sets, per_query):
                candidates.update(ref for ref, _ in pairs)

        refs_per_attribute = [sorted(candidates) for candidates in candidate_sets]
        distance_columns = {
            evidence: self.indexes.multi_batch_attribute_distances(
                evidence,
                profiles,
                refs_per_attribute,
                signatures=(
                    [signature_maps[name][evidence] for name in names]
                    if evidence.is_indexed
                    else None
                ),
            )
            for evidence in EvidenceType.all()
        }

        answers: Dict[str, List[AttributeSearchResult]] = {}
        for position, name in enumerate(names):
            results: List[AttributeSearchResult] = []
            for index, ref in enumerate(refs_per_attribute[position]):
                distances = {
                    evidence: float(distance_columns[evidence][position][index])
                    for evidence in EvidenceType.all()
                }
                results.append(
                    AttributeSearchResult(
                        ref=ref,
                        distances=distances,
                        distance=combined_distance(distances, ranking_weights),
                    )
                )
            results.sort(key=lambda result: (result.distance, result.ref))
            answers[name] = results[:k]
        return answers

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _prepare_query(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]],
        weights: Optional[EvidenceWeights],
    ) -> Tuple[TableProfile, List[EvidenceType], bool, EvidenceWeights]:
        """Shared query preamble: profile the target and resolve the setup."""
        if k <= 0:
            raise ValueError("k must be positive")
        active = tuple(evidence_types) if evidence_types else EvidenceType.all()
        active_indexed = [evidence for evidence in active if evidence.is_indexed]
        use_distribution = EvidenceType.DISTRIBUTION in active
        ranking_weights = weights or (
            self.weights
            if evidence_types is None
            else EvidenceWeights(
                {evidence: (1.0 if evidence in active else 0.0) for evidence in EvidenceType.all()}
            )
        )
        target_profile = (
            target
            if isinstance(target, TableProfile)
            else self.indexes.profile_table(target)
        )
        return target_profile, active_indexed, use_distribution, ranking_weights

    def _rank_tables(
        self,
        matches: Dict[str, List[AttributeMatch]],
        ranking_weights: EvidenceWeights,
    ) -> List[TableResult]:
        """Aggregate per-table matches (Eq. 1) and rank them (Eq. 3)."""
        results: List[TableResult] = []
        for table_name, table_matches in matches.items():
            vector = evidence_vector(table_matches)
            distance = combined_distance(vector, ranking_weights)
            results.append(
                TableResult(
                    table_name=table_name,
                    distance=distance,
                    evidence_distances=vector,
                    matches=table_matches,
                )
            )
        results.sort(key=lambda result: (result.distance, result.table_name))
        return results

    def _collect_matches(
        self,
        target_profile: TableProfile,
        active_indexed: Sequence[EvidenceType],
        use_distribution: bool,
        pool: int,
        exclude_table: Optional[str],
    ) -> Dict[str, List[AttributeMatch]]:
        """Per-source-table attribute matches with distances and Eq. 2 weights."""
        indexes = self.indexes

        # Tables whose attributes are retrieved by the target's subject
        # attribute through any index: the I* guard of Algorithm 2.
        subject_related_tables = self._subject_related_tables(
            target_profile, pool, exclude_table
        )

        per_table: Dict[str, Dict[str, AttributeMatch]] = {}
        for attribute_name, attribute_profile in target_profile.attributes.items():
            query_signatures = indexes.signatures_for(attribute_profile)

            lookups: Dict[EvidenceType, Dict[AttributeRef, float]] = {}
            candidate_refs: Set[AttributeRef] = set()
            for evidence in active_indexed:
                pairs = indexes.lookup(
                    evidence,
                    attribute_profile,
                    k=pool,
                    exclude_table=exclude_table,
                    query_signatures=query_signatures,
                )
                lookups[evidence] = dict(pairs)
                candidate_refs.update(lookups[evidence])

            if not candidate_refs:
                continue

            # Full distance vectors for every candidate of this attribute:
            # one vectorized matrix pass per evidence type instead of one
            # signature comparison per (candidate, evidence) pair.
            refs = sorted(candidate_refs)
            distance_columns = {
                evidence: indexes.batch_attribute_distances(
                    evidence, attribute_profile, refs, query_signatures
                )
                for evidence in EvidenceType.indexed()
            }
            distances_by_ref: Dict[AttributeRef, Dict[EvidenceType, float]] = {}
            for position, ref in enumerate(refs):
                distances: Dict[EvidenceType, float] = {
                    evidence: float(distance_columns[evidence][position])
                    for evidence in EvidenceType.indexed()
                }
                distances[EvidenceType.DISTRIBUTION] = (
                    self._distribution_distance(
                        attribute_profile,
                        ref,
                        lookups,
                        subject_related_tables,
                    )
                    if use_distribution
                    else 1.0
                )
                distances_by_ref[ref] = distances

            # Equation 2 populations: all observed distances of each type for
            # this target attribute.
            populations: Dict[EvidenceType, List[float]] = {
                evidence: [
                    distances[evidence]
                    for distances in distances_by_ref.values()
                    if distances[evidence] < 1.0
                ]
                for evidence in EvidenceType.all()
            }

            # Group candidates by source table, keeping the best alignment.
            for ref, distances in distances_by_ref.items():
                match = AttributeMatch(
                    target_attribute=attribute_name,
                    source=ref,
                    distances=distances,
                    weights={
                        evidence: ccdf_weight(distances[evidence], populations[evidence])
                        if distances[evidence] < 1.0
                        else 0.0
                        for evidence in EvidenceType.all()
                    },
                )
                table_matches = per_table.setdefault(ref.table, {})
                existing = table_matches.get(attribute_name)
                if existing is None or match.mean_distance() < existing.mean_distance():
                    table_matches[attribute_name] = match

        return {
            table_name: list(matches.values()) for table_name, matches in per_table.items()
        }

    def _collect_matches_batched(
        self,
        target_profile: TableProfile,
        active_indexed: Sequence[EvidenceType],
        use_distribution: bool,
        pool: int,
        exclude_table: Optional[str],
        workers: Optional[int] = None,
        signature_maps: Optional[Dict[str, Dict[EvidenceType, object]]] = None,
        backend: str = "process",
    ) -> Dict[str, List[AttributeMatch]]:
        """Batched counterpart of :meth:`_collect_matches`.

        Candidate collection and distance computation run as per-evidence
        sweeps over every target attribute at once
        (:func:`collect_attribute_candidate_distances`); ``workers > 1``
        shards the target attributes across worker processes with the same
        partition/merge discipline index construction uses.  The merge runs
        in the target profile's attribute order — the order the sequential
        engine iterates — so the resulting matches are identical.

        ``signature_maps`` (as produced by :func:`attribute_signature_maps`)
        lets serving tiers that memoized the target's signatures — notably
        :class:`~repro.core.api.DiscoverySession` — skip re-signing the
        target on every repeated request; signatures are deterministic, so
        the answer is unchanged.
        """
        subject_related_tables = self._subject_related_tables(
            target_profile, pool, exclude_table
        )
        entries = list(target_profile.attributes.items())
        if workers is not None and workers > 1:
            executor = self._fanout_executor(workers, backend)
            attribute_distances = executor.collect(
                target_profile.table_name,
                entries,
                active_indexed=tuple(active_indexed),
                use_distribution=use_distribution,
                pool=pool,
                exclude_table=exclude_table,
                subject_related_tables=subject_related_tables,
                signature_maps=signature_maps,
            )
        else:
            attribute_distances = collect_attribute_candidate_distances(
                self.indexes,
                target_profile.table_name,
                entries,
                active_indexed=tuple(active_indexed),
                use_distribution=use_distribution,
                pool=pool,
                exclude_table=exclude_table,
                subject_related_tables=subject_related_tables,
                signature_maps=signature_maps,
            )

        per_table: Dict[str, Dict[str, AttributeMatch]] = {}
        for attribute_name, refs, columns in attribute_distances:
            _merge_attribute_matches_batched(per_table, attribute_name, refs, columns)
        return {
            table_name: list(matches.values()) for table_name, matches in per_table.items()
        }

    def _subject_related_tables(
        self,
        target_profile: TableProfile,
        pool: int,
        exclude_table: Optional[str],
    ) -> Set[str]:
        subject = target_profile.subject_profile()
        if subject is None:
            return set()
        related: Set[str] = set()
        cutoff = self.indexes.threshold_distance()
        # The subject's signatures are the same for all four indexes; compute
        # them once instead of once per lookup.
        query_signatures = self.indexes.signatures_for(subject)
        for evidence in EvidenceType.indexed():
            for ref, _ in self.indexes.lookup(
                evidence,
                subject,
                k=pool,
                exclude_table=exclude_table,
                query_signatures=query_signatures,
                max_distance=cutoff,
            ):
                related.add(ref.table)
        return related

    def _distribution_distance(
        self,
        attribute_profile: AttributeProfile,
        ref: AttributeRef,
        lookups: Mapping[EvidenceType, Mapping[AttributeRef, float]],
        subject_related_tables: Set[str],
    ) -> float:
        """Algorithm 2, using the lookups already performed for this attribute."""
        if not attribute_profile.is_numeric:
            return 1.0
        other = self.indexes.profiles.get(ref)
        if other is None or not other.is_numeric:
            return 1.0
        cutoff = self.indexes.threshold_distance()
        guard = (
            ref.table in subject_related_tables
            or lookups.get(EvidenceType.NAME, {}).get(ref, 1.0) <= cutoff
            or lookups.get(EvidenceType.FORMAT, {}).get(ref, 1.0) <= cutoff
        )
        if not guard:
            return 1.0
        return ks_statistic_sorted(attribute_profile.numeric_sorted, other.numeric_sorted)


# --------------------------------------------------------------------------- #
# batched candidate collection (shared by query_batch and its shard workers)
# --------------------------------------------------------------------------- #


def attribute_signature_maps(
    indexes: D3LIndexes,
    table_name: str,
    entries: Sequence[Tuple[str, AttributeProfile]],
) -> Dict[str, Dict[EvidenceType, object]]:
    """Per-evidence query signatures of many target attributes, batched.

    Wraps the attributes in a synthetic :class:`TableProfile` so the
    lake-construction batching (one MinHash pass per evidence type, one
    projection pass) signs the whole group; values are bit-identical to
    per-attribute ``signatures_for``.
    """
    pseudo = TableProfile(
        table_name=table_name,
        attributes=dict(entries),
        subject_attribute=None,
        arity=len(entries),
        cardinality=0,
    )
    return indexes.batch_signatures([pseudo])[table_name]


#: One batched attribute's collected candidates: ``(attribute name, sorted
#: candidate refs, {evidence: distance column aligned with the refs})``.
AttributeCandidates = Tuple[str, List[AttributeRef], Dict[EvidenceType, np.ndarray]]


def collect_attribute_candidate_distances(
    indexes: D3LIndexes,
    table_name: str,
    entries: Sequence[Tuple[str, AttributeProfile]],
    active_indexed: Sequence[EvidenceType],
    use_distribution: bool,
    pool: int,
    exclude_table: Optional[str],
    subject_related_tables: Set[str],
    signature_maps: Optional[Dict[str, Dict[EvidenceType, object]]] = None,
) -> List[AttributeCandidates]:
    """Full candidate distance columns of many target attributes, batched.

    The batched engine's per-attribute unit of work, and the function
    :class:`~repro.core.parallel.ParallelQueryExecutor` ships to its shard
    workers: signatures are computed in one batched pass, candidates are
    retrieved with one multi-query lookup per active evidence type, the
    signature-backed distance columns come from one row-aligned kernel per
    evidence type, and Algorithm 2 runs as one KS sweep per numeric
    attribute.  Distances stay in per-evidence NumPy columns — per-candidate
    Python structures are deferred to the merge, which only materialises the
    winning alignments.  Column values are identical to what the sequential
    ``_collect_matches`` computes per attribute; attributes without
    candidates are omitted, as the sequential loop omits them.

    ``signature_maps`` may carry precomputed per-attribute query signatures
    (from :func:`attribute_signature_maps`, possibly memoized by a serving
    session); when absent they are computed here.  Signatures are a
    deterministic function of the profile and configuration, so either way
    the distances are identical.
    """
    entries = list(entries)
    if not entries:
        return []
    names = [name for name, _ in entries]
    profiles = [profile for _, profile in entries]
    if signature_maps is None:
        signature_maps = attribute_signature_maps(indexes, table_name, entries)
    cutoff = indexes.threshold_distance()

    candidate_sets: List[Set[AttributeRef]] = [set() for _ in entries]
    # The Algorithm 2 guard consults the name/format lookups of *numeric*
    # target attributes; every other (evidence, attribute) lookup only
    # contributes its candidates to the union.
    guard_lookups: List[Dict[EvidenceType, Dict[AttributeRef, float]]] = [
        {} for _ in entries
    ]
    for evidence in active_indexed:
        per_query = indexes.multi_lookup(
            evidence,
            [signature_maps[name][evidence] for name in names],
            k=pool,
            exclude_table=exclude_table,
        )
        keep_guard = use_distribution and evidence in (
            EvidenceType.NAME,
            EvidenceType.FORMAT,
        )
        for position, pairs in enumerate(per_query):
            candidate_sets[position].update(ref for ref, _ in pairs)
            if keep_guard and profiles[position].is_numeric:
                guard_lookups[position][evidence] = dict(pairs)

    refs_per_attribute = [sorted(candidates) for candidates in candidate_sets]
    distance_columns = {
        evidence: indexes.multi_batch_attribute_distances(
            evidence,
            profiles,
            refs_per_attribute,
            signatures=[signature_maps[name][evidence] for name in names],
        )
        for evidence in EvidenceType.indexed()
    }

    results: List[AttributeCandidates] = []
    for position, (name, profile) in enumerate(entries):
        refs = refs_per_attribute[position]
        if not refs:
            continue
        columns = {
            evidence: distance_columns[evidence][position]
            for evidence in EvidenceType.indexed()
        }
        columns[EvidenceType.DISTRIBUTION] = (
            _batched_distribution_distances(
                indexes,
                profile,
                refs,
                guard_lookups[position],
                subject_related_tables,
                cutoff,
            )
            if use_distribution
            else np.ones(len(refs), dtype=np.float64)
        )
        results.append((name, refs, columns))
    return results


def _batched_distribution_distances(
    indexes: D3LIndexes,
    profile: AttributeProfile,
    refs: Sequence[AttributeRef],
    lookups: Mapping[EvidenceType, Mapping[AttributeRef, float]],
    subject_related_tables: Set[str],
    cutoff: float,
) -> np.ndarray:
    """Algorithm 2 for one target attribute as a single vectorized KS sweep.

    Applies the same per-candidate guard as ``_distribution_distance`` (the
    oracle), then evaluates every surviving candidate against the target's
    cached sorted extent in one :func:`ks_statistic_sorted_many` call.
    """
    distances = np.ones(len(refs), dtype=np.float64)
    if not profile.is_numeric:
        return distances
    name_lookup = lookups.get(EvidenceType.NAME, {})
    format_lookup = lookups.get(EvidenceType.FORMAT, {})
    positions: List[int] = []
    extents: List[np.ndarray] = []
    for position, ref in enumerate(refs):
        other = indexes.profiles.get(ref)
        if other is None or not other.is_numeric:
            continue
        guard = (
            ref.table in subject_related_tables
            or name_lookup.get(ref, 1.0) <= cutoff
            or format_lookup.get(ref, 1.0) <= cutoff
        )
        if not guard:
            continue
        positions.append(position)
        extents.append(other.numeric_sorted)
    if positions:
        distances[np.asarray(positions, dtype=np.intp)] = ks_statistic_sorted_many(
            profile.numeric_sorted, extents
        )
    return distances


def _merge_attribute_matches_batched(
    per_table: Dict[str, Dict[str, AttributeMatch]],
    attribute_name: str,
    refs: Sequence[AttributeRef],
    columns: Dict[EvidenceType, np.ndarray],
) -> None:
    """Fold one attribute's candidate distance columns into the alignments.

    The batched counterpart of the merge inside ``_collect_matches``: the
    Equation 2 populations are weighted per candidate pool with one sorted
    pass per evidence type (:func:`ccdf_weights_many`, bit-identical to the
    scalar ``ccdf_weight`` loop), the best-alignment rule scans the
    candidates in the same sorted-ref order with the same strict-improvement
    tie rule, and only the winning alignment of each source table is
    materialised as an :class:`AttributeMatch` — losers never leave the
    arrays.
    """
    weight_columns: Dict[EvidenceType, np.ndarray] = {}
    means: Optional[np.ndarray] = None
    for evidence in EvidenceType.all():
        column = columns[evidence]
        observed = column < 1.0
        weights = ccdf_weights_many(column, column[observed])
        weights[~observed] = 0.0
        weight_columns[evidence] = weights
        # Accumulating in EvidenceType.all() order reproduces the float
        # addition sequence of AttributeMatch.mean_distance exactly.
        means = column.copy() if means is None else means + column
    means /= len(EvidenceType.all())

    best: Dict[str, Tuple[float, int]] = {}
    mean_list = means.tolist()
    for index, ref in enumerate(refs):
        mean = mean_list[index]
        current = best.get(ref.table)
        if current is None or mean < current[0]:
            best[ref.table] = (mean, index)

    for table, (_, index) in best.items():
        ref = refs[index]
        match = AttributeMatch(
            target_attribute=attribute_name,
            source=ref,
            distances={
                evidence: float(columns[evidence][index])
                for evidence in EvidenceType.all()
            },
            weights={
                evidence: float(weight_columns[evidence][index])
                for evidence in EvidenceType.all()
            },
        )
        per_table.setdefault(table, {})[attribute_name] = match
