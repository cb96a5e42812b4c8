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

:class:`D3L` indexes the lake and holds the query engines as private
building blocks: the batched engine (``_execute_query_batch``), the
sequential per-attribute oracle it is verified against (``_execute_query``),
their attribute-level counterparts, and :meth:`D3L.augment_with_joins`.
Queries run through :meth:`repro.core.api.DiscoverySession.submit`, which
selects the oracle with ``QueryRequest(engine="sequential")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.aggregation import combined_distance, combined_distances, evidence_vector
from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.execution import IndexReadWriteLock, create_backend
from repro.core.indexes import _NO_IDS, Candidates, D3LIndexes
from repro.core.joins import JoinOverlapCache, JoinPathTree, SAJoinGraph, find_join_paths
from repro.core.lazy import BuiltOnRead
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


class TableResults(BuiltOnRead):
    """The batched engine's ranking, read as a sequence of :class:`TableResult`.

    The ranking is held as arrays: per ranked table its name, distance and
    Equation 1 vector, and per (ranked table, target attribute) the winning
    alignment, if any — its lake attribute id, five distances and Equation
    2 weights.  A :class:`TableResult` and its :class:`AttributeMatch` list
    are built only when an entry is read, so a request whose wire answer
    keeps k tables builds k of them.
    """

    __slots__ = (
        "table_names", "distances", "_vectors", "_aligned", "_ids",
        "_match_distances", "_match_weights", "_attribute_names", "_refs",
    )

    def __init__(
        self,
        table_names: List[str],
        distances: List[float],
        vectors: np.ndarray,
        aligned: np.ndarray,
        ids: np.ndarray,
        match_distances: np.ndarray,
        match_weights: np.ndarray,
        attribute_names: List[str],
        refs: List[AttributeRef],
    ) -> None:
        #: Ranked table names, and their combined distances.
        self.table_names = table_names
        self.distances = distances
        self._vectors = vectors
        self._aligned = aligned
        self._ids = ids
        self._match_distances = match_distances
        self._match_weights = match_weights
        self._attribute_names = attribute_names
        self._refs = refs

    def __len__(self) -> int:
        return len(self.table_names)

    def _entry(self, position: int) -> TableResult:
        evidence_types = EvidenceType.all()
        ids = self._ids[position].tolist()
        distances = self._match_distances[position].tolist()
        weights = self._match_weights[position].tolist()
        matches = [
            AttributeMatch(
                target_attribute=self._attribute_names[attribute],
                source=self._refs[ids[attribute]],
                distances=dict(zip(evidence_types, distances[attribute])),
                weights=dict(zip(evidence_types, weights[attribute])),
            )
            for attribute in np.flatnonzero(self._aligned[position]).tolist()
        ]
        return TableResult(
            table_name=self.table_names[position],
            distance=self.distances[position],
            evidence_distances=dict(zip(evidence_types, self._vectors[position].tolist())),
            matches=matches,
        )


@dataclass
class QueryResult:
    """The full ranked answer for one target table.

    ``results`` contains every candidate table found by any index, ranked by
    ascending combined distance; ``top(k)`` slices the ranking.  Keeping the
    full ranking around is what makes coverage/precision sweeps over k cheap
    and lets the join-path machinery test the ``I*.lookup(T)`` condition.
    The batched engine's ``results`` are a :class:`TableResults`, which
    builds each entry when it is read.
    """

    target_name: str
    target_arity: int
    requested_k: int
    results: Sequence[TableResult]

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
        k = self.requested_k if k is None else k
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._names()[:k]

    def candidate_tables(self) -> Set[str]:
        """Every table related to the target by at least one index."""
        return set(self._names())

    def _names(self) -> List[str]:
        if isinstance(self.results, TableResults):
            return self.results.table_names
        return [result.table_name for result in self.results]

    def result_for(self, table_name: str) -> Optional[TableResult]:
        """The result entry of a specific table, when present."""
        for result in self.results:
            if result.table_name == table_name:
                return result
        return None


@dataclass
class AttributeSearchResult:
    """One ranked lake attribute of an attribute-level query."""

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
        session = DiscoverySession(engine)    # repro.core.api
        response = session.submit(QueryRequest(target=target_table, k=10))
        for entry in response.top():
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

    def index_table(self, table: Table) -> None:
        """Profile and (re-)index a single table, invalidating per table.

        Re-indexing an already known name replaces its previous attributes
        (the lake's documented replace semantics).  Only state derived from
        the mutated table is dropped: verified join overlaps touching it, and
        the cached join graph (updated for the mutated tables on next use,
        see :meth:`build_join_graph`).
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

        Evicts only the verified overlaps involving ``table_name``; the join
        graph is updated lazily because its cached version no longer matches
        the indexes.
        """
        self._join_overlap_cache.evict_table(table_name)

    def close(self) -> None:
        """End the engine's scope: a no-op, kept for ``with D3L() as engine``.

        The engine owns no worker processes or shared-memory segments:
        queries run in the calling process, and sharded builds and join-graph
        verification open their worker pools for the length of one call.
        Servers own their worker pools and close them themselves.
        """

    def __enter__(self) -> "D3L":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

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
        that many workers of the named execution ``backend``, opened for
        this call only and closed before it returns; the resulting edge set
        is identical to a single-process build, so the cache keys on neither
        the worker count nor the backend.

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
            mutated = (
                None
                if graph is None or graph_version is None
                else self.indexes.mutated_tables_since(graph_version)
            )
            options = dict(
                overlap_cache=self._join_overlap_cache,
                previous=graph,
                mutated_tables=mutated,
            )
            if workers is not None and workers > 1:
                with create_backend(backend, self.indexes, workers) as pool:
                    graph = SAJoinGraph.build(
                        self.indexes, self.config, backend=pool, **options
                    )
            else:
                graph = SAJoinGraph.build(self.indexes, self.config, **options)
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

        The returned profile can be passed as a
        :class:`~repro.core.api.QueryRequest` target, so answer-size sweeps
        and sequential-vs-batched comparisons do not pay the Algorithm 1
        feature extraction repeatedly.  Nothing is inserted into the indexes.
        """
        return self.indexes.profile_table(target)

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

    def _execute_query_batch(
        self,
        target: QueryTarget,
        k: int,
        evidence_types: Optional[Sequence[EvidenceType]] = None,
        exclude_self: bool = True,
        weights: Optional[EvidenceWeights] = None,
        signature_maps: Optional[Dict[str, Dict[EvidenceType, object]]] = None,
    ) -> QueryResult:
        """The batched counterpart of :meth:`_execute_query`, in sweeps.

        Every target attribute's forest candidates are collected in one pass,
        distance computations are grouped by evidence type into single matrix
        kernels (:meth:`~repro.core.indexes.D3LIndexes.multi_lookup` /
        ``multi_batch_attribute_distances``), the Algorithm 2 KS loop runs as
        one vectorized sweep per attribute over the candidates sharing its
        cached sorted extent, and the Equation 2 weights are assigned per
        candidate pool instead of per pair.  Candidates are collected in
        the calling process.

        Candidates travel as lake attribute ids (``D3LIndexes.ids``) from the
        forests to the ranking, which runs as array passes
        (:func:`rank_candidate_tables`) and returns a :class:`TableResults`:
        result objects are built only for the entries a caller reads.

        Rankings, scores, and tie order are identical to
        :meth:`_execute_query` by construction: the same exact lookup tables
        score the signatures, the same counts feed every CDF, the same float
        operations run in the same order, and the same sort keys break ties
        — which ``tests/core/test_batched_query.py`` locks down.

        ``signature_maps`` (as produced by :func:`attribute_signature_maps`)
        lets serving tiers that memoized the target's signatures — notably
        :class:`~repro.core.api.DiscoverySession` — skip re-signing the
        target on every repeated request; signatures are deterministic, so
        the answer is unchanged.
        """
        target_profile, active_indexed, use_distribution, ranking_weights = (
            self._prepare_query(target, k, evidence_types, weights)
        )
        exclude_table = target_profile.table_name if exclude_self else None
        attribute_distances = collect_attribute_candidate_distances(
            self.indexes,
            target_profile.table_name,
            list(target_profile.attributes.items()),
            active_indexed=tuple(active_indexed),
            use_distribution=use_distribution,
            pool=self.config.candidate_pool_size(k),
            exclude_table=exclude_table,
            signature_maps=signature_maps,
            subject=target_profile.subject_attribute,
        )
        return QueryResult(
            target_name=target_profile.table_name,
            target_arity=target_profile.arity,
            requested_k=k,
            results=rank_candidate_tables(self.indexes, attribute_distances, ranking_weights),
        )

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
        _, ids_per_attribute, _, columns = _candidate_columns(
            self.indexes, names, profiles, signature_maps, EvidenceType.indexed(), pool,
            exclude_table,
        )
        for column, distances in zip(
            columns,
            self.indexes.multi_batch_attribute_distances(
                EvidenceType.DISTRIBUTION, profiles, ids_per_attribute
            ),
        ):
            column[EvidenceType.DISTRIBUTION] = distances

        refs, ranks = self.indexes.ids.items, self.indexes.ids.ranks()
        answers: Dict[str, List[AttributeSearchResult]] = {}
        for name, ids, column in zip(names, ids_per_attribute, columns):
            vectors = np.stack([column[evidence] for evidence in EvidenceType.all()], axis=1)
            distances = combined_distances(vectors.tolist(), ranking_weights)
            # (distance, ref rank) == (distance, ref), the oracle's order.
            order = np.lexsort((ranks[ids], distances))[:k].tolist()
            answers[name] = [
                AttributeSearchResult(
                    ref=refs[ids[index]],
                    distances=dict(zip(EvidenceType.all(), vectors[index].tolist())),
                    distance=distances[index],
                )
                for index in order
            ]
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
# batched candidate collection
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


#: One batched attribute's collected candidates: ``(attribute name,
#: candidate attribute ids in ref order, {evidence: distance column aligned
#: with the ids})``.
AttributeCandidates = Tuple[str, np.ndarray, Dict[EvidenceType, np.ndarray]]


def _candidate_columns(
    indexes: D3LIndexes,
    names: Sequence[str],
    profiles: Sequence[AttributeProfile],
    signature_maps: Dict[str, Dict[EvidenceType, object]],
    evidence_types: Sequence[EvidenceType],
    pool: int,
    exclude_table: Optional[str],
) -> Tuple[
    Dict[EvidenceType, List[Candidates]],
    List[np.ndarray],
    List[Dict[EvidenceType, np.ndarray]],
    List[Dict[EvidenceType, np.ndarray]],
]:
    """Candidates and indexed distance columns of many target attributes.

    One multi-query lookup per evidence type in ``evidence_types``; each
    attribute's candidates are the union of its lookups, as lake attribute
    ids in ref order.  Every (attribute, candidate, evidence) distance is
    computed once: a lookup already scored its own candidates, and one
    ``multi_batch_attribute_distances`` call per indexed evidence type
    scores the rest.  Returns
    the lookups, the candidate ids per attribute, where each lookup's ids
    sit among them, and the distance columns (the four indexed types, plus
    an all-ones distribution column).
    """
    lookups = {
        evidence: indexes.multi_lookup(
            evidence,
            [signature_maps[name][evidence] for name in names],
            k=pool,
            exclude_table=exclude_table,
        )
        for evidence in evidence_types
    }
    ranks = indexes.ids.ranks()
    ids_per_attribute: List[np.ndarray] = []
    found_at: List[Dict[EvidenceType, np.ndarray]] = []
    for position in range(len(names)):
        found = [lookups[evidence][position].ids for evidence in evidence_types]
        ids = np.unique(np.concatenate(found)) if found else _NO_IDS
        ids = ids[np.argsort(ranks[ids])]
        ids_per_attribute.append(ids)
        found_at.append({
            evidence: np.searchsorted(ranks[ids], ranks[lookup])
            for evidence, lookup in zip(evidence_types, found)
        })
    columns = [
        {evidence: np.ones(len(ids), dtype=np.float64) for evidence in EvidenceType.all()}
        for ids in ids_per_attribute
    ]
    for evidence in EvidenceType.indexed():
        rest: List[np.ndarray] = []
        for position, ids in enumerate(ids_per_attribute):
            unscored = np.ones(len(ids), dtype=bool)
            if evidence in lookups:
                at = found_at[position][evidence]
                columns[position][evidence][at] = lookups[evidence][position].distances
                unscored[at] = False
            rest.append(np.flatnonzero(unscored))
        if any(len(positions) for positions in rest):
            scored = indexes.multi_batch_attribute_distances(
                evidence,
                profiles,
                [ids[positions] for ids, positions in zip(ids_per_attribute, rest)],
                signatures=[signature_maps[name][evidence] for name in names],
            )
            for column, positions, distances in zip(columns, rest, scored):
                column[evidence][positions] = distances
    return lookups, ids_per_attribute, found_at, columns


def collect_attribute_candidate_distances(
    indexes: D3LIndexes,
    table_name: str,
    entries: Sequence[Tuple[str, AttributeProfile]],
    active_indexed: Sequence[EvidenceType],
    use_distribution: bool,
    pool: int,
    exclude_table: Optional[str],
    signature_maps: Optional[Dict[str, Dict[EvidenceType, object]]] = None,
    subject: Optional[str] = None,
) -> List[AttributeCandidates]:
    """Full candidate distance columns of many target attributes, batched.

    The batched engine's per-attribute unit of work: one multi-query lookup
    per active evidence type, each attribute's candidates as lake attribute
    ids in ref order, each distance computed once (:func:`_candidate_columns`),
    and Algorithm 2 as one KS sweep per numeric attribute over the
    candidates its guard passes.  Column values are identical to what the sequential
    ``_collect_matches`` computes per attribute; attributes without
    candidates are omitted, as the sequential loop omits them.

    The guard's subject tables (those whose attributes the target's subject
    attribute retrieves within the LSH threshold through any index) come
    from the lookups of ``subject``, the subject attribute's name, plus one
    lookup per indexed evidence type the request leaves out — only when a
    numeric attribute has candidates.

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
    if signature_maps is None:
        signature_maps = attribute_signature_maps(indexes, table_name, entries)
    lookups, ids_per_attribute, found_at, columns = _candidate_columns(
        indexes, names, [profile for _, profile in entries], signature_maps, active_indexed,
        pool, exclude_table,
    )
    cutoff = indexes.threshold_distance()
    tables = indexes.ids.tables()
    guard_tables: Optional[np.ndarray] = None
    for position, (_, profile) in enumerate(entries):
        ids = ids_per_attribute[position]
        if not use_distribution or not profile.is_numeric or not len(ids):
            continue
        if guard_tables is None:
            guard_tables = _subject_tables(
                indexes, names, signature_maps, lookups, subject, pool, exclude_table,
                cutoff,
            )
        # Algorithm 2's guard: the candidate's table is subject-related, or
        # its name or format lookup returned it within the threshold.
        guard = np.isin(tables[ids], guard_tables)
        for evidence in (EvidenceType.NAME, EvidenceType.FORMAT):
            if evidence in lookups:
                at = found_at[position][evidence]
                guard[at] |= lookups[evidence][position].distances <= cutoff
        guarded = np.flatnonzero(guard)
        positions, extents = indexes.numeric_extents(ids[guarded])
        if extents:
            columns[position][EvidenceType.DISTRIBUTION][guarded[positions]] = (
                ks_statistic_sorted_many(profile.numeric_sorted, extents)
            )
    return [
        (name, ids, column)
        for name, ids, column in zip(names, ids_per_attribute, columns)
        if len(ids)
    ]


def _subject_tables(
    indexes: D3LIndexes,
    names: Sequence[str],
    signature_maps: Dict[str, Dict[EvidenceType, object]],
    lookups: Mapping[EvidenceType, List[Candidates]],
    subject: Optional[str],
    pool: int,
    exclude_table: Optional[str],
    cutoff: float,
) -> np.ndarray:
    """Table codes of Algorithm 2's subject guard (see
    :func:`collect_attribute_candidate_distances`)."""
    if subject is None or subject not in names:
        return _NO_IDS
    position = names.index(subject)
    found: List[np.ndarray] = []
    for evidence in EvidenceType.indexed():
        if evidence in lookups:
            candidates = lookups[evidence][position]
            found.append(candidates.ids[candidates.distances <= cutoff])
        else:
            (candidates,) = indexes.multi_lookup(
                evidence,
                [signature_maps[subject][evidence]],
                k=pool,
                exclude_table=exclude_table,
                max_distance=cutoff,
            )
            found.append(candidates.ids)
    return np.unique(indexes.ids.tables()[np.concatenate(found)])


def rank_candidate_tables(
    indexes: D3LIndexes,
    attribute_distances: Sequence[AttributeCandidates],
    ranking_weights: EvidenceWeights,
) -> TableResults:
    """Equations 2, 1 and 3 over the collected candidates, as array passes.

    Per target attribute, in target order: the Equation 2 weights of each
    evidence column (:func:`ccdf_weights_many` per candidate pool,
    bit-identical to the scalar ``ccdf_weight`` loop), then the best
    alignment per source table — the smallest mean distance, the first
    candidate in ref order on ties, as the sequential engine's
    strict-improvement scan picks it.  On table × attribute grids, each
    table's Equation 1 vector is summed attribute by attribute in target
    order, as ``aggregate_column`` sums it (an absent alignment adds 0.0,
    which changes no sum), and its Equation 3 distance follows
    (:func:`~repro.core.aggregation.combined_distances`).  Tables are
    ranked by ``(distance, table name)``.
    """
    evidence_types = EvidenceType.all()
    tables = indexes.ids.tables()
    attribute_names = [name for name, _, _ in attribute_distances]
    winners = []
    for attribute, (_, ids, columns) in enumerate(attribute_distances):
        weight_columns = []
        means: Optional[np.ndarray] = None
        for evidence in evidence_types:
            column = columns[evidence]
            observed = column < 1.0
            weights = ccdf_weights_many(column, column[observed])
            weights[~observed] = 0.0
            weight_columns.append(weights)
            # Accumulating in EvidenceType.all() order reproduces the float
            # addition sequence of AttributeMatch.mean_distance exactly.
            means = column.copy() if means is None else means + column
        means /= len(evidence_types)
        codes = tables[ids]
        # Stable: equal (table, mean) keep ref order, so each table's first
        # entry is its first candidate with the smallest mean.
        order = np.lexsort((means, codes))
        ordered = codes[order]
        best = order[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        winners.append((
            codes[best],
            np.full(best.shape[0], attribute),
            ids[best],
            np.stack([columns[evidence][best] for evidence in evidence_types], axis=1),
            np.stack([weights[best] for weights in weight_columns], axis=1),
        ))
    if winners:
        codes, attributes, ids, distances, weights = map(np.concatenate, zip(*winners))
    else:
        codes = attributes = ids = _NO_IDS
        distances = weights = np.empty((0, len(evidence_types)))
    table_codes, table_of = np.unique(codes, return_inverse=True)
    shape = (table_codes.shape[0], len(attribute_names))
    aligned = np.zeros(shape, dtype=bool)
    aligned[table_of, attributes] = True
    grid_ids = np.zeros(shape, dtype=np.int32)
    grid_ids[table_of, attributes] = ids
    grid_distances = np.zeros(shape + (len(evidence_types),))
    grid_distances[table_of, attributes] = distances
    grid_weights = np.zeros_like(grid_distances)
    grid_weights[table_of, attributes] = weights
    # Equation 1, or the plain mean when every weight is zero.
    weighted_sum = np.zeros((shape[0], len(evidence_types)))
    weight_sum = np.zeros_like(weighted_sum)
    plain_sum = np.zeros_like(weighted_sum)
    for attribute in range(shape[1]):
        weighted_sum += grid_weights[:, attribute] * grid_distances[:, attribute]
        weight_sum += grid_weights[:, attribute]
        plain_sum += grid_distances[:, attribute]
    with np.errstate(divide="ignore", invalid="ignore"):
        vectors = np.where(
            weight_sum <= 0.0,
            plain_sum / aligned.sum(axis=1)[:, np.newaxis],
            weighted_sum / weight_sum,
        )
    table_distances = combined_distances(vectors.tolist(), ranking_weights)
    names = [indexes.ids.table_names[code] for code in table_codes.tolist()]
    ranked = sorted(range(len(names)), key=lambda table: (table_distances[table], names[table]))
    return TableResults(
        [names[table] for table in ranked],
        [table_distances[table] for table in ranked],
        vectors[ranked],
        aligned[ranked],
        grid_ids[ranked],
        grid_distances[ranked],
        grid_weights[ranked],
        attribute_names,
        indexes.ids.items,
    )
