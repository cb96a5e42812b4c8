"""Join-path discovery (section IV): SA-joinability and Algorithm 3.

Two datasets are *SA-joinable* when there is value-index evidence that the
token sets of a pair of their attributes overlap and at least one attribute
of the pair is its table's subject attribute.  The SA-join graph connects
SA-joinable tables; Algorithm 3 walks it depth-first from every top-k table,
collecting acyclic paths whose intermediate tables are outside the top-k but
still related to the target by at least one index.  Tables reached this way
can contribute values to target attributes the top-k left uncovered.

Graph construction is batched: every table's subject-attribute probe runs
through one multi-query value-index lookup (the same kernels the batched
query engine uses), the paper's estimated overlap coefficient — computed
vectorized from the MinHash Jaccard estimates the lookup already produced —
pre-filters the candidate pairs, and only the survivors pay for exact
value-sample verification, optionally sharded across worker processes
(:func:`~repro.core.parallel.verify_value_overlaps`).  The scalar
probe-at-a-time construction lives on as :meth:`SAJoinGraph.build_sequential`,
the equivalence oracle the batched build is verified against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx
import numpy as np

from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.core.profiles import AttributeProfile
from repro.lake.datalake import AttributeRef
from repro.lsh.lsh_ensemble import LSHEnsemble
from repro.lsh.minhash import MinHashFactory


@dataclass(frozen=True)
class JoinEdge:
    """An SA-join opportunity between two attributes of different tables."""

    left: AttributeRef
    right: AttributeRef
    overlap: float

    def tables(self) -> Tuple[str, str]:
        """The two table names connected by this edge."""
        return self.left.table, self.right.table


@dataclass
class JoinPath:
    """A path of SA-joinable tables starting from a top-k table."""

    tables: List[str]
    edges: List[JoinEdge]

    @property
    def start(self) -> str:
        """The top-k table the path starts from."""
        return self.tables[0]

    @property
    def reached(self) -> List[str]:
        """Tables reached beyond the starting table."""
        return self.tables[1:]

    def __len__(self) -> int:
        return len(self.tables)


class JoinPathTree(Sequence[JoinPath]):
    """Algorithm 3's paths as a prefix tree, read as a sequence of paths.

    Every path the depth-first walk emits extends an earlier one by one hop,
    so path ``i`` is three column entries: its parent — the index of the
    path it extends, or its start table when it is a one-hop path — the
    table it ends at, and the edge of its last hop.  :class:`JoinPath`
    objects are built only when a path is read.  A dense lake's walk emits
    thousands of paths per request while the wire keeps 20, and holding
    each as a ``JoinPath`` plus two lists made the survivors trigger full
    garbage collections; the columns hold no per-path container at all.

    The tree is a read-only sequence in walk order: ``len``, integer and
    negative indexing and iteration work, slicing returns a list, it
    compares equal to a list of the same paths (in either direction), and
    it pickles.  ``list(tree)`` copies it into plain paths.
    """

    __slots__ = ("_parents", "_tables", "_edges")

    def __init__(
        self,
        parents: List[Union[int, str]],
        tables: List[str],
        edges: List[JoinEdge],
    ) -> None:
        self._parents = parents
        self._tables = tables
        self._edges = edges

    def __len__(self) -> int:
        return len(self._tables)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._path(position) for position in range(len(self))[index]]
        position = operator.index(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("join path index out of range")
        return self._path(position)

    def __iter__(self) -> Iterator[JoinPath]:
        for position in range(len(self)):
            yield self._path(position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (JoinPathTree, list)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable-sequence equality

    def __repr__(self) -> str:
        return f"JoinPathTree({list(self)!r})"

    def _path(self, position: int) -> JoinPath:
        tables: List[str] = []
        edges: List[JoinEdge] = []
        parent: Union[int, str] = position
        while not isinstance(parent, str):
            tables.append(self._tables[parent])
            edges.append(self._edges[parent])
            parent = self._parents[parent]
        tables.append(parent)
        tables.reverse()
        edges.reverse()
        return JoinPath(tables=tables, edges=edges)

    def reached(self) -> Set[str]:
        """Every table reached beyond the start tables.

        A path reaches its own last table and, through its prefix paths
        (all in the tree), every earlier one, so this is the set of last
        tables.
        """
        return set(self._tables)

    def reached_from(self, start: str) -> Set[str]:
        """Tables reached by the paths starting at ``start``, in one pass.

        The walk emits each start table's paths as one contiguous run that
        opens with a one-hop path, so a path's start is the parent of the
        latest one-hop path at or before it.
        """
        reached: Set[str] = set()
        current = None
        for parent, table in zip(self._parents, self._tables):
            if isinstance(parent, str):
                current = parent
            if current == start:
                reached.add(table)
        return reached


@dataclass
class JoinPathSearch:
    """The result of one Algorithm 3 enumeration.

    ``paths`` is the walk's :class:`JoinPathTree`, in depth-first order.
    ``truncated`` is True when the ``max_paths`` cap stopped the walk before
    every start table was fully explored, so callers can tell a complete
    enumeration from a capped one.  The object behaves like the sequence of
    its paths, so existing iteration/len/slicing call sites keep working.
    """

    paths: JoinPathTree
    truncated: bool = False

    def __iter__(self) -> Iterator[JoinPath]:
        return iter(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index):
        return self.paths[index]


def estimated_overlap(jaccard: float, size_a: int, size_b: int) -> float:
    """Overlap coefficient estimated from a Jaccard estimate and set sizes.

    Uses the inclusion–exclusion identity from section IV:
    ``ov = J * (|A| + |B|) / ((1 + J) * min(|A|, |B|))``, clipped to [0, 1].
    """
    smaller = min(size_a, size_b)
    if smaller <= 0 or jaccard <= 0.0:
        return 0.0
    value = jaccard * (size_a + size_b) / ((1.0 + jaccard) * smaller)
    return min(1.0, value)


def estimated_overlaps(
    jaccard: np.ndarray, size_a: int, sizes_b: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`estimated_overlap` of one probe against many candidates.

    Entry ``i`` equals ``estimated_overlap(jaccard[i], size_a, sizes_b[i])``
    exactly; this is the pre-filter arithmetic of the batched SA-join graph
    build, evaluated once per candidate pool instead of once per pair.
    """
    jaccard = np.asarray(jaccard, dtype=np.float64)
    sizes_b = np.asarray(sizes_b, dtype=np.float64)
    values = np.zeros_like(jaccard)
    smaller = np.minimum(float(size_a), sizes_b)
    valid = (smaller > 0) & (jaccard > 0.0)
    values[valid] = (
        jaccard[valid]
        * (size_a + sizes_b[valid])
        / ((1.0 + jaccard[valid]) * smaller[valid])
    )
    return np.minimum(values, 1.0)


def _subject_probes(indexes: D3LIndexes) -> List[Tuple[str, AttributeProfile]]:
    """The usable subject-attribute probes, in sorted table order.

    Sorted order makes graph construction independent of lake insertion
    order, so serial, batched, and sharded builds resolve best-edge ties
    identically.
    """
    probes: List[Tuple[str, AttributeProfile]] = []
    for table_name in sorted(indexes.table_profiles):
        subject = indexes.table_profiles[table_name].subject_profile()
        if subject is None or not subject.tokens:
            continue
        probes.append((table_name, subject))
    return probes


def _apply_edge(
    graph: nx.Graph, table_name: str, subject_ref: AttributeRef, ref: AttributeRef,
    overlap: float,
) -> None:
    """Record one verified SA-join edge, keeping the best overlap per pair."""
    existing = graph.get_edge_data(table_name, ref.table)
    edge = JoinEdge(left=subject_ref, right=ref, overlap=overlap)
    if existing is None or existing["join"].overlap < overlap:
        graph.add_edge(table_name, ref.table, join=edge)


class SAJoinGraph:
    """The SA-join graph G_S = (S, I) over an indexed data lake.

    The graph is frozen on construction (``nx.freeze``: mutators raise
    ``nx.NetworkXError``), so the sorted adjacency built alongside it —
    per table, its neighbours in name order, each mapped to the join edge —
    cannot drift out of sync.  Algorithm 3 and the :meth:`neighbours` /
    :meth:`edge` lookups read that adjacency instead of sorting neighbours
    and fetching edge data on every call.
    """

    def __init__(self, graph: nx.Graph) -> None:
        self._graph = nx.freeze(graph)
        self._adjacency: Dict[str, Dict[str, Optional[JoinEdge]]] = {
            table_name: {
                neighbour: neighbours[neighbour].get("join")
                for neighbour in sorted(neighbours)
            }
            for table_name, neighbours in graph.adjacency()
        }

    @property
    def graph(self) -> nx.Graph:
        """The underlying networkx graph (nodes: table names)."""
        return self._graph

    @property
    def table_names(self) -> List[str]:
        """All nodes of the graph."""
        return list(self._graph.nodes)

    def neighbours(self, table_name: str) -> List[str]:
        """Tables SA-joinable with ``table_name``, sorted (empty when unknown)."""
        return list(self._adjacency.get(table_name, ()))

    def edge(self, first: str, second: str) -> Optional[JoinEdge]:
        """The join edge between two tables, when one exists."""
        return self._adjacency.get(first, {}).get(second)

    def edge_count(self) -> int:
        """Number of SA-join edges in the graph."""
        return self._graph.number_of_edges()

    def edges(self) -> List[JoinEdge]:
        """Every SA-join edge, sorted by the (left, right) attribute refs."""
        return sorted(
            (self._graph.get_edge_data(first, second)["join"]
             for first, second in self._graph.edges),
            key=lambda edge: (edge.left, edge.right),
        )

    def connected_component(self, table_name: str) -> Set[str]:
        """Tables reachable from ``table_name`` through SA-join edges."""
        if table_name not in self._graph:
            return set()
        return set(nx.node_connected_component(self._graph, table_name))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        indexes: D3LIndexes,
        config: Optional[D3LConfig] = None,
        workers: Optional[int] = None,
        executor=None,
        overlap_cache: Optional[Dict[Tuple[AttributeRef, AttributeRef], float]] = None,
        backend: str = "process",
    ) -> "SAJoinGraph":
        """Build the SA-join graph from an indexed lake, in batched sweeps.

        Every table's subject-attribute probe reuses the value-index MinHash
        signature the lake build already stored, all probes run through one
        multi-query lookup (``config.join_candidate_pool`` candidates per
        probe), and the estimated overlap coefficient — computed vectorized
        from the Jaccard estimates the lookup produced — drops candidate
        pairs that cannot clear ``config.overlap_threshold`` before any
        Python-level set intersection happens.  Surviving pairs are verified
        with the exact value-sample overlap coefficient, sharded across
        ``workers`` of a transient execution ``backend`` when requested
        (:func:`~repro.core.parallel.verify_value_overlaps`) — or, when the
        owning engine passes a live
        :class:`~repro.core.parallel.ParallelQueryExecutor` as ``executor``,
        over that executor's persistent backend (for the process backend: a
        shared-memory worker pool with no sample shipping at all);
        verification is a pure per-pair function and edges are applied in
        sorted probe order, so every routing (``workers=1``, ``workers=N``,
        executor pool, any backend) produces the identical edge set.

        The pre-filter estimates overlap from the *token sets* the value
        index is built from, while verification compares distinct-value
        samples, so the cut is heuristic: the
        ``config.join_prefilter_margin`` slack leaves room for both MinHash
        noise and the token/value mismatch, equivalence against the
        unfiltered scalar oracle (:meth:`build_sequential`) is asserted by
        the tests and the tracked benchmark on their lakes, and a margin of
        0.0 disables the cut for callers that need the oracle's edge set
        guaranteed on arbitrary data.

        Because the probe attribute is always a subject attribute, the
        SA-joinability condition (at least one side is a subject attribute)
        holds by construction.

        ``overlap_cache`` maps ``(subject ref, candidate ref)`` pairs to
        overlaps verified by a previous build.  The exact overlap is a pure
        function of the two attributes' value samples, so cached pairs skip
        verification entirely — the incremental path after a single-table
        mutation, where the owning engine evicts only the pairs touching the
        mutated tables.  Freshly verified overlaps are written back into the
        cache.  Results are identical with or without a (correctly evicted)
        cache.
        """
        from repro.core.parallel import verify_value_overlaps

        config = config or indexes.config
        graph = nx.Graph()
        graph.add_nodes_from(indexes.table_names)
        probes = _subject_probes(indexes)
        if not probes:
            return cls(graph)

        signatures = []
        for _, subject in probes:
            signature = indexes.signature(EvidenceType.VALUE, subject.ref)
            if signature is None:
                signature = indexes.signature_of(EvidenceType.VALUE, subject)
            signatures.append(signature)
        per_probe = indexes.multi_lookup(
            EvidenceType.VALUE,
            signatures,
            k=config.join_candidate_pool,
            exclude_tables=[table_name for table_name, _ in probes],
        )

        margin = config.join_prefilter_margin
        prefilter_cutoff = config.overlap_threshold * margin
        kept_per_probe: List[List[AttributeRef]] = []
        pairs: List[Tuple[AttributeRef, AttributeRef]] = []
        samples: Dict[AttributeRef, Set[str]] = {}
        for (table_name, subject), candidates in zip(probes, per_probe):
            refs: List[AttributeRef] = []
            distances: List[float] = []
            for ref, distance in candidates:
                other = indexes.profiles.get(ref)
                if other is None or not other.tokens:
                    continue
                refs.append(ref)
                distances.append(distance)
            if refs and margin > 0.0:
                estimates = estimated_overlaps(
                    1.0 - np.asarray(distances, dtype=np.float64),
                    len(subject.tokens),
                    np.asarray(
                        [len(indexes.profiles[ref].tokens) for ref in refs],
                        dtype=np.float64,
                    ),
                )
                refs = [
                    refs[index]
                    for index in np.flatnonzero(estimates >= prefilter_cutoff)
                ]
            kept_per_probe.append(refs)
            if refs:
                fresh = [
                    ref
                    for ref in refs
                    if overlap_cache is None or (subject.ref, ref) not in overlap_cache
                ]
                if fresh and executor is None:
                    # The executor routing resolves samples worker-side from
                    # the attached shared index; only the sample-shipping
                    # paths need the dictionary built at all.
                    samples[subject.ref] = subject.value_sample
                    for ref in fresh:
                        samples[ref] = indexes.profiles[ref].value_sample
                pairs.extend((subject.ref, ref) for ref in fresh)

        overlaps = verify_value_overlaps(
            samples, pairs, workers=workers, executor=executor, backend=backend
        )
        if overlap_cache is not None:
            overlap_cache.update(overlaps)
            overlaps = overlap_cache
        for (table_name, subject), refs in zip(probes, kept_per_probe):
            for ref in refs:
                overlap = overlaps[(subject.ref, ref)]
                if overlap < config.overlap_threshold:
                    continue
                _apply_edge(graph, table_name, subject.ref, ref, overlap)
        return cls(graph)

    @classmethod
    def build_sequential(
        cls, indexes: D3LIndexes, config: Optional[D3LConfig] = None
    ) -> "SAJoinGraph":
        """The scalar probe-at-a-time construction (the batched build's oracle).

        For every table's subject attribute the value index is queried as a
        blocking step; each candidate pair is then verified against the
        postulated inclusion dependency by computing the overlap coefficient
        of the two attributes' distinct-value samples, and pairs clearing the
        configured threshold become edges.  No estimated-overlap pre-filter
        runs, so every blocked pair pays for exact verification — which is
        exactly what makes this path the admissibility oracle for
        :meth:`build`.
        """
        config = config or indexes.config
        graph = nx.Graph()
        graph.add_nodes_from(indexes.table_names)

        for table_name, subject in _subject_probes(indexes):
            candidates = indexes.lookup(
                EvidenceType.VALUE,
                subject,
                k=config.join_candidate_pool,
                exclude_table=table_name,
            )
            for ref, _distance in candidates:
                other_profile = indexes.profiles.get(ref)
                if other_profile is None or not other_profile.tokens:
                    continue
                overlap = subject.value_overlap(other_profile)
                if overlap < config.overlap_threshold:
                    continue
                _apply_edge(graph, table_name, subject.ref, ref, overlap)
        return cls(graph)

    @classmethod
    def build_with_ensemble(
        cls, indexes: D3LIndexes, config: Optional[D3LConfig] = None
    ) -> "SAJoinGraph":
        """Alternative construction using LSH Ensemble containment blocking.

        The paper notes LSH Ensemble (Zhu et al. 2016) as an improvement
        compatible with its value index: MinHash-based Jaccard blocking
        under-retrieves containment pairs whose set sizes are skewed, which
        is exactly the shape of inclusion dependencies.  This variant indexes
        every textual attribute's token set in an LSH Ensemble, probes it
        with each table's subject attribute at the configured containment
        threshold, and then applies the same value-sample verification as
        :meth:`build`.
        """
        config = config or indexes.config
        graph = nx.Graph()
        graph.add_nodes_from(indexes.table_names)

        factory = MinHashFactory(num_perm=config.num_hashes, seed=config.seed + 50)
        ensemble = LSHEnsemble(
            threshold=config.overlap_threshold,
            num_hashes=config.num_hashes,
            seed=config.seed + 51,
        )
        signatures: Dict[AttributeRef, Tuple[object, int]] = {}
        for ref, profile in indexes.profiles.items():
            if not profile.tokens:
                continue
            signature = factory.from_tokens(profile.tokens)
            signatures[ref] = (signature, len(profile.tokens))
            ensemble.insert(ref, signature, len(profile.tokens))
        ensemble.index()

        for table_name, subject in _subject_probes(indexes):
            probe = factory.from_tokens(subject.tokens)
            candidates = ensemble.query(probe, len(subject.tokens))
            for ref in sorted(candidates):
                if ref.table == table_name:
                    continue
                other_profile = indexes.profiles.get(ref)
                if other_profile is None:
                    continue
                overlap = subject.value_overlap(other_profile)
                if overlap < config.overlap_threshold:
                    continue
                _apply_edge(graph, table_name, subject.ref, ref, overlap)
        return cls(graph)


def find_join_paths(
    graph: SAJoinGraph,
    top_k_tables: Sequence[str],
    related_tables: Iterable[str],
    max_length: int = 3,
    max_paths: Optional[int] = None,
) -> JoinPathSearch:
    """Algorithm 3: SA-join paths from every top-k table into the rest of the lake.

    ``related_tables`` is the set of tables for which at least one index
    provides evidence of relatedness to the target (the ``I*.lookup(T)``
    condition); only such tables may appear on a path.  Paths are acyclic, do
    not revisit top-k tables, and are truncated at ``max_length`` hops.

    The walk is depth-first over the graph's sorted adjacency, start tables
    in the given order, and records its output as a :class:`JoinPathTree`:
    each path is its parent path (or start table), its last table and its
    last edge, so no :class:`JoinPath` is built until a caller reads one.

    ``max_paths`` bounds the enumeration: dense join graphs have
    combinatorially many acyclic paths, and the coverage computation only
    needs the reachable tables, so the walk stops once the cap is reached —
    and the returned :class:`JoinPathSearch` carries ``truncated=True`` so
    callers can tell a complete enumeration from a capped one (the cap can
    hit mid-walk, leaving later start tables unexplored).  The cap is
    checked before each neighbour is tried, so a walk that finishes exactly
    at the cap is not flagged.
    """
    adjacency = graph._adjacency
    allowed = set(related_tables).difference(top_k_tables)
    parents: List[Union[int, str]] = []
    tables: List[str] = []
    edges: List[JoinEdge] = []
    on_path: List[str] = []

    def _walk(current: str, parent: Union[int, str], hops: int) -> bool:
        """Extend the path ending at ``current``; False once the cap stops it."""
        deeper = hops + 1 < max_length
        for neighbour, edge in adjacency.get(current, {}).items():
            if max_paths is not None and len(tables) >= max_paths:
                return False
            if edge is None or neighbour not in allowed or neighbour in on_path:
                continue
            index = len(tables)
            parents.append(parent)
            tables.append(neighbour)
            edges.append(edge)
            if deeper:
                on_path.append(neighbour)
                finished = _walk(neighbour, index, hops + 1)
                on_path.pop()
                if not finished:
                    return False
        return True

    truncated = False
    if max_length >= 1:
        for start in top_k_tables:
            if not _walk(start, start, 0):
                truncated = True
                break
    return JoinPathSearch(paths=JoinPathTree(parents, tables, edges), truncated=truncated)


def tables_reached(paths: Iterable[JoinPath]) -> Set[str]:
    """All tables reached by at least one join path (excluding starts)."""
    reached: Set[str] = set()
    for path in paths:
        reached.update(path.reached)
    return reached


def paths_from(paths: Iterable[JoinPath], start: str) -> List[JoinPath]:
    """The join paths starting from a given top-k table."""
    return [path for path in paths if path.start == start]
