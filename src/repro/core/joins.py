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
value-sample verification, through
:meth:`~repro.core.execution.ExecutionBackend.verify_overlaps` (in process,
or sharded across a caller's worker backend).  The scalar
probe-at-a-time construction lives on as :meth:`SAJoinGraph.build_sequential`,
the equivalence oracle the batched build is verified against.

A build keeps each probe's candidate pool — its value-forest walk through
the step that filled the pool, as integer arrays — and its verified edges.
A probe's candidates are the first ``join_candidate_pool`` items of a fixed
per-(probe, item) order (see "Walk order" in :mod:`repro.lsh.lsh_forest`),
so after a lake mutation the next build edits the pools of the mutated
tables' attributes in place of re-walking every probe, and scores only the
candidates that entered a pool's first items.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.execution import ExecutionBackend, SerialBackend
from repro.core.indexes import D3LIndexes
from repro.core.lazy import BuiltOnRead
from repro.core.profiles import AttributeProfile
from repro.lake.datalake import AttributeRef


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


class JoinPathTree(BuiltOnRead):
    """Algorithm 3's paths as a prefix tree, read as a sequence of paths.

    Every path the depth-first walk emits extends an earlier one by one hop,
    so path ``i`` is three column entries: its parent — the index of the
    path it extends, or its start table when it is a one-hop path — the
    table it ends at, and the edge of its last hop.  :class:`JoinPath`
    objects are built only when a path is read.  A dense lake's walk emits
    thousands of paths per request while the wire keeps 20, and holding
    each as a ``JoinPath`` plus two lists made the survivors trigger full
    garbage collections; the columns hold no per-path container at all.

    The tree is a read-only sequence in walk order
    (:class:`~repro.core.lazy.BuiltOnRead`); ``list(tree)`` copies it into
    plain paths.
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

    def _entry(self, position: int) -> JoinPath:
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
    jaccard: np.ndarray, size_a: Union[int, np.ndarray], sizes_b: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`estimated_overlap` over many pairs.

    Entry ``i`` equals ``estimated_overlap(jaccard[i], size_a, sizes_b[i])``
    exactly — ``size_a[i]`` when ``size_a`` is an array, one per pair; this
    is the pre-filter arithmetic of the batched SA-join graph build,
    evaluated once per build instead of once per pair.
    """
    jaccard = np.asarray(jaccard, dtype=np.float64)
    sizes_b = np.asarray(sizes_b, dtype=np.float64)
    sizes_a = np.broadcast_to(np.asarray(size_a, dtype=np.float64), sizes_b.shape)
    values = np.zeros_like(jaccard)
    smaller = np.minimum(sizes_a, sizes_b)
    valid = (smaller > 0) & (jaccard > 0.0)
    values[valid] = (
        jaccard[valid]
        * (sizes_a[valid] + sizes_b[valid])
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


def _probe_signature(indexes: D3LIndexes, subject: AttributeProfile):
    """The value signature a subject-attribute probe descends with."""
    signature = indexes.signature(EvidenceType.VALUE, subject.ref)
    if signature is None:
        signature = indexes.signature_of(EvidenceType.VALUE, subject)
    return signature


def _apply_edge(
    graph: nx.Graph, table_name: str, subject_ref: AttributeRef, ref: AttributeRef,
    overlap: float,
) -> None:
    """Record one verified SA-join edge, keeping the best overlap per pair."""
    existing = graph.get_edge_data(table_name, ref.table)
    edge = JoinEdge(left=subject_ref, right=ref, overlap=overlap)
    if existing is None or existing["join"].overlap < overlap:
        graph.add_edge(table_name, ref.table, join=edge)


#: A pair whose exact value overlap was verified: (subject ref, candidate ref).
OverlapPair = Tuple[AttributeRef, AttributeRef]


class JoinOverlapCache(Mapping):
    """Verified exact value overlaps, keyed by ``(subject ref, candidate ref)``.

    A read-only mapping plus :meth:`update` and per-table eviction.  Each
    pair is also listed under both of its tables, so evicting a mutated
    table touches only that table's pairs instead of rebuilding the whole
    mapping.  ``dict(cache)`` is the flat pair → overlap form persistence
    writes.

    Listing a pair hashes only its table names: a pair hashes through two
    Python-level ``AttributeRef.__hash__`` calls, and a full build adds
    ~16k pairs.  An evicted pair stays listed under its other table until
    that table is evicted too (``pop`` of an absent pair is a no-op); once
    stale entries outnumber live ones, the lists are rebuilt.
    """

    __slots__ = ("_overlaps", "_pairs_of", "_listed")

    def __init__(self, overlaps: Optional[Mapping] = None) -> None:
        self._overlaps: Dict[OverlapPair, float] = {}
        self._pairs_of: Dict[str, List[OverlapPair]] = defaultdict(list)
        self._listed = 0
        if overlaps:
            self.update(overlaps)

    def __getitem__(self, pair: OverlapPair) -> float:
        return self._overlaps[pair]

    def __contains__(self, pair: object) -> bool:
        return pair in self._overlaps

    def __iter__(self) -> Iterator[OverlapPair]:
        return iter(self._overlaps)

    def __len__(self) -> int:
        return len(self._overlaps)

    def update(self, overlaps: Mapping) -> None:
        """Add or overwrite verified overlaps."""
        self._overlaps.update(overlaps)
        self._list(overlaps)

    def _list(self, pairs: Iterable[OverlapPair]) -> None:
        pairs_of = self._pairs_of
        listed = 0
        for pair in pairs:
            left, right = pair
            pairs_of[left.table].append(pair)
            if right.table != left.table:
                pairs_of[right.table].append(pair)
                listed += 1
            listed += 1
        self._listed += listed

    def evict_table(self, table_name: str) -> None:
        """Drop every overlap with an attribute of ``table_name``."""
        pairs = self._pairs_of.pop(table_name, [])
        self._listed -= len(pairs)
        for pair in pairs:
            self._overlaps.pop(pair, None)
        if self._listed > 4 * len(self._overlaps):
            self._pairs_of.clear()
            self._listed = 0
            self._list(self._overlaps)

    def clear(self) -> None:
        """Drop every overlap."""
        self._overlaps.clear()
        self._pairs_of.clear()
        self._listed = 0


#: A probe's verified edges, ``(distance, candidate ref, overlap)`` in
#: (distance, ref) order: the order a build applies them in.
_Edges = List[Tuple[float, AttributeRef, float]]


def _build_settings(config: D3LConfig) -> Tuple[int, float, float]:
    """The configuration a build's pools and edges depend on."""
    return (
        config.join_candidate_pool,
        config.join_prefilter_margin,
        config.overlap_threshold,
    )


@dataclass(eq=False)
class _ProbePools:
    """What an SA-join graph build keeps, so that the next one can edit it.

    Row ``i`` is the probe of table ``tables[i]`` (sorted table order): its
    subject attribute ``subjects[i]`` and the value-forest tree keys
    ``keys[i]`` of its signature.  Its pool is entries
    ``bounds[i]:bounds[i + 1]`` of ``ids`` and ``steps``: every item its
    walk collected through the step that filled the pool — every item it
    reached when the walk ran out first — in walk order, as lake attribute
    ids (``refs`` is the indexes' id registry), each with the step that
    reached it.  ``edges[i]`` holds the verified edges of the pool's first
    ``join_candidate_pool`` items.

    The pools are flat integer arrays, not per-entry objects: tens of
    thousands of small long-lived objects would make every full garbage
    collection walk them.
    """

    settings: Tuple[int, float, float]
    tables: List[str]
    subjects: List[AttributeRef]
    keys: np.ndarray
    ids: np.ndarray
    steps: np.ndarray
    bounds: np.ndarray
    edges: List[_Edges]
    refs: List[AttributeRef]

    def pool(self, table_name: str) -> List[Tuple[AttributeRef, int]]:
        """``(ref, step)`` of every item in the pool of ``table_name``'s probe."""
        row = self.tables.index(table_name)
        start, end = self.bounds[row], self.bounds[row + 1]
        return [
            (self.refs[item], step)
            for item, step in zip(self.ids[start:end].tolist(), self.steps[start:end].tolist())
        ]


class _PoolBuild:
    """One SA-join graph build: every probe walked, or a previous build's
    pools edited for the mutated tables and only the rest walked."""

    def __init__(self, indexes: D3LIndexes, config: D3LConfig) -> None:
        self.indexes = indexes
        self.forest = indexes.forest(EvidenceType.VALUE)
        self.refs = indexes.ids.items
        self.settings = _build_settings(config)
        self.pool, self.margin, self.threshold = self.settings
        self.probes = _subject_probes(indexes)
        self.signatures = [
            _probe_signature(indexes, subject) for _, subject in self.probes
        ]
        count = len(self.probes)
        self.keys = np.zeros(
            (count, self.forest.num_trees, self.forest.key_length), dtype=self.forest.key_dtype
        )
        self.ids: List[Optional[np.ndarray]] = [None] * count
        self.steps: List[Optional[np.ndarray]] = [None] * count
        self.edges: List[Optional[_Edges]] = [None] * count
        #: ``(row, (distance, ref) candidates, edges carried over)`` awaiting
        #: the prefilter and exact verification.
        self.pending: List[Tuple[int, List[Tuple[float, AttributeRef]], _Edges]] = []

    # ------------------------------------------------------------------ #
    # pools
    # ------------------------------------------------------------------ #
    def carry(self, previous: _ProbePools, mutated: AbstractSet[str]) -> List[int]:
        """Take over the previous rows of unmutated probes; return the rows to walk.

        A kept pool loses the mutated tables' old attributes and gains the
        current ones its walk reaches in time
        (:meth:`~repro.lsh.lsh_forest.LSHForest.edit_walks`); a pool that
        edit leaves short is walked again.  Only candidates new to a pool's
        first items are scored; a mutated table's attributes keep their
        ids, so they count as new.
        """
        old_rows = {table_name: row for row, table_name in enumerate(previous.tables)}
        carried: List[Tuple[int, int]] = []
        walk: List[int] = []
        for row, (table_name, _) in enumerate(self.probes):
            old = old_rows.get(table_name)
            if old is None or table_name in mutated or self.signatures[row] is None:
                walk.append(row)
            else:
                carried.append((row, old))
        if not carried:
            return walk
        ids, tables = self.indexes.ids, self.indexes.ids.tables()
        rows = [row for row, _ in carried]
        olds = np.asarray([old for _, old in carried], dtype=np.intp)
        self.keys[rows] = previous.keys[olds]
        inserted = [
            profile.ref
            for table_name in sorted(mutated)
            if table_name in self.indexes.table_profiles
            for profile in self.indexes.table_profiles[table_name].attributes.values()
            if profile.ref in self.forest
        ]
        arrived = np.asarray([ids.find(ref) for ref in inserted], dtype=np.int32)
        reached = (
            self.forest.walk_steps(
                self.keys[rows], [self.forest.signature(ref) for ref in inserted]
            )
            if inserted
            else np.empty((len(rows), 0), dtype=np.int32)
        )
        # The carried pools, flattened in row order.
        starts = previous.bounds[olds]
        lengths = previous.bounds[olds + 1] - starts
        offsets = np.cumsum(lengths) - lengths
        take = np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
        walks = np.repeat(np.arange(len(carried)), lengths)
        items = previous.ids[take]
        gone = np.isin(tables[items], [ids.table_code(name) for name in mutated])
        new_walks, new_items, new_steps, origin, rewalk = self.forest.edit_walks(
            walks, items, previous.steps[take], len(carried), gone, arrived, reached,
            self.pool, self.refs.__getitem__,
        )
        # The unmutated old first items keep their edges while they stay
        # first (``left`` holds the others, keyed by carried row and id);
        # every other new first item is scored.
        new_lengths = np.bincount(new_walks, minlength=len(carried))
        new_offsets = np.cumsum(new_lengths) - new_lengths
        old_first = np.arange(len(take)) - offsets[walks] < self.pool
        was_first = old_first & ~gone
        is_first = np.arange(len(new_walks)) - new_offsets[new_walks] < self.pool
        kept_first = is_first & (origin >= 0)
        stays = np.zeros(len(take), dtype=bool)
        stays[origin[kept_first]] = True
        width = len(self.refs)
        gone_first = was_first & ~stays
        left = set((walks[gone_first] * width + items[gone_first]).tolist())
        fresh = is_first.copy()
        fresh[kept_first] = ~was_first[origin[kept_first]]
        probe_tables = np.asarray(
            [ids.table_code(self.probes[row][0]) for row, _ in carried], dtype=np.int32
        )
        fresh &= tables[new_items] != probe_tables[new_walks]
        entered, starts = np.unique(new_walks[fresh], return_index=True)
        # Only rows whose first items lost one can lose an edge.
        losing = np.bincount(walks[gone_first | (old_first & gone)], minlength=len(carried))
        bounds = np.cumsum(new_lengths).tolist()
        for position, (row, old) in enumerate(carried):
            if rewalk[position]:
                walk.append(row)
                continue
            start, end = bounds[position] - int(new_lengths[position]), bounds[position]
            self.ids[row], self.steps[row] = new_items[start:end], new_steps[start:end]
            edges = previous.edges[old]
            if losing[position]:
                edges = [
                    edge
                    for edge in edges
                    if edge[1].table not in mutated
                    and position * width + ids.find(edge[1]) not in left
                ]
            self.edges[row] = edges
        self._score_entered(
            [
                (carried[position][0], entered_items, self.edges[carried[position][0]])
                for position, entered_items in zip(
                    entered.tolist(), np.split(new_items[fresh], starts[1:])
                )
            ]
        )
        return sorted(walk)

    def walk(self, rows: List[int]) -> None:
        """Walk the given rows' probes in one batched lookup and keep the walks."""
        if not rows:
            return
        signatures = [self.signatures[row] for row in rows]
        answers, walks = self.indexes.multi_lookup(
            EvidenceType.VALUE,
            signatures,
            k=self.pool,
            exclude_tables=[self.probes[row][0] for row in rows],
            walks=True,
        )
        signed = [row for row in rows if self.signatures[row] is not None]
        if signed:
            self.keys[signed] = self.indexes.walk_keys(
                EvidenceType.VALUE, [self.signatures[row] for row in signed]
            )
        for row, walk, candidates in zip(rows, walks, answers):
            self.ids[row] = walk.ids
            self.steps[row] = walk.steps
            self.pending.append((
                row,
                [
                    (distance, self.refs[item])
                    for item, distance in zip(
                        candidates.ids.tolist(), candidates.distances.tolist()
                    )
                ],
                [],
            ))

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def _score_entered(self, entered: List[Tuple[int, np.ndarray, _Edges]]) -> None:
        """Score candidates new to kept pools with the lookup's distance kernel."""
        if not entered:
            return
        distances = self.indexes.multi_batch_attribute_distances(
            EvidenceType.VALUE,
            [self.probes[row][1] for row, _, _ in entered],
            [items for _, items, _ in entered],
            signatures=[self.signatures[row] for row, _, _ in entered],
        )
        for (row, items, edges), values in zip(entered, distances):
            refs = [self.refs[item] for item in items.tolist()]
            self.pending.append((row, sorted(zip(values.tolist(), refs)), edges))

    def _prefilter(self) -> None:
        """Keep only the pending candidates worth exact verification.

        One vectorized estimated-overlap cut over every pending candidate;
        ``estimated_overlaps`` is elementwise, so batching changes nothing.
        """
        profiles = self.indexes.profiles
        usable: List[List[Tuple[float, AttributeRef]]] = []
        distances: List[float] = []
        subject_sizes: List[int] = []
        sizes: List[int] = []
        for row, candidates, _ in self.pending:
            subject_size = len(self.probes[row][1].tokens)
            kept = []
            for distance, ref in candidates:
                other = profiles.get(ref)
                if other is not None and other.tokens:
                    kept.append((distance, ref))
                    distances.append(distance)
                    subject_sizes.append(subject_size)
                    sizes.append(len(other.tokens))
            usable.append(kept)
        if self.margin > 0.0 and distances:
            estimates = estimated_overlaps(
                1.0 - np.asarray(distances, dtype=np.float64),
                np.asarray(subject_sizes, dtype=np.float64),
                np.asarray(sizes, dtype=np.float64),
            )
            passing = iter((estimates >= self.threshold * self.margin).tolist())
            usable = [[candidate for candidate in kept if next(passing)] for kept in usable]
        self.pending = [
            (row, kept, carried)
            for (row, _, carried), kept in zip(self.pending, usable)
        ]

    def verify(self, overlap_cache, backend: ExecutionBackend) -> None:
        """Verify every pending candidate exactly and settle the rows' edges."""
        self._prefilter()
        pairs: List[OverlapPair] = []
        for row, candidates, _ in self.pending:
            subject_ref = self.probes[row][1].ref
            pairs.extend(
                (subject_ref, ref)
                for _, ref in candidates
                if overlap_cache is None or (subject_ref, ref) not in overlap_cache
            )
        overlaps = backend.verify_overlaps(pairs)
        if overlap_cache is not None:
            overlap_cache.update(overlaps)
            overlaps = overlap_cache
        for row, candidates, carried in self.pending:
            subject = self.probes[row][1]
            edges = []
            for distance, ref in candidates:
                overlap = overlaps[(subject.ref, ref)]
                if overlap >= self.threshold:
                    edges.append((distance, ref, overlap))
            self.edges[row] = sorted(carried + edges) if carried else edges

    def finish(self) -> _ProbePools:
        """The kept state: every row's pool and edges, flattened."""
        lengths = [len(items) for items in self.ids]
        return _ProbePools(
            settings=self.settings,
            tables=[table_name for table_name, _ in self.probes],
            subjects=[subject.ref for _, subject in self.probes],
            keys=self.keys,
            ids=np.concatenate(self.ids) if self.ids else np.empty(0, dtype=np.int32),
            steps=(
                np.concatenate(self.steps) if self.steps else np.empty(0, dtype=np.int32)
            ),
            bounds=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            edges=self.edges,
            refs=self.refs,
        )


class SAJoinGraph:
    """The SA-join graph G_S = (S, I) over an indexed data lake.

    The graph is frozen on construction (``nx.freeze``: mutators raise
    ``nx.NetworkXError``), so the sorted adjacency built alongside it —
    per table, its neighbours in name order, each mapped to the join edge —
    cannot drift out of sync.  Algorithm 3 and the :meth:`neighbours` /
    :meth:`edge` lookups read that adjacency instead of sorting neighbours
    and fetching edge data on every call.
    """

    def __init__(self, graph: nx.Graph, pools: Optional[_ProbePools] = None) -> None:
        self._graph = nx.freeze(graph)
        # What the build kept for the next one (None: restored or derived).
        self._pools = pools
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
        backend: Optional[ExecutionBackend] = None,
        overlap_cache: Optional[Union[JoinOverlapCache, Dict[OverlapPair, float]]] = None,
        previous: Optional["SAJoinGraph"] = None,
        mutated_tables: Optional[AbstractSet[str]] = None,
    ) -> "SAJoinGraph":
        """Build the SA-join graph from an indexed lake, in batched sweeps.

        Every table's subject-attribute probe reuses the value-index MinHash
        signature the lake build already stored, all probes run through one
        multi-query lookup (``config.join_candidate_pool`` candidates per
        probe), and the estimated overlap coefficient — computed vectorized
        from the Jaccard estimates the lookup produced — drops candidate
        pairs that cannot clear ``config.overlap_threshold`` before any
        Python-level set intersection happens.  Surviving pairs are verified
        with the exact value-sample overlap coefficient through
        ``backend``'s :meth:`~repro.core.execution.ExecutionBackend.verify_overlaps`
        — the caller's backend over these indexes (the owning engine's
        ``build_join_graph(workers=N)`` opens one for the call: for the
        process backend, a shared-memory worker pool that resolves value
        samples from its attached view), or
        an in-process :class:`~repro.core.execution.SerialBackend` when
        ``backend`` is None.  Verification is a pure per-pair function and
        edges are applied in sorted probe order, so every backend and
        worker count produces the identical edge set.

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
        verification entirely.  Freshly verified overlaps are written back
        into the cache.  Results are identical with or without a (correctly
        evicted) cache.

        ``previous`` and ``mutated_tables`` make the build an update: given
        the graph an earlier build of these indexes returned and every
        table mutated since (a superset is fine), the build keeps the
        previous probes' candidate pools and edits them per mutated table —
        drops the table's old attributes, inserts its current ones where
        each probe's walk reaches them in time — walks only the mutated
        tables' probes and the pools a removal left short, and verifies only
        the candidates new to a pool.  The graph equals a full build's.
        Without either argument, or when ``previous`` kept no pools (a
        restored graph) or was built under other join settings, every probe
        is walked.
        """
        config = config or indexes.config
        pools = previous._pools if previous is not None else None
        if (
            mutated_tables is None
            or pools is None
            or pools.settings != _build_settings(config)
            or pools.refs is not indexes.ids.items
        ):
            pools = None
        build = _PoolBuild(indexes, config)
        if pools is None:
            walk = list(range(len(build.probes)))
        else:
            walk = build.carry(pools, mutated_tables)
        build.walk(walk)
        with (
            SerialBackend(indexes, 1) if backend is None else nullcontext(backend)
        ) as verifier:
            build.verify(overlap_cache, verifier)
        kept = build.finish()

        graph = nx.Graph()
        graph.add_nodes_from(indexes.table_names)
        for table_name, subject, edges in zip(kept.tables, kept.subjects, kept.edges):
            for _distance, ref, overlap in edges:
                _apply_edge(graph, table_name, subject, ref, overlap)
        return cls(graph, kept)

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
