"""LSH Forest (Bawa, Condie, Ganesan 2005): self-tuning top-k similarity search.

An LSH Forest stores each item in ``num_trees`` prefix trees; each tree keys
the item by a fixed-length slice of signature positions.  Top-k queries
descend from the longest prefix to shorter ones, so the number of candidates
adapts to the query rather than to a global threshold — this is the property
the paper relies on to keep search time largely independent of lake size.

Performance architecture
------------------------

Each :class:`_PrefixTree` uses the sorted-array layout the LSH Forest paper
prescribes, vectorized with NumPy:

* keys are a single sorted 2D ``uint64`` array of shape ``(n, key_length)``
  with a parallel ``int32`` array of item ids, kept in lexicographic order;
* the lexicographic order is materialised once per (re)build as a 1D array of
  big-endian byte *rank keys* (a NumPy void dtype of ``key_length * 8``
  bytes), so finding where a whole key sorts is one O(log n)
  ``np.searchsorted``;
* inserts are buffered and merged with one stable vectorized sort on the
  next query (amortised O(log n) per insert for the usual build-then-query
  workload);
* removals are O(1) tombstones; the tree compacts — dropping dead rows and
  rebuilding the rank keys — once more than half of its rows are dead, so
  remove costs O(log n) amortised and queries never scan dead entries
  outside a compaction cycle.

A tree's *block table* (:func:`_block_table`), derived from the prefix
each row shares with the row before it, holds the bounds of every run of
two or more rows sharing a prefix as sorted ``(prefix length, row)`` codes,
one at each end of a block per prefix length it spans (1.1k–4.6k codes per
tree of ~1k rows on the benchmark lake, where duplicate keys are common;
far fewer for distinct keys).  The forest keeps its trees' block tables and item ids end to end
(:class:`_Joined`), so that one call searches or gathers across every tree.
They are derived again by the first descent after a tree merges, compacts
or is imported (each replaces the tree's item array), and never persisted.

Items are kept as dense ``int32`` ids from an :class:`ItemIds` registry,
which a caller may share between several forests and its own arrays (as
:class:`~repro.core.indexes.D3LIndexes` shares one between its four forests
and signature matrices): trees hold id arrays, a tree's row registry is an
array indexed by id, and :meth:`LSHForest.multi_query` answers with id
arrays.  Rows with equal keys are ordered by the registry's item ranks,
which order ids as their items order, so no Python comparison of items runs
in a rebuild.

One descent serves :meth:`LSHForest.query`, :meth:`~LSHForest.query_all`
and :meth:`~LSHForest.multi_query`, as array operations over every query
and tree of a batch.  Its ranges half finds, per tree, each query's
insertion point ``pos`` with one whole-key search.  A prefix longer than
either neighbour of ``pos`` shares with the query matches no row; any other
prefix's rows are the run holding the neighbour sharing more, which one
search of the joined block tables finds for every (query, tree, prefix
length) at once.  Because the range of a shorter prefix always contains the
longer-prefix range, the rows a (prefix length, tree) step newly exposes
are the difference of two nested ranges.  Its walk half expands only the
steps that can hold a query's first ``k`` distinct ids — a tree's rows hold
distinct ids, so they are reached by the first step at which one tree has
reached ``k`` rows, unless some are dead or excluded, and a query left short
walks again needing twice as many — keeps each id's first row, and cuts
after the ``k``-th id (after its step for a kept walk).  So a batch
returns, element for element, what one-query descents return.

Walk order
----------

Number the descent's steps ``(key_length - p) * num_trees + t`` for prefix
length ``p`` and tree ``t``.  A walk first reaches an item at the step of
the longest prefix the item shares with the query in any tree, in the first
tree that reaches that length; within a step, items come in the step tree's
row order (key, then item).  So the first ``k`` items a walk returns are
the first ``k`` of every live item sorted by ``(step, row in the step's
tree)``, items sharing no prefix left out — a fixed order per (query, item)
pair, which is what lets a caller keep a query's pool and edit it when
items come and go instead of walking again.  :meth:`LSHForest.walk_steps`,
:meth:`~LSHForest.step_order` and :meth:`~LSHForest.walk_order` expose the
order; ``multi_query(..., walks=True)`` keeps each walk whole through the
step that reached ``k``, and :meth:`~LSHForest.edit_walks` brings kept walks
up to date after inserts and removals.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Serialises deferred merges (:meth:`_PrefixTree._ensure_flushed` /
#: :meth:`_PrefixTree.compact`): the first *query* after a buffered insert
#: performs the merge, and the serving tier runs many queries concurrently —
#: without this, two readers could rebuild one tree at the same time.  The
#: lock is module-level (no per-tree pickling concerns) and only ever
#: contended in the instant after a mutation; the no-pending fast path never
#: takes it.
_FLUSH_LOCK = threading.Lock()

#: A tree compacts when it holds more than this many tombstones *and* they
#: outnumber the live rows.
_MIN_TOMBSTONES_BEFORE_COMPACTION = 16

#: ``multi_query`` descends this many queries at a time, so the step ranges
#: and expanded rows it materialises stay small however many queries a
#: batch holds.
_DESCENT_BLOCK = 64


class ItemIds:
    """Dense ``int32`` ids for the items of one or more indexes.

    An item keeps its id for the registry's lifetime: removing it from an
    index frees nothing, and inserting it again brings back the same id.
    :meth:`ranks` orders the ids as their items order (by ``sort_key`` of
    each item when given, which must order items as they order themselves),
    so sorting ids by rank breaks ties exactly as comparing items would.
    """

    def __init__(self, sort_key: Optional[Callable[[Hashable], object]] = None) -> None:
        #: The item of each id (append-only).
        self.items: List[Hashable] = []
        self._id_of: Dict[Hashable, int] = {}
        self._sort_key = sort_key
        self._ranks = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.items)

    def find(self, item: Hashable) -> Optional[int]:
        """The id of ``item``, or None when it never had one."""
        return self._id_of.get(item)

    def assign(self, item: Hashable) -> int:
        """The id of ``item``, giving it the next one when it is new."""
        found = self._id_of.get(item)
        if found is None:
            found = self._id_of[item] = len(self.items)
            self.items.append(item)
            self._assigned(item)
        return found

    def _assigned(self, item: Hashable) -> None:
        """Hook for registries that keep more per-id state."""

    def ranks(self) -> np.ndarray:
        """The rank of every id's item in sorted item order (cached until an
        id is added)."""
        count = len(self.items)
        if self._ranks.shape[0] != count:
            keys = self.items if self._sort_key is None else list(map(self._sort_key, self.items))
            ranks = np.empty(count, dtype=np.int64)
            ranks[sorted(range(count), key=keys.__getitem__)] = np.arange(count)
            self._ranks = ranks
        return self._ranks


class Walk(NamedTuple):
    """One query's walk, kept through the step at which it reached ``k``.

    ``ids`` (``int32``) are the ids of every item the walk collected, in
    walk order — at least ``k`` of them unless the walk ran out — and
    ``steps`` (``int32``) the step at which each was first reached.  The
    query's answer is ``ids[:k]``.
    """

    ids: np.ndarray
    steps: np.ndarray


class _TreeState(NamedTuple):
    """A merged tree's arrays as one descent reads them."""

    keys: np.ndarray
    ranks: np.ndarray
    items: np.ndarray
    #: ``None`` when no row is tombstoned.
    alive: Optional[np.ndarray]


class _Joined(NamedTuple):
    """Every tree's block table and item ids, end to end, so that one call
    searches or gathers across all trees: tree ``t``'s codes are shifted by
    ``block_offsets[t]`` and its rows by ``row_offsets[t]``.  ``sources`` are
    the trees' item arrays they derive from (a merge or import replaces
    them)."""

    sources: Tuple[np.ndarray, ...]
    blocks: np.ndarray
    block_offsets: np.ndarray
    items: np.ndarray
    row_offsets: np.ndarray


_NO_IDS = np.empty(0, dtype=np.int32)


def _concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``."""
    ends = counts.cumsum()
    ranges = np.arange(ends[-1] if len(ends) else 0)
    ranges += (starts - ends + counts).repeat(counts)
    return ranges


def _block_table(keys: np.ndarray) -> np.ndarray:
    """Sorted bounds of the blocks of sorted key rows.

    The rows sharing their first ``p`` values form runs; a run of two or
    more rows is a *block*.  Code ``2 * (p * (n + 1) + row) + 1`` says a
    block of length-``p`` prefixes starts at ``row``, code
    ``2 * (p * (n + 1) + row)`` that one ends before ``row``; a leading
    ``0`` bounds every search.  A row in no block of length ``p`` is a run
    of one.
    """
    rows, key_length = keys.shape
    # shared[i]: the prefix row i shares with row i - 1 (none before the
    # first row or after the last).
    shared = np.zeros(rows + 1, dtype=np.int64)
    if rows > 1:
        differ = keys[1:] != keys[:-1]
        shared[1:-1] = np.where(differ.any(axis=1), differ.argmax(axis=1), key_length)
    # Between rows i and i + 1 the shared prefix rises (blocks of those
    # lengths start at row i) or falls (blocks end before row i + 1).
    rise = np.diff(shared)
    changed = np.flatnonzero(rise)
    counts = np.abs(rise[changed])
    opens = rise[changed] > 0
    lengths = _concatenated_ranges(np.minimum(shared[changed], shared[changed + 1]) + 1, counts)
    at = np.repeat(np.where(opens, changed, changed + 1), counts)
    codes = np.sort(2 * (lengths * (rows + 1) + at) + np.repeat(opens, counts))
    return np.concatenate(([0], codes))


def rank_key_bytes(keys: np.ndarray) -> np.ndarray:
    """Big-endian rank-key bytes of sorted key rows: ``(n, key_length * 8)`` uint8.

    The byte layout matches the void-dtype rank keys a :class:`_PrefixTree`
    materialises internally, so a tree state exported together with these
    bytes can be re-imported without recomputing the ranks — the shared-memory
    snapshot layer (:mod:`repro.core.shared`) stores them next to the key
    arrays and workers adopt both as views.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 2:
        raise ValueError(f"expected a 2D key array, got shape {keys.shape}")
    rows, key_length = keys.shape
    return np.ascontiguousarray(keys.astype(">u8")).view(np.uint8).reshape(
        rows, key_length * 8
    )


class _PrefixTree:
    """One tree of the forest: keys in a sorted column-major NumPy array.

    ``_keys`` (``(n, key_length)`` uint64) and ``_items`` (``int32`` ids of
    ``ids``) are parallel and ordered by ``_ranks``, the precomputed
    lexicographic rank keys.  ``_alive`` marks tombstoned rows;
    ``_pending`` buffers inserts until the next query forces a merge;
    ``_row_of`` maps an id to its live row (-1 for none; ids past its end
    have none).
    """

    def __init__(self, key_length: int, ids: ItemIds) -> None:
        self.key_length = key_length
        self._ids = ids
        self._rank_dtype = np.dtype((np.void, key_length * 8))
        self._keys = np.empty((0, key_length), dtype=np.uint64)
        self._ranks = np.empty(0, dtype=self._rank_dtype)
        self._items = _NO_IDS
        self._alive = np.empty(0, dtype=bool)
        self._dead = 0
        self._pending: List[Tuple[np.ndarray, int]] = []
        self._row_of = _NO_IDS

    def __len__(self) -> int:
        return len(self._items) - self._dead + len(self._pending)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, key: np.ndarray, item: int) -> None:
        self._pending.append((np.ascontiguousarray(key, dtype=np.uint64), item))

    def remove(self, item: int) -> None:
        self.remove_batch([item])

    def remove_batch(self, items: Sequence[int]) -> None:
        """Tombstone many items with one compaction check at the end.

        Same final state as calling :meth:`remove` per item — the rebuild
        is a pure function of the surviving ``(key, item)`` set — but a
        burst of removals can no longer trigger a cascade of mid-burst
        compaction rebuilds.
        """
        for item in items:
            row = int(self._row_of[item]) if item < self._row_of.shape[0] else -1
            if row >= 0:
                self._row_of[item] = -1
                self._alive[row] = False
                self._dead += 1
                continue
            for index, (_, pending_item) in enumerate(self._pending):
                if pending_item == item:
                    del self._pending[index]
                    break
        if (
            self._dead > _MIN_TOMBSTONES_BEFORE_COMPACTION
            and self._dead * 2 > len(self._items)
        ):
            self._rebuild()

    def _rank_keys(self, keys: np.ndarray) -> np.ndarray:
        """Big-endian byte views of key rows; compare lexicographically."""
        return np.ascontiguousarray(keys.astype(">u8")).view(self._rank_dtype).ravel()

    def _rebuild(self) -> None:
        """Merge pending inserts, drop tombstones, restore sorted order.

        The pending buffer empties only once the new state is in place:
        readers skip the flush lock when it is empty (:meth:`_ensure_flushed`).
        """
        keep = np.flatnonzero(self._alive)
        keys = self._keys[keep]
        items = self._items[keep]
        if self._pending:
            pending_keys = np.vstack([key for key, _ in self._pending])
            keys = np.vstack([keys, pending_keys]) if keys.size else pending_keys
            items = np.concatenate(
                (items, np.array([item for _, item in self._pending], dtype=np.int32))
            )
        ranks = self._rank_keys(keys)
        order = np.argsort(ranks, kind="stable")
        # Canonical tie order: rows sharing a key are ordered by their item
        # (the item's rank in the id registry).  This makes the layout a
        # pure function of the (key, item) set — a mutated tree compacts to
        # exactly the state a from-scratch build of the surviving items
        # produces, so stop-at-k candidate truncation stays identical across
        # remove/re-add histories (the rebuild determinism the
        # incremental-mutation oracle relies on).
        sorted_ranks = ranks[order]
        runs = np.concatenate(([True], sorted_ranks[1:] != sorted_ranks[:-1]))
        if not runs.all():
            order = order[np.lexsort((self._ids.ranks()[items[order]], np.cumsum(runs)))]
        self._keys = np.ascontiguousarray(keys[order])
        self._ranks = ranks[order]
        self._items = items[order]
        self._alive = np.ones(self._items.shape[0], dtype=bool)
        self._dead = 0
        self._index_rows()
        self._pending = []

    def _index_rows(self) -> None:
        """Rebuild the id -> row registry from ``_items``."""
        self._row_of = np.full(len(self._ids), -1, dtype=np.int32)
        self._row_of[self._items] = np.arange(self._items.shape[0], dtype=np.int32)

    def _ensure_flushed(self) -> None:
        if self._pending:
            with _FLUSH_LOCK:
                if self._pending:
                    self._rebuild()

    def compact(self) -> None:
        """Merge pending inserts and drop tombstones (sorted state, no dead rows)."""
        if self._pending or self._dead:
            with _FLUSH_LOCK:
                if self._pending or self._dead:
                    self._rebuild()

    def state(self) -> _TreeState:
        """The arrays a descent reads, after merging pending inserts."""
        self._ensure_flushed()
        return _TreeState(self._keys, self._ranks, self._items, self._alive if self._dead else None)

    def export_state(self, copy: bool = True) -> Tuple[np.ndarray, List[Hashable]]:
        """``(keys, items)`` of the compacted tree, in sorted key order.

        ``copy=False`` returns the live key array instead of a copy — for
        callers that only read it once into another buffer (the shared-memory
        snapshot writer); the array must not be mutated.
        """
        self.compact()
        items = self._ids.items
        return (
            self._keys.copy() if copy else self._keys,
            [items[item] for item in self._items.tolist()],
        )

    def import_state(
        self,
        keys: np.ndarray,
        items: List[Hashable],
        ranks: Optional[np.ndarray] = None,
    ) -> None:
        """Restore a state produced by :meth:`export_state` (replaces contents).

        ``keys`` must already be in lexicographic order (as exported).  When
        ``ranks`` (the :func:`rank_key_bytes` of the keys) is provided it is
        adopted as a view; otherwise the rank keys are re-materialised, which
        is a cheap vectorized byte conversion rather than a re-sort.  Both
        paths preserve array views: a contiguous ``keys`` array of the right
        dtype — e.g. a read-only view over a shared-memory segment — is
        adopted without copying.  Each item gets its registry id.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.ndim != 2 or keys.shape != (len(items), self.key_length):
            raise ValueError(
                f"inconsistent prefix-tree state: keys {keys.shape}, {len(items)} items"
            )
        self._keys = keys
        if ranks is None:
            self._ranks = self._rank_keys(keys)
        else:
            ranks = np.ascontiguousarray(ranks, dtype=np.uint8)
            if ranks.shape != (len(items), self.key_length * 8):
                raise ValueError(
                    f"inconsistent prefix-tree rank state: ranks {ranks.shape}, "
                    f"{len(items)} items of key length {self.key_length}"
                )
            self._ranks = ranks.view(self._rank_dtype).reshape(len(items))
        self._items = np.fromiter(map(self._ids.assign, items), dtype=np.int32, count=len(items))
        self._alive = np.ones(len(items), dtype=bool)
        self._dead = 0
        self._pending = []
        self._index_rows()

    def estimated_bytes(self) -> int:
        """Approximate footprint: keys, rank keys, item ids and the row registry."""
        pending = len(self._pending) * (self.key_length * 8 + 8)
        return int(
            self._keys.nbytes + self._ranks.nbytes + self._items.nbytes
            + self._row_of.nbytes + pending
        )


class LSHForest:
    """Top-k index over signature arrays.

    ``num_hashes`` positions of each signature are split across ``num_trees``
    trees, each using ``num_hashes // num_trees`` positions as its key.
    Items are stored under their ids in ``ids`` (a registry of its own
    unless the caller shares one), so every item must be hashable and
    comparable with the others.
    """

    def __init__(
        self,
        num_hashes: int = 256,
        num_trees: int = 8,
        seed: int = 11,
        ids: Optional[ItemIds] = None,
    ) -> None:
        if num_trees <= 0 or num_hashes <= 0:
            raise ValueError("num_hashes and num_trees must be positive")
        if num_hashes < num_trees:
            raise ValueError("num_hashes must be at least num_trees")
        self.num_hashes = num_hashes
        self.num_trees = num_trees
        self.key_length = num_hashes // num_trees
        #: Steps of a descent; also the step of an item no walk reaches.
        self.step_count = self.key_length * num_trees
        self.seed = seed
        self.ids = ItemIds() if ids is None else ids
        self._trees = [_PrefixTree(self.key_length, self.ids) for _ in range(num_trees)]
        self._signatures: Dict[Hashable, np.ndarray] = {}
        self._joined: Optional[_Joined] = None

    def __len__(self) -> int:
        return len(self._signatures)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._signatures

    def _tree_keys(self, signature: np.ndarray) -> np.ndarray:
        """Per-tree key rows: shape ``(num_trees, key_length)`` uint64."""
        used = signature[: self.num_trees * self.key_length]
        return np.ascontiguousarray(
            used.astype(np.uint64, copy=False).reshape(self.num_trees, self.key_length)
        )

    def insert(self, key: Hashable, signature: np.ndarray) -> None:
        """Insert (or replace) an item keyed by ``key``."""
        signature = np.asarray(signature)
        if signature.shape[0] < self.num_hashes:
            raise ValueError(
                f"signature of length {signature.shape[0]} is shorter than num_hashes={self.num_hashes}"
            )
        if key in self._signatures:
            self.remove(key)
        self._signatures[key] = signature
        item = self.ids.assign(key)
        tree_keys = self._tree_keys(signature)
        for tree_index, tree in enumerate(self._trees):
            tree.insert(tree_keys[tree_index], item)

    def remove(self, key: Hashable) -> None:
        """Remove ``key`` (no-op when absent)."""
        if key not in self._signatures:
            return
        del self._signatures[key]
        item = self.ids.find(key)
        for tree in self._trees:
            tree.remove(item)

    def remove_batch(self, keys: Sequence[Hashable]) -> None:
        """Remove many keys with one tombstone pass per tree (absent: no-op).

        State-equivalent to per-key :meth:`remove` calls; each tree checks
        its compaction threshold once after the whole batch instead of
        after every removal.
        """
        present = [key for key in keys if key in self._signatures]
        if not present:
            return
        for key in present:
            del self._signatures[key]
        items = [self.ids.find(key) for key in present]
        for tree in self._trees:
            tree.remove_batch(items)

    def signature(self, key: Hashable) -> np.ndarray:
        """Stored signature for ``key``."""
        return self._signatures[key]

    def query(
        self,
        signature: np.ndarray,
        k: int,
        exclude: Optional[Hashable] = None,
    ) -> List[Hashable]:
        """Return up to ``k`` candidate keys, most-specific prefixes first.

        Candidates are collected by descending prefix length; within a prefix
        length tree by tree, each tree's rows in key order.  The descent
        stops as soon as ``k`` candidates have been collected — mid-level,
        without scanning the remaining trees.  The caller is expected to
        re-rank candidates by estimated distance (as D3L does).
        """
        excluded = None if exclude is None else self.ids.find(exclude)
        items = self.ids.items
        return [items[item] for item in self._descend([signature], k, excluded)[0].tolist()]

    def query_all(self, signature: np.ndarray, exclude: Optional[Hashable] = None) -> List[Hashable]:
        """Return every key sharing at least the length-1 prefix in some tree."""
        return self.query(signature, k=len(self._signatures) + 1, exclude=exclude)

    def multi_query(
        self,
        signatures: Sequence[Optional[np.ndarray]],
        k: int,
        walks: bool = False,
    ) -> List:
        """:meth:`query` for many signatures through one batched descent.

        Entry ``i`` is the ``int32`` array of the ids (in :attr:`ids`) of
        ``query(signatures[i], k)``, element for element; ``None``
        signatures yield empty arrays.  ``walks=True`` returns each query's
        :class:`Walk` instead: every item through the step that reached
        ``k``, with its step (see "Walk order" in the module docstring).
        """
        return [
            found
            for start in range(0, len(signatures), _DESCENT_BLOCK)
            for found in self._descend(
                signatures[start : start + _DESCENT_BLOCK], k, walks=walks
            )
        ]

    def _descend(
        self,
        signatures: Sequence[Optional[np.ndarray]],
        k: int,
        exclude: Optional[int] = None,
        walks: bool = False,
    ) -> List:
        """The descent behind every query method (see the module docstring).

        Per query, the ``int32`` ids of its answer, or with ``walks`` its
        :class:`Walk`; ``exclude`` is an id to leave out.
        """
        results: List = [Walk(_NO_IDS, _NO_IDS) if walks else _NO_IDS for _ in signatures]
        populated = [
            index for index, signature in enumerate(signatures) if signature is not None
        ]
        if k <= 0 or not populated or not self._signatures:
            return results
        used = self.num_trees * self.key_length
        # (queries, trees, key_length): tree t keys on signature slice t.
        keys = np.array(
            [np.asarray(signatures[index])[:used] for index in populated], dtype=np.uint64
        ).reshape(len(populated), self.num_trees, self.key_length)
        trees = [tree.state() for tree in self._trees]
        joined = self._joined_tables(trees)
        low, high = self._step_ranges(trees, joined, keys.transpose(1, 0, 2))
        for index, found in zip(
            populated, self._walk(trees, joined, low, high, k, exclude, walks)
        ):
            results[index] = found
        return results

    def _joined_tables(self, trees: List[_TreeState]) -> _Joined:
        """The trees' :class:`_Joined` tables, derived again after a merge,
        compaction or import."""
        joined = self._joined
        if joined is None or any(
            source is not tree.items for source, tree in zip(joined.sources, trees)
        ):
            sizes = np.array([tree.items.shape[0] for tree in trees])
            spans = 2 * (self.key_length + 1) * (sizes + 1)
            offsets = np.cumsum(spans) - spans
            blocks = np.concatenate(
                [_block_table(tree.keys) + offset for tree, offset in zip(trees, offsets.tolist())]
            )
            joined = self._joined = _Joined(
                tuple(tree.items for tree in trees),
                blocks.astype(np.int32 if spans.sum() < 2**31 else np.int64),
                offsets,
                np.concatenate([tree.items for tree in trees]),
                np.cumsum(sizes) - sizes,
            )
        return joined

    def _step_ranges(
        self, trees: List[_TreeState], joined: _Joined, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row range ``[low, high)`` of every (tree, query, prefix length).

        ``keys`` are the queries' keys per tree, ``(num_trees, queries,
        key_length)``; ``low`` and ``high`` have that shape too, prefix
        lengths longest first.
        """
        num_trees, count, key_length = keys.shape
        lengths = np.arange(key_length, 0, -1)
        sizes = np.array([tree.keys.shape[0] for tree in trees])[:, np.newaxis, np.newaxis]
        ranks = np.ascontiguousarray(keys, dtype=">u8").view(self._trees[0]._rank_dtype)
        # Where each whole key sorts (``at``), and the rows either side of
        # it, clamped into the tree.
        at = np.empty((num_trees, 2, count), dtype=np.int64)
        for index, tree in enumerate(trees):
            at[index, 1] = tree.ranks.searchsorted(ranks[index, :, 0])
        np.subtract(at[:, 1], 1, out=at[:, 0])
        near = np.minimum(np.maximum(at, 0), sizes - 1)
        rows = np.empty(near.shape + (key_length,), dtype=np.uint64)
        for index, tree in enumerate(trees):
            if sizes[index]:
                tree.keys.take(near[index], axis=0, out=rows[index])
            else:
                rows[index] = ~keys[index]
        equal = rows == keys[:, np.newaxis]
        shared = np.where(equal.all(axis=3), key_length, equal.argmin(axis=3))
        # A prefix longer than either neighbour shares with the query
        # matches no row: [at, at).  Rows sharing a prefix with the query
        # share it with each other, so a shorter prefix matches the run
        # holding the neighbour sharing more (the anchor): the anchor's
        # block at that length, else the anchor alone.
        anchor = np.where(shared[:, 1] >= shared[:, 0], near[:, 1], near[:, 0])[..., np.newaxis]
        base = lengths * (sizes + 1)
        codes = base + anchor
        codes *= 2
        codes += joined.block_offsets[:, np.newaxis, np.newaxis] + 1
        found = np.empty((2,) + codes.shape, dtype=np.int64)
        found[1] = joined.blocks.searchsorted(codes.astype(joined.blocks.dtype), side="right")
        np.subtract(found[1], 1, out=found[0])
        # The entry before a code opens the anchor's block, and the next one
        # closes it.
        found = joined.blocks.take(found, mode="clip") - joined.block_offsets[:, np.newaxis, np.newaxis]
        block = found[0] & 1
        found >>= 1
        found -= base
        matched = lengths <= shared.max(axis=1)[..., np.newaxis]
        at = at[:, 1, :, np.newaxis]
        low = np.where(matched, np.where(block, found[0], anchor), at)
        high = np.where(matched, np.where(block, found[1], anchor + 1), at)
        return low, high

    def _walk(
        self,
        trees: List[_TreeState],
        joined: _Joined,
        low: np.ndarray,
        high: np.ndarray,
        k: int,
        exclude: Optional[int],
        walks: bool,
    ) -> List:
        """Each query's answer (its :class:`Walk` with ``walks``) from the
        ranges of :meth:`_step_ranges`."""
        num_trees, count, key_length = low.shape
        steps = self.step_count
        # A step newly exposes its range minus the range one level deeper,
        # which it contains (empty at the full key length): rows
        # [low, inner_low), then [inner_high, high) — two runs per step.
        starts = np.empty((num_trees, count, key_length, 2), dtype=np.int64)
        starts[..., 0] = low
        starts[..., 0, 1] = low[..., 0]
        starts[..., 1:, 1] = high[..., :-1]
        runs = np.empty_like(starts)
        runs[..., 0, 0] = 0
        np.subtract(low[..., :-1], low[..., 1:], out=runs[..., 1:, 0])
        np.subtract(high, starts[..., 1], out=runs[..., 1])
        # The non-empty runs, with their rows in the joined item ids.
        cells = runs.ravel().nonzero()[0]
        run_rows = runs.ravel()[cells]
        tree_queries, halves = np.divmod(cells, key_length * 2)
        run_trees, run_queries = np.divmod(tree_queries, count)
        run_starts = starts.ravel()[cells] + joined.row_offsets[run_trees]
        run_steps = (halves >> 1) * num_trees + run_trees
        alive = None
        if any(tree.alive is not None for tree in trees):
            alive = np.concatenate([
                np.ones(tree.items.shape[0], dtype=bool) if tree.alive is None else tree.alive
                for tree in trees
            ])
        width = len(self.ids)
        span = joined.items.shape[0] + 1
        # No query holds more than ``width`` ids, so a larger k answers alike.
        k = min(k, width + 1)
        # A tree's rows hold distinct ids, so a query has k of them by the
        # first step at which one tree has reached k rows — unless some are
        # dead or excluded: then it walks again, needing twice as many.
        widths = high - low
        trees_column = np.arange(num_trees)[:, np.newaxis]
        # The step of each query's last run.
        final = np.full(count, -1)
        np.maximum.at(final, run_queries, run_steps)
        needed = np.full(count, k)
        results: List = [None] * count
        walking = np.ones(count, dtype=bool)
        while walking.any():
            reach = (widths < needed[:, np.newaxis]).sum(axis=2) * num_trees + trees_column
            last = np.minimum(reach.min(axis=0), steps - 1)
            exhausted = last >= final
            chosen = (run_steps <= np.where(walking, last, -1)[run_queries]).nonzero()[0]
            lengths = run_rows[chosen]
            rows = _concatenated_ranges(run_starts[chosen], lengths)
            ids = joined.items.take(rows)
            # Sort keys: (query, id, step) finds each id's first step,
            # (query, step, row) is walk order.
            query_steps = run_queries[chosen] * steps + run_steps[chosen]
            pairs = ids * np.int64(steps)
            pairs += (query_steps + run_queries[chosen] * ((width - 1) * steps)).repeat(lengths)
            order = (query_steps * span).repeat(lengths)
            order += rows
            live = None if alive is None else alive.take(rows)
            if exclude is not None:
                live = (ids != exclude) if live is None else live & (ids != exclude)
            if live is not None:
                pairs, order = pairs[live], order[live]
            ranked = pairs.argsort()
            pair = pairs[ranked] // steps
            first = np.empty(pair.shape[0], dtype=bool)
            first[:1] = True
            np.not_equal(pair[1:], pair[:-1], out=first[1:])
            first = ranked[first]
            query_of, pairs = np.divmod(pairs[first[order[first].argsort()]], width * steps)
            ids, step_of = np.divmod(pairs, steps)
            ids, step_of = ids.astype(np.int32), step_of.astype(np.int32)
            found = np.bincount(query_of, minlength=count)
            offsets = found.cumsum() - found
            enough = found >= k
            if walks:
                # Through the step of each query's k-th id.
                cut = np.full(count, steps)
                cut[enough] = step_of[offsets[enough] + k - 1]
                stops = (query_of * (steps + 1) + step_of).searchsorted(
                    np.arange(count) * (steps + 1) + cut, side="right"
                )
            else:
                stops = offsets + np.minimum(found, k)
            done = walking & (enough | exhausted)
            for query in done.nonzero()[0].tolist():
                part = slice(offsets[query], stops[query])
                results[query] = Walk(ids[part], step_of[part]) if walks else ids[part]
            walking &= ~done
            needed *= 2
        return results

    # ------------------------------------------------------------------ #
    # walk order (see the module docstring)
    # ------------------------------------------------------------------ #
    def walk_keys(self, signatures: Sequence[np.ndarray]) -> np.ndarray:
        """Tree keys of many query signatures: ``(queries, num_trees, key_length)``."""
        used = self.num_trees * self.key_length
        keys = np.empty((len(signatures), self.num_trees, self.key_length), dtype=np.uint64)
        for row, signature in enumerate(signatures):
            keys[row] = np.asarray(signature)[:used].reshape(self.num_trees, self.key_length)
        return keys

    def walk_steps(self, keys: np.ndarray, signatures: Sequence[np.ndarray]) -> np.ndarray:
        """The step at which each query's walk reaches each signature's item.

        ``keys`` are :meth:`walk_keys` of the queries.  Entry ``[q, i]`` of
        the ``(queries, items)`` ``int32`` result is
        ``(key_length - p) * num_trees + t`` for the longest prefix ``p``
        item ``i`` shares with query ``q`` in any tree and the first tree
        ``t`` sharing it, or :attr:`step_count` when it shares none — one
        vectorized prefix comparison for every (query, item, tree).
        """
        items = self.walk_keys(signatures)
        equal = keys[:, np.newaxis] == items[np.newaxis]
        # Shared prefix length: the first differing position, or all of it.
        shared = np.where(equal.all(axis=3), self.key_length, equal.argmin(axis=3))
        longest = shared.max(axis=2)
        first_tree = (shared == longest[..., np.newaxis]).argmax(axis=2)
        steps = (self.key_length - longest) * self.num_trees + first_tree
        steps[longest == 0] = self.step_count
        return steps.astype(np.int32)

    def step_order(self, step: int) -> Callable[[Hashable], int]:
        """Sort key of the live items a walk reaches at ``step``.

        A step's items come in its tree's row order — key, then item — so
        the key is the item's current row there.  Rows shift when the tree
        merges or compacts, but never reorder, so keys compare only within
        one call's result.
        """
        tree = self._trees[step % self.num_trees]
        tree._ensure_flushed()
        row_of, find = tree._row_of, self.ids.find
        return lambda item: int(row_of[find(item)])

    def edit_walks(
        self,
        walks: np.ndarray,
        entries: np.ndarray,
        steps: np.ndarray,
        count: int,
        gone: np.ndarray,
        arrived: np.ndarray,
        reached: np.ndarray,
        k: int,
        item_of: Callable[[int], Hashable],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Bring ``count`` kept walks up to date after items came and went.

        The walks arrive flattened: entry ``e`` (an integer code that
        ``item_of`` maps to its item) belongs to walk ``walks[e]`` and was
        reached at ``steps[e]``, walks in order and each in walk order, as
        ``multi_query(..., walks=True)`` kept them.  ``gone`` marks the
        entries whose items left the forest; ``arrived`` are the codes of
        items inserted since, and ``reached[w, i]`` the step at which walk
        ``w`` reaches arrival ``i`` (:meth:`walk_steps`).

        A kept walk holds every item through the step that reached ``k``
        (every reachable item when it ran out first), so an arrival joins a
        walk when it is reached by that step, in walk order; then each walk
        is cut after the step of its ``k``-th item.  That equals the walk a
        new descent keeps, except for a walk that had stopped early and now
        holds fewer than ``k`` items: the items past its stop are unknown.
        Returns the edited ``(walks, entries, steps)``, the input index of
        each kept entry (-1 for an arrival) and, per walk, whether it must
        walk again (its entries are dropped).
        """
        last_step = self.step_count - 1
        lengths = np.bincount(walks, minlength=count)
        ends = np.cumsum(lengths)
        stops = np.full(count, last_step, dtype=np.int64)
        full = lengths >= k
        stops[full] = steps[ends[full] - 1]
        came_walks, came = np.nonzero(reached <= stops[:, np.newaxis])
        came_steps = reached[came_walks, came]
        came_entries = arrived[came]
        origin = np.flatnonzero(~gone)
        walks, entries, steps = walks[origin], entries[origin], steps[origin]
        # Place each arrival after the kept entries before it in walk order.
        # Within a step that is the step tree's row order, looked up only
        # where an arrival meets kept entries or other arrivals of its step.
        span = np.int64(self.step_count + 1)
        kept_keys = walks * span + steps
        came_keys = came_walks * span + came_steps
        low = np.searchsorted(kept_keys, came_keys, side="left")
        high = np.searchsorted(kept_keys, came_keys, side="right")
        repeated = np.sort(came_keys)
        repeated = repeated[1:][repeated[1:] == repeated[:-1]]
        ranks = np.zeros(len(came_keys), dtype=np.int64)
        for index in np.flatnonzero((low < high) | np.isin(came_keys, repeated)).tolist():
            order = self.step_order(int(came_steps[index]))
            rank = ranks[index] = order(item_of(int(came_entries[index])))
            start, stop = int(low[index]), int(high[index])
            while start < stop:
                middle = (start + stop) // 2
                if order(item_of(int(entries[middle]))) < rank:
                    start = middle + 1
                else:
                    stop = middle
            low[index] = start
        # Arrivals sharing an insertion point — the end of one walk is the
        # start of the next — go by walk, then in walk order.
        order = np.lexsort((ranks, came_keys, low))
        at = low[order]
        walks = np.insert(walks, at, came_walks[order])
        entries = np.insert(entries, at, came_entries[order])
        steps = np.insert(steps, at, came_steps[order])
        origin = np.insert(origin, at, -1)
        lengths = np.bincount(walks, minlength=count)
        full = lengths >= k
        rewalk = ~full & (stops < last_step)
        # Cut each full walk after the step of its k-th item.
        cut = np.full(count, last_step, dtype=np.int64)
        cut[full] = steps[(np.cumsum(lengths) - lengths)[full] + k - 1]
        keep = (steps <= cut[walks]) & ~rewalk[walks]
        return walks[keep], entries[keep], steps[keep], origin[keep], rewalk

    def walk_order(self, signature: np.ndarray) -> List[Hashable]:
        """Every live item a walk from ``signature`` reaches, in walk order.

        ``walk_order(signature)[:k] == query(signature, k)``: the order the
        module docstring describes, spelled out over the whole forest.
        """
        items = self.keys()
        if not items:
            return []
        steps = self.walk_steps(
            self.walk_keys([signature]), [self._signatures[item] for item in items]
        )[0].tolist()
        # Step t < num_trees is tree t's first step: one order per tree.
        orders = [self.step_order(tree) for tree in range(self.num_trees)]
        reached = [
            (step, orders[step % self.num_trees](item), position)
            for position, (step, item) in enumerate(zip(steps, items))
            if step < self.step_count
        ]
        reached.sort()
        return [items[position] for _, _, position in reached]

    def keys(self) -> List[Hashable]:
        """All inserted keys."""
        return list(self._signatures)

    def export_state(self, copy: bool = True) -> Dict[str, object]:
        """Raw-array state of the forest, suitable for persistence.

        Per-item signatures are deliberately *not* included: every D3L forest
        shares them with the evidence type's signature matrix, so the caller
        persists them once and passes them back to :meth:`import_state`.
        ``copy=False`` exposes the live key arrays (read-once callers only).
        """
        trees = []
        for tree in self._trees:
            keys, items = tree.export_state(copy=copy)
            trees.append({"keys": keys, "items": items})
        return {
            "num_hashes": self.num_hashes,
            "num_trees": self.num_trees,
            "seed": self.seed,
            "trees": trees,
        }

    def import_state(
        self, state: Dict[str, object], signatures: Dict[Hashable, np.ndarray]
    ) -> None:
        """Restore a state produced by :meth:`export_state` (replaces contents)."""
        if (
            state.get("num_hashes") != self.num_hashes
            or state.get("num_trees") != self.num_trees
        ):
            raise ValueError(
                "forest state was exported with a different (num_hashes, num_trees) "
                f"configuration: {state.get('num_hashes')}, {state.get('num_trees')}"
            )
        trees = state["trees"]
        if len(trees) != self.num_trees:
            raise ValueError(f"expected {self.num_trees} tree states, got {len(trees)}")
        self._signatures = dict(signatures)
        for tree, tree_state in zip(self._trees, trees):
            tree.import_state(
                tree_state["keys"], tree_state["items"], tree_state.get("ranks")
            )

    def estimated_bytes(self) -> int:
        """Approximate memory footprint (signatures, tree entries and the
        joined tables)."""
        signature_bytes = sum(sig.nbytes for sig in self._signatures.values())
        tree_bytes = sum(tree.estimated_bytes() for tree in self._trees)
        joined = self._joined
        joined_bytes = 0 if joined is None else joined.blocks.nbytes + joined.items.nbytes
        return int(signature_bytes + tree_bytes + joined_bytes)
