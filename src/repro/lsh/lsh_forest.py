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
  with a parallel item list, kept in lexicographic order;
* the lexicographic order is materialised once per (re)build as a 1D array of
  big-endian byte *rank keys* (a NumPy void dtype of ``key_length * 8``
  bytes), so a prefix range is two O(log n) ``np.searchsorted`` lookups
  instead of the seed implementation's O(n) rebuild of a Python key list on
  every call;
* inserts are buffered and merged with one stable vectorized sort on the
  next query (amortised O(log n) per insert for the usual build-then-query
  workload);
* removals are O(1) tombstones; the tree compacts — dropping dead rows and
  rebuilding the rank keys — once more than half of its rows are dead, so
  remove costs O(log n) amortised and queries never scan dead entries
  outside a compaction cycle.

One descent serves :meth:`LSHForest.query`, :meth:`~LSHForest.query_all`
and :meth:`~LSHForest.multi_query`.  Per tree, one ``searchsorted`` pair
finds the row range of every prefix length of every query at once.  Because
the range of a shorter prefix always contains the longer-prefix range, the
rows a (prefix length, tree) step newly exposes are the difference of two
nested ranges; their counts come out as one array, and Python walks only the
non-empty steps of each query until it holds ``k`` distinct items — so a
batch returns, element for element, what one-query descents return.

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
from functools import lru_cache
from itertools import islice
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

#: Fill value for the upper bound of a prefix range.  Signature values are at
#: most 32 bits, so the all-ones 64-bit pattern is strictly larger than any
#: real key suffix.
_KEY_MAX = np.uint64(np.iinfo(np.uint64).max)

#: A tree compacts when it holds more than this many tombstones *and* they
#: outnumber the live rows.
_MIN_TOMBSTONES_BEFORE_COMPACTION = 16

#: ``multi_query`` descends this many queries at a time, so the prefix
#: bounds it materialises (``block * key_length**2`` keys per tree) stay
#: small however many queries a batch holds.
_DESCENT_BLOCK = 64


class Walk(NamedTuple):
    """One query's walk, kept through the step at which it reached ``k``.

    ``items`` are every item the walk collected, in walk order — at least
    ``k`` of them unless the walk ran out — and ``steps`` (``int32``) the
    step at which each was first reached.  The query's answer is
    ``items[:k]``.
    """

    items: List[Hashable]
    steps: np.ndarray


@lru_cache(maxsize=None)
def _prefix_mask(key_length: int) -> np.ndarray:
    """Row ``p - 1`` is True on the first ``p`` positions (prefix selector)."""
    mask = np.tril(np.ones((key_length, key_length), dtype=bool))
    mask.setflags(write=False)
    return mask


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

    ``_keys`` (``(n, key_length)`` uint64) and ``_items`` are parallel and
    ordered by ``_ranks``, the precomputed lexicographic rank keys.
    ``_alive`` marks tombstoned rows; ``_pending`` buffers inserts until the
    next query forces a merge.
    """

    def __init__(self, key_length: int) -> None:
        self.key_length = key_length
        self._rank_dtype = np.dtype((np.void, key_length * 8))
        self._keys = np.empty((0, key_length), dtype=np.uint64)
        self._ranks = np.empty(0, dtype=self._rank_dtype)
        self._items: List[Hashable] = []
        self._alive = np.empty(0, dtype=bool)
        self._dead = 0
        self._pending: List[Tuple[np.ndarray, Hashable]] = []
        self._row_of: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._items) - self._dead + len(self._pending)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def insert(self, key: np.ndarray, item: Hashable) -> None:
        self._pending.append((np.ascontiguousarray(key, dtype=np.uint64), item))

    def remove(self, item: Hashable) -> None:
        row = self._row_of.pop(item, None)
        if row is not None:
            self._alive[row] = False
            self._dead += 1
            if (
                self._dead > _MIN_TOMBSTONES_BEFORE_COMPACTION
                and self._dead * 2 > len(self._items)
            ):
                self._rebuild()
            return
        for index, (_, pending_item) in enumerate(self._pending):
            if pending_item == item:
                del self._pending[index]
                return

    def remove_batch(self, items: Sequence[Hashable]) -> None:
        """Tombstone many items with one compaction check at the end.

        Same final state as calling :meth:`remove` per item — the rebuild
        is a pure function of the surviving ``(key, item)`` set — but a
        burst of removals can no longer trigger a cascade of mid-burst
        compaction rebuilds.
        """
        for item in items:
            row = self._row_of.pop(item, None)
            if row is not None:
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
        items = [self._items[row] for row in keep]
        if self._pending:
            pending_keys = np.vstack([key for key, _ in self._pending])
            keys = np.vstack([keys, pending_keys]) if keys.size else pending_keys
            items.extend(item for _, item in self._pending)
        if not items:
            self._keys = np.empty((0, self.key_length), dtype=np.uint64)
            self._ranks = np.empty(0, dtype=self._rank_dtype)
            self._items = []
            self._alive = np.empty(0, dtype=bool)
            self._dead = 0
            self._row_of = {}
            self._pending = []
            return
        ranks = self._rank_keys(keys)
        order = np.argsort(ranks, kind="stable")
        # Canonical tie order: rows sharing a key are ordered by their item.
        # This makes the layout a pure function of the (key, item) set — a
        # mutated tree compacts to exactly the state a from-scratch build of
        # the surviving items produces, so stop-at-k candidate truncation
        # stays identical across remove/re-add histories (the rebuild
        # determinism the incremental-mutation oracle relies on).  Only runs
        # of genuinely equal keys pay for a Python-level sort.
        sorted_ranks = ranks[order]
        if sorted_ranks.shape[0] > 1:
            run_starts = np.flatnonzero(
                np.concatenate(([True], sorted_ranks[1:] != sorted_ranks[:-1]))
            )
            if run_starts.shape[0] < sorted_ranks.shape[0]:
                run_ends = np.concatenate((run_starts[1:], [sorted_ranks.shape[0]]))
                for start, end in zip(run_starts.tolist(), run_ends.tolist()):
                    if end - start > 1:
                        order[start:end] = sorted(
                            order[start:end].tolist(), key=items.__getitem__
                        )
        self._keys = np.ascontiguousarray(keys[order])
        self._ranks = ranks[order]
        self._items = [items[row] for row in order]
        self._alive = np.ones(len(self._items), dtype=bool)
        self._dead = 0
        self._row_of = {item: row for row, item in enumerate(self._items)}
        self._pending = []

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

    def export_state(self, copy: bool = True) -> Tuple[np.ndarray, List[Hashable]]:
        """``(keys, items)`` of the compacted tree, in sorted key order.

        ``copy=False`` returns the live key array instead of a copy — for
        callers that only read it once into another buffer (the shared-memory
        snapshot writer); the array must not be mutated.
        """
        self.compact()
        return (self._keys.copy() if copy else self._keys), list(self._items)

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
        adopted without copying.
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
        self._items = list(items)
        self._alive = np.ones(len(self._items), dtype=bool)
        self._dead = 0
        self._pending = []
        self._row_of = {item: row for row, item in enumerate(self._items)}

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def prefix_ranges(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row ranges of every prefix length of many query keys.

        ``keys`` is ``(queries, key_length)``; entry ``[q, p - 1]`` of each
        returned ``(queries, key_length)`` array bounds the ``[low, high)``
        rows matching the length-``p`` prefix of query ``q``.  One
        ``searchsorted`` over all lower bounds and one over all upper bounds
        replace ``2 * key_length`` scalar searches per query.
        """
        self._ensure_flushed()
        mask = _prefix_mask(self.key_length)
        lows = np.where(mask, keys[:, np.newaxis, :], np.uint64(0))
        highs = np.where(mask, keys[:, np.newaxis, :], _KEY_MAX)
        flat = (-1, self.key_length)
        low = np.searchsorted(self._ranks, self._rank_keys(lows.reshape(flat)), side="left")
        high = np.searchsorted(self._ranks, self._rank_keys(highs.reshape(flat)), side="right")
        return low.reshape(keys.shape), high.reshape(keys.shape)

    def items_between(self, low: int, high: int) -> List[Hashable]:
        """Live items in rows ``[low, high)``, in key order."""
        if low >= high:
            return []
        if self._dead:
            rows = np.flatnonzero(self._alive[low:high])
            return [self._items[low + int(row)] for row in rows]
        return self._items[low:high]

    def estimated_bytes(self) -> int:
        """Approximate footprint: keys, rank keys, and item references."""
        pending = len(self._pending) * (self.key_length * 8 + 8)
        return int(self._keys.nbytes + self._ranks.nbytes + 8 * len(self._items) + pending)


class LSHForest:
    """Top-k index over signature arrays.

    ``num_hashes`` positions of each signature are split across ``num_trees``
    trees, each using ``num_hashes // num_trees`` positions as its key.
    """

    def __init__(self, num_hashes: int = 256, num_trees: int = 8, seed: int = 11) -> None:
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
        self._trees = [_PrefixTree(self.key_length) for _ in range(num_trees)]
        self._signatures: Dict[Hashable, np.ndarray] = {}

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
        tree_keys = self._tree_keys(signature)
        for tree_index, tree in enumerate(self._trees):
            tree.insert(tree_keys[tree_index], key)

    def remove(self, key: Hashable) -> None:
        """Remove ``key`` (no-op when absent)."""
        if key not in self._signatures:
            return
        del self._signatures[key]
        for tree in self._trees:
            tree.remove(key)

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
        for tree in self._trees:
            tree.remove_batch(present)

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
        return self._descend([signature], k, exclude)[0]

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

        Entry ``i`` equals ``query(signatures[i], k)`` element for element;
        ``None`` signatures yield empty candidate lists.  ``walks=True``
        returns each query's :class:`Walk` instead: every item through the
        step that reached ``k``, with its step (see "Walk order" in the
        module docstring).
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
        exclude: Optional[Hashable] = None,
        walks: bool = False,
    ) -> List:
        """The descent behind every query method (see the module docstring)."""
        results: List = [
            Walk([], np.empty(0, dtype=np.int32)) if walks else [] for _ in signatures
        ]
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
        ranges = [
            tree.prefix_ranges(keys[:, tree_index])
            for tree_index, tree in enumerate(self._trees)
        ]
        # (queries, trees, key_length); column p - 1 holds prefix length p.
        low = np.stack([tree_low for tree_low, _ in ranges], axis=1)
        high = np.stack([tree_high for _, tree_high in ranges], axis=1)
        # Each step's rows are its range minus the range one level deeper,
        # which it contains (empty below the full key length).
        inner_low = np.concatenate((low[:, :, 1:], low[:, :, -1:]), axis=2)
        inner_high = np.concatenate((high[:, :, 1:], low[:, :, -1:]), axis=2)
        fresh = (high - low) - (inner_high - inner_low)
        # Non-empty steps in descent order: query, then longest prefix first,
        # then tree.
        query_of, level, tree_of = np.nonzero(fresh[:, :, ::-1].transpose(0, 2, 1))
        column = self.key_length - 1 - level
        at = (query_of, tree_of, column)
        steps = np.stack(
            (tree_of, low[at], inner_low[at], inner_high[at], high[at]), axis=1
        ).tolist()
        ends = np.searchsorted(query_of, np.arange(1, len(populated) + 1)).tolist()
        step_ids = (level * self.num_trees + tree_of).astype(np.int32) if walks else None
        start = 0
        for index, end in zip(populated, ends):
            # An insertion-ordered dict dedups a step's items in one C-level
            # pass, hashing each item once.
            found: Dict[Hashable, None] = {}
            # Items collected after each step: a walk's steps come from these.
            counts: Optional[List[int]] = [] if walks else None
            for tree_index, step_low, skip_low, skip_high, step_high in steps[start:end]:
                tree = self._trees[tree_index]
                found.update(dict.fromkeys(tree.items_between(step_low, skip_low)))
                found.update(dict.fromkeys(tree.items_between(skip_high, step_high)))
                if exclude is not None:
                    found.pop(exclude, None)
                if counts is not None:
                    counts.append(len(found))
                if len(found) >= k:
                    break
            if counts is None:
                results[index] = list(islice(found, k))
            else:
                fresh_counts = np.diff(np.asarray(counts, dtype=np.intp), prepend=0)
                results[index] = Walk(
                    list(found),
                    np.repeat(step_ids[start : start + len(counts)], fresh_counts),
                )
            start = end
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
        return tree._row_of.__getitem__

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
        """Approximate memory footprint (signatures plus tree entries)."""
        signature_bytes = sum(sig.nbytes for sig in self._signatures.values())
        tree_bytes = sum(tree.estimated_bytes() for tree in self._trees)
        return int(signature_bytes + tree_bytes)
