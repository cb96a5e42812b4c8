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
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import islice
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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
        self, signatures: Sequence[Optional[np.ndarray]], k: int
    ) -> List[List[Hashable]]:
        """:meth:`query` for many signatures through one batched descent.

        Entry ``i`` equals ``query(signatures[i], k)`` element for element;
        ``None`` signatures yield empty candidate lists.
        """
        return [
            found
            for start in range(0, len(signatures), _DESCENT_BLOCK)
            for found in self._descend(signatures[start : start + _DESCENT_BLOCK], k)
        ]

    def _descend(
        self,
        signatures: Sequence[Optional[np.ndarray]],
        k: int,
        exclude: Optional[Hashable] = None,
    ) -> List[List[Hashable]]:
        """The descent behind every query method (see the module docstring)."""
        results: List[List[Hashable]] = [[] for _ in signatures]
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
        start = 0
        for index, end in zip(populated, ends):
            # An insertion-ordered dict dedups a step's items in one C-level
            # pass, hashing each item once.
            found: Dict[Hashable, None] = {}
            for tree_index, step_low, skip_low, skip_high, step_high in steps[start:end]:
                tree = self._trees[tree_index]
                found.update(dict.fromkeys(tree.items_between(step_low, skip_low)))
                found.update(dict.fromkeys(tree.items_between(skip_high, step_high)))
                if exclude is not None:
                    found.pop(exclude, None)
                if len(found) >= k:
                    break
            results[index] = list(islice(found, k))
            start = end
        return results

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
