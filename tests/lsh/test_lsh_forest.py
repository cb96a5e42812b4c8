"""Tests for the LSH Forest top-k index."""

import threading

import numpy as np
import pytest

from repro.lsh.lsh_forest import LSHForest
from repro.lsh.minhash import MinHashFactory


@pytest.fixture
def factory():
    return MinHashFactory(num_perm=128, seed=7)


@pytest.fixture
def forest():
    return LSHForest(num_hashes=128, num_trees=8)


def _tokens(prefix, count):
    return {f"{prefix}{i}" for i in range(count)}


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LSHForest(num_hashes=0)
        with pytest.raises(ValueError):
            LSHForest(num_hashes=16, num_trees=0)
        with pytest.raises(ValueError):
            LSHForest(num_hashes=4, num_trees=8)

    def test_key_length(self):
        assert LSHForest(num_hashes=128, num_trees=8).key_length == 16


class TestInsertQuery:
    def test_insert_and_len(self, forest, factory):
        forest.insert("a", factory.from_tokens(_tokens("a", 10)).hashvalues)
        assert len(forest) == 1
        assert "a" in forest

    def test_short_signature_rejected(self, forest):
        with pytest.raises(ValueError):
            forest.insert("bad", np.zeros(8, dtype=np.uint64))

    def test_query_finds_identical_item(self, forest, factory):
        signature = factory.from_tokens(_tokens("x", 25))
        forest.insert("x", signature.hashvalues)
        assert forest.query(signature.hashvalues, k=5) == ["x"]

    def test_query_excludes_requested_key(self, forest, factory):
        signature = factory.from_tokens(_tokens("x", 25))
        forest.insert("x", signature.hashvalues)
        assert forest.query(signature.hashvalues, k=5, exclude="x") == []

    def test_query_zero_k_returns_nothing(self, forest, factory):
        signature = factory.from_tokens(_tokens("x", 25))
        forest.insert("x", signature.hashvalues)
        assert forest.query(signature.hashvalues, k=0) == []

    def test_similar_ranked_before_dissimilar(self, forest, factory):
        base = _tokens("tok", 60)
        forest.insert("near", factory.from_tokens(base | {"one-extra"}).hashvalues)
        forest.insert("far", factory.from_tokens(_tokens("other", 60)).hashvalues)
        results = forest.query(factory.from_tokens(base).hashvalues, k=1)
        assert results and results[0] == "near"

    def test_remove(self, forest, factory):
        signature = factory.from_tokens(_tokens("x", 25))
        forest.insert("x", signature.hashvalues)
        forest.remove("x")
        assert len(forest) == 0
        assert forest.query(signature.hashvalues, k=5) == []

    def test_remove_missing_is_noop(self, forest):
        forest.remove("missing")
        assert len(forest) == 0

    def test_reinsert_replaces(self, forest, factory):
        first = factory.from_tokens(_tokens("a", 25))
        second = factory.from_tokens(_tokens("b", 25))
        forest.insert("item", first.hashvalues)
        forest.insert("item", second.hashvalues)
        assert len(forest) == 1
        assert forest.query(second.hashvalues, k=3) == ["item"]

    def test_signature_accessor(self, forest, factory):
        signature = factory.from_tokens(_tokens("x", 25))
        forest.insert("x", signature.hashvalues)
        assert np.array_equal(forest.signature("x"), signature.hashvalues)

    def test_keys(self, forest, factory):
        forest.insert("a", factory.from_tokens(_tokens("a", 5)).hashvalues)
        forest.insert("b", factory.from_tokens(_tokens("b", 5)).hashvalues)
        assert set(forest.keys()) == {"a", "b"}


class TestTopKBehaviour:
    def test_returns_at_most_total_items(self, forest, factory):
        for i in range(5):
            forest.insert(f"item{i}", factory.from_tokens(_tokens(f"g{i}", 20)).hashvalues)
        query = factory.from_tokens(_tokens("g0", 20))
        assert len(forest.query(query.hashvalues, k=50)) <= 5

    def test_query_all_returns_related_items(self, forest, factory):
        base = _tokens("shared", 40)
        for i in range(4):
            forest.insert(
                f"item{i}",
                factory.from_tokens(base | {f"delta{i}"}).hashvalues,
            )
        results = forest.query_all(factory.from_tokens(base).hashvalues)
        assert set(results) == {f"item{i}" for i in range(4)}

    def test_estimated_bytes_grow(self, forest, factory):
        before = forest.estimated_bytes()
        forest.insert("a", factory.from_tokens(_tokens("a", 5)).hashvalues)
        assert forest.estimated_bytes() > before

    def test_recall_of_highly_similar_items(self, factory):
        forest = LSHForest(num_hashes=128, num_trees=16)
        base = _tokens("val", 100)
        forest.insert("stored", factory.from_tokens(base).hashvalues)
        # Insert distractors.
        for i in range(20):
            forest.insert(f"noise{i}", factory.from_tokens(_tokens(f"n{i}", 100)).hashvalues)
        query = factory.from_tokens(set(list(base)[:90]) | _tokens("q", 10))
        results = forest.query(query.hashvalues, k=5)
        assert "stored" in results


class TestTombstoneCompaction:
    """Edge cases of the tombstone/compaction lifecycle inside the trees.

    These are the mutation-path behaviours the incremental-lake oracle
    leans on: removals must be honoured whether the row is flushed or
    still buffered, compaction must be able to empty a tree entirely, and
    a mutated tree must compact to exactly the layout a from-scratch
    build of the surviving items produces.
    """

    def test_remove_from_pending_buffer(self, forest, factory):
        # No query between insert and remove: the row only exists in the
        # pending buffer and must be dropped from there.
        forest.insert("buffered", factory.from_tokens(_tokens("b", 10)).hashvalues)
        for tree in forest._trees:
            assert tree._pending
        forest.remove("buffered")
        assert len(forest) == 0
        assert "buffered" not in forest
        for tree in forest._trees:
            assert not tree._pending
            assert len(tree) == 0
        query = factory.from_tokens(_tokens("b", 10))
        assert forest.query(query.hashvalues, k=5) == []

    def test_remove_then_query_skips_tombstones(self, forest, factory):
        base = _tokens("shared", 30)
        for i in range(4):
            forest.insert(f"item{i}", factory.from_tokens(base | {f"d{i}"}).hashvalues)
        query = factory.from_tokens(base)
        assert set(forest.query_all(query.hashvalues)) == {f"item{i}" for i in range(4)}
        forest.remove("item2")
        # Tombstoned, not yet compacted: queries must not surface the row.
        assert any(tree._dead for tree in forest._trees)
        survivors = forest.query_all(query.hashvalues)
        assert set(survivors) == {"item0", "item1", "item3"}
        found = forest.multi_query([query.hashvalues], k=10)[0]
        assert [forest.ids.items[item] for item in found.tolist()] == survivors

    def test_compact_to_empty(self, forest, factory):
        for i in range(5):
            forest.insert(f"item{i}", factory.from_tokens(_tokens(f"t{i}", 10)).hashvalues)
        forest.query(factory.from_tokens(_tokens("t0", 10)).hashvalues, k=1)  # flush
        for i in range(5):
            forest.remove(f"item{i}")
        assert len(forest) == 0
        for tree in forest._trees:
            tree.compact()
            assert len(tree._items) == 0
            assert tree._dead == 0
            assert tree._keys.shape == (0, tree.key_length)
        assert forest.query(factory.from_tokens(_tokens("t0", 10)).hashvalues, k=5) == []

    def test_compaction_triggers_when_tombstones_dominate(self, forest, factory):
        from repro.lsh.lsh_forest import _MIN_TOMBSTONES_BEFORE_COMPACTION

        count = 2 * _MIN_TOMBSTONES_BEFORE_COMPACTION + 4
        for i in range(count):
            forest.insert(f"item{i}", factory.from_tokens(_tokens(f"t{i}", 10)).hashvalues)
        forest.query(factory.from_tokens(_tokens("t0", 10)).hashvalues, k=1)  # flush
        for i in range(_MIN_TOMBSTONES_BEFORE_COMPACTION + 3):
            forest.remove(f"item{i}")
        # More than _MIN_TOMBSTONES_BEFORE_COMPACTION dead rows and dead
        # outnumbering live: every tree must have compacted itself.
        for tree in forest._trees:
            assert tree._dead == 0
            assert len(tree._items) == count - _MIN_TOMBSTONES_BEFORE_COMPACTION - 3

    def test_mutated_forest_compacts_to_fresh_build_layout(self, factory):
        # Canonical rebuild order: after an arbitrary remove/re-add history
        # the compacted layout must be a pure function of the surviving
        # (key, item) set — bit-identical to a from-scratch build.
        mutated = LSHForest(num_hashes=128, num_trees=8)
        signatures = {
            f"item{i}": factory.from_tokens(_tokens(f"t{i % 4}", 12)).hashvalues
            for i in range(12)
        }
        for key, signature in signatures.items():
            mutated.insert(key, signature)
        mutated.query(signatures["item0"], k=1)  # flush
        for key in ("item1", "item5", "item9"):
            mutated.remove(key)
        mutated.insert("item5", signatures["item5"])  # re-add one survivor

        survivors = {k: v for k, v in signatures.items() if k not in ("item1", "item9")}
        fresh = LSHForest(num_hashes=128, num_trees=8)
        # Insert in a different order: the layout must not depend on history.
        for key in sorted(survivors, reverse=True):
            fresh.insert(key, survivors[key])

        state = mutated.export_state()
        fresh_state = fresh.export_state()
        for tree, fresh_tree in zip(state["trees"], fresh_state["trees"]):
            assert np.array_equal(tree["keys"], fresh_tree["keys"])
            assert tree["items"] == fresh_tree["items"]


class TestConcurrentFlush:
    def test_reader_waits_for_a_merge_in_progress(self, factory):
        # The first query after an insert merges the pending buffer.  A
        # second reader arriving mid-merge must wait for the merged tree,
        # not read the old rows and miss the insert.  One tree, so nothing
        # else makes the second reader wait.
        forest = LSHForest(num_hashes=16, num_trees=1)
        for i in range(6):
            forest.insert(f"item{i}", factory.from_tokens(_tokens(f"t{i}", 10)).hashvalues)
        signature = factory.from_tokens(_tokens("new", 10)).hashvalues
        forest.query(signature, k=1)  # merge the initial inserts
        forest.insert("new", signature)
        tree = forest._trees[0]
        merging, release = threading.Event(), threading.Event()
        rebuild = tree._rebuild
        stalls = []

        # Only the merge rebuilds the tree, under the flush lock.
        def slow_rebuild():
            stalls.append(len(tree._items) + len(tree._pending))
            merging.set()
            release.wait(10)
            rebuild()

        tree._rebuild = slow_rebuild
        answers = {}

        def ask(name):
            answers[name] = forest.query(signature, k=3)

        first = threading.Thread(target=ask, args=("first",))
        second = threading.Thread(target=ask, args=("second",))
        first.start()
        try:
            assert merging.wait(10)
            second.start()
            second.join(0.5)
        finally:
            release.set()
        first.join(10)
        second.join(10)
        assert not first.is_alive() and not second.is_alive()
        assert answers["first"][0] == answers["second"][0] == "new"
        assert stalls == [7]
