"""The walk order an LSH Forest descent follows, spelled out item by item.

A walk first reaches an item at the step of the longest prefix it shares
with the query in any tree (longest first), in the first tree sharing that
length; within a step it follows that tree's key order, ties by item.  The
SA-join graph edits candidate pools on the strength of this rule, so it is
checked here against every query path — ``multi_query``, ``query``, kept
walks, and the scalar reference — on random forests through pending
inserts, tombstones, ``remove_batch`` and compaction.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.lsh.lsh_forest import LSHForest, Walk
from repro.lsh.reference import ScalarLSHForest

NUM_TREES = 4
KEY_LENGTH = 4
NUM_HASHES = NUM_TREES * KEY_LENGTH


def rule_order(signatures, query):
    """``(step, item)`` of every reached item, sorted by the stated rule."""
    query_keys = np.asarray(query).reshape(NUM_TREES, KEY_LENGTH)
    ranked = []
    for item, signature in signatures.items():
        keys = np.asarray(signature).reshape(NUM_TREES, KEY_LENGTH)
        shared = []
        for tree in range(NUM_TREES):
            length = 0
            while length < KEY_LENGTH and keys[tree, length] == query_keys[tree, length]:
                length += 1
            shared.append(length)
        longest = max(shared)
        if longest == 0:
            continue
        tree = shared.index(longest)
        step = (KEY_LENGTH - longest) * NUM_TREES + tree
        ranked.append((-longest, tree, tuple(keys[tree].tolist()), item, step))
    ranked.sort()
    return [(step, item) for *_, item, step in ranked]


# A small value alphabet makes shared prefixes, equal keys and item ties common.
signature_values = st.lists(
    st.integers(min_value=0, max_value=2), min_size=NUM_HASHES, max_size=NUM_HASHES
)


@st.composite
def histories(draw):
    """A forest history: inserts, removals, batch removals, and queries."""
    count = draw(st.integers(min_value=1, max_value=60))
    signatures = {
        f"item{index:02d}": np.asarray(draw(signature_values), dtype=np.uint64)
        for index in range(count)
    }
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["remove", "remove_batch", "reinsert", "check"]),
                st.integers(min_value=0, max_value=count - 1),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=12,
        )
    )
    queries = [
        np.asarray(draw(signature_values), dtype=np.uint64)
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    k = draw(st.integers(min_value=1, max_value=count + 2))
    return signatures, operations, queries, k


def named(forest, answers):
    """``multi_query`` answers with their ids read back as items: lists, or
    walks whose ``items`` are lists."""
    items = forest.ids.items
    if answers and isinstance(answers[0], Walk):
        return [
            SimpleNamespace(items=[items[item] for item in walk.ids.tolist()], steps=walk.steps)
            for walk in answers
        ]
    return [[items[item] for item in ids.tolist()] for ids in answers]


def assert_walks_follow_the_rule(forest, scalar, live, queries, k):
    expected = [rule_order(live, query) for query in queries]
    probes = queries + [live[item] for item in list(live)[:3]]
    expected += [rule_order(live, live[item]) for item in list(live)[:3]]
    # Kept walks first: they must see pending inserts before any query merges them.
    walks = named(forest, forest.multi_query(probes, k, walks=True))
    answers = named(forest, forest.multi_query(probes, k))
    keys = forest.walk_keys(probes)
    for index, (probe, ranked) in enumerate(zip(probes, expected)):
        items = [item for _, item in ranked]
        assert forest.walk_order(probe) == items
        assert answers[index] == items[:k]
        assert forest.query(probe, k) == items[:k]
        assert scalar.query(probe, k) == items[:k]
        walk = walks[index]
        # Whole steps, through the step that reached k (or every step).
        if len(items) > k:
            stop = ranked[k - 1][0]
            assert walk.items == [item for step, item in ranked if step <= stop]
        else:
            assert walk.items == items
        assert walk.steps.tolist() == [step for step, _ in ranked][: len(walk.items)]
        if live:
            steps = forest.walk_steps(keys[index : index + 1], list(live.values()))[0]
            by_item = dict((item, step) for step, item in ranked)
            assert steps.tolist() == [
                by_item.get(item, forest.step_count) for item in live
            ]


class TestWalkOrder:
    @settings(max_examples=60, deadline=None)
    @given(histories())
    def test_first_k_of_the_order_is_every_query_answer(self, history):
        signatures, operations, queries, k = history
        forest = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        scalar = ScalarLSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        live = {}
        names = list(signatures)
        for name in names:
            forest.insert(name, signatures[name])
            scalar.insert(name, signatures[name])
            live[name] = signatures[name]
        # Pending inserts: nothing has merged them yet.
        assert_walks_follow_the_rule(forest, scalar, live, queries, k)
        for kind, index, span in operations:
            if kind == "remove":
                name = names[index]
                forest.remove(name)
                scalar.remove(name)
                live.pop(name, None)
            elif kind == "remove_batch":
                # Large batches cross the compaction threshold.
                doomed = names[index : index + span]
                forest.remove_batch(doomed)
                for name in doomed:
                    scalar.remove(name)
                    live.pop(name, None)
            elif kind == "reinsert":
                name = names[index]
                forest.insert(name, signatures[name])
                scalar.insert(name, signatures[name])
                live[name] = signatures[name]
            else:
                assert_walks_follow_the_rule(forest, scalar, live, queries, k)
        assert_walks_follow_the_rule(forest, scalar, live, queries, k)

    @settings(max_examples=60, deadline=None)
    @given(
        histories(),
        st.lists(st.integers(min_value=0, max_value=59), max_size=8),
        st.lists(signature_values, max_size=6),
    )
    def test_edited_walks_equal_new_walks(self, history, gone, came):
        signatures, _, queries, k = history
        forest = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        for name, signature in signatures.items():
            forest.insert(name, signature)
        kept = named(forest, forest.multi_query(queries, k, walks=True))
        # Items go, come back with another signature, or arrive new.
        names = list(signatures)
        went = {names[index % len(names)] for index in gone}
        arrivals = {}
        for index, values in enumerate(came):
            name = names[index % len(names)] if index % 2 else f"new{index}"
            arrivals[name] = np.asarray(values, dtype=np.uint64)
        forest.remove_batch(sorted(went | set(arrivals)))
        for name, signature in arrivals.items():
            forest.insert(name, signature)
        items = names + [name for name in arrivals if name not in signatures]
        code_of = {item: code for code, item in enumerate(items)}
        walks = np.concatenate(
            [np.full(len(walk.items), index) for index, walk in enumerate(kept)]
        ).astype(np.int64)
        entries = np.asarray(
            [code_of[item] for walk in kept for item in walk.items], dtype=np.int64
        )
        steps = np.concatenate([walk.steps for walk in kept])
        reached = (
            forest.walk_steps(forest.walk_keys(queries), list(arrivals.values()))
            if arrivals
            else np.empty((len(queries), 0), dtype=np.int32)
        )
        edited = forest.edit_walks(
            walks, entries, steps, len(queries),
            np.isin(entries, [code_of[item] for item in went | set(arrivals)]),
            np.asarray([code_of[item] for item in arrivals], dtype=np.int64),
            reached, k, items.__getitem__,
        )
        new_walks, new_entries, new_steps, origin, rewalk = edited
        arrived = origin < 0
        assert (new_entries[~arrived] == entries[origin[~arrived]]).all()
        assert set(new_entries[arrived].tolist()) <= {code_of[item] for item in arrivals}
        for index, walk in enumerate(named(forest, forest.multi_query(queries, k, walks=True))):
            mine = new_walks == index
            if rewalk[index]:
                # Only a walk that had stopped early can run short.
                assert not mine.any() and len(kept[index].items) >= k
                assert int(kept[index].steps[-1]) < forest.step_count - 1
            else:
                assert [items[code] for code in new_entries[mine].tolist()] == walk.items
                assert new_steps[mine].tolist() == walk.steps.tolist()

    def test_arrivals_at_a_walk_boundary_stay_in_their_walks(self):
        """Two walks lose every item and regain one each at one insertion
        point; the later walk's arrival has the earlier step."""
        def signature(*ones):
            return np.asarray([int(i in ones) for i in range(NUM_HASHES)], dtype=np.uint64)

        forest = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        for name, values in {"a": signature(), "b": signature(2, 7), "c": signature()}.items():
            forest.insert(name, values)
        queries = [signature(3), signature()]
        kept = named(forest, forest.multi_query(queries, 1, walks=True))
        assert [walk.items for walk in kept] == [["a", "c"], ["a", "c"]]
        forest.remove_batch(["a", "c"])
        forest.insert("d", signature())
        items = ["a", "b", "c", "d"]
        walks = np.repeat(np.arange(2), [len(walk.items) for walk in kept])
        entries = np.asarray([items.index(item) for walk in kept for item in walk.items])
        reached = forest.walk_steps(forest.walk_keys(queries), [forest.signature("d")])
        assert reached[0, 0] > reached[1, 0]
        new_walks, new_entries, new_steps, _, rewalk = forest.edit_walks(
            walks, entries, np.concatenate([walk.steps for walk in kept]), 2,
            np.isin(entries, [0, 2]), np.asarray([3]), reached, 1, items.__getitem__,
        )
        assert not rewalk.any()
        for index, walk in enumerate(named(forest, forest.multi_query(queries, 1, walks=True))):
            mine = new_walks == index
            assert [items[code] for code in new_entries[mine].tolist()] == walk.items
            assert new_steps[mine].tolist() == walk.steps.tolist()

    def test_compaction_keeps_the_order(self):
        rng = np.random.default_rng(4)
        forest = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        scalar = ScalarLSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        live = {}
        for index in range(80):
            name = f"item{index:02d}"
            live[name] = rng.integers(0, 3, NUM_HASHES).astype(np.uint64)
            forest.insert(name, live[name])
            scalar.insert(name, live[name])
        queries = [rng.integers(0, 3, NUM_HASHES).astype(np.uint64) for _ in range(3)]
        assert_walks_follow_the_rule(forest, scalar, live, queries, 10)
        # One at a time: the tree compacts once most rows are tombstones.
        for index in range(0, 60):
            name = f"item{index:02d}"
            forest.remove(name)
            scalar.remove(name)
            del live[name]
        # Compacted: dead rows were dropped, a few tombstones came after.
        assert all(0 < tree._dead < len(tree._items) < 80 for tree in forest._trees)
        assert_walks_follow_the_rule(forest, scalar, live, queries, 10)

    def test_empty_forest_and_unreached_items(self):
        forest = LSHForest(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
        query = np.zeros(NUM_HASHES, dtype=np.uint64)
        assert forest.walk_order(query) == []
        walk = named(forest, forest.multi_query([query, None], 3, walks=True))
        assert [list(entry.items) for entry in walk] == [[], []]
        forest.insert("far", np.ones(NUM_HASHES, dtype=np.uint64))
        assert forest.walk_order(query) == []
        steps = forest.walk_steps(forest.walk_keys([query]), [forest.signature("far")])
        assert steps.tolist() == [[forest.step_count]]


# --------------------------------------------------------------------- #
# the batched descent on larger forests
# --------------------------------------------------------------------- #

WIDE_TREES = 4
WIDE_KEY = 8
WIDE_HASHES = WIDE_TREES * WIDE_KEY


@st.composite
def wide_forests(draw):
    """Forests where steps hold many rows: bit keys over a few hundred items
    (level-1 blocks of about half a tree), or small-alphabet keys drawn from
    a few bases (many duplicate keys)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        count = draw(st.integers(min_value=150, max_value=320))
        signatures = rng.integers(0, 2, (count, WIDE_HASHES))
    else:
        count = draw(st.integers(min_value=80, max_value=240))
        bases = rng.integers(0, 3, (draw(st.integers(min_value=2, max_value=12)), WIDE_HASHES))
        signatures = bases[rng.integers(0, len(bases), count)]
        # Some items differ from their base in a few late positions.
        tweak = rng.random(signatures.shape) < 0.04
        signatures = np.where(tweak, rng.integers(0, 3, signatures.shape), signatures)
    signatures = signatures.astype(np.uint64)
    queries = [signatures[index] for index in rng.integers(0, count, 3)]
    # A stored key perturbed, and a key no item has.
    perturbed = signatures[rng.integers(0, count)].copy()
    perturbed[rng.integers(0, WIDE_HASHES, 3)] ^= np.uint64(1)
    queries += [perturbed, np.full(WIDE_HASHES, 7, dtype=np.uint64)]
    ks = sorted({1, count, count + 1, draw(st.integers(min_value=2, max_value=count))})
    return signatures, queries, ks, draw(st.sampled_from(["tombstones", "pending"]))


def expected_walk(forest, query, k):
    """The walk ``multi_query(..., walks=True)`` keeps, from the walk order."""
    items = forest.walk_order(query)
    if not items:
        return [], []
    steps = forest.walk_steps(forest.walk_keys([query]), [forest.signature(i) for i in items])[0]
    if len(items) > k:
        kept = int((steps <= steps[k - 1]).sum())
        items, steps = items[:kept], steps[:kept]
    return items, steps.tolist()


class TestBatchedDescent:
    @settings(max_examples=30, deadline=None)
    @given(wide_forests())
    def test_answers_and_walks_equal_the_walk_order(self, case):
        signatures, queries, ks, state = case
        forest = LSHForest(num_hashes=WIDE_HASHES, num_trees=WIDE_TREES)
        scalar = ScalarLSHForest(num_hashes=WIDE_HASHES, num_trees=WIDE_TREES)
        names = [f"item{index:03d}" for index in range(len(signatures))]
        held_back = names[-6:] if state == "pending" else []
        for name, signature in zip(names, signatures):
            if name not in held_back:
                forest.insert(name, signature)
                scalar.insert(name, signature)
        forest.multi_query(queries[:1], 1)  # merge the inserts
        if state == "tombstones":
            # Below the compaction threshold: the dead rows stay in place.
            doomed = names[::13][:12]
            forest.remove_batch(doomed)
            for name in doomed:
                scalar.remove(name)
            assert all(tree._dead for tree in forest._trees)
        else:
            for name in held_back:
                index = names.index(name)
                forest.insert(name, signatures[index])
                scalar.insert(name, signatures[index])
            assert all(tree._pending for tree in forest._trees)
        items = forest.ids.items
        for k in ks:
            walks = forest.multi_query(queries, k, walks=True)
            answers = forest.multi_query(queries, k)
            for query, answer, walk in zip(queries, answers, walks):
                expected = scalar.query(query, k)
                assert forest.walk_order(query)[:k] == expected
                assert [items[item] for item in answer.tolist()] == expected
                walk_items, walk_steps = expected_walk(forest, query, k)
                assert [items[item] for item in walk.ids.tolist()] == walk_items
                assert walk.steps.tolist() == walk_steps
                assert walk.ids.dtype == walk.steps.dtype == answer.dtype == np.int32
            # Excluding an item the walks reach early.
            for query in queries[:3]:
                excluded = forest.walk_order(query)[:1]
                if excluded:
                    assert forest.query(query, k, exclude=excluded[0]) == scalar.query(
                        query, k, exclude=excluded[0]
                    )
