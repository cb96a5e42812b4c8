"""Oracle harness for incremental lake mutation.

The tentpole contract: any interleaving of ``index_table`` / ``remove_table``
/ re-add must leave the engine indistinguishable from one built from scratch
over the surviving tables — identical rankings (ties included), identical
join-graph edge sets, and identical answers from process workers whose
views the journal deltas refreshed.  The mutation journal and the net-delta
build/apply pair that ship mutations to live workers are unit-tested here
alongside the randomized sequences.
"""

import pickle
import random

import numpy as np
import pytest

from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.execution import create_backend
from repro.core.indexes import _MUTATION_LOG_LIMIT
from repro.core.shared import apply_index_delta, build_index_delta
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lake.datalake import DataLake
from repro.tables.table import Table

from tests.core.test_batched_query import submit


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3,
            tables_per_base=3,
            base_rows=40,
            min_rows=15,
            max_rows=30,
            seed=33,
        )
    )


_CONFIG = dict(num_hashes=64, num_trees=8, min_candidates=15, embedding_dimension=16)


def _fresh_engine():
    return D3L(config=D3LConfig(**_CONFIG))


def _build_engine(tables):
    engine = _fresh_engine()
    engine.index_lake(DataLake("oracle", list(tables)))
    return engine


def _rankings(engine, targets, k=5):
    return [
        [(result.table_name, result.distance) for result in submit(engine, target, k).results]
        for target in targets
    ]


def _ranked_on_view(view, target):
    """Shard fn: the batched engine's ranking of ``target`` over a worker's
    view of the indexes, as ``_rankings`` gives it."""
    engine = D3L(
        config=view.config,
        embedding_model=view.embedding_model,
        subject_classifier=view.subject_classifier,
    )
    engine.indexes = view
    result = engine._execute_query_batch(target, 4)
    return [(entry.table_name, entry.distance) for entry in result.results]


def _edge_map(graph):
    return {
        tuple(sorted(pair)): (
            graph.edge(*pair).left,
            graph.edge(*pair).right,
            graph.edge(*pair).overlap,
        )
        for pair in graph.graph.edges
    }


def _forest_states(indexes):
    states = {}
    for evidence in EvidenceType.indexed():
        state = indexes._forests[evidence].export_state()
        states[evidence] = [
            (tree["keys"].tobytes(), tree["items"]) for tree in state["trees"]
        ]
    return states


def _matrix_maps(indexes):
    maps = {}
    for evidence in EvidenceType.indexed():
        refs, matrix, flags = indexes._matrices[evidence].export_state(copy=False)
        maps[evidence] = {
            ref: (matrix[row].tobytes(), bool(flags[row]))
            for row, ref in enumerate(refs)
        }
    return maps


def assert_equals_rebuilt_oracle(engine, tables, targets):
    """``engine`` must be indistinguishable from a from-scratch build."""
    oracle = _build_engine(tables)
    try:
        assert set(engine.indexes.table_names) == set(oracle.indexes.table_names)
        assert set(engine.indexes.profiles) == set(oracle.indexes.profiles)
        # Canonical tree layout: a mutated forest compacts bit-identically.
        assert _forest_states(engine.indexes) == _forest_states(oracle.indexes)
        # Matrix rows may sit at different offsets (swap-removal), but the
        # per-ref contents must match exactly.
        assert _matrix_maps(engine.indexes) == _matrix_maps(oracle.indexes)
        assert _rankings(engine, targets) == _rankings(oracle, targets)
        assert _edge_map(engine.join_graph) == _edge_map(oracle.join_graph)
    finally:
        oracle.close()


class TestMutationJournal:
    def test_current_version_yields_empty_set(self, corpus):
        engine = _build_engine(corpus.lake.tables[:3])
        assert engine.indexes.mutated_tables_since(engine.indexes.version) == set()

    def test_mutations_accumulate_per_table(self, corpus):
        engine = _build_engine(corpus.lake.tables[:3])
        base = engine.indexes.version
        extra = corpus.lake.tables[4].with_name("journal_extra")
        engine.index_table(extra)
        assert engine.indexes.mutated_tables_since(base) == {"journal_extra"}
        victim = corpus.lake.tables[0].name
        engine.remove_table(victim)
        assert engine.indexes.mutated_tables_since(base) == {"journal_extra", victim}
        # A narrower base only sees the later mutation.
        assert engine.indexes.mutated_tables_since(base + 1) == {victim}

    def test_unknown_bases_are_conservative(self, corpus):
        engine = _build_engine(corpus.lake.tables[:3])
        assert engine.indexes.mutated_tables_since(engine.indexes.version + 1) is None
        assert engine.indexes.mutated_tables_since(-1) is None

    def test_exhausted_window_yields_none(self, corpus):
        engine = _build_engine(corpus.lake.tables[:3])
        base = engine.indexes.version
        engine.index_table(corpus.lake.tables[4].with_name("window_extra"))
        engine.indexes._mutation_log.clear()
        assert engine.indexes.mutated_tables_since(base) is None

    def test_journal_is_bounded(self, corpus):
        engine = _build_engine(corpus.lake.tables[:3])
        indexes = engine.indexes
        for _ in range(_MUTATION_LOG_LIMIT + 10):
            indexes.version += 1
            indexes._log_mutation("synthetic")
        assert len(indexes._mutation_log) == _MUTATION_LOG_LIMIT
        # Entries beyond the window are gone, so old bases report None.
        assert indexes.mutated_tables_since(0) is None


class TestIndexDelta:
    def test_upsert_and_remove_ops(self, corpus):
        engine = _build_engine(corpus.lake.tables[:4])
        base = engine.indexes.version
        victim = corpus.lake.tables[1].name
        engine.remove_table(victim)
        engine.index_table(corpus.lake.tables[5].with_name("delta_extra"))
        delta = build_index_delta(engine.indexes, base)
        assert delta is not None
        target_version, ops = delta
        assert target_version == engine.indexes.version
        assert [op[:2] for op in ops] == sorted(
            [("remove", victim), ("upsert", "delta_extra")], key=lambda op: op[1]
        )

    def test_max_tables_cap(self, corpus):
        engine = _build_engine(corpus.lake.tables[:4])
        base = engine.indexes.version
        engine.index_table(corpus.lake.tables[5].with_name("cap_a"))
        engine.index_table(corpus.lake.tables[6].with_name("cap_b"))
        assert build_index_delta(engine.indexes, base, max_tables=1) is None
        assert build_index_delta(engine.indexes, base, max_tables=2) is not None

    def test_apply_converges_to_the_host_state(self, corpus):
        engine = _build_engine(corpus.lake.tables[:4])
        stale = pickle.loads(pickle.dumps(engine.indexes))
        base = engine.indexes.version
        victim = corpus.lake.tables[2].name
        engine.remove_table(victim)
        engine.index_table(corpus.lake.tables[5].with_name("apply_extra"))
        # Re-add one surviving table with different content (upsert path).
        mutated_name = corpus.lake.tables[0].name
        engine.index_table(corpus.lake.tables[7].with_name(mutated_name))
        delta = build_index_delta(engine.indexes, base)
        assert delta is not None
        apply_index_delta(stale, delta)
        assert stale.version == engine.indexes.version
        assert set(stale.profiles) == set(engine.indexes.profiles)
        assert _forest_states(stale) == _forest_states(engine.indexes)
        assert _matrix_maps(stale) == _matrix_maps(engine.indexes)

    def test_apply_is_idempotent(self, corpus):
        engine = _build_engine(corpus.lake.tables[:4])
        stale = pickle.loads(pickle.dumps(engine.indexes))
        base = engine.indexes.version
        engine.index_table(corpus.lake.tables[5].with_name("idempotent_extra"))
        delta = build_index_delta(engine.indexes, base)
        apply_index_delta(stale, delta)
        before = _matrix_maps(stale)
        apply_index_delta(stale, delta)  # replay must be a no-op
        assert stale.version == engine.indexes.version
        assert _matrix_maps(stale) == before

    def test_delta_reuses_stored_signatures(self, corpus):
        engine = _build_engine(corpus.lake.tables[:3])
        base = engine.indexes.version
        extra = corpus.lake.tables[4].with_name("signature_reuse")
        engine.index_table(extra)
        delta = build_index_delta(engine.indexes, base)
        (_, name, profile, signatures) = delta[1][0]
        assert name == "signature_reuse"
        for attribute_name, attribute in profile.attributes.items():
            for evidence in EvidenceType.indexed():
                assert signatures[attribute_name][evidence] == engine.indexes.signature(
                    evidence, attribute.ref
                )


class TestBatchedRemoval:
    """The batched removal path must be observationally equal to per-op removal.

    ``remove_tables`` compacts matrices stably while sequential ``remove_table``
    swap-packs, so physical row order may differ — every assertion here goes
    through row-order-independent views (per-ref content maps, compacted
    forest exports, rankings) plus the order-sensitive journal and version.
    """

    def test_remove_tables_matches_sequential_removals(self, corpus):
        engine = _build_engine(corpus.lake.tables[:6])
        try:
            base = engine.indexes.version
            victims = sorted(engine.indexes.table_names)[1:4]
            sequential = pickle.loads(pickle.dumps(engine.indexes))
            for name in victims:
                assert sequential.remove_table(name) is True
            batched = pickle.loads(pickle.dumps(engine.indexes))
            assert batched.remove_tables(victims) == len(victims)
            assert batched.version == sequential.version
            assert set(batched.table_names) == set(sequential.table_names)
            assert set(batched.profiles) == set(sequential.profiles)
            assert _forest_states(batched) == _forest_states(sequential)
            assert _matrix_maps(batched) == _matrix_maps(sequential)
            assert batched.mutated_tables_since(base) == sequential.mutated_tables_since(base)
            assert batched._mutation_log == sequential._mutation_log
        finally:
            engine.close()

    def test_remove_tables_ignores_unknown_names(self, corpus):
        engine = _build_engine(corpus.lake.tables[:4])
        try:
            base = engine.indexes.version
            victim = sorted(engine.indexes.table_names)[0]
            removed = engine.indexes.remove_tables(["no_such_table", victim, "ghost"])
            assert removed == 1
            assert engine.indexes.version == base + 1
            assert engine.indexes.mutated_tables_since(base) == {victim}
        finally:
            engine.close()

    def test_batched_engine_answers_like_a_rebuild(self, corpus):
        engine = _build_engine(corpus.lake.tables[:6])
        try:
            victims = sorted(engine.indexes.table_names)[:2]
            assert engine.indexes.remove_tables(victims) == 2
            survivors = [
                table
                for table in corpus.lake.tables[:6]
                if table.name not in victims
            ]
            assert_equals_rebuilt_oracle(engine, survivors, survivors[:3])
        finally:
            engine.close()

    def test_discard_batch_matches_sequential_discards(self, corpus):
        engine = _build_engine(corpus.lake.tables[:5])
        try:
            evidence = EvidenceType.indexed()[0]
            host = engine.indexes._matrices[evidence]
            refs, _, _ = host.export_state(copy=False)
            doomed = list(refs)[::2] + ["not-a-ref"]
            sequential = pickle.loads(pickle.dumps(host))
            # Reversed order on the sequential side: swap-pack row placement
            # depends on removal order, the per-ref contents must not.
            for ref in reversed(doomed):
                sequential.discard(ref)
            batched = pickle.loads(pickle.dumps(host))
            assert batched.discard_batch(doomed) == len(doomed) - 1
            s_refs, s_matrix, s_flags = sequential.export_state(copy=False)
            b_refs, b_matrix, b_flags = batched.export_state(copy=False)
            assert set(b_refs) == set(s_refs) == set(refs) - set(doomed)
            sequential_map = {
                ref: (s_matrix[row].tobytes(), bool(s_flags[row]))
                for row, ref in enumerate(s_refs)
            }
            batched_map = {
                ref: (b_matrix[row].tobytes(), bool(b_flags[row]))
                for row, ref in enumerate(b_refs)
            }
            assert batched_map == sequential_map
            # Tie-breaking ranks (the id registry's) order refs as sorting does.
            assert sorted(b_refs) == sorted(s_refs)
            ranks = batched._ids.ranks()[[batched._ids.find(ref) for ref in b_refs]]
            assert [b_refs[row] for row in np.argsort(ranks)] == sorted(b_refs)
        finally:
            engine.close()

    def test_forest_remove_batch_matches_sequential_removes(self, corpus):
        engine = _build_engine(corpus.lake.tables[:5])
        try:
            evidence = EvidenceType.indexed()[0]
            host = engine.indexes._forests[evidence]
            keys = sorted(host.keys())
            doomed = keys[::3] + ["not-a-key"]
            sequential = pickle.loads(pickle.dumps(host))
            for key in reversed(doomed):
                sequential.remove(key)
            batched = pickle.loads(pickle.dumps(host))
            batched.remove_batch(doomed)
            assert len(batched) == len(sequential)
            s_state = sequential.export_state()
            b_state = batched.export_state()
            assert len(b_state["trees"]) == len(s_state["trees"])
            for b_tree, s_tree in zip(b_state["trees"], s_state["trees"]):
                assert b_tree["keys"].tobytes() == s_tree["keys"].tobytes()
                assert b_tree["items"] == s_tree["items"]
        finally:
            engine.close()

    def test_delta_replay_batches_multi_table_removals(self, corpus):
        engine = _build_engine(corpus.lake.tables[:6])
        try:
            stale = pickle.loads(pickle.dumps(engine.indexes))
            base = engine.indexes.version
            victims = sorted(engine.indexes.table_names)[:3]
            for name in victims:
                engine.remove_table(name)
            engine.index_table(corpus.lake.tables[7].with_name("batch_extra"))
            delta = build_index_delta(engine.indexes, base)
            assert delta is not None
            assert sum(1 for op in delta[1] if op[0] == "remove") == len(victims)
            apply_index_delta(stale, delta)
            assert stale.version == engine.indexes.version
            assert set(stale.profiles) == set(engine.indexes.profiles)
            assert _forest_states(stale) == _forest_states(engine.indexes)
            assert _matrix_maps(stale) == _matrix_maps(engine.indexes)
        finally:
            engine.close()


class TestRandomizedMutationOracle:
    """Hypothesis-style randomized add/remove/re-add sequences.

    Each seeded run draws a random operation sequence over the corpus —
    removing live tables, re-adding removed ones, and upserting live tables
    with replacement content — interleaved with queries and join-graph
    builds so every cache and delta path is exercised mid-sequence.  The
    final state must equal a from-scratch rebuild of the surviving tables.
    """

    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_sequence_equals_from_scratch_rebuild(self, corpus, seed):
        rng = random.Random(seed)
        all_tables = list(corpus.lake.tables)
        live = {table.name: table for table in all_tables[:6]}
        spare = all_tables[6:]
        engine = _build_engine(live.values())
        try:
            for step in range(10):
                op = rng.choice(["remove", "add", "upsert"])
                if op == "remove" and len(live) > 3:
                    name = rng.choice(sorted(live))
                    del live[name]
                    assert engine.remove_table(name) is True
                elif op == "add":
                    table = rng.choice(spare).with_name(f"seed{seed}_step{step}")
                    live[table.name] = table
                    engine.index_table(table)
                else:
                    name = rng.choice(sorted(live))
                    replacement = rng.choice(all_tables).with_name(name)
                    live[name] = replacement
                    engine.index_table(replacement)
                if step % 3 == 0:
                    target = live[rng.choice(sorted(live))]
                    submit(engine, target, 4)
                    engine.join_graph
            probes = [live[name] for name in sorted(live)[:3]]
            assert_equals_rebuilt_oracle(engine, live.values(), probes)
        finally:
            engine.close()

    def test_pool_started_before_writes_answers_identically(self, corpus):
        # The process backend's pool starts before the mutations, so they
        # reach its workers as deltas; rankings over the refreshed views
        # must equal the engine's own and a from-scratch rebuild's.
        live = {table.name: table for table in corpus.lake.tables[:6]}
        engine = _build_engine(live.values())
        with create_backend("process", engine.indexes, 2) as backend:
            warmup = [live[name] for name in sorted(live)[:2]]
            assert backend.map_shards(_ranked_on_view, warmup) == _rankings(
                engine, warmup, k=4
            )
            pids = backend.worker_pids()

            victim = sorted(live)[1]
            del live[victim]
            engine.remove_table(victim)
            extra = corpus.lake.tables[7].with_name("fanout_extra")
            live[extra.name] = extra
            engine.index_table(extra)

            targets = [live[name] for name in sorted(live)]
            refreshed = backend.map_shards(_ranked_on_view, targets)
            assert backend.worker_pids() == pids
        assert refreshed == _rankings(engine, targets, k=4)
        oracle = _build_engine(live.values())
        assert refreshed[:3] == _rankings(oracle, targets[:3], k=4)
