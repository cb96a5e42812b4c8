"""The batched engine on lake attribute ids, against the sequential engine.

The batched engine carries candidates as ``D3LIndexes.ids`` from the forest
descent to the ranking and builds result objects only for what a caller
reads.  These checks hold it to the sequential engine over random lakes
written to (adds, removals, re-adds, re-indexes), evidence subsets,
explicit weights, k and ``exclude_self``, and over indexes whose ids are
assigned afresh: a persistence round trip, and a shared-snapshot attach
brought up to date by a delta.  They also count the objects a warm request
constructs.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import DiscoverySession, QueryRequest, TableRanking
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.persistence import load_engine, save_engine
from repro.core.profiles import AttributeMatch
from repro.core.shared import SharedIndexSnapshot, apply_index_delta, build_index_delta
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.lake.datalake import AttributeRef, DataLake

CONFIG = D3LConfig(num_hashes=64, num_trees=8, min_candidates=12, embedding_dimension=16)

SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def corpora():
    return [
        generate_synthetic_benchmark(
            SyntheticBenchmarkConfig(
                num_base_tables=3,
                tables_per_base=4,
                base_rows=40,
                min_rows=12,
                max_rows=30,
                seed=seed,
            )
        ).lake.tables
        for seed in (5, 17)
    ]


def _answer(d3l, target, **options):
    """The full explained ranking of a request, as wire data."""
    response = DiscoverySession(d3l).submit(
        QueryRequest(target=target, explain=True, **options)
    )
    payload = response.to_dict()
    payload.pop("engine")
    return payload


def assert_batched_equals_sequential(engine, oracle, targets, options):
    for target in targets:
        assert _answer(engine, target, **options) == _answer(
            oracle, target, engine="sequential", **options
        )


request_options = st.fixed_dictionaries(
    {"k": st.integers(min_value=1, max_value=8), "exclude_self": st.booleans()},
    optional={
        "evidence": st.lists(
            st.sampled_from(list("NVFED")), min_size=1, max_size=5, unique=True
        ),
        "weights": st.dictionaries(
            st.sampled_from(list("NVFED")),
            st.sampled_from([0.0, 0.25, 1.0, 3.0]),
            min_size=1,
        ),
    },
)

writes = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "readd", "reindex"]), st.integers(0, 99)),
    max_size=6,
)


def _write(engine, tables, live, history):
    """Apply a write history to ``engine``; ``live`` tracks its tables by name."""
    spare = list(tables[8:])
    removed = []
    for step, (op, pick) in enumerate(history):
        names = sorted(live)
        if op == "add":
            table = spare[pick % len(spare)].with_name(f"added_{step}")
            live[table.name] = table
            engine.index_table(table)
        elif op == "remove" and len(live) > 4:
            name = names[pick % len(names)]
            removed.append(live.pop(name))
            engine.remove_table(name)
        elif op == "readd" and removed:
            table = removed.pop(pick % len(removed))
            live[table.name] = table
            engine.index_table(table)
        elif op == "reindex":
            name = names[pick % len(names)]
            live[name] = tables[pick % len(tables)].with_name(name)
            engine.index_table(live[name])


def _written_engine(tables, history):
    """An engine over the first eight tables with ``history`` written to it,
    and its tables by name."""
    live = {table.name: table for table in tables[:8]}
    engine = D3L(config=CONFIG)
    engine.index_lake(DataLake("ids", list(live.values())))
    _write(engine, tables, live, history)
    return engine, live


class TestIdPathEqualsSequential:
    @settings(max_examples=12, **SETTINGS)
    @given(corpus=st.integers(0, 1), history=writes, options=request_options)
    def test_after_writes(self, corpora, corpus, history, options):
        tables = corpora[corpus]
        engine, live = _written_engine(tables, history)
        with engine:
            targets = [live[sorted(live)[0]], tables[-1].with_name("outside")]
            assert_batched_equals_sequential(engine, engine, targets, options)

    @settings(max_examples=5, **SETTINGS)
    @given(history=writes, options=request_options)
    def test_a_loaded_engine_answers_as_the_saved_one(
        self, corpora, tmp_path_factory, history, options
    ):
        engine, live = _written_engine(corpora[0], history)
        path = tmp_path_factory.mktemp("ids") / "engine.d3l"
        with engine:
            save_engine(engine, path)
            with load_engine(path) as loaded:
                targets = [live[name] for name in sorted(live)[:2]]
                assert_batched_equals_sequential(loaded, engine, targets, options)

    @settings(max_examples=5, **SETTINGS)
    @given(history=writes, options=request_options)
    def test_an_attached_snapshot_after_a_delta_answers_as_the_host(
        self, corpora, history, options
    ):
        tables = corpora[1]
        host, live = _written_engine(tables, [])
        snapshot = SharedIndexSnapshot.create(host.indexes)
        try:
            replica = D3L(config=CONFIG)
            replica.indexes = SharedIndexSnapshot.attach(snapshot.descriptor)
            # The host moves on; the replica catches up through a delta.
            _write(host, tables, live, history)
            delta = build_index_delta(host.indexes, snapshot.version)
            if delta is not None:
                apply_index_delta(replica.indexes, delta)
            targets = [live[name] for name in sorted(live)[:2]]
            assert_batched_equals_sequential(replica, host, targets, options)
        finally:
            snapshot.close()
            host.close()


class TestObjectsPerRequest:
    @pytest.fixture
    def constructed(self, monkeypatch):
        """Counts the objects of each kind constructed while the test runs."""
        counts = Counter()
        for kind in (AttributeRef, AttributeMatch, TableRanking):
            original = kind.__init__

            def counting(self, *args, _kind=kind, _original=original, **kwargs):
                counts[_kind] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(kind, "__init__", counting)
        return counts

    @pytest.fixture(scope="class")
    def engine(self, corpora):
        with D3L(config=CONFIG) as engine:
            engine.index_lake(DataLake("objects", corpora[0]))
            yield engine

    def _warm(self, engine, request):
        session = DiscoverySession(engine)
        expected = session.submit(request).truncated().to_dict()
        return session, expected

    def test_a_warm_request_builds_rankings_for_its_answer_only(
        self, engine, corpora, constructed
    ):
        request = QueryRequest(target=corpora[0][0], k=10)
        session, expected = self._warm(engine, request)
        constructed.clear()
        response = session.submit(request)
        assert response.truncated().to_dict() == expected
        assert len(response.results) > request.k  # the full ranking is there
        assert constructed[AttributeRef] == 0
        assert constructed[AttributeMatch] == 0
        assert constructed[TableRanking] <= request.k

    def test_a_joins_explain_request_builds_the_wire_rankings_only(
        self, engine, corpora, constructed
    ):
        request = QueryRequest(target=corpora[0][0], k=5, joins=True, explain=True)
        session, expected = self._warm(engine, request)
        constructed.clear()
        response = session.submit(request)
        assert response.truncated().to_dict() == expected
        assert len(response.results) > request.k
        assert constructed[TableRanking] == request.k
        arity = len(corpora[0][0].columns)
        assert 0 < constructed[AttributeMatch] <= request.k * arity
