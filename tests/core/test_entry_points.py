"""One query entry point and one SA-join verification route.

``DiscoverySession.submit(QueryRequest)`` is the only public way to run a
query.  Each request shape must reach the private engine it names
(``_execute_query``, ``_execute_query_batch``, the two attribute engines,
``augment_with_joins``) and come back as that engine's answer, field for
field; a request is rejected exactly where the engines would reject it,
with the engines' messages.

``ExecutionBackend.verify_overlaps`` is the only way an SA-join overlap is
verified.  Every backend, at any worker count, must return the exact overlap
coefficient of each pair's value samples, and ``SAJoinGraph.build`` must
send every candidate pair it does not already hold through the backend it
is given — or through an in-process serial backend when given none.
"""

import itertools
import warnings
from types import SimpleNamespace

import pytest

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.execution import (
    BACKENDS,
    ExecutionBackend,
    SerialBackend,
    create_backend,
)
from repro.core.joins import JoinOverlapCache, SAJoinGraph
from repro.core.weights import EvidenceWeights
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.evaluation.experiments import _d3l_joined_tables

K = 3


def _config(**overrides):
    return D3LConfig(
        num_hashes=64,
        num_trees=8,
        min_candidates=20,
        embedding_dimension=16,
        **overrides,
    )


@pytest.fixture(scope="module")
def corpus():
    # Seed 29: every first-family target reaches other tables along SA-join
    # paths at k = 1..3, so the join comparisons below are never vacuous.
    return generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3,
            tables_per_base=3,
            base_rows=40,
            min_rows=20,
            max_rows=35,
            seed=29,
        )
    )


@pytest.fixture(scope="module")
def engine(corpus):
    with D3L(config=_config()) as engine:
        engine.index_lake(corpus.lake)
        yield engine


@pytest.fixture(scope="module")
def target(corpus):
    return corpus.lake.tables[0]


def submit(d3l, **fields):
    """One request through a fresh session (no profile shared between calls)."""
    return DiscoverySession(d3l).submit(QueryRequest(**fields))


def plain(distances):
    return {evidence: float(value) for evidence, value in distances.items()}


def ranking_rows(rankings):
    """Every field an explained table ranking carries, as plain values.

    Accepts the engines' ``TableResult`` list and a response's
    ``TableRanking`` list alike.
    """
    return [
        (
            entry.table_name,
            float(entry.distance),
            plain(entry.evidence_distances),
            list(entry.matches),
        )
        for entry in rankings
    ]


def edge_rows(graph):
    return [(edge.left, edge.right, edge.overlap) for edge in graph.edges()]


def exact_overlap(indexes, left, right):
    """Oracle: ``|A ∩ B| / min(|A|, |B|)`` of two attributes' value samples."""
    first = indexes.profiles[left].value_sample
    second = indexes.profiles[right].value_sample
    if not first or not second:
        return 0.0
    return len(first & second) / min(len(first), len(second))


WEIGHTS = EvidenceWeights.single(EvidenceType.FORMAT)
SUBSET = (EvidenceType.NAME, EvidenceType.VALUE)

#: Table-level request options, and the private engine call each must equal.
TABLE_SHAPES = {
    "sequential": (
        {"engine": "sequential"},
        lambda engine, target: engine._execute_query(target, K),
    ),
    "batched": (
        {},
        lambda engine, target: engine._execute_query_batch(target, K),
    ),
    "sequential-self-included": (
        {"engine": "sequential", "exclude_self": False},
        lambda engine, target: engine._execute_query(target, K, exclude_self=False),
    ),
    "batched-self-included": (
        {"exclude_self": False},
        lambda engine, target: engine._execute_query_batch(
            target, K, exclude_self=False
        ),
    ),
    "sequential-evidence-subset": (
        {"engine": "sequential", "evidence": SUBSET},
        lambda engine, target: engine._execute_query(target, K, evidence_types=SUBSET),
    ),
    "batched-evidence-subset": (
        {"evidence": SUBSET},
        lambda engine, target: engine._execute_query_batch(
            target, K, evidence_types=SUBSET
        ),
    ),
    "sequential-weights": (
        {"engine": "sequential", "weights": WEIGHTS},
        lambda engine, target: engine._execute_query(target, K, weights=WEIGHTS),
    ),
    "batched-weights": (
        {"weights": WEIGHTS},
        lambda engine, target: engine._execute_query_batch(target, K, weights=WEIGHTS),
    ),
}


class TestTableRequests:
    @pytest.mark.parametrize("shape", sorted(TABLE_SHAPES))
    def test_response_is_the_named_engines_answer(self, engine, target, shape):
        options, run = TABLE_SHAPES[shape]
        response = submit(engine, target=target, k=K, explain=True, **options)
        result = run(engine, target)
        assert response.mode == "table"
        assert response.engine == options.get("engine", "batched")
        assert (response.target_name, response.target_arity, response.k) == (
            result.target_name,
            result.target_arity,
            result.requested_k,
        )
        assert response.results
        assert ranking_rows(response.results) == ranking_rows(result.results)
        assert response.join_paths is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("engine_name", ["sequential", "batched"])
    def test_joins_block_is_augment_with_joins_of_the_ranking(
        self, engine, target, engine_name, k
    ):
        response = submit(engine, target=target, k=k, joins=True, engine=engine_name)
        run = (
            engine._execute_query
            if engine_name == "sequential"
            else engine._execute_query_batch
        )
        augmented = engine.augment_with_joins(run(target, k), k)
        block = response.join_paths
        assert len(block.paths) > 0
        assert block.paths == augmented.join_paths
        assert block.joined_tables == sorted(augmented.joined_tables)
        assert block.truncated == augmented.truncated
        assert response.table_names() == augmented.base.table_names()

    def test_capped_joins_block_carries_the_engines_truncated_flag(
        self, corpus, target
    ):
        with D3L(config=_config(max_join_paths=2)) as capped:
            capped.index_lake(corpus.lake)
            response = submit(capped, target=target, k=K, joins=True)
            augmented = capped.augment_with_joins(
                capped._execute_query_batch(target, K), K
            )
        assert augmented.truncated
        assert response.join_paths.truncated
        assert response.join_paths.paths == augmented.join_paths
        assert len(response.join_paths.paths) == 2

    @pytest.mark.parametrize("k", [1, 3])
    def test_experiment_join_helper_equals_the_served_joins_answer(
        self, engine, target, k
    ):
        base, per_start = _d3l_joined_tables(SimpleNamespace(d3l=engine), target, k)
        response = submit(engine, target=target, k=k, joins=True)
        top = set(response.table_names(k))
        assert base.table_names(k) == response.table_names(k)
        assert per_start == {
            start: response.join_paths.paths.reached_from(start) - top
            for start in top
        }
        assert any(per_start.values())


#: Attribute-level request options, and the private engine answers they name.
ATTRIBUTE_SHAPES = {
    "sequential-all": (
        {"engine": "sequential"},
        lambda engine, target, names: {
            name: engine._execute_related_attributes(target, name, k=K)
            for name in names
        },
    ),
    "batched-all": (
        {},
        lambda engine, target, names: engine._execute_related_attributes_bulk(
            target, names, k=K
        ),
    ),
    "sequential-subset-self-included": (
        {"engine": "sequential", "exclude_self": False},
        lambda engine, target, names: {
            name: engine._execute_related_attributes(
                target, name, k=K, exclude_self=False
            )
            for name in names
        },
    ),
    "batched-subset-self-included": (
        {"exclude_self": False},
        lambda engine, target, names: engine._execute_related_attributes_bulk(
            target, names, k=K, exclude_self=False
        ),
    ),
    "batched-weights": (
        {"weights": WEIGHTS},
        lambda engine, target, names: engine._execute_related_attributes_bulk(
            target, names, k=K, weights=WEIGHTS
        ),
    ),
}


class TestAttributeRequests:
    @pytest.mark.parametrize("shape", sorted(ATTRIBUTE_SHAPES))
    def test_response_is_the_named_engines_answer(self, engine, target, shape):
        options, run = ATTRIBUTE_SHAPES[shape]
        columns = [column.name for column in target.columns]
        # Subsets ask in a non-column order, with a repeat the request drops.
        names = columns if shape.endswith("-all") else [columns[2], columns[0], columns[2]]
        response = DiscoverySession(engine).related_attributes(
            target, names, k=K, explain=True, **options
        )
        answers = run(engine, target, list(dict.fromkeys(names)))
        assert response.mode == "attributes"
        assert response.engine == options.get("engine", "batched")
        assert list(response.attribute_results) == list(dict.fromkeys(names))
        assert list(answers) == list(response.attribute_results)
        for name, entries in answers.items():
            assert entries
            assert [
                (entry.source, entry.distance, entry.distances)
                for entry in response.attribute_results[name]
            ] == [
                (entry.ref, float(entry.distance), plain(entry.distances))
                for entry in entries
            ]


#: Every private engine, called with the request's ``k``.
ENGINE_CALLS = {
    "sequential": lambda engine, target, k: engine._execute_query(target, k),
    "batched": lambda engine, target, k: engine._execute_query_batch(target, k),
    "attribute": lambda engine, target, k: engine._execute_related_attributes(
        target, target.columns[0].name, k=k
    ),
    "attribute-bulk": lambda engine, target, k: engine._execute_related_attributes_bulk(
        target, k=k
    ),
}


class TestSharedValidation:
    """A request is refused where the engine it names would refuse it."""

    @pytest.mark.parametrize("call", sorted(ENGINE_CALLS))
    def test_nonpositive_k_is_refused_with_the_engines_message(
        self, engine, target, call
    ):
        for k in (0, -1):
            with pytest.raises(ValueError) as refused:
                QueryRequest(target=target, k=k)
            with pytest.raises(ValueError) as engine_refused:
                ENGINE_CALLS[call](engine, target, k)
            assert str(refused.value) == str(engine_refused.value) == "k must be positive"

    @pytest.mark.parametrize("engine_name", ["sequential", "batched"])
    def test_unknown_attribute_is_refused_with_the_engines_message(
        self, engine, target, engine_name
    ):
        with pytest.raises(KeyError) as refused:
            DiscoverySession(engine).related_attributes(
                target, ["no_such_column"], k=K, engine=engine_name
            )
        with pytest.raises(KeyError) as engine_refused:
            if engine_name == "sequential":
                engine._execute_related_attributes(target, "no_such_column", k=K)
            else:
                engine._execute_related_attributes_bulk(target, ["no_such_column"], k=K)
        assert str(refused.value) == str(engine_refused.value)
        assert "has no attribute 'no_such_column'" in str(refused.value)


@pytest.fixture()
def verification_calls(monkeypatch):
    """Every ``verify_overlaps`` call as ``(backend, pairs)``, answers unchanged."""
    calls = []
    verify = ExecutionBackend.verify_overlaps

    def recording(self, pairs):
        pairs = list(pairs)
        calls.append((self, pairs))
        return verify(self, pairs)

    monkeypatch.setattr(ExecutionBackend, "verify_overlaps", recording)
    return calls


class TestVerifyOverlaps:
    @pytest.mark.parametrize(
        "kind, workers",
        [
            ("serial", 1),
            ("serial", 3),
            ("process", 2),
            ("process", 3),
        ],
    )
    def test_every_backend_returns_the_exact_overlap(self, engine, kind, workers):
        refs = sorted(engine.indexes.profiles)
        # Both orientations of every pair, plus repeats the backend folds.
        pairs = list(itertools.permutations(refs, 2)) + list(
            itertools.combinations(refs[:4], 2)
        )
        with create_backend(kind, engine.indexes, workers) as backend:
            overlaps = backend.verify_overlaps(pairs)
        assert overlaps == {
            pair: exact_overlap(engine.indexes, *pair) for pair in set(pairs)
        }
        assert 0.0 < max(overlaps.values())

    def test_a_single_pair_is_verified_without_starting_workers(self, engine):
        left, right = sorted(engine.indexes.profiles)[:2]
        with create_backend("process", engine.indexes, 3) as backend:
            overlaps = backend.verify_overlaps([(left, right), (left, right)])
            assert backend.worker_pids() == set()
            assert backend.snapshot is None
        assert overlaps == {(left, right): exact_overlap(engine.indexes, left, right)}

    def test_no_pairs_verify_to_nothing_on_every_backend(self, engine):
        for kind in BACKENDS:
            with create_backend(kind, engine.indexes, 2) as backend:
                assert backend.verify_overlaps([]) == {}
                assert backend.snapshot is None


class TestJoinGraphVerification:
    @pytest.mark.parametrize(
        "kind, workers", [(None, 1), ("serial", 1), ("process", 2)]
    )
    def test_build_verifies_every_candidate_in_one_backend_call(
        self, engine, verification_calls, kind, workers
    ):
        oracle = SAJoinGraph.build_sequential(engine.indexes, engine.config)
        if kind is None:
            graph = SAJoinGraph.build(engine.indexes, engine.config)
        else:
            with create_backend(kind, engine.indexes, workers) as backend:
                graph = SAJoinGraph.build(
                    engine.indexes, engine.config, backend=backend
                )
        [(verifier, pairs)] = verification_calls
        if kind is None:
            assert type(verifier) is SerialBackend
            assert verifier.indexes is engine.indexes
        else:
            assert verifier is backend
        assert graph.edge_count() > 0
        assert edge_rows(graph) == edge_rows(oracle)
        # Every edge's overlap is the verified one of a pair sent for it.
        sent = set(pairs)
        for left, right, overlap in edge_rows(graph):
            assert (left, right) in sent
            assert overlap == exact_overlap(engine.indexes, left, right)

    def test_build_borrows_the_callers_backend_without_closing_it(self, engine):
        with create_backend("process", engine.indexes, 2) as backend:
            first = SAJoinGraph.build(engine.indexes, engine.config, backend=backend)
            workers = backend.worker_pids()
            second = SAJoinGraph.build(engine.indexes, engine.config, backend=backend)
            assert workers
            assert backend.worker_pids() == workers
        assert edge_rows(first) == edge_rows(second)

    def test_overlap_cache_sends_only_unverified_pairs(self, engine, verification_calls):
        cache = JoinOverlapCache()
        first = SAJoinGraph.build(engine.indexes, engine.config, overlap_cache=cache)
        second = SAJoinGraph.build(engine.indexes, engine.config, overlap_cache=cache)
        [(_, first_pairs), (_, second_pairs)] = verification_calls
        assert first_pairs
        assert second_pairs == []
        assert dict(cache) == {
            pair: exact_overlap(engine.indexes, *pair) for pair in first_pairs
        }
        assert edge_rows(first) == edge_rows(second)

    @pytest.mark.parametrize(
        "workers, backend",
        [(None, "process"), (1, "process"), (2, "serial"), (2, "process")],
    )
    def test_engine_verifies_on_a_backend_opened_for_the_call(
        self, corpus, monkeypatch, workers, backend
    ):
        passed, workers_during_build = [], []
        build = SAJoinGraph.build.__func__

        def recording(cls, indexes, config=None, backend=None, **options):
            passed.append(backend)
            graph = build(cls, indexes, config, backend=backend, **options)
            if backend is not None and backend.kind == "process":
                workers_during_build.append(backend.worker_pids())
            return graph

        monkeypatch.setattr(SAJoinGraph, "build", classmethod(recording))
        with D3L(config=_config()) as engine:
            engine.index_lake(corpus.lake)
            graph = engine.build_join_graph(workers=workers, backend=backend)
            oracle = SAJoinGraph.build_sequential(engine.indexes, engine.config)
        if workers is None or workers == 1:
            assert passed == [None]
        else:
            [verifier] = passed
            assert (verifier.kind, verifier.workers) == (backend, workers)
            assert verifier.indexes is engine.indexes
            if backend == "process":
                # Workers verified the build, and were stopped on the way out.
                [pids] = workers_during_build
                assert pids
                assert verifier.worker_pids() == set()
                assert verifier.snapshot is None
        assert edge_rows(graph) == edge_rows(oracle)


class TestRetiredEntryPoints:
    def test_engine_has_no_public_query_methods(self):
        public = {name for name in dir(D3L) if not name.startswith("_")}
        assert {
            name for name in public if name.startswith(("query", "related_attributes"))
        } == set()

    def test_deprecation_warnings_fail_the_suite(self):
        with pytest.raises(DeprecationWarning, match="retired"):
            warnings.warn("retired", DeprecationWarning)
