"""Tests for the unified discovery-service API (``repro.core.api``).

The protocol contract: a frozen, validated ``QueryRequest``; a
``QueryResponse`` that round-trips losslessly through JSON; and a
``DiscoverySession`` — the one way to run a query — whose answers equal the
engines' and whose profile cache is invalidated on lake mutation and never
changes an answer.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.api import (
    TRUNCATED_JOIN_PATH_CAP,
    DiscoverySession,
    JoinPathsBlock,
    QueryRequest,
    QueryResponse,
    query_request_from_wire,
    query_request_to_wire,
)
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.joins import JoinPathTree
from repro.core.persistence import PersistenceError, load_session, save_session
from repro.core.weights import EvidenceWeights
from repro.tables.column import Column
from repro.tables.table import Table


@pytest.fixture()
def mutable_engine(figure1_tables, fast_config):
    """A small engine private to the test (safe to mutate)."""
    engine = D3L(config=fast_config)
    engine.index_lake(figure1_tables["lake"])
    return engine


@pytest.fixture()
def extra_table():
    return Table.from_dict(
        "clinics_extra",
        {
            "Clinic": ["Ordsall Health", "Harpurhey Practice"],
            "City": ["Salford", "Manchester"],
            "Postcode": ["M5 3EL", "M9 4BP"],
        },
    )


class TestQueryRequestValidation:
    def test_rejects_nonpositive_k(self, figure1_tables):
        target = figure1_tables["target"]
        with pytest.raises(ValueError, match="^k must be positive$"):
            QueryRequest(target=target, k=0)
        with pytest.raises(ValueError, match="^k must be positive$"):
            QueryRequest(target=target, k=-3)

    def test_rejects_non_integer_k(self, figure1_tables):
        with pytest.raises(ValueError, match="k must be an integer"):
            QueryRequest(target=figure1_tables["target"], k=2.5)

    def test_rejects_unknown_evidence(self, figure1_tables):
        with pytest.raises(ValueError, match="unknown evidence type 'X'"):
            QueryRequest(target=figure1_tables["target"], evidence=["X"])

    def test_rejects_empty_evidence(self, figure1_tables):
        with pytest.raises(ValueError, match="evidence subset must not be empty"):
            QueryRequest(target=figure1_tables["target"], evidence=[])

    def test_accepts_codes_names_and_members(self, figure1_tables):
        request = QueryRequest(
            target=figure1_tables["target"],
            evidence=["N", "value", EvidenceType.FORMAT],
        )
        assert request.evidence == (
            EvidenceType.NAME,
            EvidenceType.VALUE,
            EvidenceType.FORMAT,
        )

    def test_rejects_nonpositive_workers(self, figure1_tables):
        with pytest.raises(ValueError, match="^workers must be positive$"):
            QueryRequest(target=figure1_tables["target"], workers=0)

    def test_rejects_unknown_engine(self, figure1_tables):
        with pytest.raises(ValueError, match="unknown engine"):
            QueryRequest(target=figure1_tables["target"], engine="quantum")

    def test_rejects_negative_weights(self, figure1_tables):
        with pytest.raises(ValueError, match="finite and non-negative"):
            QueryRequest(
                target=figure1_tables["target"], weights={EvidenceType.NAME: -1.0}
            )
        with pytest.raises(ValueError, match="finite and non-negative"):
            QueryRequest(target=figure1_tables["target"], weights={"V": float("nan")})

    def test_rejects_unknown_attribute(self, figure1_tables):
        with pytest.raises(KeyError, match="has no attribute 'NotAColumn'"):
            QueryRequest(target=figure1_tables["target"], attributes=["NotAColumn"])

    def test_rejects_attributes_on_profiles(self, figure1_engine, figure1_tables):
        profile = figure1_engine.profile_target(figure1_tables["target"])
        with pytest.raises(ValueError, match="raw Table target"):
            QueryRequest(target=profile, attributes=["City"])

    def test_rejects_evidence_with_attributes(self, figure1_tables):
        with pytest.raises(ValueError, match="not supported for attribute-level"):
            QueryRequest(
                target=figure1_tables["target"], attributes=["City"], evidence=["N"]
            )

    def test_rejects_non_table_target(self):
        with pytest.raises(TypeError, match="Table or a TableProfile"):
            QueryRequest(target="not a table")

    def test_request_is_frozen(self, figure1_tables):
        request = QueryRequest(target=figure1_tables["target"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.k = 3

    def test_reuses_config_error_message_format(self):
        """Satellite: QueryRequest and D3LConfig share validation wording."""
        with pytest.raises(ValueError, match="^num_hashes must be positive$"):
            D3LConfig(num_hashes=-4)
        with pytest.raises(ValueError, match="^k must be positive$"):
            QueryRequest(target=Table.from_dict("t", {"a": ["x"]}), k=0)


class TestQueryResponseRoundTrip:
    @pytest.mark.parametrize("explain", [False, True])
    def test_table_mode_lossless(self, figure1_engine, figure1_tables, explain):
        session = DiscoverySession(figure1_engine)
        response = session.submit(
            QueryRequest(target=figure1_tables["target"], k=2, explain=explain)
        )
        wire = json.loads(json.dumps(response.to_dict()))
        restored = QueryResponse.from_dict(wire)
        assert restored == response
        assert restored.to_dict() == response.to_dict()

    def test_attribute_mode_lossless(self, figure1_engine, figure1_tables):
        session = DiscoverySession(figure1_engine)
        response = session.related_attributes(
            figure1_tables["target"], k=3, explain=True
        )
        wire = json.loads(json.dumps(response.to_dict()))
        assert QueryResponse.from_dict(wire) == response

    def test_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="is not"):
            QueryResponse.from_dict({"format": "something/v9"})

    def test_truncated_keeps_only_top_k(self, figure1_engine, figure1_tables):
        session = DiscoverySession(figure1_engine)
        response = session.submit(
            QueryRequest(target=figure1_tables["target"], k=1, exclude_self=False)
        )
        assert len(response.results) > 1  # full candidate ranking retained
        sliced = response.truncated()
        assert len(sliced.results) == 1
        assert sliced.results == response.top(1)
        assert len(response.results) > 1  # original untouched
        wire = json.loads(json.dumps(sliced.to_dict()))
        assert QueryResponse.from_dict(wire) == sliced

    def test_explain_carries_decomposition_and_weights(
        self, figure1_engine, figure1_tables
    ):
        session = DiscoverySession(figure1_engine)
        response = session.submit(
            QueryRequest(target=figure1_tables["target"], k=2, explain=True)
        )
        top = response.top()[0]
        assert set(top.evidence_distances) == set(EvidenceType.all())
        assert top.matches, "explain responses carry attribute alignments"
        match = top.matches[0]
        assert set(match.distances) == set(EvidenceType.all())
        assert set(match.weights) == set(EvidenceType.all())
        plain = session.submit(QueryRequest(target=figure1_tables["target"], k=2))
        assert plain.top()[0].evidence_distances is None
        assert plain.top()[0].matches is None


class TestPlannerEquivalence:
    """submit() must be bit-identical to the sequential oracle."""

    EVIDENCE_SUBSETS = [
        None,
        (EvidenceType.NAME,),
        (EvidenceType.VALUE, EvidenceType.FORMAT),
        (EvidenceType.EMBEDDING,),
        EvidenceType.all(),
    ]

    @pytest.mark.parametrize("evidence", EVIDENCE_SUBSETS)
    def test_session_matches_oracle_per_evidence(
        self, indexed_d3l, small_synthetic_benchmark, evidence
    ):
        target = small_synthetic_benchmark.lake.tables[0]
        session = DiscoverySession(indexed_d3l)
        response = session.submit(QueryRequest(target=target, k=5, evidence=evidence))
        oracle = indexed_d3l._execute_query(target, k=5, evidence_types=evidence)
        assert [(r.table_name, r.distance) for r in response.results] == [
            (r.table_name, r.distance) for r in oracle.results
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_session_matches_oracle_across_workers(
        self, indexed_d3l, small_synthetic_benchmark, workers
    ):
        target = small_synthetic_benchmark.lake.tables[2]
        session = DiscoverySession(indexed_d3l)
        response = session.submit(QueryRequest(target=target, k=5, workers=workers))
        oracle = indexed_d3l._execute_query(target, k=5)
        assert [(r.table_name, r.distance) for r in response.results] == [
            (r.table_name, r.distance) for r in oracle.results
        ]

    def test_sequential_engine_request(self, indexed_d3l, small_synthetic_benchmark):
        target = small_synthetic_benchmark.lake.tables[1]
        session = DiscoverySession(indexed_d3l)
        sequential = session.submit(
            QueryRequest(target=target, k=5, engine="sequential")
        )
        batched = session.submit(QueryRequest(target=target, k=5))
        assert [(r.table_name, r.distance) for r in sequential.results] == [
            (r.table_name, r.distance) for r in batched.results
        ]

    def test_attribute_mode_matches_bulk(self, indexed_d3l, small_synthetic_benchmark):
        target = small_synthetic_benchmark.lake.tables[0]
        session = DiscoverySession(indexed_d3l)
        response = session.related_attributes(target, k=4)
        bulk = indexed_d3l._execute_related_attributes_bulk(target, k=4)
        assert set(response.attribute_results) == set(bulk)
        for name, entries in bulk.items():
            assert [(entry.ref, entry.distance) for entry in entries] == [
                (entry.source, entry.distance)
                for entry in response.attribute_results[name]
            ]

    def test_cached_submit_is_identical(self, indexed_d3l, small_synthetic_benchmark):
        target = small_synthetic_benchmark.lake.tables[3]
        session = DiscoverySession(indexed_d3l)
        first = session.submit(QueryRequest(target=target, k=5, explain=True))
        second = session.submit(QueryRequest(target=target, k=5, explain=True))
        assert session.cache_info()["hits"] == 1
        assert first == second

    def test_weight_overrides_respected(self, indexed_d3l, small_synthetic_benchmark):
        target = small_synthetic_benchmark.lake.tables[0]
        session = DiscoverySession(indexed_d3l)
        weights = EvidenceWeights.single(EvidenceType.VALUE)
        response = session.submit(QueryRequest(target=target, k=5, weights=weights))
        oracle = indexed_d3l._execute_query(target, k=5, weights=weights)
        assert [(r.table_name, r.distance) for r in response.results] == [
            (r.table_name, r.distance) for r in oracle.results
        ]
        assert response.ranking_weights[EvidenceType.VALUE] == 1.0
        assert response.ranking_weights[EvidenceType.NAME] == 0.0


class TestSessionCacheLifecycle:
    def test_unrelated_cache_entries_survive_index_table(
        self, mutable_engine, figure1_tables, extra_table
    ):
        # Mutating one lake table evicts per table: the cached entry of an
        # unrelated target survives, yet answers still see the new table
        # (the memoized profile/signatures are functions of the target only).
        target = figure1_tables["target"]
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=target, k=2))
        session.submit(QueryRequest(target=target, k=2))
        assert session.cache_info() == {
            "hits": 1,
            "misses": 1,
            "size": 1,
            "capacity": 64,
        }
        mutable_engine.index_table(extra_table)
        response = session.submit(QueryRequest(target=target, k=5))
        assert session.cache_info()["hits"] == 2
        assert session.cache_info()["misses"] == 1
        oracle = mutable_engine._execute_query(target, k=5)
        assert [(r.table_name, r.distance) for r in response.results] == [
            (r.table_name, r.distance) for r in oracle.results
        ]
        assert "clinics_extra" in {r.table_name for r in response.results}

    def test_unrelated_cache_entries_survive_remove_table(
        self, mutable_engine, figure1_tables
    ):
        target = figure1_tables["target"]
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=target, k=2))
        assert mutable_engine.remove_table("gp_funding_s2")
        response = session.submit(QueryRequest(target=target, k=5))
        assert session.cache_info()["hits"] == 1
        assert session.cache_info()["misses"] == 1
        assert "gp_funding_s2" not in {r.table_name for r in response.results}

    def test_mutated_table_evicts_its_own_cache_entry(
        self, mutable_engine, figure1_tables
    ):
        # An entry caching a target that shares its name with the mutated
        # lake table IS evicted — its profile may describe stale content.
        source = figure1_tables["sources"][0]
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=source, k=2, exclude_self=False))
        mutable_engine.index_table(source)
        session.submit(QueryRequest(target=source, k=2, exclude_self=False))
        assert session.cache_info()["hits"] == 0
        assert session.cache_info()["misses"] == 2

    def test_cache_cleared_when_journal_window_exceeded(
        self, mutable_engine, figure1_tables, extra_table
    ):
        target = figure1_tables["target"]
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=target, k=2))
        mutable_engine.index_table(extra_table)
        # Simulate the journal having lost coverage of the gap: the session
        # must fall back to clearing everything.
        mutable_engine.indexes._mutation_log.clear()
        session.submit(QueryRequest(target=target, k=2))
        assert session.cache_info()["hits"] == 0
        assert session.cache_info()["misses"] == 2

    def test_lru_eviction(self, mutable_engine, figure1_tables):
        session = DiscoverySession(mutable_engine, profile_cache_size=1)
        first = figure1_tables["target"]
        second = figure1_tables["sources"][0]
        session.submit(QueryRequest(target=first, k=2, exclude_self=False))
        session.submit(QueryRequest(target=second, k=2, exclude_self=False))
        assert session.cache_info()["size"] == 1
        session.submit(QueryRequest(target=first, k=2, exclude_self=False))
        assert session.cache_info() == {
            "hits": 0,
            "misses": 3,
            "size": 1,
            "capacity": 1,
        }

    def test_rejects_nonpositive_capacity(self, mutable_engine):
        with pytest.raises(ValueError, match="profile_cache_size must be positive"):
            DiscoverySession(mutable_engine, profile_cache_size=0)

    def test_cache_invalidated_on_indexes_rebind(
        self, mutable_engine, figure1_tables, fast_config
    ):
        """Rebinding engine.indexes (e.g. after a restore) must drop the cache,
        even though a fresh indexes object restarts the version counter."""
        target = figure1_tables["target"]
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=target, k=2))
        replacement = D3L(config=fast_config)
        replacement.index_lake(figure1_tables["lake"])
        mutable_engine.indexes = replacement.indexes
        response = session.submit(QueryRequest(target=target, k=2))
        assert session.cache_info()["misses"] == 2
        oracle = mutable_engine._execute_query(target, k=2)
        assert [(r.table_name, r.distance) for r in response.results] == [
            (r.table_name, r.distance) for r in oracle.results
        ]

    def test_profile_targets_are_cached_by_identity(
        self, mutable_engine, figure1_tables
    ):
        profile = mutable_engine.profile_target(figure1_tables["target"])
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=profile, k=2))
        session.submit(QueryRequest(target=profile, k=2))
        assert session.cache_info()["hits"] == 1


def _per_cell_fingerprint(target):
    """The session cache key hashed one cell at a time (the reference)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(target.name.encode("utf-8", "surrogatepass"))
    for column in target.columns:
        digest.update(b"\x00")
        digest.update(column.name.encode("utf-8", "surrogatepass"))
        for value in column.values:
            digest.update(b"\x1f")
            digest.update(repr(value).encode("utf-8", "surrogatepass"))
    return ("table", digest.hexdigest())


class _Surrogate:
    """A value whose repr holds lone surrogates, which repr of a str escapes."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


class TestSessionCacheKey:
    @pytest.mark.parametrize(
        "columns",
        [
            [Column("städte", ["Zürich", "東京", "naïve — ok", ""])],
            [Column("raw", [_Surrogate("\ud800"), _Surrogate("x\udfff"), "\ud83d", "a"])],
            [Column("pair", [_Surrogate("\ud83d"), _Surrogate("\ude00")])],
            [Column("mixed", [None, 0, -7, 2**70, 1.5, float("nan"), True, "1"])],
            [Column("a", []), Column("b", []), Column("c", [])],
            [Column("only", [])],
        ],
        ids=["non-ascii", "surrogates", "split-pair", "scalars", "empty-table", "one-empty"],
    )
    def test_key_equals_the_per_cell_formula(self, columns):
        target = Table("tæble", columns)
        assert DiscoverySession._fingerprint(target) == _per_cell_fingerprint(target)

    def test_cells_do_not_run_into_each_other(self):
        joined = Table("t", [Column("c", ["ab", "c"])])
        split = Table("t", [Column("c", ["a", "bc"])])
        assert DiscoverySession._fingerprint(joined) != DiscoverySession._fingerprint(split)


class TestSessionPersistence:
    def test_round_trip(self, figure1_engine, figure1_tables, tmp_path):
        session = DiscoverySession(figure1_engine, profile_cache_size=7)
        target = figure1_tables["target"]
        before = session.submit(QueryRequest(target=target, k=2, explain=True))
        path = save_session(session, tmp_path / "session.pkl")
        restored = load_session(path)
        assert restored.profile_cache_size == 7
        after = restored.submit(QueryRequest(target=target, k=2, explain=True))
        assert after == before

    def test_session_save_method(self, figure1_engine, tmp_path):
        session = DiscoverySession(figure1_engine)
        path = session.save(tmp_path / "via_method.pkl")
        assert load_session(path).profile_cache_size == session.profile_cache_size

    def test_rejects_engine_payloads(self, figure1_engine, tmp_path):
        from repro.core.persistence import save_engine

        path = save_engine(figure1_engine, tmp_path / "engine.pkl")
        with pytest.raises(PersistenceError, match="d3l_session"):
            load_session(path)


class TestJoinRequests:
    """joins=True: the D3L+J answer on the wire (QueryResponse.join_paths)."""

    def test_joins_rejected_for_attribute_requests(self, figure1_tables):
        with pytest.raises(ValueError, match="join paths are not supported"):
            QueryRequest(
                target=figure1_tables["target"], k=2, attributes=("City",), joins=True
            )

    def test_response_carries_join_block(self, mutable_engine, figure1_tables):
        session = DiscoverySession(mutable_engine)
        response = session.submit(
            QueryRequest(target=figure1_tables["target"], k=2, joins=True)
        )
        block = response.join_paths
        assert block is not None
        assert isinstance(block.truncated, bool)
        assert block.joined_tables == sorted(block.joined_tables)
        for path in block.paths:
            assert len(path.edges) == len(path.tables) - 1

    def test_plain_requests_have_no_join_block(self, mutable_engine, figure1_tables):
        session = DiscoverySession(mutable_engine)
        response = session.submit(QueryRequest(target=figure1_tables["target"], k=2))
        assert response.join_paths is None

    def test_join_block_round_trips_through_json(self, mutable_engine, figure1_tables):
        session = DiscoverySession(mutable_engine)
        for explain in (False, True):
            response = session.submit(
                QueryRequest(
                    target=figure1_tables["target"], k=2, joins=True, explain=explain
                )
            )
            wire = json.loads(json.dumps(response.to_dict()))
            restored = QueryResponse.from_dict(wire)
            assert restored == response
            assert restored.to_dict() == response.to_dict()

    def test_full_join_response_round_trips_tree_against_list(
        self, indexed_d3l, small_synthetic_benchmark
    ):
        target = small_synthetic_benchmark.pick_targets(1, seed=3)[0]
        response = DiscoverySession(indexed_d3l).submit(
            QueryRequest(target=target, k=3, joins=True)
        )
        paths = response.join_paths.paths
        assert isinstance(paths, JoinPathTree)
        assert len(paths) > TRUNCATED_JOIN_PATH_CAP
        restored = QueryResponse.from_dict(response.to_dict())
        assert type(restored.join_paths.paths) is list
        assert restored == response and response == restored
        wire = response.truncated().to_dict()
        assert wire["join_paths"]["paths"] == [
            {"tables": path["tables"], "edges": path["edges"]}
            for path in response.to_dict()["join_paths"]["paths"][:TRUNCATED_JOIN_PATH_CAP]
        ]
        assert wire["join_paths"]["truncated"] is True

    def test_truncated_flag_reaches_the_wire(self, figure1_tables, fast_config):
        config = dataclasses.replace(fast_config, max_join_paths=1)
        engine = D3L(config=config)
        engine.index_lake(figure1_tables["lake"])
        session = DiscoverySession(engine)
        response = session.submit(
            QueryRequest(target=figure1_tables["target"], k=2, joins=True)
        )
        block = response.join_paths
        assert len(block.paths) <= 1
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["join_paths"]["truncated"] == block.truncated

    def test_join_graph_cached_across_session_requests(
        self, mutable_engine, figure1_tables
    ):
        session = DiscoverySession(mutable_engine)
        first = session.submit(
            QueryRequest(target=figure1_tables["target"], k=2, joins=True)
        )
        graph = mutable_engine.cached_join_graph
        assert graph is not None
        second = session.submit(
            QueryRequest(target=figure1_tables["target"], k=2, joins=True)
        )
        assert mutable_engine.cached_join_graph is graph
        assert second == first

    def test_lake_mutation_invalidates_cached_graph(
        self, mutable_engine, figure1_tables, extra_table
    ):
        session = DiscoverySession(mutable_engine)
        session.submit(QueryRequest(target=figure1_tables["target"], k=2, joins=True))
        graph = mutable_engine.cached_join_graph
        assert graph is not None
        mutable_engine.index_table(extra_table)
        assert mutable_engine.cached_join_graph is None
        session.submit(QueryRequest(target=figure1_tables["target"], k=2, joins=True))
        assert mutable_engine.cached_join_graph is not graph


class TestTruncatedJoinPaths:
    """``truncated()`` must bound the join-paths block, not just the rankings.

    Regression: ``repro query --json --joins`` used to emit the full
    unbounded path list while the rendered report capped at 20.
    """

    @staticmethod
    def _response_with_paths(num_paths):
        from repro.core.joins import JoinEdge, JoinPath
        from repro.lake.datalake import AttributeRef

        paths = [
            JoinPath(
                tables=["start", f"hop_{index}"],
                edges=[
                    JoinEdge(
                        left=AttributeRef("start", "key"),
                        right=AttributeRef(f"hop_{index}", "key"),
                        overlap=0.5,
                    )
                ],
            )
            for index in range(num_paths)
        ]
        return QueryResponse(
            target_name="start",
            target_arity=2,
            k=5,
            mode="table",
            engine="batched",
            explain=False,
            evidence=None,
            ranking_weights={evidence: 1.0 for evidence in EvidenceType.all()},
            results=[],
            join_paths=JoinPathsBlock(
                paths=paths,
                joined_tables=sorted({f"hop_{index}" for index in range(num_paths)}),
                truncated=False,
            ),
        )

    def test_caps_paths_and_sets_the_flag(self):
        response = self._response_with_paths(TRUNCATED_JOIN_PATH_CAP + 30)
        sliced = response.truncated()
        assert len(sliced.join_paths.paths) == TRUNCATED_JOIN_PATH_CAP
        assert sliced.join_paths.truncated is True
        assert sliced.join_paths.paths == response.join_paths.paths[:TRUNCATED_JOIN_PATH_CAP]
        # the original keeps the full enumeration and its flag
        assert len(response.join_paths.paths) == TRUNCATED_JOIN_PATH_CAP + 30
        assert response.join_paths.truncated is False
        # joined_tables still summarises the full search
        assert sliced.join_paths.joined_tables == response.join_paths.joined_tables

    def test_within_cap_is_untouched(self):
        response = self._response_with_paths(TRUNCATED_JOIN_PATH_CAP)
        sliced = response.truncated()
        assert sliced.join_paths is response.join_paths
        assert sliced.join_paths.truncated is False

    def test_none_keeps_every_path(self):
        response = self._response_with_paths(TRUNCATED_JOIN_PATH_CAP + 5)
        sliced = response.truncated(max_join_paths=None)
        assert len(sliced.join_paths.paths) == TRUNCATED_JOIN_PATH_CAP + 5
        assert sliced.join_paths.truncated is False

    def test_bounded_wire_payload_round_trips(self):
        response = self._response_with_paths(TRUNCATED_JOIN_PATH_CAP + 10)
        wire = json.loads(json.dumps(response.truncated().to_dict()))
        assert len(wire["join_paths"]["paths"]) == TRUNCATED_JOIN_PATH_CAP
        assert wire["join_paths"]["truncated"] is True
        restored = QueryResponse.from_dict(wire)
        assert restored.to_dict() == wire

    def test_search_truncation_flag_survives_the_cap(self):
        response = self._response_with_paths(3)
        response.join_paths.truncated = True  # mid-walk max_join_paths stop
        sliced = response.truncated()
        assert sliced.join_paths.truncated is True


class TestRequestWireFormat:
    """``query_request_to_wire`` / ``query_request_from_wire`` round trips."""

    def test_basic_round_trip(self, figure1_tables):
        request = QueryRequest(
            target=figure1_tables["target"],
            k=3,
            evidence=["N", "V"],
            explain=True,
            joins=True,
            workers=2,
        )
        wire = json.loads(json.dumps(query_request_to_wire(request)))
        rebuilt = query_request_from_wire(wire)
        assert rebuilt.k == 3
        assert rebuilt.evidence == request.evidence
        assert rebuilt.explain and rebuilt.joins
        assert rebuilt.workers == 2
        assert rebuilt.engine == "batched"
        assert rebuilt.target_name == request.target_name
        assert [column.name for column in rebuilt.target.columns] == [
            column.name for column in request.target.columns
        ]
        assert [list(column.values) for column in rebuilt.target.columns] == [
            list(column.values) for column in request.target.columns
        ]

    def test_weights_and_attributes_travel(self, figure1_tables):
        target = figure1_tables["target"]
        request = QueryRequest(
            target=target,
            k=2,
            weights={"N": 2.0, "V": 1.0, "F": 0.0, "E": 0.0, "D": 0.0},
        )
        wire = json.loads(json.dumps(query_request_to_wire(request)))
        rebuilt = query_request_from_wire(wire)
        assert rebuilt.weights.as_dict()[EvidenceType.NAME] == 2.0
        attr_request = QueryRequest(
            target=target, k=2, attributes=(target.columns[0].name,)
        )
        wire = json.loads(json.dumps(query_request_to_wire(attr_request)))
        rebuilt = query_request_from_wire(wire)
        assert rebuilt.attributes == attr_request.attributes

    def test_format_marker_is_optional_but_checked(self, figure1_tables):
        wire = query_request_to_wire(QueryRequest(target=figure1_tables["target"]))
        assert wire["format"] == "d3l.query_request/v1"
        del wire["format"]
        assert query_request_from_wire(wire).k == 10
        wire["format"] = "something/else"
        with pytest.raises(ValueError, match="is not"):
            query_request_from_wire(wire)

    def test_unknown_fields_are_rejected(self, figure1_tables):
        wire = query_request_to_wire(QueryRequest(target=figure1_tables["target"]))
        wire["answer_size"] = 5
        with pytest.raises(ValueError, match="answer_size"):
            query_request_from_wire(wire)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            {"target": "not a table"},
            {"target": {"name": "t"}},
            {"target": {"name": "t", "columns": [{"name": "c"}]}},
        ],
    )
    def test_malformed_payloads_are_rejected(self, payload):
        with pytest.raises((ValueError, KeyError, TypeError)):
            query_request_from_wire(payload)

    def test_validation_matches_the_constructor(self, figure1_tables):
        wire = query_request_to_wire(QueryRequest(target=figure1_tables["target"]))
        wire["evidence"] = ["bogus"]
        with pytest.raises(ValueError, match="unknown evidence type"):
            query_request_from_wire(wire)
        wire = query_request_to_wire(QueryRequest(target=figure1_tables["target"]))
        wire["k"] = -1
        with pytest.raises(ValueError, match="k"):
            query_request_from_wire(wire)

    def test_profile_targets_cannot_travel(self, figure1_engine, figure1_tables):
        profile = figure1_engine.profile_target(figure1_tables["target"])
        with pytest.raises(ValueError, match="cannot be serialised"):
            query_request_to_wire(QueryRequest(target=profile))


class TestContextManagers:
    """``with D3L(...)`` / ``with DiscoverySession(...)`` release resources."""

    def test_engine_context_manager_closes_pools(self, figure1_tables, fast_config):
        from repro.core.shared import stray_segments

        before = set(stray_segments())
        with D3L(config=fast_config) as engine:
            engine.index_lake(figure1_tables["lake"])
            DiscoverySession(engine).submit(
                QueryRequest(target=figure1_tables["target"], k=2, workers=2)
            )
            assert engine._query_executors
        assert not engine._query_executors
        assert set(stray_segments()) == before

    def test_session_context_manager_closes_engine(
        self, figure1_tables, fast_config
    ):
        engine = D3L(config=fast_config)
        engine.index_lake(figure1_tables["lake"])
        with DiscoverySession(engine) as session:
            session.submit(
                QueryRequest(target=figure1_tables["target"], k=2, workers=2)
            )
            assert engine._query_executors
        assert not engine._query_executors
        assert session.cache_info()["size"] == 0

    def test_exception_path_still_closes(self, figure1_tables, fast_config):
        engine = D3L(config=fast_config)
        engine.index_lake(figure1_tables["lake"])
        with pytest.raises(RuntimeError, match="boom"):
            with DiscoverySession(engine) as session:
                session.submit(
                    QueryRequest(target=figure1_tables["target"], k=2, workers=2)
                )
                raise RuntimeError("boom")
        assert not engine._query_executors
