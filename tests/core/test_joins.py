"""Tests for SA-joinability and Algorithm 3 join-path discovery."""

import dataclasses
import gc
import itertools
import pickle
from typing import List

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discovery import JoinAugmentedResult
from repro.core.evidence import EvidenceType
from repro.core.joins import (
    JoinEdge,
    JoinPath,
    JoinPathSearch,
    JoinPathTree,
    SAJoinGraph,
    _subject_probes,
    estimated_overlap,
    estimated_overlaps,
    find_join_paths,
    paths_from,
    tables_reached,
)
from repro.lake.datalake import AttributeRef


def edge_map(graph: SAJoinGraph) -> dict:
    """Canonical (table pair) -> (left, right, overlap) map for comparison."""
    return {
        tuple(sorted(pair)): (
            graph.edge(*pair).left,
            graph.edge(*pair).right,
            graph.edge(*pair).overlap,
        )
        for pair in graph.graph.edges
    }


class TestEstimatedOverlap:
    def test_identical_sets(self):
        assert estimated_overlap(1.0, 10, 10) == 1.0

    def test_zero_jaccard(self):
        assert estimated_overlap(0.0, 10, 10) == 0.0

    def test_empty_set(self):
        assert estimated_overlap(0.5, 0, 10) == 0.0

    def test_containment_of_small_set_in_large(self):
        # |A|=10 fully contained in |B|=100: J = 10/100 = 0.1,
        # ov estimate = 0.1*110/(1.1*10) = 1.0.
        assert estimated_overlap(0.1, 10, 100) == pytest.approx(1.0)

    def test_clipped_to_one(self):
        assert estimated_overlap(0.9, 10, 1000) == 1.0

    def test_monotone_in_jaccard(self):
        assert estimated_overlap(0.6, 50, 60) > estimated_overlap(0.3, 50, 60)


class TestSAJoinGraph:
    def test_figure1_join_graph_connects_gp_tables(self, figure1_engine):
        graph = figure1_engine.join_graph
        assert set(graph.table_names) == {
            "gp_practices_s1",
            "gp_funding_s2",
            "local_gps_s3",
        }
        # The subject attributes (practice names) overlap heavily, so at
        # least one SA-join edge must exist.
        assert graph.edge_count() >= 1

    def test_edges_involve_subject_attributes(self, figure1_engine):
        graph = figure1_engine.join_graph
        subjects = {
            table_name: figure1_engine.indexes.subject_attribute(table_name)
            for table_name in graph.table_names
        }
        for first, second in graph.graph.edges:
            edge = graph.edge(first, second)
            assert (
                edge.left.column == subjects[edge.left.table]
                or edge.right.column == subjects[edge.right.table]
            )

    def test_neighbours_of_unknown_table(self, figure1_engine):
        assert figure1_engine.join_graph.neighbours("unknown") == []

    def test_edge_for_unconnected_pair(self, figure1_engine):
        graph = figure1_engine.join_graph
        assert graph.edge("gp_practices_s1", "no_such_table") is None

    def test_connected_component_contains_self(self, figure1_engine):
        component = figure1_engine.join_graph.connected_component("gp_practices_s1")
        assert "gp_practices_s1" in component

    def test_connected_component_of_unknown_table(self, figure1_engine):
        assert figure1_engine.join_graph.connected_component("unknown") == set()

    def test_overlaps_above_threshold(self, figure1_engine):
        graph = figure1_engine.join_graph
        threshold = figure1_engine.config.overlap_threshold
        for first, second in graph.graph.edges:
            assert graph.edge(first, second).overlap >= threshold


class TestFindJoinPaths:
    @pytest.fixture
    def toy_graph(self):
        import networkx as nx

        graph = nx.Graph()
        edges = [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("a", "e"),
        ]
        for first, second in edges:
            graph.add_edge(
                first,
                second,
                join=JoinEdge(
                    left=AttributeRef(first, "subject"),
                    right=AttributeRef(second, "subject"),
                    overlap=0.9,
                ),
            )
        return SAJoinGraph(graph)

    def test_paths_exclude_top_k_members(self, toy_graph):
        paths = find_join_paths(toy_graph, ["a", "b"], related_tables={"a", "b", "c", "d", "e"})
        reached = tables_reached(paths)
        assert "b" not in reached
        assert {"c", "d", "e"} & reached

    def test_paths_restricted_to_related_tables(self, toy_graph):
        paths = find_join_paths(toy_graph, ["a"], related_tables={"a", "b", "e"})
        reached = tables_reached(paths)
        assert "e" in reached
        assert "c" not in reached and "d" not in reached

    def test_paths_are_acyclic(self, toy_graph):
        paths = find_join_paths(toy_graph, ["a"], related_tables={"a", "b", "c", "d", "e"})
        for path in paths:
            assert len(path.tables) == len(set(path.tables))

    def test_max_length_respected(self, toy_graph):
        short = find_join_paths(
            toy_graph, ["a"], related_tables={"a", "b", "c", "d", "e"}, max_length=1
        )
        assert all(len(path) == 2 for path in short)
        longer = find_join_paths(
            toy_graph, ["a"], related_tables={"a", "b", "c", "d", "e"}, max_length=3
        )
        assert any(len(path) == 4 for path in longer)

    def test_every_path_starts_from_a_top_k_table(self, toy_graph):
        paths = find_join_paths(toy_graph, ["a", "b"], related_tables={"a", "b", "c", "d", "e"})
        assert all(path.start in {"a", "b"} for path in paths)

    def test_path_edges_match_tables(self, toy_graph):
        paths = find_join_paths(toy_graph, ["b"], related_tables={"a", "b", "c", "d"})
        for path in paths:
            assert len(path.edges) == len(path.tables) - 1

    def test_paths_from_helper(self, toy_graph):
        paths = find_join_paths(toy_graph, ["a", "b"], related_tables={"a", "b", "c", "d", "e"})
        assert all(path.start == "a" for path in paths_from(paths, "a"))

    def test_reached_property(self):
        path = JoinPath(tables=["a", "b", "c"], edges=[])
        assert path.start == "a"
        assert path.reached == ["b", "c"]
        assert len(path) == 3


class TestEnsembleJoinGraph:
    def test_ensemble_variant_finds_gp_joins(self, figure1_engine):
        from repro.core.joins import SAJoinGraph

        graph = SAJoinGraph.build_with_ensemble(
            figure1_engine.indexes, figure1_engine.config
        )
        assert set(graph.table_names) == {
            "gp_practices_s1",
            "gp_funding_s2",
            "local_gps_s3",
        }
        assert graph.edge_count() >= 1

    def test_ensemble_edges_verified_by_value_overlap(self, figure1_engine):
        from repro.core.joins import SAJoinGraph

        graph = SAJoinGraph.build_with_ensemble(
            figure1_engine.indexes, figure1_engine.config
        )
        threshold = figure1_engine.config.overlap_threshold
        for first, second in graph.graph.edges:
            assert graph.edge(first, second).overlap >= threshold


class TestQueryWithJoins:
    def test_join_augmented_result_structure(self, figure1_engine, figure1_tables):
        augmented = figure1_engine.query_with_joins(figure1_tables["target"], k=1)
        assert augmented.base.requested_k == 1
        top_table = augmented.base.table_names(1)[0]
        assert augmented.tables_for(top_table) == set().union(
            *(path.reached for path in augmented.join_paths if path.start == top_table)
        )

    def test_joined_tables_not_in_top_k(self, figure1_engine, figure1_tables):
        augmented = figure1_engine.query_with_joins(figure1_tables["target"], k=1)
        top = set(augmented.base.table_names(1))
        assert augmented.joined_tables.isdisjoint(top)

    def test_joined_tables_on_generated_corpus(self, indexed_d3l, small_synthetic_benchmark):
        target = small_synthetic_benchmark.pick_targets(1, seed=6)[0]
        augmented = indexed_d3l.query_with_joins(target, k=3)
        # Join paths may or may not exist, but the structure must be coherent.
        for path in augmented.join_paths:
            assert path.start in augmented.base.table_names(3)
            assert set(path.reached) <= augmented.base.candidate_tables()


class TestEstimatedOverlapsVectorized:
    def test_matches_scalar_elementwise(self):
        rng = np.random.default_rng(3)
        jaccard = rng.uniform(-0.1, 1.0, size=50)
        sizes = rng.integers(0, 200, size=50)
        vector = estimated_overlaps(jaccard, 120, sizes)
        for index in range(50):
            assert vector[index] == pytest.approx(
                estimated_overlap(float(jaccard[index]), 120, int(sizes[index]))
            )

    def test_per_pair_sizes_equal_per_probe_calls(self):
        rng = np.random.default_rng(5)
        jaccard = rng.uniform(-0.1, 1.0, size=60)
        sizes_a = rng.integers(0, 150, size=60)
        sizes_b = rng.integers(0, 200, size=60)
        batched = estimated_overlaps(jaccard, sizes_a, sizes_b)
        for index in range(60):
            single = estimated_overlaps(
                jaccard[index : index + 1], int(sizes_a[index]), sizes_b[index : index + 1]
            )
            assert batched[index] == single[0]

    def test_empty_input(self):
        assert estimated_overlaps(np.empty(0), 10, np.empty(0)).shape == (0,)


class TestBatchedBuild:
    def test_batched_equals_sequential_on_figure1(self, figure1_engine):
        batched = SAJoinGraph.build(figure1_engine.indexes, figure1_engine.config)
        sequential = SAJoinGraph.build_sequential(
            figure1_engine.indexes, figure1_engine.config
        )
        assert batched.edge_count() >= 1
        assert edge_map(batched) == edge_map(sequential)

    def test_batched_equals_sequential_on_synthetic_corpus(self, indexed_d3l):
        batched = SAJoinGraph.build(indexed_d3l.indexes, indexed_d3l.config)
        sequential = SAJoinGraph.build_sequential(indexed_d3l.indexes, indexed_d3l.config)
        assert edge_map(batched) == edge_map(sequential)

    def test_sharded_verification_matches_single_process(self, indexed_d3l):
        single = SAJoinGraph.build(indexed_d3l.indexes, indexed_d3l.config, workers=1)
        sharded = SAJoinGraph.build(indexed_d3l.indexes, indexed_d3l.config, workers=2)
        assert edge_map(single) == edge_map(sharded)

    def test_probes_are_subject_attributes_in_sorted_order(self, figure1_engine):
        probes = _subject_probes(figure1_engine.indexes)
        assert [name for name, _ in probes] == sorted(name for name, _ in probes)
        for table_name, subject in probes:
            assert subject.ref.column == figure1_engine.indexes.subject_attribute(
                table_name
            )

    def test_empty_indexes_build(self, fast_config):
        from repro.core.indexes import D3LIndexes

        indexes = D3LIndexes(config=fast_config)
        graph = SAJoinGraph.build(indexes, fast_config)
        assert graph.table_names == []
        assert graph.edge_count() == 0

    def test_edges_helper_sorted(self, figure1_engine):
        edges = figure1_engine.join_graph.edges()
        assert edges == sorted(edges, key=lambda edge: (edge.left, edge.right))
        assert len(edges) == figure1_engine.join_graph.edge_count()


class TestPrefilterAdmissibility:
    """The estimated-overlap pre-filter must never drop a verified pair."""

    def test_prefilter_preserves_unfiltered_edge_set(self, indexed_d3l):
        config = dataclasses.replace(indexed_d3l.config, join_prefilter_margin=0.0)
        unfiltered = SAJoinGraph.build(indexed_d3l.indexes, config)
        filtered = SAJoinGraph.build(indexed_d3l.indexes, indexed_d3l.config)
        assert edge_map(filtered) == edge_map(unfiltered)

    def test_no_verified_pair_falls_below_prefilter_cutoff(self, indexed_d3l):
        indexes = indexed_d3l.indexes
        config = indexed_d3l.config
        cutoff = config.overlap_threshold * config.join_prefilter_margin
        checked = 0
        for table_name, subject in _subject_probes(indexes):
            candidates = indexes.lookup(
                EvidenceType.VALUE,
                subject,
                k=config.join_candidate_pool,
                exclude_table=table_name,
            )
            for ref, distance in candidates:
                other = indexes.profiles.get(ref)
                if other is None or not other.tokens:
                    continue
                if subject.value_overlap(other) >= config.overlap_threshold:
                    estimate = estimated_overlap(
                        1.0 - distance, len(subject.tokens), len(other.tokens)
                    )
                    assert estimate >= cutoff, (
                        f"pre-filter would drop verified pair "
                        f"{subject.ref} ~ {ref} (estimate {estimate:.3f})"
                    )
                    checked += 1
        assert checked > 0

    def test_zero_margin_disables_prefilter(self, fast_config):
        config = dataclasses.replace(fast_config, join_prefilter_margin=0.0)
        assert config.join_prefilter_margin == 0.0


class TestTruncatedFlag:
    @pytest.fixture
    def chain_graph(self):
        import networkx as nx

        graph = nx.Graph()
        for first, second in [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")]:
            graph.add_edge(
                first,
                second,
                join=JoinEdge(
                    left=AttributeRef(first, "subject"),
                    right=AttributeRef(second, "subject"),
                    overlap=0.8,
                ),
            )
        return SAJoinGraph(graph)

    def test_uncapped_walk_is_not_truncated(self, chain_graph):
        related = {"a", "b", "c", "d", "x", "y"}
        search = find_join_paths(chain_graph, ["a", "x"], related)
        assert isinstance(search, JoinPathSearch)
        assert not search.truncated
        assert "y" in tables_reached(search)

    def test_capped_walk_is_truncated_and_flagged(self, chain_graph):
        related = {"a", "b", "c", "d", "x", "y"}
        search = find_join_paths(chain_graph, ["a", "x"], related, max_paths=1)
        assert search.truncated
        assert len(search) == 1
        # The flag is what distinguishes this capped answer: without it the
        # silently-dropped start table "x" would be indistinguishable from
        # "x has no join paths".
        assert "y" not in tables_reached(search)

    def test_search_behaves_like_a_sequence(self, chain_graph):
        related = {"a", "b", "c", "d"}
        search = find_join_paths(chain_graph, ["a"], related)
        assert list(search) == search.paths
        assert search[0] == search.paths[0]
        assert search[:2] == search.paths[:2]
        assert len(search) == len(search.paths)

    def test_exact_cap_at_end_is_not_flagged(self, chain_graph):
        # One start table whose walk finishes exactly when the cap is hit:
        # nothing was dropped, so the enumeration is complete.
        search = find_join_paths(chain_graph, ["x"], {"x", "y"}, max_paths=5)
        assert len(search) == 1
        assert not search.truncated


class TestEnsembleEquivalence:
    def test_ensemble_matches_batched_build_on_figure1(self, figure1_engine):
        """On the seeded GP lake both blocking strategies converge to the
        same verified edges: containment and Jaccard retrieval agree when
        the subject-attribute overlaps are strong."""
        ensemble = SAJoinGraph.build_with_ensemble(
            figure1_engine.indexes, figure1_engine.config
        )
        batched = SAJoinGraph.build(figure1_engine.indexes, figure1_engine.config)
        assert batched.edge_count() >= 1
        assert edge_map(ensemble) == edge_map(batched)


class _ReferenceGraph:
    """SA-join graph lookups for the reference walk, independent of the
    adjacency under test: neighbours sorted and edge data fetched from
    networkx on every call."""

    def __init__(self, graph: nx.Graph) -> None:
        self._graph = graph

    def neighbours(self, table_name):
        if table_name not in self._graph:
            return []
        return sorted(self._graph.neighbors(table_name))

    def edge(self, first, second):
        data = self._graph.get_edge_data(first, second)
        if not data:
            return None
        return data["join"]


def reference_find_join_paths(
    graph, top_k_tables, related_tables, max_length=3, max_paths=None
):
    """Algorithm 3 as an eager recursive walk, one JoinPath per path: the
    oracle the prefix-tree walk is checked against.  Returns (paths, truncated)."""
    graph = _ReferenceGraph(graph)
    top_k_set = set(top_k_tables)
    related = set(related_tables)
    paths: List[JoinPath] = []

    def _walk(current: str, path_tables: List[str], path_edges: List[JoinEdge]) -> bool:
        if len(path_tables) - 1 >= max_length:
            return True
        for neighbour in graph.neighbours(current):
            if max_paths is not None and len(paths) >= max_paths:
                return False
            if neighbour in top_k_set or neighbour in path_tables:
                continue
            if neighbour not in related:
                continue
            edge = graph.edge(current, neighbour)
            if edge is None:
                continue
            new_tables = path_tables + [neighbour]
            new_edges = path_edges + [edge]
            paths.append(JoinPath(tables=list(new_tables), edges=list(new_edges)))
            if not _walk(neighbour, new_tables, new_edges):
                return False
        return True

    truncated = False
    for start in top_k_tables:
        if not _walk(start, [start], []):
            truncated = True
            break
    return paths, truncated


def _join_edge(first: str, second: str, overlap: float) -> JoinEdge:
    return JoinEdge(
        left=AttributeRef(first, "subject"),
        right=AttributeRef(second, "key"),
        overlap=overlap,
    )


@st.composite
def walk_cases(draw):
    """A random join graph (<= 12 tables, edges inserted in shuffled order,
    a few without join data) plus start tables, a related set and max_length."""
    names = draw(
        st.lists(
            st.text(alphabet="abcdefg", min_size=1, max_size=2),
            min_size=1,
            max_size=12,
            unique=True,
        )
    )
    pairs = list(itertools.combinations(names, 2))
    kinds = draw(
        st.lists(
            st.sampled_from(["none", "join", "join", "bare"]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    edges = [(pair, kind) for pair, kind in zip(pairs, kinds) if kind != "none"]
    graph = nx.Graph()
    graph.add_nodes_from(draw(st.permutations(names)))
    for (first, second), kind in draw(st.permutations(edges)):
        if kind == "bare":
            graph.add_edge(first, second)
        else:
            overlap = draw(st.floats(min_value=0.5, max_value=1.0))
            graph.add_edge(first, second, join=_join_edge(first, second, overlap))
    pool = names + ["missing"]
    starts = draw(st.lists(st.sampled_from(pool), max_size=4))
    related = draw(st.sets(st.sampled_from(pool)))
    max_length = draw(st.integers(min_value=0, max_value=4))
    return graph, starts, related, max_length


def _as_pairs(paths):
    return [(path.tables, path.edges) for path in paths]


class TestPrefixTreeOracle:
    """The prefix-tree walk against the eager reference walk."""

    @given(
        walk_cases(),
        st.sampled_from([None, 1, 2, "exact", "exact+1", "random"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_walk(self, case, cap_kind, cap_seed):
        graph, starts, related, max_length = case
        join_graph = SAJoinGraph(graph)
        exact, _ = reference_find_join_paths(graph, starts, related, max_length)
        max_paths = {
            "exact": len(exact),
            "exact+1": len(exact) + 1,
            "random": 1 + cap_seed % (len(exact) + 3),
        }.get(cap_kind, cap_kind)
        if max_paths == 0:
            max_paths = None  # the engine's config rejects a zero cap

        expected, expected_truncated = reference_find_join_paths(
            graph, starts, related, max_length, max_paths
        )
        search = find_join_paths(join_graph, starts, related, max_length, max_paths)
        tree = search.paths

        assert _as_pairs(tree) == _as_pairs(expected)
        assert search.truncated == expected_truncated
        augmented = JoinAugmentedResult(
            base=None,
            join_paths=tree,
            joined_tables=tree.reached(),
            truncated=search.truncated,
        )
        assert augmented.joined_tables == tables_reached(expected)
        for start in graph.nodes | {"missing"}:
            assert augmented.tables_for(start) == set().union(
                *(path.reached for path in expected if path.start == start)
            )
        assert tree == expected and expected == tree
        assert tree[::-2] == expected[::-2]
        assert pickle.loads(pickle.dumps(tree)) == expected

    def test_cap_is_checked_before_each_neighbour(self):
        graph = nx.Graph()
        for first, second in [("s", "b"), ("b", "c"), ("s", "d")]:
            graph.add_edge(first, second, join=_join_edge(first, second, 0.9))
        related = {"b", "c", "d"}
        # After its third and last path the walk still tries d's neighbour s,
        # so a cap of exactly three flags it.
        search = find_join_paths(SAJoinGraph(graph), ["s"], related, max_paths=3)
        assert [path.tables for path in search] == [["s", "b"], ["s", "b", "c"], ["s", "d"]]
        assert search.truncated
        assert (search.paths, search.truncated) == reference_find_join_paths(
            graph, ["s"], related, max_paths=3
        )


class TestJoinPathTreeSequence:
    """The tree reads as a read-only sequence of JoinPath."""

    @pytest.fixture
    def search(self):
        graph = nx.Graph()
        for first, second in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "e"), ("x", "y")]:
            graph.add_edge(first, second, join=_join_edge(first, second, 0.8))
        related = {"b", "c", "d", "e", "y"}
        return find_join_paths(SAJoinGraph(graph), ["a", "x"], related)

    def test_indexing(self, search):
        tree = search.paths
        assert isinstance(tree, JoinPathTree)
        assert [path.tables for path in tree] == [
            ["a", "b"], ["a", "b", "c"], ["a", "b", "c", "d"], ["a", "e"], ["x", "y"]
        ]
        assert tree[-1] == tree[len(tree) - 1] == JoinPath(
            tables=["x", "y"], edges=[_join_edge("x", "y", 0.8)]
        )
        assert tree[-len(tree)] == tree[0]
        assert tree[np.int64(2)].tables == ["a", "b", "c", "d"]
        for index in (len(tree), -len(tree) - 1):
            with pytest.raises(IndexError):
                tree[index]
        with pytest.raises(TypeError):
            tree["0"]

    def test_slices_return_lists(self, search):
        tree, paths = search.paths, list(search.paths)
        for window in (slice(None), slice(1, 4), slice(None, None, 2), slice(None, None, -1),
                       slice(-2, None), slice(10, 20)):
            assert type(tree[window]) is list
            assert tree[window] == paths[window]

    def test_equality_with_lists_and_trees(self, search):
        tree, paths = search.paths, list(search.paths)
        assert tree == paths and paths == tree
        assert not (tree != paths) and not (paths != tree)
        assert tree != paths[:-1] and paths[:-1] != tree
        assert tree != tuple(paths)
        assert tree == pickle.loads(pickle.dumps(tree))
        with pytest.raises(TypeError):
            hash(tree)


class TestPathStorage:
    def test_walk_keeps_no_per_path_objects(self):
        """6175 paths (one start on a complete 20-table graph, three hops)
        leave a bounded number of garbage-collected objects alive."""
        names = [f"t{index:02d}" for index in range(20)]
        graph = nx.Graph()
        for first, second in itertools.combinations(names, 2):
            graph.add_edge(first, second, join=_join_edge(first, second, 0.9))
        join_graph = SAJoinGraph(graph)
        gc.collect()
        before = len(gc.get_objects())
        search = find_join_paths(join_graph, [names[0]], names, max_length=3)
        grown = len(gc.get_objects()) - before
        assert len(search) == 19 + 19 * 18 + 19 * 18 * 17 == 6175
        assert grown < 100


class TestFrozenJoinGraph:
    def test_graph_is_immutable_and_lookups_use_the_adjacency(self):
        graph = nx.Graph()
        for first, second in [("m", "z"), ("m", "a"), ("k", "m")]:
            graph.add_edge(first, second, join=_join_edge(first, second, 0.7))
        join_graph = SAJoinGraph(graph)
        with pytest.raises(nx.NetworkXError):
            join_graph.graph.add_edge("m", "q")
        with pytest.raises(nx.NetworkXError):
            join_graph.graph.remove_node("m")
        assert join_graph.neighbours("m") == ["a", "k", "z"]
        assert join_graph.neighbours("a") == ["m"]
        assert join_graph.edge("m", "a") is join_graph.edge("a", "m")
        assert join_graph.edge("a", "z") is None

    def test_engine_graph_is_frozen(self, figure1_engine):
        graph = figure1_engine.join_graph
        assert nx.is_frozen(graph.graph)
        for table_name in graph.table_names:
            assert graph.neighbours(table_name) == sorted(graph.graph.neighbors(table_name))


# --------------------------------------------------------------------------- #
# per-table updates of the SA-join graph
# --------------------------------------------------------------------------- #

#: A pool this small truncates most probes' walks on a 16-table lake, so
#: updates insert into, trim and drain pools (128 never truncates there).
SMALL_POOL = 6


def _small_pool_engine(tables, margin=0.5):
    from repro.core.config import D3LConfig
    from repro.core.discovery import D3L
    from repro.lake.datalake import DataLake

    config = D3LConfig(
        num_hashes=128,
        num_trees=8,
        min_candidates=25,
        embedding_dimension=32,
        join_candidate_pool=SMALL_POOL,
        join_prefilter_margin=margin,
    )
    engine = D3L(config=config)
    engine.index_lake(DataLake("small-pool", list(tables)))
    return engine


def _kept_state(graph):
    """Every probe's kept pool and edges, by table."""
    pools = graph._pools
    return {
        table_name: (pools.pool(table_name), pools.edges[row])
        for row, table_name in enumerate(pools.tables)
    }


def _drained(engine, graph, removed_table):
    """Pools whose walk stopped early that removing ``removed_table`` leaves short."""
    last_step = engine.indexes.forest(EvidenceType.VALUE).step_count - 1
    drained = 0
    for table_name in graph._pools.tables:
        pool = graph._pools.pool(table_name)
        if table_name == removed_table or len(pool) < SMALL_POOL or pool[-1][1] == last_step:
            continue
        if sum(ref.table != removed_table for ref, _ in pool) < SMALL_POOL:
            drained += 1
    return drained


@pytest.fixture()
def descents(monkeypatch):
    """Signatures walked by kept-walk descents (the SA-join graph's probes)."""
    from repro.lsh.lsh_forest import LSHForest

    counted = []
    original = LSHForest.multi_query

    def counting(self, signatures, k, walks=False):
        if walks:
            counted.append(sum(signature is not None for signature in signatures))
        return original(self, signatures, k, walks)

    monkeypatch.setattr(LSHForest, "multi_query", counting)
    return counted


class TestIncrementalUpdate:
    """An update after writes equals a full build: edges, pools and all.

    Each step's graph comes from :meth:`SAJoinGraph.build` editing the
    previous build's pools; it must equal a fresh build over the same
    indexes — and, with the prefilter off, the scalar oracle.
    """

    def _assert_fresh(self, engine, margin, descents):
        """The engine's graph, checked; returns it and the probes it walked."""
        descents.clear()
        graph = engine.join_graph
        walked = sum(descents)
        fresh = SAJoinGraph.build(engine.indexes, engine.config)
        assert edge_map(graph) == edge_map(fresh)
        assert _kept_state(graph) == _kept_state(fresh)
        if margin == 0.0:
            sequential = SAJoinGraph.build_sequential(engine.indexes, engine.config)
            assert edge_map(graph) == edge_map(sequential)
        return graph, walked

    @pytest.mark.parametrize("seed, margin", [(11, 0.5), (12, 0.0), (13, 0.5), (14, 0.0)])
    def test_random_writes_equal_a_fresh_build(
        self, small_synthetic_benchmark, descents, seed, margin
    ):
        import random

        rng = random.Random(seed)
        tables = list(small_synthetic_benchmark.lake.tables)
        live = {table.name: table for table in tables[:16]}
        originals = sorted(live)
        spare = tables[16:]
        engine = _small_pool_engine(live.values(), margin)
        try:
            graph, _ = self._assert_fresh(engine, margin, descents)
            truncated = sum(
                len(pool) >= SMALL_POOL for pool, _ in _kept_state(graph).values()
            )
            assert truncated > len(live) // 2
            drains = 0
            ops = ["drain"] + [
                rng.choice(["add", "remove", "reindex", "drain"]) for _ in range(11)
            ]
            for step, op in enumerate(ops):
                if op == "add":
                    table = rng.choice(spare).with_name(f"added_{seed}_{step}")
                    live[table.name] = table
                    engine.index_table(table)
                elif op == "reindex":
                    name = rng.choice(sorted(live))
                    live[name] = rng.choice(tables).with_name(name)
                    engine.index_table(live[name])
                elif len(live) > 10:
                    candidates = [name for name in originals if name in live]
                    if op == "drain":
                        # The original table whose removal drains most pools.
                        name = max(
                            candidates, key=lambda name: _drained(engine, graph, name)
                        )
                        drains += _drained(engine, graph, name)
                    else:
                        name = rng.choice(candidates)
                    del live[name]
                    assert engine.remove_table(name)
                graph, walked = self._assert_fresh(engine, margin, descents)
                assert walked <= len(live)
            assert drains > 0
        finally:
            engine.close()

    def test_a_write_descends_for_its_probe_and_drained_pools_only(
        self, small_synthetic_benchmark, descents
    ):
        tables = list(small_synthetic_benchmark.lake.tables)
        engine = _small_pool_engine(tables[:16])
        try:
            graph = engine.join_graph
            engine.index_table(tables[20].with_name("written"))
            descents.clear()
            graph = engine.join_graph
            assert descents == [1]
            probes = len(graph._pools.tables)
            for name in sorted(graph._pools.tables)[:6]:
                expected = _drained(engine, graph, name)
                engine.remove_table(name)
                descents.clear()
                graph = engine.join_graph
                assert sum(descents) == expected < probes - 1
                assert edge_map(graph) == edge_map(
                    SAJoinGraph.build(engine.indexes, engine.config)
                )
        finally:
            engine.close()

    def test_writes_past_the_journal_window_rebuild_fully(
        self, small_synthetic_benchmark, descents
    ):
        from repro.core.indexes import _MUTATION_LOG_LIMIT

        tables = list(small_synthetic_benchmark.lake.tables)
        engine = _small_pool_engine(tables[:16])
        try:
            engine.join_graph
            extra = tables[20].with_name("churned")
            for write in range(_MUTATION_LOG_LIMIT + 2):
                if write % 2:
                    engine.remove_table(extra.name)
                else:
                    engine.index_table(extra)
            assert engine.indexes.mutated_tables_since(engine._join_graph_version) is None
            graph, walked = self._assert_fresh(engine, 0.5, descents)
            assert walked == len(graph._pools.tables)
        finally:
            engine.close()

    def test_a_write_after_load_engine_rebuilds_then_updates(
        self, small_synthetic_benchmark, descents, tmp_path
    ):
        from repro.core.persistence import load_engine, save_engine

        tables = list(small_synthetic_benchmark.lake.tables)
        engine = _small_pool_engine(tables[:16])
        try:
            engine.join_graph
            save_engine(engine, tmp_path / "engine.pkl")
        finally:
            engine.close()
        loaded = load_engine(tmp_path / "engine.pkl")
        try:
            assert loaded.join_graph._pools is None
            loaded.index_table(tables[21].with_name("after_load"))
            graph, walked = self._assert_fresh(loaded, 0.5, descents)
            assert walked == len(graph._pools.tables)
            loaded.remove_table(tables[0].name)
            _, walked = self._assert_fresh(loaded, 0.5, descents)
            assert walked < len(graph._pools.tables) // 2
        finally:
            loaded.close()


class TestJoinOverlapCache:
    @staticmethod
    def _random_overlaps(rng, tables=6, columns=3, pairs=60):
        refs = [
            AttributeRef(f"t{table}", f"c{column}")
            for table in range(tables)
            for column in range(columns)
        ]
        overlaps = {}
        while len(overlaps) < pairs:
            left, right = rng.sample(refs, 2)
            overlaps[(left, right)] = round(rng.random(), 3)
        return overlaps

    @pytest.mark.parametrize("seed", range(5))
    def test_eviction_equals_the_dict_comprehension(self, seed):
        import random

        from repro.core.joins import JoinOverlapCache

        rng = random.Random(seed)
        expected = self._random_overlaps(rng)
        cache = JoinOverlapCache(expected)
        for _ in range(30):
            if rng.random() < 0.5:
                fresh = self._random_overlaps(rng, pairs=10)
                cache.update(fresh)
                expected.update(fresh)
            table_name = f"t{rng.randrange(7)}"
            cache.evict_table(table_name)
            expected = {
                pair: overlap
                for pair, overlap in expected.items()
                if pair[0].table != table_name and pair[1].table != table_name
            }
            assert dict(cache) == expected
            assert len(cache) == len(expected)
            assert all(pair in cache for pair in expected)
            # Pairs evicted under one table stay listed under the other
            # until the lists are rebuilt; live ones never outnumber them.
            assert cache._listed <= 4 * len(cache)
        cache.clear()
        assert dict(cache) == {}

    def test_engine_cache_round_trips_through_a_v3_payload(self, fast_config, tmp_path):
        from repro.core.discovery import D3L
        from repro.core.joins import JoinOverlapCache
        from repro.core.persistence import load_engine, save_engine
        from repro.datagen.synthetic_benchmark import (
            SyntheticBenchmarkConfig,
            generate_synthetic_benchmark,
        )

        corpus = generate_synthetic_benchmark(
            SyntheticBenchmarkConfig(
                num_base_tables=3, tables_per_base=3, base_rows=40,
                min_rows=15, max_rows=30, seed=33,
            )
        )
        with D3L(config=fast_config) as engine:
            engine.index_lake(corpus.lake)
            engine.join_graph
            assert len(engine._join_overlap_cache) > 0
            save_engine(engine, tmp_path / "engine.pkl")
            expected = dict(engine._join_overlap_cache)
        with load_engine(tmp_path / "engine.pkl") as loaded:
            assert isinstance(loaded._join_overlap_cache, JoinOverlapCache)
            assert dict(loaded._join_overlap_cache) == expected
            victim = corpus.lake.tables[0].name
            loaded.remove_table(victim)
            assert dict(loaded._join_overlap_cache) == {
                pair: overlap
                for pair, overlap in expected.items()
                if victim not in (pair[0].table, pair[1].table)
            }
