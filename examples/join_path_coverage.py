"""Extending relatedness through join paths (section IV of the paper).

A target table often cannot be fully populated from the top-k unionable
datasets alone: some of its attributes only appear in tables whose overall
relatedness signal is weak, but which *join* with a top-k table through a
subject attribute.  This example shows the mechanism end to end on the
Synthetic corpus:

1. index the corpus with D3L and build the SA-join graph;
2. query a target and measure how much of it the plain top-k covers;
3. follow Algorithm 3's join paths and measure the coverage gain;
4. materialise one join path as an actual relational join.

Run with::

    python examples/join_path_coverage.py
"""

from __future__ import annotations

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.datagen.synthetic_benchmark import (
    SyntheticBenchmarkConfig,
    generate_synthetic_benchmark,
)
from repro.evaluation.coverage import target_coverage_at_k, target_coverage_with_joins
from repro.tables.operations import hash_join


def main() -> None:
    corpus = generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=12,
            tables_per_base=8,
            base_rows=120,
            min_rows=30,
            max_rows=90,
            seed=33,
        )
    )
    print(f"Generated Synthetic-style lake with {len(corpus.lake)} tables")

    engine = D3L(config=D3LConfig(num_hashes=128, embedding_dimension=48))
    engine.index_lake(corpus.lake)
    graph = engine.join_graph
    print(f"SA-join graph: {len(graph.table_names)} tables, {graph.edge_count()} join edges\n")

    target = corpus.pick_targets(1, seed=11)[0]
    k = 5
    print(f"Target: {target.name}  ({target.arity} attributes)")

    answer = DiscoverySession(engine).submit(
        QueryRequest(target=target, k=k, joins=True, explain=True)
    )
    paths = answer.join_paths.paths

    joined_per_start = {start: paths.reached_from(start) for start in answer.table_names(k)}
    plain_coverage = target_coverage_at_k(answer, target, k)
    joined_coverage = target_coverage_with_joins(answer, joined_per_start, target, k)

    print(f"\nTop-{k} coverage without join paths: {plain_coverage:.2f}")
    print(f"Top-{k} coverage with join paths:    {joined_coverage:.2f}")
    print(f"Join paths found: {len(paths)}")

    for path in paths[:5]:
        hops = " -> ".join(path.tables)
        print(f"  {hops}")

    if paths:
        path = paths[0]
        edge = path.edges[0]
        left_table = corpus.lake.table(edge.left.table)
        right_table = corpus.lake.table(edge.right.table)
        joined = hash_join(left_table, right_table, edge.left.column, edge.right.column)
        print(
            f"\nMaterialised join {edge.left} ~ {edge.right}: "
            f"{joined.cardinality} rows, {joined.arity} columns"
        )
    else:
        print("\nNo join path to materialise for this target.")


if __name__ == "__main__":
    main()
