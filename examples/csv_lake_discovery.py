"""Discovery over a data lake stored as a directory of CSV files.

Real data lakes are directories of files, not in-memory objects.  This
example materialises a generated corpus to disk as CSVs, loads it back the
way a user would load their own lake, indexes it, and answers a discovery
query for a hand-written target table — the workflow a downstream adopter of
the library follows with their own data.

Run with::

    python examples/csv_lake_discovery.py [lake_directory]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import D3L, D3LConfig, DataLake, DiscoverySession, QueryRequest, Table
from repro.datagen.real_benchmark import RealBenchmarkConfig, generate_real_benchmark


def materialise_demo_lake(directory: Path) -> None:
    """Write a demo corpus to ``directory`` as CSV files."""
    corpus = generate_real_benchmark(
        RealBenchmarkConfig(
            num_families=8,
            tables_per_family=5,
            min_rows=20,
            max_rows=60,
            dirtiness=0.3,
            seed=91,
        )
    )
    corpus.lake.to_directory(directory)
    print(f"Materialised {len(corpus.lake)} CSV files under {directory}")


def build_target() -> Table:
    """A hand-written target: the analyst's sketch of the table they want."""
    return Table.from_dict(
        "school_report_target",
        {
            "School": ["Manchester High School", "Salford Academy"],
            "Town": ["Manchester", "Salford"],
            "Postcode": ["M14 5RA", "M6 6PL"],
            "Pupils": ["1250", "890"],
            "Rating": ["4", "5"],
        },
    )


def main() -> None:
    if len(sys.argv) > 1:
        lake_directory = Path(sys.argv[1])
        if not lake_directory.exists():
            raise SystemExit(f"lake directory {lake_directory} does not exist")
    else:
        lake_directory = Path(tempfile.mkdtemp(prefix="d3l_lake_")) / "csv"
        materialise_demo_lake(lake_directory)

    lake = DataLake.from_directory(lake_directory, name="csv_lake")
    print(f"Loaded {len(lake)} tables ({lake.attribute_count} attributes) from {lake_directory}")

    engine = D3L(config=D3LConfig(num_hashes=128, embedding_dimension=48))
    engine.index_lake(lake)
    print("Index sizes (bytes):", engine.indexes.index_bytes())

    target = build_target()
    session = DiscoverySession(engine)
    answer = session.submit(
        QueryRequest(target=target, k=5, exclude_self=False, explain=True)
    )
    print(f"\nTop datasets related to '{target.name}':")
    for rank, result in enumerate(answer.top(), start=1):
        covered = ", ".join(sorted(result.covered_target_attributes()))
        print(
            f"  {rank}. {result.table_name:<35s} distance={result.distance:.3f} "
            f"covers: {covered}"
        )

    # Repeated requests hit the session's profile cache; the sequential
    # oracle, run through a fresh session, must produce the identical ranking.
    repeat = session.submit(
        QueryRequest(target=target, k=5, exclude_self=False, explain=True)
    )
    oracle = DiscoverySession(engine).submit(
        QueryRequest(target=target, k=5, exclude_self=False, engine="sequential")
    )
    assert [(entry.table_name, entry.distance) for entry in oracle.results] == [
        (entry.table_name, entry.distance) for entry in repeat.results
    ], "the cached batched answer diverged from the sequential oracle"
    info = session.cache_info()
    print(f"\nSession cache: {info['hits']} hits / {info['misses']} misses")


if __name__ == "__main__":
    main()
