"""Hot-path microbenchmarks: vectorized LSH backend vs the scalar seed paths.

Runs index-time and top-k query-time microbenchmarks over lakes of
100/500/1000 attributes, comparing the NumPy-backed
:class:`~repro.lsh.lsh_forest.LSHForest` + batched distance engine against
the scalar reference (:mod:`repro.lsh.reference`, the seed implementation's
layout), and verifies the two produce identical top-k rankings before any
timing is trusted.

An index-construction section additionally times

* per-attribute ``D3LIndexes.signatures_for`` vs the lake-level
  ``batch_signatures`` — the signature-generation unit ``add_lake`` actually
  runs, covering all three MinHash evidence types plus the random
  projections (tracked floor: >= 3x at 1000 attributes), and
* a full ``D3LIndexes.add_lake`` (profile + sign + insert) with one worker
  vs ``PARALLEL_WORKERS`` processes, reported in attributes/second.  The
  parallel number is informational: it only beats serial when real cores
  are available (``available_cpus`` is recorded alongside), and the
  sharded-vs-serial *equivalence* is locked down by
  ``tests/core/test_parallel_build.py`` rather than by this timing, and
* the snapshot-ship cost of worker fan-out: bytes serialized per worker and
  per-worker RSS delta for the pickled-copy path vs the shared-memory
  attach (:class:`~repro.core.shared.SharedIndexSnapshot`), with the
  attached state verified bit-identical before the numbers are trusted
  (tracked floor: the shared descriptor ships >= 10x fewer bytes than the
  pickled snapshot at 1000 attributes).

A batched-query section times the full query engine — ``D3L._execute_query``
(the sequential per-attribute oracle) vs ``D3L._execute_query_batch``
(per-evidence sweeps, vectorized Algorithm 2 KS pass) — on pre-profiled
targets over a
mixed numeric/text lake, verifying identical full rankings before trusting
the timings (tracked floor: >= 3x at 1000 attributes), and checks that the
``workers=PARALLEL_WORKERS`` process fan-out answers exactly like
``workers=1``.

A session-cache section times repeated-target serving through
:class:`~repro.core.api.DiscoverySession` against the uncached batched
engine on raw tables: the cache-warm second sweep of the same
targets skips re-profiling/re-signing and must beat the uncached path
(tracked floor: >= 2x at 1000 attributes) with bit-identical rankings.

A join-graph section times batched SA-join graph construction
(``SAJoinGraph.build``: stored-signature probes, shared per-tree forest
descents, vectorized estimated-overlap pre-filter, batched verification)
against the scalar probe-at-a-time ``build_sequential`` over a lake of
per-family SA-join cliques, verifying that the two — and the
``workers=PARALLEL_WORKERS`` sharded verification — produce identical edge
sets before trusting the timings (tracked floor: >= 3x at 1000 attributes).

An incremental-mutation section (top-level ``incremental_mutation`` key, like
the ``serving`` section ``bench_serving.py`` maintains) times indexing one
table into an already-built 1000-attribute index — ``D3LIndexes.add_table``,
the unit ``D3L.index_table`` runs — against rebuilding the whole index from
scratch over the same tables, with the mutated index verified bit-identical
to the rebuild before either timing is trusted (tracked floor: the single
add is >= 10x cheaper than the rebuild).

Run directly (writes ``BENCH_hot_paths.json`` at the repository root)::

    PYTHONPATH=src python benchmarks/bench_perf_hot_paths.py

The JSON records one entry per lake size with index/query wall-clock for
both backends, the speedup ratios, and the equivalence flags, so the perf
trajectory of the hot paths can be tracked PR over PR.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lsh.hashing import clear_token_hash_cache  # noqa: E402
from repro.lsh.lsh_forest import LSHForest  # noqa: E402
from repro.lsh.minhash import MinHashFactory, batch_jaccard_distances  # noqa: E402
from repro.lsh.reference import (  # noqa: E402
    ScalarLSHForest,
    scalar_hash_tokens,
    scalar_signature_distance,
)

#: Paper configuration: MinHash size 256 split over 8 trees.
NUM_HASHES = 256
NUM_TREES = 8
#: Lake sizes (attribute counts) swept by the benchmark.
LAKE_SIZES = (100, 500, 1000)
#: Queries timed per lake size and the answer size requested.
NUM_QUERIES = 30
TOP_K = 10
#: Worker processes used by the sharded end-to-end construction timing.
PARALLEL_WORKERS = 4
#: Columns per synthetic table in the end-to-end construction timing.
COLUMNS_PER_TABLE = 8
#: Tracked floor: table-level signature batching at 1000 attributes.
BATCHING_SPEEDUP_FLOOR = 3.0
#: Tracked floor: vectorized top-k query speedup at 1000 attributes.
QUERY_SPEEDUP_FLOOR = 5.0
#: Tracked floor: batched query engine vs sequential per-attribute querying
#: at 1000 attributes (rankings verified identical; sequential is the oracle).
BATCHED_QUERY_SPEEDUP_FLOOR = 3.0
#: Tracked floor: repeated-target querying through DiscoverySession (cache-warm
#: second sweep of the same targets) vs the uncached batched engine on raw tables,
#: at 1000 attributes.  The session memoizes each target's Algorithm 1 profile
#: and query signatures, so the warm sweep skips re-profiling entirely.
SESSION_CACHE_SPEEDUP_FLOOR = 2.0
#: Tracked floor: batched SA-join graph construction (stored-signature probes,
#: shared per-tree forest passes, vectorized estimated-overlap pre-filter) vs
#: the scalar probe-at-a-time build, at 1000 attributes, with the edge sets
#: verified identical before any timing is trusted.
JOIN_GRAPH_SPEEDUP_FLOOR = 3.0
#: Tracked floor: fan-out snapshot shipping at 1000 attributes — the
#: shared-memory descriptor a query-worker pool ships per worker must be at
#: least this many times smaller than the pickled-index snapshot the old
#: fan-out shipped, with the attached state verified bit-identical first.
SNAPSHOT_SHIP_RATIO_FLOOR = 10.0
#: Tracked floor: incremental mutation at 1000 attributes — indexing one new
#: table into a built index (``D3LIndexes.add_table``) must be at least this
#: many times cheaper than rebuilding the whole index from scratch, with the
#: mutated index verified bit-identical to the rebuild before the timing is
#: trusted.
INCREMENTAL_ADD_SPEEDUP_FLOOR = 10.0
#: Lake size (attribute count) of the incremental-mutation benchmark.
MUTATION_BENCH_ATTRIBUTES = 1000
#: Join-graph workload shape: entity rows per table and the per-family entity
#: pool the tables sample them from (value samples near the profile cap, so
#: exact verification has realistic per-pair cost).
JOIN_BENCH_ROWS = 420
JOIN_BENCH_ENTITY_POOL = 520
#: Tables per subject-entity family in the join-graph workload (each family
#: becomes a clique of genuinely SA-joinable tables).
JOIN_BENCH_FAMILY_SIZE = 5
#: Batched-query workload: answer size, candidate pool, table shape, targets.
BATCH_QUERY_TOP_K = 25
BATCH_QUERY_MIN_CANDIDATES = 300
BATCH_QUERY_ROWS = 200
BATCH_QUERY_NUMERIC_COLUMNS = 2
BATCH_QUERY_TARGETS = 6
#: Rows per serving target in the session-cache benchmark.  Serving targets
#: are user tables, not lake tables; their Algorithm 1 profiling cost scales
#: with height while the per-query candidate work does not, so the session's
#: profile cache is exercised at a realistic serving-table size.
SESSION_TARGET_ROWS = 2000

RESULT_PATH = REPO_ROOT / "BENCH_hot_paths.json"


def _synthetic_attributes(count: int, seed: int) -> List[Tuple[str, set]]:
    """Token sets shaped like a lake: families of related attributes plus noise."""
    rng = random.Random(seed)
    num_families = max(4, count // 8)
    families = [
        {f"fam{f}-tok{t}" for t in range(40)} for f in range(num_families)
    ]
    attributes = []
    for index in range(count):
        base = families[rng.randrange(num_families)]
        kept = {token for token in base if rng.random() > 0.25}
        extra = {f"attr{index}-noise{j}" for j in range(rng.randrange(10))}
        attributes.append((f"attr{index}", kept | extra))
    return attributes


def _query_signatures(
    attributes: List[Tuple[str, set]], factory: MinHashFactory, seed: int
):
    """Perturbed versions of sampled attributes — realistic near-neighbor queries."""
    rng = random.Random(seed)
    sampled = rng.sample(attributes, k=min(NUM_QUERIES, len(attributes)))
    queries = []
    for name, tokens in sampled:
        kept = {token for token in tokens if rng.random() > 0.15}
        extra = {f"query-{name}-{j}" for j in range(3)}
        queries.append((name, factory.from_tokens(kept | extra)))
    return queries


def _time_indexing(forest_cls, signatures, probe) -> Tuple[float, object]:
    """Wall-clock to insert every signature and force the sorted structure."""
    start = time.perf_counter()
    forest = forest_cls(num_hashes=NUM_HASHES, num_trees=NUM_TREES)
    for key, values in signatures:
        forest.insert(key, values)
    forest.query(probe, 1)  # force the deferred sort, as the first query would
    return time.perf_counter() - start, forest


def _rank_vectorized(forest, matrix, row_of, query, k):
    candidates = forest.query(query.hashvalues, k)
    if not candidates:
        return []
    rows = np.array([row_of[key] for key in candidates], dtype=np.intp)
    distances = batch_jaccard_distances(query.hashvalues, matrix[rows])
    ranked = sorted(zip(distances.tolist(), candidates))
    return ranked[:k]


def _rank_scalar(forest, signatures_by_key, query, k):
    candidates = forest.query(query.hashvalues, k)
    ranked = sorted(
        (scalar_signature_distance(query, signatures_by_key[key]), key)
        for key in candidates
    )
    return ranked[:k]


def _time_queries(rank, queries, k) -> Tuple[float, List[list]]:
    rankings = []
    start = time.perf_counter()
    for _, query in queries:
        rankings.append(rank(query, k))
    elapsed = time.perf_counter() - start
    return elapsed / len(queries), rankings


def _bench_token_hashing(attributes, seed: int) -> Dict[str, float]:
    """Batched+cached hash_tokens vs the per-token scalar pass."""
    from repro.lsh.hashing import hash_tokens

    token_sets = [tokens for _, tokens in attributes]
    start = time.perf_counter()
    for tokens in token_sets:
        scalar_hash_tokens(tokens, seed=seed)
    scalar_seconds = time.perf_counter() - start
    clear_token_hash_cache()
    start = time.perf_counter()
    for tokens in token_sets:
        hash_tokens(tokens, seed=seed)
    vectorized_seconds = time.perf_counter() - start
    return {
        "scalar_seconds": scalar_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": scalar_seconds / max(vectorized_seconds, 1e-12),
    }


def _synthetic_lake(num_attributes: int, seed: int):
    """A DataLake of small textual tables totalling ``num_attributes`` columns."""
    from repro.lake.datalake import DataLake
    from repro.tables.table import Table

    rng = random.Random(seed)
    cities = ["belfast", "salford", "manchester", "bolton", "leeds", "york"]
    streets = ["church", "chapel", "station", "victoria", "market", "mill", "park"]
    tables = []
    num_tables = max(1, num_attributes // COLUMNS_PER_TABLE)
    for table_index in range(num_tables):
        columns = {}
        for column_index in range(COLUMNS_PER_TABLE):
            columns[f"col{column_index}_{rng.randrange(8)}"] = [
                f"{rng.randrange(99)} {rng.choice(streets)} st {rng.choice(cities)} {rng.randrange(200)}"
                for _ in range(80)
            ]
        tables.append(Table.from_dict(f"table{table_index:04d}", columns))
    return DataLake(f"bench{num_attributes}", tables)


def _bench_signature_batching(profiles, indexes) -> Dict[str, object]:
    """Per-attribute ``signatures_for`` vs lake-level ``batch_signatures``.

    This is the unit ``add_lake`` actually runs per build: all MinHash
    evidence types plus the random projections for every attribute of the
    lake.  Both paths run once to warm the shared token-hash cache, then the
    best of three timed repeats is kept; the signatures are compared for
    bit-identity before the timings are trusted.
    """
    from repro.core.evidence import EvidenceType

    def run_scalar():
        return {
            (table_profile.table_name, name): indexes.signatures_for(attribute_profile)
            for table_profile in profiles
            for name, attribute_profile in table_profile.attributes.items()
        }

    def run_batched():
        return indexes.batch_signatures(profiles)

    scalar_signatures = run_scalar()
    batched_signatures = run_batched()
    scalar_seconds = min(
        _timed(run_scalar) for _ in range(3)
    )
    batched_seconds = min(
        _timed(run_batched) for _ in range(3)
    )

    identical = True
    for (table_name, name), scalar in scalar_signatures.items():
        batched = batched_signatures[table_name][name]
        for evidence in EvidenceType.indexed():
            left, right = scalar[evidence], batched[evidence]
            if (left is None) != (right is None) or (left is not None and left != right):
                identical = False
    attributes = len(scalar_signatures)
    return {
        "num_attributes": attributes,
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "scalar_attrs_per_second": attributes / max(scalar_seconds, 1e-12),
        "batched_attrs_per_second": attributes / max(batched_seconds, 1e-12),
        "speedup": scalar_seconds / max(batched_seconds, 1e-12),
        "signatures_identical": identical,
    }


def _timed(callable_) -> float:
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start


def _rss_bytes() -> int:
    """Resident set size of this process via ``/proc/self/statm`` (no psutil)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _worker_index_footprint(payload) -> Tuple[int, int]:
    """Worker entry: materialize an index from ``payload``, report RSS growth.

    ``payload`` is ``("blob", pickled-index bytes)`` — the old fan-out's
    per-worker copy, unpickled here so the allocation lands inside the
    measurement — or a shared-snapshot descriptor, attached zero-copy.
    Returns ``(rss delta in bytes, attribute count)``.
    """
    import pickle

    from repro.core.shared import SharedIndexSnapshot

    kind, data = payload
    before = _rss_bytes()
    if kind == "blob":
        indexes = pickle.loads(data)
    else:
        indexes = SharedIndexSnapshot.attach((kind, data))
    return _rss_bytes() - before, indexes.attribute_count


def _snapshot_state_identical(indexes, attached) -> bool:
    """Bit-exact equality of an attached snapshot against the source index."""
    from repro.core.evidence import EvidenceType

    for evidence in EvidenceType.indexed():
        refs, matrix, flags = indexes._matrices[evidence].export_state(copy=False)
        a_refs, a_matrix, a_flags = attached._matrices[evidence].export_state(
            copy=False
        )
        if (
            refs != a_refs
            or not np.array_equal(matrix, a_matrix)
            or not np.array_equal(flags, a_flags)
        ):
            return False
        forest = indexes._forests[evidence].export_state(copy=False)
        a_forest = attached._forests[evidence].export_state(copy=False)
        for tree, a_tree in zip(forest["trees"], a_forest["trees"]):
            if (
                not np.array_equal(tree["keys"], a_tree["keys"])
                or tree["items"] != a_tree["items"]
            ):
                return False
    return True


def _bench_snapshot_shipping(indexes) -> Dict[str, object]:
    """Fan-out snapshot cost: pickled per-worker copies vs shared-memory attach.

    Measures what one worker costs under each shipping strategy — bytes
    serialized into the pool initializer and the worker's RSS growth while
    materializing its index — plus the one-time snapshot create/attach
    wall-clock, with the attached state verified bit-identical to the source
    before any number is trusted.  The worker footprints run in fresh
    single-worker pools *before* the in-process attach so the fork cannot
    inherit an already-attached mapping.
    """
    import pickle
    from concurrent.futures import ProcessPoolExecutor

    from repro.core.shared import SharedIndexSnapshot

    start = time.perf_counter()
    blob = pickle.dumps(indexes, protocol=pickle.HIGHEST_PROTOCOL)
    pickle_seconds = time.perf_counter() - start

    start = time.perf_counter()
    snapshot = SharedIndexSnapshot.create(indexes)
    create_seconds = time.perf_counter() - start
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            rss_pickled, _ = pool.submit(
                _worker_index_footprint, ("blob", blob)
            ).result()
        with ProcessPoolExecutor(max_workers=1) as pool:
            rss_shared, _ = pool.submit(
                _worker_index_footprint, snapshot.descriptor
            ).result()

        start = time.perf_counter()
        attached = SharedIndexSnapshot.attach(snapshot.descriptor)
        attach_seconds = time.perf_counter() - start
        state_identical = _snapshot_state_identical(indexes, attached)

        shipped = snapshot.shipped_bytes()
        return {
            "snapshot_pickled_bytes": len(blob),
            "snapshot_shipped_bytes": shipped,
            "snapshot_ship_ratio": len(blob) / max(shipped, 1),
            "snapshot_pickle_seconds": pickle_seconds,
            "snapshot_create_seconds": create_seconds,
            "snapshot_attach_seconds": attach_seconds,
            "worker_rss_delta_pickled_bytes": rss_pickled,
            "worker_rss_delta_shared_bytes": rss_shared,
            "snapshot_state_identical": state_identical,
        }
    finally:
        snapshot.close()


def _bench_end_to_end_construction(lake, config) -> Dict[str, object]:
    """Full ``add_lake`` (profile + sign + insert) with 1 vs N worker processes."""
    from repro.core.indexes import D3LIndexes

    timings = {}
    serial_indexes = None
    for workers in (1, PARALLEL_WORKERS):
        clear_token_hash_cache()
        indexes = D3LIndexes(config=config)
        start = time.perf_counter()
        indexes.add_lake(lake, workers=workers)
        elapsed = time.perf_counter() - start
        timings[workers] = (elapsed, indexes.attribute_count)
        if workers == 1:
            serial_indexes = indexes
    serial_seconds, attributes = timings[1]
    parallel_seconds, _ = timings[PARALLEL_WORKERS]
    return {
        "num_tables": len(lake),
        "num_attributes": attributes,
        "available_cpus": os.cpu_count(),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "parallel_workers": PARALLEL_WORKERS,
        "serial_attrs_per_second": attributes / max(serial_seconds, 1e-12),
        "parallel_attrs_per_second": attributes / max(parallel_seconds, 1e-12),
        "parallel_speedup": serial_seconds / max(parallel_seconds, 1e-12),
        **_bench_snapshot_shipping(serial_indexes),
    }


def _mixed_query_lake(num_attributes: int, seed: int):
    """A lake mixing family-correlated numeric columns with textual columns.

    Shaped to stress the query fan-out the way the paper's lakes do: shared
    attribute names link tables across the lake (so candidate pools are
    large) and the numeric columns of a family share a distribution (so the
    Algorithm 2 guard passes and the KS pass has real work per candidate).
    """
    from repro.lake.datalake import DataLake
    from repro.tables.table import Table

    rng = random.Random(seed)
    numeric_names = ["amount", "price", "total", "score", "count", "rate"]
    text_names = ["address", "venue", "location", "site", "region", "name"]
    cities = ["belfast", "salford", "manchester", "bolton", "leeds", "york"]
    streets = ["church", "chapel", "station", "victoria", "market", "mill", "park"]
    tables = []
    for table_index in range(max(1, num_attributes // COLUMNS_PER_TABLE)):
        family = table_index % 7
        columns = {}
        for column_index in range(BATCH_QUERY_NUMERIC_COLUMNS):
            columns[numeric_names[column_index]] = [
                round(rng.gauss(10 * family + column_index, 3.0), 3)
                for _ in range(BATCH_QUERY_ROWS)
            ]
        for column_index in range(COLUMNS_PER_TABLE - BATCH_QUERY_NUMERIC_COLUMNS):
            columns[text_names[column_index]] = [
                f"{rng.randrange(99)} {rng.choice(streets)} st {rng.choice(cities)}"
                for _ in range(BATCH_QUERY_ROWS)
            ]
        tables.append(Table.from_dict(f"table{table_index:04d}", columns))
    return DataLake(f"query_bench{num_attributes}", tables)


def _rankings(answer) -> List[Tuple[str, float]]:
    return [(result.table_name, result.distance) for result in answer.results]


def _bench_batched_query(count: int, seed: int) -> Dict[str, object]:
    """Sequential per-attribute querying (the oracle) vs the batched engine.

    Both paths receive pre-profiled targets, so the timing isolates the
    query fan-out: candidate collection, distance computation, the Algorithm
    2 KS pass, Equation 2 weighting, and ranking.  Full rankings (names and
    combined distances) are verified identical before any timing is trusted,
    and the process-parallel fan-out (``workers=PARALLEL_WORKERS``) is
    checked against ``workers=1`` the same way.
    """
    from repro.core.config import D3LConfig
    from repro.core.discovery import D3L

    lake = _mixed_query_lake(count, seed)
    config = D3LConfig(
        num_hashes=NUM_HASHES,
        num_trees=NUM_TREES,
        embedding_dimension=32,
        min_candidates=BATCH_QUERY_MIN_CANDIDATES,
    )
    engine = D3L(config=config)
    engine.index_lake(lake)
    rng = random.Random(seed + 1)
    target_names = rng.sample(
        sorted(lake.table_names), k=min(BATCH_QUERY_TARGETS, len(lake))
    )
    profiles = [engine.profile_target(lake.table(name)) for name in target_names]

    k = BATCH_QUERY_TOP_K
    engine._execute_query(profiles[0], k=k)
    engine._execute_query_batch(profiles[0], k=k)

    start = time.perf_counter()
    sequential = [engine._execute_query(profile, k=k) for profile in profiles]
    sequential_seconds = (time.perf_counter() - start) / len(profiles)
    start = time.perf_counter()
    batched = [engine._execute_query_batch(profile, k=k) for profile in profiles]
    batched_seconds = (time.perf_counter() - start) / len(profiles)

    rankings_identical = all(
        _rankings(first) == _rankings(second)
        for first, second in zip(sequential, batched)
    )
    workers_identical = all(
        _rankings(engine._execute_query_batch(profile, k=k, workers=PARALLEL_WORKERS))
        == _rankings(answer)
        for profile, answer in zip(profiles[:2], batched[:2])
    )
    return {
        "num_attributes": engine.indexes.attribute_count,
        "num_targets": len(profiles),
        "top_k": k,
        "candidate_pool": config.candidate_pool_size(k),
        "sequential_seconds_per_query": sequential_seconds,
        "batched_seconds_per_query": batched_seconds,
        "speedup": sequential_seconds / max(batched_seconds, 1e-12),
        "rankings_identical": rankings_identical,
        "parallel_workers": PARALLEL_WORKERS,
        "workers_rankings_identical": workers_identical,
    }


def _serving_targets(num_targets: int, seed: int):
    """User-style serving targets: the lake's column vocabulary, more rows.

    Shaped like the tables of :func:`_mixed_query_lake` (shared attribute
    names, family-correlated numeric columns) but ``SESSION_TARGET_ROWS``
    tall, the way analyst-supplied targets are: profiling cost grows with
    height, candidate pools do not.
    """
    from repro.tables.table import Table

    rng = random.Random(seed)
    numeric_names = ["amount", "price", "total", "score", "count", "rate"]
    text_names = ["address", "venue", "location", "site", "region", "name"]
    cities = ["belfast", "salford", "manchester", "bolton", "leeds", "york"]
    streets = ["church", "chapel", "station", "victoria", "market", "mill", "park"]
    targets = []
    for target_index in range(num_targets):
        family = target_index % 7
        columns = {}
        for column_index in range(BATCH_QUERY_NUMERIC_COLUMNS):
            columns[numeric_names[column_index]] = [
                round(rng.gauss(10 * family + column_index, 3.0), 3)
                for _ in range(SESSION_TARGET_ROWS)
            ]
        for column_index in range(COLUMNS_PER_TABLE - BATCH_QUERY_NUMERIC_COLUMNS):
            columns[text_names[column_index]] = [
                f"{rng.randrange(99)} {rng.choice(streets)} st {rng.choice(cities)}"
                for _ in range(SESSION_TARGET_ROWS)
            ]
        targets.append(Table.from_dict(f"serving_target{target_index:02d}", columns))
    return targets


def _bench_session_cache(count: int, seed: int) -> Dict[str, object]:
    """Repeated-target serving: DiscoverySession vs the uncached batched engine.

    A serving tier answers the same targets over and over (dashboards,
    answer-size sweeps, evidence ablations).  Serving-sized target tables
    are queried through the engine's uncached batched path — which
    re-profiles and re-signs the target on every call — and through a
    :class:`DiscoverySession`, twice; the second (cache-warm) sweep must
    beat the uncached path by ``SESSION_CACHE_SPEEDUP_FLOOR`` and produce
    bit-identical rankings.
    """
    from repro.core.api import DiscoverySession, QueryRequest
    from repro.core.config import D3LConfig
    from repro.core.discovery import D3L

    lake = _mixed_query_lake(count, seed)
    config = D3LConfig(
        num_hashes=NUM_HASHES,
        num_trees=NUM_TREES,
        embedding_dimension=32,
        min_candidates=BATCH_QUERY_MIN_CANDIDATES,
    )
    engine = D3L(config=config)
    engine.index_lake(lake)
    targets = _serving_targets(BATCH_QUERY_TARGETS, seed + 1)
    k = BATCH_QUERY_TOP_K

    engine._execute_query_batch(targets[0], k=k)  # warm code paths + token caches

    start = time.perf_counter()
    uncached = [engine._execute_query_batch(target, k=k) for target in targets]
    uncached_seconds = (time.perf_counter() - start) / len(targets)

    session = DiscoverySession(engine)
    start = time.perf_counter()
    first = [session.submit(QueryRequest(target=target, k=k)) for target in targets]
    first_seconds = (time.perf_counter() - start) / len(targets)
    start = time.perf_counter()
    second = [session.submit(QueryRequest(target=target, k=k)) for target in targets]
    second_seconds = (time.perf_counter() - start) / len(targets)

    identical = all(
        _rankings(answer) == [(r.table_name, r.distance) for r in response.results]
        for answer, response in zip(uncached, second)
    ) and all(
        [(r.table_name, r.distance) for r in cold.results]
        == [(r.table_name, r.distance) for r in warm.results]
        for cold, warm in zip(first, second)
    )
    cache = session.cache_info()
    return {
        "num_attributes": engine.indexes.attribute_count,
        "num_targets": len(targets),
        "top_k": k,
        "uncached_seconds_per_query": uncached_seconds,
        "session_cold_seconds_per_query": first_seconds,
        "session_warm_seconds_per_query": second_seconds,
        "cache_speedup": uncached_seconds / max(second_seconds, 1e-12),
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "rankings_identical": identical,
    }


def _join_lake(num_attributes: int, seed: int):
    """A lake whose tables form per-family SA-join cliques.

    Every table's leftmost column holds entity names sampled from its
    family's pool (high distinctness, so the subject-attribute heuristic
    picks it), making same-family tables genuinely SA-joinable with value
    overlaps above the default τ = 0.7; entity tokens are family-unique so
    cross-family candidates are junk the pre-filter must reject.  The
    remaining columns are the usual mixed numeric/text filler sharing a
    global vocabulary, which keeps the value index busy with non-subject
    attributes the way a real lake is.
    """
    from repro.lake.datalake import DataLake
    from repro.tables.table import Table

    rng = random.Random(seed)
    cities = ["belfast", "salford", "manchester", "bolton", "leeds", "york"]
    streets = ["church", "chapel", "station", "victoria", "market", "mill", "park"]
    num_tables = max(1, num_attributes // COLUMNS_PER_TABLE)
    num_families = max(2, num_tables // JOIN_BENCH_FAMILY_SIZE)
    pools = [
        [f"fam{family}x{i:04d} clinic" for i in range(JOIN_BENCH_ENTITY_POOL)]
        for family in range(num_families)
    ]
    tables = []
    for table_index in range(num_tables):
        family = table_index % num_families
        columns = {"entity": rng.sample(pools[family], k=JOIN_BENCH_ROWS)}
        for column_index in range(2):
            columns[f"metric{column_index}"] = [
                round(rng.gauss(10 * family, 3.0), 3) for _ in range(JOIN_BENCH_ROWS)
            ]
        for column_index in range(COLUMNS_PER_TABLE - 3):
            columns[f"text{column_index}"] = [
                f"{rng.randrange(99)} {rng.choice(streets)} st {rng.choice(cities)}"
                for _ in range(JOIN_BENCH_ROWS)
            ]
        tables.append(Table.from_dict(f"join{table_index:04d}", columns))
    return DataLake(f"join_bench{num_attributes}", tables)


def _join_edge_set(graph) -> Dict[tuple, tuple]:
    """Canonical edge map of an SA-join graph, for exact set comparison."""
    return {
        tuple(sorted(pair)): (
            graph.edge(*pair).left,
            graph.edge(*pair).right,
            graph.edge(*pair).overlap,
        )
        for pair in graph.graph.edges
    }


def _bench_join_graph_build(count: int, seed: int) -> Dict[str, object]:
    """Batched SA-join graph construction vs the scalar probe-at-a-time build.

    Both paths block with the same ``join_candidate_pool`` value-index
    lookups; the batched path additionally reuses the stored probe
    signatures, shares the forest descents across probes
    (``LSHForest.multi_query``), and drops junk pairs with the vectorized
    estimated-overlap pre-filter before exact verification.  Edge sets are
    verified identical — batched vs sequential, and ``workers=1`` vs the
    ``workers=PARALLEL_WORKERS`` sharded verification — before any timing is
    trusted.
    """
    from repro.core.config import D3LConfig
    from repro.core.discovery import D3L
    from repro.core.execution import create_backend
    from repro.core.joins import SAJoinGraph

    lake = _join_lake(count, seed)
    config = D3LConfig(num_hashes=NUM_HASHES, num_trees=NUM_TREES, embedding_dimension=32)
    engine = D3L(config=config)
    engine.index_lake(lake)
    indexes = engine.indexes

    batched = SAJoinGraph.build(indexes, config)
    sequential = SAJoinGraph.build_sequential(indexes, config)
    with create_backend("process", indexes, PARALLEL_WORKERS) as backend:
        sharded = SAJoinGraph.build(indexes, config, backend=backend)
    edges_identical = _join_edge_set(batched) == _join_edge_set(sequential)
    workers_identical = _join_edge_set(batched) == _join_edge_set(sharded)

    sequential_seconds = min(
        _timed(lambda: SAJoinGraph.build_sequential(indexes, config)) for _ in range(3)
    )
    batched_seconds = min(
        _timed(lambda: SAJoinGraph.build(indexes, config)) for _ in range(3)
    )
    return {
        "num_tables": len(lake),
        "num_attributes": indexes.attribute_count,
        "num_edges": batched.edge_count(),
        "candidate_pool": config.join_candidate_pool,
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": sequential_seconds / max(batched_seconds, 1e-12),
        "edges_identical": edges_identical,
        "parallel_workers": PARALLEL_WORKERS,
        "workers_edges_identical": workers_identical,
    }


def _mutation_state_identical(expected, mutated) -> bool:
    """The mutated index equals ``expected`` up to matrix row order.

    Matrix row order is answer-neutral (every consumer goes through the
    ref↔row registry) and legitimately differs between ``add_lake`` and a
    sequence of per-table adds, so the rows are compared per ref; the
    compacted forests use the canonical layout — a pure function of their
    contents — and must match bit for bit.
    """
    from repro.core.evidence import EvidenceType

    if sorted(expected.profiles) != sorted(mutated.profiles):
        return False
    if sorted(expected.table_profiles) != sorted(mutated.table_profiles):
        return False
    for evidence in EvidenceType.indexed():
        def rows_by_ref(indexes):
            refs, matrix, flags = indexes._matrices[evidence].export_state(copy=False)
            return {
                ref: (matrix[row].tobytes(), bool(flags[row]))
                for row, ref in enumerate(refs)
            }

        if rows_by_ref(expected) != rows_by_ref(mutated):
            return False
        forest = expected._forests[evidence].export_state(copy=False)
        mutated_forest = mutated._forests[evidence].export_state(copy=False)
        for tree, mutated_tree in zip(forest["trees"], mutated_forest["trees"]):
            if (
                not np.array_equal(tree["keys"], mutated_tree["keys"])
                or tree["items"] != mutated_tree["items"]
            ):
                return False
    return True


def bench_incremental_mutation(
    count: int = MUTATION_BENCH_ATTRIBUTES, seed: int = 7
) -> Dict[str, object]:
    """Single-table mutation vs a full rebuild at ``count`` attributes.

    Times what adding one table to an already-built index costs —
    ``D3LIndexes.add_table`` profiles, signs, and inserts just that table's
    attributes and journals the mutation — against rebuilding the whole
    index over the lake *plus* that table, which is what every mutation used
    to cost before the incremental path existed.  The mutated index is
    verified identical to the from-scratch rebuild — per-ref matrix rows,
    canonical forest layouts, profiles (:func:`_mutation_state_identical`) —
    before either timing is trusted, and the single-table removal
    is timed alongside for the record.  The token-hash cache is cleared
    before every timed run so neither path rides the other's warm cache.
    """
    from repro.core.config import D3LConfig
    from repro.core.indexes import D3LIndexes
    from repro.lake.datalake import DataLake

    lake = _synthetic_lake(count, seed)
    extra = _synthetic_lake(COLUMNS_PER_TABLE, seed + 1).tables[0].with_name(
        "mutation_extra"
    )
    config = D3LConfig(num_hashes=NUM_HASHES, num_trees=NUM_TREES, embedding_dimension=32)

    clear_token_hash_cache()
    full_indexes = D3LIndexes(config=config)
    full_lake = DataLake(f"{lake.name}+1", list(lake) + [extra])
    full_rebuild_seconds = _timed(lambda: full_indexes.add_lake(full_lake))

    clear_token_hash_cache()
    base_indexes = D3LIndexes(config=config)
    base_indexes.add_lake(lake)
    add_timings = []
    remove_timings = []
    for _ in range(3):
        clear_token_hash_cache()
        add_timings.append(_timed(lambda: base_indexes.add_table(extra)))
        remove_timings.append(_timed(lambda: base_indexes.remove_table(extra.name)))
    clear_token_hash_cache()
    add_timings.append(_timed(lambda: base_indexes.add_table(extra)))
    single_add_seconds = min(add_timings)
    single_remove_seconds = min(remove_timings)

    state_identical = _mutation_state_identical(full_indexes, base_indexes)
    return {
        "num_attributes": base_indexes.attribute_count,
        "num_tables": len(full_lake),
        "full_rebuild_seconds": full_rebuild_seconds,
        "single_add_seconds": single_add_seconds,
        "single_remove_seconds": single_remove_seconds,
        "speedup": full_rebuild_seconds / max(single_add_seconds, 1e-12),
        "state_identical": state_identical,
    }


def _bench_index_construction(count: int, seed: int) -> Dict[str, object]:
    """Signature batching plus end-to-end sharded construction on one lake."""
    from repro.core.config import D3LConfig
    from repro.core.indexes import D3LIndexes

    lake = _synthetic_lake(count, seed)
    config = D3LConfig(num_hashes=NUM_HASHES, num_trees=NUM_TREES, embedding_dimension=32)
    indexes = D3LIndexes(config=config)
    profiles = [indexes.profile_table(table) for table in lake]
    return {
        "signature_batching": _bench_signature_batching(profiles, indexes),
        "end_to_end": _bench_end_to_end_construction(lake, config),
    }


def bench_lake_size(count: int, seed: int = 7) -> Dict[str, object]:
    factory = MinHashFactory(num_perm=NUM_HASHES, seed=3)
    attributes = _synthetic_attributes(count, seed)
    minhashes = [(key, factory.from_tokens(tokens)) for key, tokens in attributes]
    signatures = [(key, signature.hashvalues) for key, signature in minhashes]
    signatures_by_key = dict(minhashes)
    queries = _query_signatures(attributes, factory, seed + 1)
    probe = queries[0][1].hashvalues

    vec_index_seconds, vec_forest = _time_indexing(LSHForest, signatures, probe)
    scalar_index_seconds, scalar_forest = _time_indexing(
        ScalarLSHForest, signatures, probe
    )

    matrix = np.vstack([values for _, values in signatures])
    row_of = {key: row for row, (key, _) in enumerate(signatures)}

    vec_query_seconds, vec_rankings = _time_queries(
        lambda query, k: _rank_vectorized(vec_forest, matrix, row_of, query, k),
        queries,
        TOP_K,
    )
    scalar_query_seconds, scalar_rankings = _time_queries(
        lambda query, k: _rank_scalar(scalar_forest, signatures_by_key, query, k),
        queries,
        TOP_K,
    )

    rankings_identical = vec_rankings == scalar_rankings
    return {
        "num_attributes": count,
        "num_queries": len(queries),
        "top_k": TOP_K,
        "index_seconds": {
            "vectorized": vec_index_seconds,
            "scalar": scalar_index_seconds,
            "speedup": scalar_index_seconds / max(vec_index_seconds, 1e-12),
        },
        "query_seconds_per_query": {
            "vectorized": vec_query_seconds,
            "scalar": scalar_query_seconds,
            "speedup": scalar_query_seconds / max(vec_query_seconds, 1e-12),
        },
        "token_hashing": _bench_token_hashing(attributes, seed=3),
        "index_construction": _bench_index_construction(count, seed + 2),
        "batched_query": _bench_batched_query(count, seed + 3),
        "session_cache": _bench_session_cache(count, seed + 4),
        "join_graph_build": _bench_join_graph_build(count, seed + 5),
        "rankings_identical": rankings_identical,
    }


def run(sizes=LAKE_SIZES) -> Dict[str, object]:
    results = [bench_lake_size(size) for size in sizes]
    payload = {
        "benchmark": "hot_paths",
        "generated_by": "benchmarks/bench_perf_hot_paths.py",
        "config": {
            "num_hashes": NUM_HASHES,
            "num_trees": NUM_TREES,
            "num_queries": NUM_QUERIES,
            "top_k": TOP_K,
        },
        "lake_sizes": list(sizes),
        "results": results,
        "incremental_mutation": bench_incremental_mutation(),
    }
    return payload


def main() -> int:
    payload = run()
    # The serving-tier section is written by bench_serving.py; keep it when
    # rewriting the file so the two benchmarks can re-run independently.
    if RESULT_PATH.exists():
        try:
            previous = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            previous = {}
        if "serving" in previous:
            payload["serving"] = previous["serving"]
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for entry in payload["results"]:
        construction = entry["index_construction"]
        batching = construction["signature_batching"]
        end_to_end = construction["end_to_end"]
        batched_query = entry["batched_query"]
        session_cache = entry["session_cache"]
        join_graph = entry["join_graph_build"]
        print(
            f"n={entry['num_attributes']:>5}  "
            f"index: {entry['index_seconds']['speedup']:.1f}x  "
            f"query: {entry['query_seconds_per_query']['speedup']:.1f}x  "
            f"sig-batch: {batching['speedup']:.1f}x  "
            f"batch-query: {batched_query['speedup']:.1f}x  "
            f"session-cache: {session_cache['cache_speedup']:.1f}x  "
            f"join-graph: {join_graph['speedup']:.1f}x  "
            f"e2e: {end_to_end['serial_attrs_per_second']:.0f} attrs/s serial, "
            f"{end_to_end['parallel_attrs_per_second']:.0f} attrs/s "
            f"x{end_to_end['parallel_workers']}  "
            f"snap-ship: {end_to_end['snapshot_ship_ratio']:.0f}x smaller  "
            f"identical: "
            f"{entry['rankings_identical'] and batching['signatures_identical'] and batched_query['rankings_identical'] and batched_query['workers_rankings_identical'] and session_cache['rankings_identical'] and join_graph['edges_identical'] and join_graph['workers_edges_identical'] and end_to_end['snapshot_state_identical']}"
        )
    mutation = payload["incremental_mutation"]
    print(
        f"mutation n={mutation['num_attributes']:>5}  "
        f"single add: {mutation['single_add_seconds'] * 1000:.1f}ms  "
        f"full rebuild: {mutation['full_rebuild_seconds'] * 1000:.0f}ms  "
        f"speedup: {mutation['speedup']:.0f}x  "
        f"identical: {mutation['state_identical']}"
    )
    print(f"wrote {RESULT_PATH}")
    failures = [
        entry["num_attributes"]
        for entry in payload["results"]
        if not entry["rankings_identical"]
        or not entry["index_construction"]["signature_batching"]["signatures_identical"]
        or not entry["batched_query"]["rankings_identical"]
        or not entry["batched_query"]["workers_rankings_identical"]
        or not entry["session_cache"]["rankings_identical"]
        or not entry["join_graph_build"]["edges_identical"]
        or not entry["join_graph_build"]["workers_edges_identical"]
        or not entry["index_construction"]["end_to_end"]["snapshot_state_identical"]
    ]
    largest = payload["results"][-1]
    batching_speedup = largest["index_construction"]["signature_batching"]["speedup"]
    if batching_speedup < BATCHING_SPEEDUP_FLOOR:
        print(
            f"FLOOR VIOLATION: signature batching {batching_speedup:.1f}x "
            f"< {BATCHING_SPEEDUP_FLOOR}x at {largest['num_attributes']} attributes"
        )
        failures.append(largest["num_attributes"])
    query_speedup = largest["query_seconds_per_query"]["speedup"]
    if query_speedup < QUERY_SPEEDUP_FLOOR:
        print(
            f"FLOOR VIOLATION: query speedup {query_speedup:.1f}x "
            f"< {QUERY_SPEEDUP_FLOOR}x at {largest['num_attributes']} attributes"
        )
        failures.append(largest["num_attributes"])
    batched_query_speedup = largest["batched_query"]["speedup"]
    if batched_query_speedup < BATCHED_QUERY_SPEEDUP_FLOOR:
        print(
            f"FLOOR VIOLATION: batched query speedup {batched_query_speedup:.1f}x "
            f"< {BATCHED_QUERY_SPEEDUP_FLOOR}x at {largest['num_attributes']} attributes"
        )
        failures.append(largest["num_attributes"])
    session_speedup = largest["session_cache"]["cache_speedup"]
    if session_speedup < SESSION_CACHE_SPEEDUP_FLOOR:
        print(
            f"FLOOR VIOLATION: session cache speedup {session_speedup:.1f}x "
            f"< {SESSION_CACHE_SPEEDUP_FLOOR}x at {largest['num_attributes']} attributes"
        )
        failures.append(largest["num_attributes"])
    join_speedup = largest["join_graph_build"]["speedup"]
    if join_speedup < JOIN_GRAPH_SPEEDUP_FLOOR:
        print(
            f"FLOOR VIOLATION: join graph build speedup {join_speedup:.1f}x "
            f"< {JOIN_GRAPH_SPEEDUP_FLOOR}x at {largest['num_attributes']} attributes"
        )
        failures.append(largest["num_attributes"])
    ship_ratio = largest["index_construction"]["end_to_end"]["snapshot_ship_ratio"]
    if ship_ratio < SNAPSHOT_SHIP_RATIO_FLOOR:
        print(
            f"FLOOR VIOLATION: shared snapshot ships only {ship_ratio:.1f}x "
            f"fewer bytes than the pickled snapshot "
            f"(< {SNAPSHOT_SHIP_RATIO_FLOOR}x) at {largest['num_attributes']} attributes"
        )
        failures.append(largest["num_attributes"])
    if not mutation["state_identical"]:
        print(
            "FLOOR VIOLATION: incrementally mutated index diverges from the "
            f"from-scratch rebuild at {mutation['num_attributes']} attributes"
        )
        failures.append(mutation["num_attributes"])
    if mutation["speedup"] < INCREMENTAL_ADD_SPEEDUP_FLOOR:
        print(
            f"FLOOR VIOLATION: single-table add only {mutation['speedup']:.1f}x "
            f"cheaper than a full rebuild (< {INCREMENTAL_ADD_SPEEDUP_FLOOR}x) "
            f"at {mutation['num_attributes']} attributes"
        )
        failures.append(mutation["num_attributes"])
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
