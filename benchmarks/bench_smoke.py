"""Benchmark smoke checks: fast guards over the perf-tracking contract.

The full hot-path benchmark (``bench_perf_hot_paths.py``) takes minutes; its
regressions used to surface only when someone ran it by hand.  This script is
the piece small enough to wire into tier-1 (see
``tests/integration/test_bench_smoke.py``): in ``--quick`` mode it

* imports the tracked floors from ``bench_perf_hot_paths`` and checks they
  are sane positive ratios,
* validates that the committed ``BENCH_hot_paths.json`` parses and still has
  the schema the benchmark writes (so a bench refactor cannot silently stop
  recording a tracked series), and
* runs the static-analysis gate: every ``repro check`` rule (R1–R5) over
  ``src/`` plus the pyflakes-or-fallback lint sweep must come back clean
  (see ``src/repro/analysis/`` and docs/api.md), and
* builds a tiny lake and asserts the batched query engine answers exactly
  like the sequential oracle — the equivalence the floors depend on —
  including the attribute-level path, and
* exercises the serving API on the same lake: ``DiscoverySession`` answers
  from its profile cache must match the oracle, and ``QueryResponse``
  must survive a ``to_dict`` → JSON → ``from_dict`` round trip losslessly, and
* checks the join-path surface: the batched SA-join graph build must equal
  the scalar ``build_sequential`` oracle edge for edge, and a ``joins=True``
  request's ``join_paths`` block must round-trip through the wire format, and
* exercises the zero-copy worker-pool path: an in-process shared-snapshot
  attach must answer bit-identically to the sequential oracle, the join
  graph verified on a process worker pool must equal the scalar build, the
  committed bench run must clear the snapshot-ship floor
  (``SNAPSHOT_SHIP_RATIO_FLOOR``) at the largest lake, and closing the
  engine must leave no stray ``/dev/shm`` segments, and
* guards the mutation path: the committed ``incremental_mutation`` section
  must keep its schema, record a verified-identical mutated index, and clear
  the single-table-add floor (``INCREMENTAL_ADD_SPEEDUP_FLOOR``); a tiny-lake
  add/remove/upsert sequence must answer exactly like a from-scratch rebuild
  over the surviving tables — rankings and SA-join edge sets — and
* guards the serving tier: the committed ``serving`` section written by
  ``bench_serving.py`` must keep its schema, record verified-identical
  responses, and clear the warm-cache throughput floor
  (``SERVING_WARM_QPS_FLOOR``); a live ``DiscoveryServer`` over the tiny
  lake must answer one HTTP query exactly like an in-process session and
  shut down without leaking segments.

Run directly::

    PYTHONPATH=src python benchmarks/bench_smoke.py --quick

Exit status 0 means every check passed; failures are printed one per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

RESULT_PATH = REPO_ROOT / "BENCH_hot_paths.json"

#: Required keys of the BENCH_hot_paths.json payload, by section.  Keeping
#: this list in a tier-1-checked file makes the JSON schema part of the
#: repository contract: removing a tracked series fails tests, not just the
#: manual bench run.
TOP_LEVEL_KEYS = ("benchmark", "generated_by", "config", "lake_sizes", "results")
RESULT_KEYS = (
    "num_attributes",
    "num_queries",
    "top_k",
    "index_seconds",
    "query_seconds_per_query",
    "token_hashing",
    "index_construction",
    "batched_query",
    "session_cache",
    "join_graph_build",
    "rankings_identical",
)
SPEEDUP_SECTION_KEYS = ("vectorized", "scalar", "speedup")
SIGNATURE_BATCHING_KEYS = (
    "num_attributes",
    "scalar_seconds",
    "batched_seconds",
    "speedup",
    "signatures_identical",
)
END_TO_END_KEYS = (
    "num_tables",
    "num_attributes",
    "available_cpus",
    "serial_seconds",
    "parallel_seconds",
    "parallel_workers",
    "parallel_speedup",
    "snapshot_pickled_bytes",
    "snapshot_shipped_bytes",
    "snapshot_ship_ratio",
    "snapshot_pickle_seconds",
    "snapshot_create_seconds",
    "snapshot_attach_seconds",
    "worker_rss_delta_pickled_bytes",
    "worker_rss_delta_shared_bytes",
    "snapshot_state_identical",
)
BATCHED_QUERY_KEYS = (
    "num_attributes",
    "num_targets",
    "top_k",
    "candidate_pool",
    "sequential_seconds_per_query",
    "batched_seconds_per_query",
    "speedup",
    "rankings_identical",
)
SESSION_CACHE_KEYS = (
    "num_attributes",
    "num_targets",
    "top_k",
    "uncached_seconds_per_query",
    "session_cold_seconds_per_query",
    "session_warm_seconds_per_query",
    "cache_speedup",
    "cache_hits",
    "cache_misses",
    "rankings_identical",
)
JOIN_GRAPH_KEYS = (
    "num_tables",
    "num_attributes",
    "num_edges",
    "candidate_pool",
    "sequential_seconds",
    "batched_seconds",
    "speedup",
    "edges_identical",
    "parallel_workers",
    "workers_edges_identical",
)
#: Required keys of the top-level ``serving`` section written by
#: ``bench_serving.py`` (the serving-tier load benchmark).
SERVING_KEYS = (
    "generated_by",
    "num_attributes",
    "num_targets",
    "top_k",
    "server_workers",
    "available_cpus",
    "responses_identical",
    "closed_loop",
    "open_loop",
    "process_backend",
    "process_speedup",
)
#: Required keys of the ``serving.process_backend`` sub-section: the same
#: sweeps as the thread backend, recorded against ``--backend process``.
SERVING_PROCESS_KEYS = (
    "responses_identical",
    "verification_problems",
    "closed_loop",
    "open_loop",
)
SERVING_LOOP_KEYS = ("client_workers", "requests", "qps", "latency_ms")
SERVING_OPEN_LOOP_KEYS = ("client_workers", "offered_qps", "requests", "achieved_qps", "latency_ms")
SERVING_LATENCY_KEYS = ("p50", "p90", "p99")
#: Required keys of the top-level ``incremental_mutation`` section: the
#: single-table-add-vs-full-rebuild record ``bench_perf_hot_paths.py`` writes.
INCREMENTAL_MUTATION_KEYS = (
    "num_attributes",
    "num_tables",
    "full_rebuild_seconds",
    "single_add_seconds",
    "single_remove_seconds",
    "speedup",
    "state_identical",
)


def validate_hot_paths_payload(payload: Dict[str, object]) -> List[str]:
    """Problems with the structure of a ``BENCH_hot_paths.json`` payload."""
    problems: List[str] = []
    for key in TOP_LEVEL_KEYS:
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
        return problems
    for entry in results:
        size = entry.get("num_attributes", "?")
        for key in RESULT_KEYS:
            if key not in entry:
                problems.append(f"result n={size}: missing key {key!r}")
        for section in ("index_seconds", "query_seconds_per_query"):
            for key in SPEEDUP_SECTION_KEYS:
                if key not in entry.get(section, {}):
                    problems.append(f"result n={size}: {section} missing {key!r}")
        construction = entry.get("index_construction", {})
        for key in SIGNATURE_BATCHING_KEYS:
            if key not in construction.get("signature_batching", {}):
                problems.append(f"result n={size}: signature_batching missing {key!r}")
        for key in END_TO_END_KEYS:
            if key not in construction.get("end_to_end", {}):
                problems.append(f"result n={size}: end_to_end missing {key!r}")
        for key in BATCHED_QUERY_KEYS:
            if key not in entry.get("batched_query", {}):
                problems.append(f"result n={size}: batched_query missing {key!r}")
        for key in SESSION_CACHE_KEYS:
            if key not in entry.get("session_cache", {}):
                problems.append(f"result n={size}: session_cache missing {key!r}")
        for key in JOIN_GRAPH_KEYS:
            if key not in entry.get("join_graph_build", {}):
                problems.append(f"result n={size}: join_graph_build missing {key!r}")
    problems += validate_serving_section(payload)
    problems += validate_incremental_mutation_section(payload)
    return problems


def validate_incremental_mutation_section(payload: Dict[str, object]) -> List[str]:
    """Problems with the top-level ``incremental_mutation`` section."""
    mutation = payload.get("incremental_mutation")
    if not isinstance(mutation, dict):
        return [
            "missing top-level 'incremental_mutation' section "
            "(run bench_perf_hot_paths.py)"
        ]
    return [
        f"incremental_mutation: missing key {key!r}"
        for key in INCREMENTAL_MUTATION_KEYS
        if key not in mutation
    ]


def validate_serving_section(payload: Dict[str, object]) -> List[str]:
    """Problems with the ``serving`` section ``bench_serving.py`` writes."""
    serving = payload.get("serving")
    if not isinstance(serving, dict):
        return ["missing top-level 'serving' section (run bench_serving.py)"]
    problems: List[str] = []
    for key in SERVING_KEYS:
        if key not in serving:
            problems.append(f"serving: missing key {key!r}")
    for section, keys in (
        ("closed_loop", SERVING_LOOP_KEYS),
        ("open_loop", SERVING_OPEN_LOOP_KEYS),
    ):
        block = serving.get(section, {})
        for key in keys:
            if key not in block:
                problems.append(f"serving: {section} missing {key!r}")
        for key in SERVING_LATENCY_KEYS:
            if key not in block.get("latency_ms", {}):
                problems.append(f"serving: {section} latency_ms missing {key!r}")
    process = serving.get("process_backend")
    if not isinstance(process, dict):
        return problems
    for key in SERVING_PROCESS_KEYS:
        if key not in process:
            problems.append(f"serving: process_backend missing {key!r}")
    for section, keys in (
        ("closed_loop", SERVING_LOOP_KEYS),
        ("open_loop", SERVING_OPEN_LOOP_KEYS),
    ):
        block = process.get(section, {})
        for key in keys:
            if key not in block:
                problems.append(f"serving: process_backend {section} missing {key!r}")
    return problems


def _check_floors() -> List[str]:
    """The tracked floors import and are sane positive ratios."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        import bench_perf_hot_paths as hot_paths
    except Exception as error:  # pragma: no cover - import failure is the finding
        return [f"cannot import bench_perf_hot_paths: {error}"]
    problems = []
    for name in (
        "BATCHING_SPEEDUP_FLOOR",
        "QUERY_SPEEDUP_FLOOR",
        "BATCHED_QUERY_SPEEDUP_FLOOR",
        "SESSION_CACHE_SPEEDUP_FLOOR",
        "JOIN_GRAPH_SPEEDUP_FLOOR",
        "SNAPSHOT_SHIP_RATIO_FLOOR",
        "INCREMENTAL_ADD_SPEEDUP_FLOOR",
    ):
        floor = getattr(hot_paths, name, None)
        if not isinstance(floor, (int, float)) or floor < 1.0:
            problems.append(f"{name} should be a ratio >= 1.0, found {floor!r}")
    try:
        import bench_serving
    except Exception as error:  # pragma: no cover - import failure is the finding
        return problems + [f"cannot import bench_serving: {error}"]
    qps_floor = getattr(bench_serving, "SERVING_WARM_QPS_FLOOR", None)
    if not isinstance(qps_floor, (int, float)) or qps_floor <= 0:
        problems.append(
            f"SERVING_WARM_QPS_FLOOR should be a positive rate, found {qps_floor!r}"
        )
    speedup_floor = getattr(bench_serving, "SERVING_PROCESS_SPEEDUP_FLOOR", None)
    if not isinstance(speedup_floor, (int, float)) or speedup_floor < 1.0:
        problems.append(
            "SERVING_PROCESS_SPEEDUP_FLOOR should be a ratio >= 1.0, "
            f"found {speedup_floor!r}"
        )
    ratio_guard = getattr(bench_serving, "SERVING_PROCESS_SINGLE_CORE_RATIO", None)
    if not isinstance(ratio_guard, (int, float)) or not 0 < ratio_guard <= 1.0:
        problems.append(
            "SERVING_PROCESS_SINGLE_CORE_RATIO should be a fraction in (0, 1], "
            f"found {ratio_guard!r}"
        )
    return problems


def _check_recorded_payload() -> List[str]:
    """The committed benchmark JSON parses and keeps its schema."""
    if not RESULT_PATH.exists():
        return [f"{RESULT_PATH.name} not found at the repository root"]
    try:
        payload = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        return [f"{RESULT_PATH.name} is not valid JSON: {error}"]
    problems = validate_hot_paths_payload(payload)
    if problems:
        return problems
    return (
        _check_recorded_ship_floor(payload)
        + _check_recorded_serving_floor(payload)
        + _check_recorded_mutation_floor(payload)
    )


def _check_recorded_ship_floor(payload: Dict[str, object]) -> List[str]:
    """The committed bench run clears the snapshot-ship floor at the largest lake."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_perf_hot_paths as hot_paths

    largest = payload["results"][-1]
    end_to_end = largest["index_construction"]["end_to_end"]
    problems: List[str] = []
    if not end_to_end.get("snapshot_state_identical", False):
        problems.append(
            f"recorded n={largest['num_attributes']}: shared snapshot state was "
            "not verified identical to the source index"
        )
    ratio = end_to_end.get("snapshot_ship_ratio", 0.0)
    if ratio < hot_paths.SNAPSHOT_SHIP_RATIO_FLOOR:
        problems.append(
            f"recorded n={largest['num_attributes']}: shared snapshot ships only "
            f"{ratio:.1f}x fewer bytes than the pickled snapshot "
            f"(floor {hot_paths.SNAPSHOT_SHIP_RATIO_FLOOR}x)"
        )
    return problems


def _check_recorded_serving_floor(payload: Dict[str, object]) -> List[str]:
    """The committed serving record was verified correct and clears its floor."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_serving

    serving = payload["serving"]
    problems: List[str] = []
    if not serving.get("responses_identical", False):
        problems.append(
            "recorded serving run: served responses were not verified identical "
            "to the in-process session"
        )
    qps = serving.get("closed_loop", {}).get("qps", 0.0)
    if qps < bench_serving.SERVING_WARM_QPS_FLOOR:
        problems.append(
            f"recorded serving run: warm closed-loop throughput {qps:.1f} qps "
            f"below the tracked floor ({bench_serving.SERVING_WARM_QPS_FLOOR} qps)"
        )
    process = serving.get("process_backend", {})
    if not process.get("responses_identical", False):
        problems.append(
            "recorded serving run: process-backend responses were not verified "
            "identical to the in-process session"
        )
    speedup = serving.get("process_speedup", 0.0)
    cpus = serving.get("available_cpus", 1)
    workers = serving.get("server_workers", 1)
    if cpus >= workers:
        # The recording host had the CPUs — the GIL-lifting speedup must show.
        if speedup < bench_serving.SERVING_PROCESS_SPEEDUP_FLOOR:
            problems.append(
                f"recorded serving run: process-backend speedup {speedup:.2f}x "
                f"below the tracked floor "
                f"({bench_serving.SERVING_PROCESS_SPEEDUP_FLOOR}x with "
                f"{cpus} CPUs)"
            )
    elif speedup < bench_serving.SERVING_PROCESS_SINGLE_CORE_RATIO:
        problems.append(
            f"recorded serving run: process backend retains only {speedup:.2f}x "
            f"of thread throughput on a {cpus}-CPU host (guard "
            f"{bench_serving.SERVING_PROCESS_SINGLE_CORE_RATIO}x)"
        )
    return problems


def _check_recorded_mutation_floor(payload: Dict[str, object]) -> List[str]:
    """The committed mutation record was verified and clears its floor."""
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import bench_perf_hot_paths as hot_paths

    mutation = payload["incremental_mutation"]
    problems: List[str] = []
    if not mutation.get("state_identical", False):
        problems.append(
            f"recorded mutation run at n={mutation.get('num_attributes', '?')}: "
            "the incrementally mutated index was not verified identical to the "
            "from-scratch rebuild"
        )
    speedup = mutation.get("speedup", 0.0)
    if speedup < hot_paths.INCREMENTAL_ADD_SPEEDUP_FLOOR:
        problems.append(
            f"recorded mutation run at n={mutation.get('num_attributes', '?')}: "
            f"single-table add only {speedup:.1f}x cheaper than a full rebuild "
            f"(floor {hot_paths.INCREMENTAL_ADD_SPEEDUP_FLOOR}x)"
        )
    return problems


def _check_static_analysis() -> List[str]:
    """``repro check --strict`` + the lint gate are clean over ``src/``.

    The same pass the ``repro check`` CLI runs: every R1–R5 rule violation
    under ``src/`` is a smoke failure, as is any finding from the
    pyflakes-or-fallback lint sweep.  Wiring it here puts the static
    contracts under tier-1: a new violation turns the suite red.
    """
    from repro.analysis.checker import run_check
    from repro.analysis.lint import run_lint

    src = REPO_ROOT / "src"
    problems = [f"repro check: {v.render()}" for v in run_check([src])]
    problems += [f"lint: {finding}" for finding in run_lint([src])]
    return problems


def _tiny_engine():
    """A tiny indexed corpus/engine pair shared by the quick checks."""
    from repro.core.config import D3LConfig
    from repro.core.discovery import D3L
    from repro.datagen.synthetic_benchmark import (
        SyntheticBenchmarkConfig,
        generate_synthetic_benchmark,
    )

    corpus = generate_synthetic_benchmark(
        SyntheticBenchmarkConfig(
            num_base_tables=3,
            tables_per_base=3,
            base_rows=40,
            min_rows=15,
            max_rows=30,
            seed=5,
        )
    )
    engine = D3L(
        config=D3LConfig(
            num_hashes=64, num_trees=8, min_candidates=15, embedding_dimension=16
        )
    )
    engine.index_lake(corpus.lake)
    return corpus, engine


def _ranking(d3l, target, k=5, **options):
    """``(table, distance)`` of one request's full ranking, through a fresh
    session (so no answer reads another request's cached profile)."""
    from repro.core.api import DiscoverySession, QueryRequest

    response = DiscoverySession(d3l).submit(
        QueryRequest(target=target, k=k, **options)
    )
    return [(r.table_name, r.distance) for r in response.results]


def _attribute_rankings(d3l, target, k=5, **options):
    """``{column: [(source, distance)]}`` of an attribute-level request over
    every column of ``target``, through a fresh session."""
    from repro.core.api import DiscoverySession

    response = DiscoverySession(d3l).related_attributes(target, k=k, **options)
    return {
        name: [(entry.source, entry.distance) for entry in entries]
        for name, entries in response.attribute_results.items()
    }


def _check_tiny_lake_equivalence(corpus, engine) -> List[str]:
    """The batched engine equals the sequential oracle on a tiny lake."""
    problems: List[str] = []
    for name in corpus.lake.table_names[::2]:
        target = corpus.lake.table(name)
        if _ranking(engine, target, engine="sequential") != _ranking(engine, target):
            problems.append(
                f"the batched engine diverges from the sequential oracle on {name!r}"
            )
    target = corpus.lake.tables[0]
    bulk = _attribute_rankings(engine, target)
    sequential = _attribute_rankings(engine, target, engine="sequential")
    for column in target.columns:
        if sequential[column.name] != bulk[column.name]:
            problems.append(
                f"the batched attribute engine diverges on {target.name}.{column.name}"
            )
    return problems


def _check_api_roundtrip(corpus, engine) -> List[str]:
    """The serving API: session-vs-oracle equivalence + lossless JSON wire format.

    Guards the QueryRequest/QueryResponse protocol contract at tier-1 speed:
    a DiscoverySession answering from its profile cache must answer exactly
    like the sequential oracle, and ``to_dict`` → ``json`` → ``from_dict``
    must reproduce the response exactly.
    """
    from repro.core.api import DiscoverySession, QueryRequest, QueryResponse

    problems: List[str] = []
    session = DiscoverySession(engine)
    target = corpus.lake.tables[1]
    for explain in (False, True):
        response = session.submit(QueryRequest(target=target, k=5, explain=explain))
        wire = json.loads(json.dumps(response.to_dict()))
        restored = QueryResponse.from_dict(wire)
        if restored != response:
            problems.append(
                f"QueryResponse JSON round trip is lossy (explain={explain})"
            )
        if restored.to_dict() != response.to_dict():
            problems.append(
                f"QueryResponse re-serialisation diverges (explain={explain})"
            )
    response = session.submit(QueryRequest(target=target, k=5))
    session_ranking = [(r.table_name, r.distance) for r in response.results]
    if session_ranking != _ranking(engine, target, engine="sequential"):
        problems.append("DiscoverySession diverges from the sequential oracle")
    attr_response = session.related_attributes(target, k=5, explain=True)
    wire = json.loads(json.dumps(attr_response.to_dict()))
    if QueryResponse.from_dict(wire) != attr_response:
        problems.append("attribute-level QueryResponse JSON round trip is lossy")
    oracle = _attribute_rankings(engine, target, engine="sequential")
    for name, entries in oracle.items():
        rankings = attr_response.attribute_results.get(name, [])
        if entries != [(entry.source, entry.distance) for entry in rankings]:
            problems.append(f"session attribute ranking diverges on {name!r}")
    return problems


def _check_join_serving(corpus, engine) -> List[str]:
    """Join-path serving: batched-vs-sequential build equivalence + the wire.

    Tier-1 guards over the D3L+J surface: the batched SA-join graph build
    must produce the identical edge set to the scalar probe-at-a-time
    oracle, and a ``joins=True`` request must put a ``join_paths`` block on
    the wire that survives ``to_dict`` → JSON → ``from_dict`` losslessly.
    """
    from repro.core.api import DiscoverySession, QueryRequest, QueryResponse
    from repro.core.joins import SAJoinGraph

    problems: List[str] = []
    batched = SAJoinGraph.build(engine.indexes, engine.config)
    sequential = SAJoinGraph.build_sequential(engine.indexes, engine.config)

    def edge_map(graph):
        return {
            tuple(sorted(pair)): (
                graph.edge(*pair).left,
                graph.edge(*pair).right,
                graph.edge(*pair).overlap,
            )
            for pair in graph.graph.edges
        }

    if edge_map(batched) != edge_map(sequential):
        problems.append("batched SA-join graph build diverges from build_sequential")
    session = DiscoverySession(engine)
    target = corpus.lake.tables[0]
    response = session.submit(QueryRequest(target=target, k=5, joins=True))
    if response.join_paths is None:
        problems.append("joins=True response is missing the join_paths block")
        return problems
    wire = json.loads(json.dumps(response.to_dict()))
    if QueryResponse.from_dict(wire) != response:
        problems.append("join_paths QueryResponse JSON round trip is lossy")
    return problems


def _check_shared_memory_path(corpus, engine) -> List[str]:
    """The zero-copy worker-pool path answers exactly like the sequential oracle.

    Exercises the real shared-memory machinery on the tiny lake: an
    in-process snapshot attach must reproduce query rankings bit-identically,
    the join graph verified on a process worker pool (attached to a shared
    segment) must equal the scalar oracle's edge set, and closing the engine
    must leave no stray segments behind.
    """
    from repro.core.discovery import D3L
    from repro.core.joins import SAJoinGraph
    from repro.core.shared import SharedIndexSnapshot, stray_segments

    problems: List[str] = []
    before = set(stray_segments())
    target = corpus.lake.tables[0]
    oracle = _ranking(engine, target, engine="sequential")

    snapshot = SharedIndexSnapshot.create(engine.indexes)
    try:
        attached = SharedIndexSnapshot.attach(snapshot.descriptor)
        mirror = D3L(
            config=attached.config,
            embedding_model=attached.embedding_model,
            weights=engine.weights,
            subject_classifier=attached.subject_classifier,
        )
        mirror.indexes = attached
        if _ranking(mirror, target) != oracle:
            problems.append("query over the attached shared index diverges")
    finally:
        snapshot.close()

    def edge_map(graph):
        return {
            tuple(sorted(pair)): (
                graph.edge(*pair).left,
                graph.edge(*pair).right,
                graph.edge(*pair).overlap,
            )
            for pair in graph.graph.edges
        }

    shared_graph = engine.build_join_graph(workers=2)
    sequential_graph = SAJoinGraph.build_sequential(engine.indexes, engine.config)
    if edge_map(shared_graph) != edge_map(sequential_graph):
        problems.append("pool-verified join graph diverges from the oracle")

    engine.close()
    leaked = set(stray_segments()) - before
    if leaked:
        problems.append(f"shared-memory segments leaked: {sorted(leaked)}")
    return problems


def _check_live_serving(corpus, engine) -> List[str]:
    """A real HTTP server over the tiny engine: serve one query, shut down clean.

    Starts a :class:`~repro.core.server.DiscoveryServer` on a free port,
    answers ``/healthz`` and one ``POST /query``, checks the served payload
    byte-for-byte against an in-process :class:`DiscoverySession` answering
    the identical request, and verifies the shutdown leaves no stray
    shared-memory segments behind.
    """
    import http.client

    from repro.core.api import DiscoverySession, QueryRequest, query_request_to_wire
    from repro.core.server import DiscoveryServer
    from repro.core.shared import stray_segments

    problems: List[str] = []
    before = set(stray_segments())
    target = corpus.lake.tables[0]
    request = QueryRequest(target=target, k=5, joins=True)
    with DiscoverySession(engine) as oracle:
        expected = oracle.submit(request).truncated().to_dict()
    with DiscoveryServer(engine, port=0, workers=2) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.request("GET", "/healthz")
            health = connection.getresponse()
            health_payload = json.loads(health.read())
            if health.status != 200 or health_payload.get("status") != "ok":
                problems.append(f"served /healthz answered {health.status}: {health_payload}")
            connection.request(
                "POST",
                "/query",
                body=json.dumps(query_request_to_wire(request)),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                problems.append(f"served /query answered {response.status}: {payload}")
            elif payload != expected:
                problems.append(
                    "served /query payload diverges from the in-process session"
                )
        finally:
            connection.close()
    if not server.closed:
        problems.append("DiscoveryServer did not report closed after __exit__")
    # Same single query against a process-backend server: worker processes
    # attach the shared snapshot read-only and must produce the identical
    # payload the thread backend (and the in-process session) did.
    with DiscoveryServer(engine, port=0, workers=2, backend="process") as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            connection.request(
                "POST",
                "/query",
                body=json.dumps(query_request_to_wire(request)),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            if response.status != 200:
                problems.append(
                    f"process-served /query answered {response.status}: {payload}"
                )
            elif payload != expected:
                problems.append(
                    "process-served /query payload diverges from the in-process "
                    "session"
                )
        finally:
            connection.close()
    if not server.closed:
        problems.append(
            "process-backend DiscoveryServer did not report closed after __exit__"
        )
    leaked = set(stray_segments()) - before
    if leaked:
        problems.append(f"serving smoke leaked shared-memory segments: {sorted(leaked)}")
    return problems


def _check_mutation_equivalence(corpus) -> List[str]:
    """Incremental mutation equals a from-scratch rebuild on a tiny lake.

    Runs the incremental paths end to end on its own small engine — add a
    new table, remove one, upsert one with replacement content and restore
    it — and checks the result against an engine freshly built over the
    surviving tables: identical attribute sets, identical rankings (ties
    included), and identical SA-join edge sets.  This is the correctness
    half of the ``INCREMENTAL_ADD_SPEEDUP_FLOOR`` contract, at tier-1 speed.
    """
    from repro.core.config import D3LConfig
    from repro.core.discovery import D3L
    from repro.lake.datalake import DataLake

    config = D3LConfig(
        num_hashes=64, num_trees=8, min_candidates=15, embedding_dimension=16
    )
    tables = list(corpus.lake.tables)
    engine = D3L(config=config)
    engine.index_lake(DataLake("mutation_base", tables[:5]))
    extra = tables[6].with_name("smoke_mutation_extra")
    engine.index_table(extra)
    engine.remove_table(tables[1].name)
    engine.index_table(tables[7].with_name(tables[2].name))  # upsert, new content
    engine.index_table(tables[2])  # restore the original content
    survivors = [tables[0]] + tables[2:5] + [extra]

    oracle = D3L(config=config)
    oracle.index_lake(DataLake("mutation_oracle", survivors))
    problems: List[str] = []
    try:
        if set(engine.indexes.profiles) != set(oracle.indexes.profiles):
            problems.append(
                "mutated index holds a different attribute set than the rebuild"
            )
        for table in survivors[:3]:
            if _ranking(engine, table) != _ranking(oracle, table):
                problems.append(
                    f"mutated rankings diverge from the rebuild on {table.name!r}"
                )

        def edge_map(graph):
            return {
                tuple(sorted(pair)): (
                    graph.edge(*pair).left,
                    graph.edge(*pair).right,
                    graph.edge(*pair).overlap,
                )
                for pair in graph.graph.edges
            }

        if edge_map(engine.join_graph) != edge_map(oracle.join_graph):
            problems.append("mutated SA-join edge set diverges from the rebuild")
    finally:
        engine.close()
        oracle.close()
    return problems


def run_quick() -> List[str]:
    """Every quick check; returns the list of problems found."""
    import warnings

    problems = _check_floors()
    problems += _check_recorded_payload()
    problems += _check_static_analysis()
    corpus, engine = _tiny_engine()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        problems += _check_tiny_lake_equivalence(corpus, engine)
        problems += _check_api_roundtrip(corpus, engine)
        problems += _check_join_serving(corpus, engine)
        problems += _check_live_serving(corpus, engine)
        problems += _check_mutation_equivalence(corpus)
        problems += _check_shared_memory_path(corpus, engine)
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark smoke checks")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run the fast tier-1 checks (floors, JSON schema, tiny-lake "
        "equivalence); currently the only mode",
    )
    parser.parse_args(argv)
    problems = run_quick()
    for problem in problems:
        print(f"SMOKE FAILURE: {problem}")
    if not problems:
        print("benchmark smoke checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
