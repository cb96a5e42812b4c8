"""The workloads: what each runs, why it exists, and how it is checked.

Every workload builds its inputs from the seed, sets the program up
``SETUP_REPEATS`` times (the median is ``setup_s``), measures for the given
seconds, checks every answer, and audits for leaked processes and
shared-memory segments.  A traced run (``trace=True``) replaces the timed
phase by one pass that sends one operation at a time, alternating untraced
and traced ones, and reports per-layer metrics (see :mod:`tracing`); the
difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import audit
import serving
from corpus import Corpus, LimitedTruth, make_corpus
from tracing import MUTATION, ROOT, Tracer, fallback_descents, request_counts, request_layers

#: Answer size of every request.
K = 10
#: Serving worker count (``repro serve --workers``, ``DiscoveryServer``).
WORKERS = 2
#: Client connections of the open loop (``serve_fresh``).
CONNECTIONS = 2
#: ``serve_repeat``: clients of the closed loop.  Two clients contend for
#: the thread backend's GIL, so a slower host stretches each request twice
#: over: as the host slowed, six interleaved runs of each saw the median
#: grow 106% with two clients and 60% with one.
REPEAT_CLIENTS = 1
#: ``serve_repeat``: distinct lake tables cycled, fewer than a session
#: cache holds (64 by default).
REPEAT_TARGETS = 16
#: ``serve_fresh``: the fixed offered rate, a little under half the
#: capacity the process backend showed for these targets on a 2-CPU host (a
#: closed loop over 2 connections completed 9.0 req/s); at 4.5 req/s the
#: queueing amplified the host's own speed swings into a 23% spread of the
#: tail between runs.
FRESH_RATE = 4.0
#: ``serve_fresh``: distinct tall targets that warm the serving workers.
FRESH_WARMUP = 2 * WORKERS
#: ``serve_fresh``: a run is invalid when the generator's own lateness at
#: this percentile exceeds ``LAG_LIMIT`` seconds.
LAG_PERCENTILE = 99
LAG_LIMIT = 0.02
#: ``mutate_join``: lake tables held out of the initial index (written and
#: removed during the run) and the targets queried.  Every run adds each
#: held-out table once, so runs differ only in the order of the writes;
#: when the seed chose which tables were added (8 of 12), qps spread 18%.
HELD_OUT = 3
MUTATE_TARGETS = 16
#: ``mutate_join``: requests after each write, one pass over the targets.
#: The first request each worker serves after a write rebuilds its SA-join
#: graph, so two in sixteen requests are rebuilds and the median sits among
#: the steady requests; every pass asks about the same targets.  (With six
#: requests per write, a third of them rebuilds, the median moved twice as
#: much between runs.)
REQUESTS_PER_WRITE = MUTATE_TARGETS
#: ``mutate_join``: the timed phase also ends after this many requests: one
#: add and one remove of every held-out table.  Under 100 requests the tail
#: is p80, among the steady requests; from 100 on it would be p90, at the
#: low edge of the rebuilds (the top eighth).
MAX_REQUESTS = 2 * HELD_OUT * REQUESTS_PER_WRITE
#: ``mutate_join``: targets whose final rankings are compared with a fresh
#: engine's (the SA-join edge sets are compared whole).
FINAL_CHECKS = 8
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``serve_repeat``: seconds of untimed closed-loop load between the first
#: set-up and the timed phase (its answers are checked too); the first
#: seconds of concurrent load ran slower than the rest.
SETTLE_SECONDS = 2.0
#: The tail percentile is the highest of these with >= ``TAIL_BEYOND``
#: samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
TAIL_BEYOND = 10


@dataclass
class Workload:
    name: str
    run: Callable[["Context"], "Outcome"]
    why: str
    stresses: str
    bypasses: str


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    trace: bool
    work: Path  # scratch space, removed after the run
    spans: Path  # where a traced run writes its spans


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report: Dict[str, object] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #


def tail(values: Sequence[float]):
    """``(value, percentile)`` at the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it (the median when there are too few)."""
    for percentile in TAIL_LADDER:
        if len(values) * (100.0 - percentile) / 100.0 >= TAIL_BEYOND - 1e-9:
            return float(np.percentile(values, percentile)), percentile
    return float(np.median(values)), 50.0


def latency_metrics(prefix: str, seconds: Sequence[float], report: Dict) -> Dict[str, float]:
    millis = [value * 1000.0 for value in seconds]
    value, percentile = tail(millis)
    report[f"{prefix}_tail_percentile"] = percentile
    report[f"{prefix}_samples"] = len(millis)
    return {f"{prefix}_p50_ms": statistics.median(millis), f"{prefix}_tail_ms": value}


# --------------------------------------------------------------------------- #
# answers
# --------------------------------------------------------------------------- #


def wire(request) -> bytes:
    from repro.core.api import query_request_to_wire

    return json.dumps(query_request_to_wire(request)).encode("utf-8")


def answer(session, request) -> Dict[str, object]:
    """The payload an in-process session gives ``request``."""
    return session.submit(request).truncated().to_dict()


def payload_problem(payload: Dict[str, object], expected: Dict[str, object]) -> Optional[str]:
    """Why a served payload is wrong, or None: it must equal the in-process
    answer byte for byte and round-trip through ``QueryResponse.from_dict``."""
    if json.dumps(payload) != json.dumps(expected):
        return f"served answer for {expected['target']['name']} differs from the in-process session"
    return round_trip_problem(payload)


def round_trip_problem(payload: Dict[str, object]) -> Optional[str]:
    from repro.core.api import QueryResponse

    if QueryResponse.from_dict(payload).to_dict() != payload:
        return f"served answer for {payload['target']['name']} does not round-trip"
    return None


def effectiveness(corpus: Corpus, scored: List) -> Dict[str, float]:
    """Mean P@k, R@k (and Eq. 5 coverage for explained join answers) over
    ``(target table, payload, tables indexed when answered)`` triples,
    against the ground truth limited to those tables."""
    from repro.core.api import QueryResponse
    from repro.evaluation.coverage import target_coverage_with_joins
    from repro.evaluation.metrics import precision_recall_at_k

    precisions, recalls, coverages = [], [], []
    for target, payload, indexed in scored:
        truth = LimitedTruth(corpus.ground_truth, indexed)
        response = QueryResponse.from_dict(payload)
        precision, recall = precision_recall_at_k(response, truth, target.name, K)
        precisions.append(precision)
        recalls.append(recall)
        if response.join_paths is not None:
            joined: Dict[str, set] = {}
            for path in response.join_paths.paths:
                joined.setdefault(path.tables[0], set()).update(path.tables[1:])
            coverages.append(target_coverage_with_joins(response, joined, target, K))
    metrics = {
        "precision_at_k": statistics.fmean(precisions),
        "recall_at_k": statistics.fmean(recalls),
    }
    if coverages:
        metrics["join_coverage"] = statistics.fmean(coverages)
    return metrics


# --------------------------------------------------------------------------- #
# traced-run summary
# --------------------------------------------------------------------------- #

#: Layers whose per-request self time is reported (ms, mean per request).
REQUEST_LAYERS = (
    "server.http",
    "server.wire_decode",
    "server.dispatch",
    "server.encode",
    "api.submit",
    "indexes.profile",
    "indexes.sign",
    "indexes.lookup",
    "indexes.distance",
    "lsh.multi_query",
    "stats.ks",
    "stats.ccdf",
    "discovery.collect",
    "joins.graph_build",
    "joins.find_paths",
    "shared.delta",
)


def _durations(tracer: Tracer, name: str) -> List[float]:
    return [span.duration for span in tracer.spans if span.name == name]


def _mean_ms(values: Sequence[float]) -> float:
    return statistics.fmean(values) * 1000.0 if values else 0.0


def layer_metrics(
    tracer: Tracer,
    untraced: Sequence[float],
    results_returned: int,
    cache: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (see ``BENCHMARK.json``)."""
    spans = tracer.spans
    layers = request_layers(spans)
    count = len(layers)
    roots = [span.duration for span in spans if span.name == ROOT and span.request in layers]
    metrics = {
        f"{layer}_ms": sum(per.get(layer, 0.0) for per in layers.values()) / count * 1000.0
        for layer in REQUEST_LAYERS + ("unattributed",)
    }
    metrics["trace.request_ms"] = statistics.fmean(roots) * 1000.0
    metrics["trace.overhead_ms"] = (statistics.median(roots) - statistics.median(untraced)) * 1000.0

    def total(name: str) -> int:
        return sum(request_counts(spans, name).values())

    queries = total("lsh.multi_query")
    lookups = cache["hits"] + cache["misses"]
    metrics.update(
        {
            "api.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "indexes.profile_calls": total("indexes.profile") / count,
            "indexes.candidates_per_result": total("discovery.collect") / max(results_returned, 1),
            "lsh.fallback_ratio": fallback_descents(spans) / queries if queries else 0.0,
            "stats.ks_extents": total("stats.ks") / count,
            "joins.graph_builds": float(total("joins.graph_build")),
            "persistence.load_s": sum(_durations(tracer, "persistence.load")),
            "indexes.add_lake_s": sum(_durations(tracer, "indexes.add_lake")),
            "indexes.add_table_ms": _mean_ms(_durations(tracer, "indexes.add_table")),
            "indexes.remove_table_ms": _mean_ms(_durations(tracer, "indexes.remove_table")),
            "shared.snapshot_ms": _mean_ms(_durations(tracer, "shared.snapshot")),
        }
    )
    return metrics


def _finish_trace(tracer, untraced, results, cache, outcome: Outcome, spans: Path) -> None:
    """Per-layer metrics of a traced pass; the layer self times plus
    ``unattributed_ms`` must add up to the traced request latency.  The
    spans are written to ``spans``."""
    metrics = outcome.metrics = layer_metrics(tracer, untraced, results, cache)
    total = sum(metrics[f"{layer}_ms"] for layer in REQUEST_LAYERS) + metrics["unattributed_ms"]
    outcome.report["layer_sum_ms"] = total
    if abs(total - metrics["trace.request_ms"]) > 1e-6 * max(1.0, metrics["trace.request_ms"]):
        outcome.problems.append(
            f"layer self times sum to {total} ms; the traced latency is "
            f"{metrics['trace.request_ms']} ms"
        )
    tracer.dump(spans)


def cache_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in ("hits", "misses")}


# --------------------------------------------------------------------------- #
# serve_repeat / serve_fresh
# --------------------------------------------------------------------------- #


class _Served:
    """The persisted engine, requests, and in-process oracle of one serve
    workload."""

    def __init__(self, ctx: Context, fresh: bool) -> None:
        from repro.core.api import DiscoverySession, QueryRequest
        from repro.core.discovery import D3L
        from repro.core.persistence import load_engine, save_engine

        self.ctx = ctx
        self.fresh = fresh
        self.corpus = make_corpus(ctx.seed)
        self.engine_path = ctx.work / "engine.d3l"
        with D3L() as engine:
            engine.index_lake(self.corpus.lake, workers=WORKERS)
            save_engine(engine, self.engine_path)
        self.oracle_engine = load_engine(self.engine_path)
        self.oracle = DiscoverySession(self.oracle_engine)
        self.request_of = lambda table: QueryRequest(target=table, k=K)
        if fresh:
            warm = self.corpus.tall_targets(FRESH_WARMUP, salt=2)
            # The warm-up pass sends each warm target once; the workers are
            # what it warms, not their caches.
            self.warmup = [(table, self.request_of(table)) for table in warm]
        else:
            targets = self.corpus.shuffled(self.corpus.pick(REPEAT_TARGETS, salt=1), salt=1)
            # Each target once per worker, consecutively: idle workers are
            # checked out first-in first-out, so every worker caches every
            # target.
            self.warmup = [
                (table, self.request_of(table)) for table in targets for _ in range(WORKERS)
            ]
            self.targets = targets
        self.expected: Dict[str, bytes] = {}
        # Answers are checked outside the timed set-up.
        for table, request in self.warmup:
            self.expect(table, request)

    def expect(self, table, request) -> bytes:
        if table.name not in self.expected:
            self.expected[table.name] = json.dumps(answer(self.oracle, request)).encode("utf-8")
        return self.expected[table.name]

    def check(self, table, request, status: int, body: bytes) -> Optional[str]:
        if status != 200:
            return f"{table.name}: HTTP {status} {body[:200]!r}"
        if body != self.expect(table, request):
            return f"served answer for {table.name} differs from the in-process session"
        return round_trip_problem(json.loads(body))

    def warm(self, port: int) -> List:
        """The warm-up pass; returns its replies for :meth:`check_warm`."""
        connection = serving.connect(port)
        try:
            return [
                (table, request, *serving.post(connection, wire(request)))
                for table, request in self.warmup
            ]
        finally:
            connection.close()

    def check_warm(self, replies: List, problems: List[str]) -> None:
        for table, request, status, body in replies:
            problem = self.check(table, request, status, body)
            if problem:
                problems.append("warm-up: " + problem)

    def close(self) -> None:
        self.oracle.close()


def _serve(ctx: Context, backend: str, fresh: bool) -> Outcome:
    segments_before = audit.segments()
    served = _Served(ctx, fresh)
    try:
        if ctx.trace:
            outcome = _serve_traced(served, backend)
        else:
            outcome = _serve_measured(served, backend)
            outcome.metrics["index_mb"] = served.oracle_engine.indexes.estimated_bytes() / 1e6
    finally:
        served.close()
    outcome.report.update(
        backend=backend,
        server_workers=WORKERS,
        connections=CONNECTIONS if fresh else REPEAT_CLIENTS,
    )
    outcome.problems += audit.leak_problems(segments_before)
    return outcome


def _stop(server: serving.ServeProcess, problems: List[str]) -> None:
    """SIGINT ``repro serve``; it must exit 0 and take its workers along
    (the helpers it leaves to exit on their own get a few seconds)."""
    workers = audit.descendants(server.pid)
    problem = server.stop()
    if problem:
        problems.append(problem)
    deadline = time.perf_counter() + serving.SHUTDOWN_TIMEOUT
    alive = workers
    while alive and time.perf_counter() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in workers if Path(f"/proc/{pid}").exists()]
    if alive:
        problems.append(f"serving workers outlived repro serve: {alive}")


def _serve_measured(served: _Served, backend: str) -> Outcome:
    ctx = served.ctx
    outcome = Outcome()
    problems = outcome.problems
    setups = []
    server = serving.ServeProcess(ctx.root, served.engine_path, WORKERS, backend, ctx.work)
    try:
        warmed = served.warm(server.port)
        setups.append(time.perf_counter() - server.started)
        served.check_warm(warmed, problems)
        if served.fresh:
            settle = []
            timed = served.corpus.tall_targets(int(FRESH_RATE * ctx.seconds), salt=3)
        else:
            settle = timed = served.targets
        settle_requests = [(table, served.request_of(table)) for table in settle]
        requests = [(table, served.request_of(table)) for table in timed]
        settled = _load(served, server.port, settle_requests, SETTLE_SECONDS) if settle else []
        cache_before = json.loads(serving.get(server.port, "/index-status"))["cache"]
        replies = _load(served, server.port, requests, ctx.seconds)
        cache = cache_delta(
            cache_before, json.loads(serving.get(server.port, "/index-status"))["cache"]
        )
        rss = audit.rss_mb({server.pid} | audit.descendants(server.pid))
    finally:
        _stop(server, problems)
    for _ in range(SETUP_REPEATS - 1):
        server = serving.ServeProcess(ctx.root, served.engine_path, WORKERS, backend, ctx.work)
        try:
            warmed = served.warm(server.port)
            setups.append(time.perf_counter() - server.started)
            served.check_warm(warmed, problems)
        finally:
            _stop(server, problems)

    # Every distinct served payload is checked against the oracle.
    seen = set()
    failed = 0
    for batch, batch_requests in ((settled, settle_requests), (replies, requests)):
        for reply in batch:
            table, request = batch_requests[reply.target]
            key = (table.name, reply.status, reply.body)
            problem = None if key in seen else served.check(table, request, reply.status, reply.body)
            seen.add(key)
            if problem or reply.status != 200:
                failed += 1
                problems.append(problem or f"{table.name}: HTTP {reply.status}")
    indexed = set(served.corpus.lake.table_names)
    scored = {}
    for reply in replies:
        if reply.status == 200:
            table = requests[reply.target][0]
            scored.setdefault(reply.target, (table, json.loads(reply.body), indexed))
    outcome.attempted = len(settled) + len(replies)
    outcome.failed = failed
    first = min(reply.due for reply in replies)
    last = max(reply.done for reply in replies)
    outcome.metrics.update(
        setup_s=statistics.median(setups),
        qps=len(replies) / (last - first),
    )
    outcome.metrics.update(latency_metrics("query", [r.latency for r in replies], outcome.report))
    outcome.metrics.update(effectiveness(served.corpus, list(scored.values())))
    outcome.metrics["rss_mb"] = rss
    lookups = cache["hits"] + cache["misses"]
    outcome.report.update(
        requests=len(replies),
        setup_runs=[round(value, 4) for value in setups],
        cache_hit_ratio=cache["hits"] / lookups if lookups else None,
    )
    if served.fresh:
        lags = [reply.generator_lag for reply in replies]
        lag = float(np.percentile(lags, LAG_PERCENTILE))
        outcome.report.update(
            offered_qps=FRESH_RATE,
            generator_lag_ms={f"p{LAG_PERCENTILE}": lag * 1000.0, "max": max(lags) * 1000.0},
            keeps_up=outcome.metrics["qps"] >= 0.95 * FRESH_RATE,
        )
        if lag > LAG_LIMIT:
            problems.append(
                f"open loop invalid: the generator sent p{LAG_PERCENTILE} "
                f"{lag * 1000.0:.1f} ms late"
            )
    return outcome


def _load(served: _Served, port: int, requests, seconds: float) -> List[serving.Reply]:
    """The timed phase's traffic: an open loop at ``FRESH_RATE`` over the
    (fresh) requests, or a closed loop cycling the (repeated) requests."""
    bodies = [wire(request) for _, request in requests]
    if served.fresh:
        return serving.open_loop(port, bodies, FRESH_RATE, CONNECTIONS)
    return serving.closed_loop(port, bodies, seconds, REPEAT_CLIENTS)


def _serve_traced(served: _Served, backend: str) -> Outcome:
    """An in-process ``DiscoveryServer`` over the persisted engine, sent one
    request at a time; untraced and traced requests alternate (per cycle of
    targets, or per twin of a tall target), and worker-side stages are
    replayed through the in-process oracle session."""
    from repro.core import persistence
    from repro.core.server import DiscoveryServer

    ctx = served.ctx
    outcome = Outcome()
    tracer = Tracer()
    with tracer:
        engine = persistence.load_engine(served.engine_path)
        server = DiscoveryServer(engine, workers=WORKERS, backend=backend)
    server.start()
    untraced: List[float] = []
    results = 0
    connection = serving.connect(server.port)
    try:
        served.check_warm(served.warm(server.port), outcome.problems)
        if served.fresh:
            # Twins share a base table and columns; the first goes untraced.
            sequence = [
                (table, copy == 1)
                # A traced twin and its replay take about half a second.
                for table, copy in served.corpus.tall_targets(
                    int(ctx.seconds * 3), salt=3, copies=2
                )
            ]
        else:
            count = len(served.targets)
            sequence = [
                (served.targets[index % count], (index // count) % 2 == 1)
                for index in range(int(ctx.seconds * 100))
            ]
        cache_before = server.status_payload()["cache"]
        deadline = time.perf_counter() + ctx.seconds
        for index, (table, traced) in enumerate(sequence):
            if time.perf_counter() > deadline:
                break
            request = served.request_of(table)
            body = wire(request)
            if traced:
                with tracer, tracer.request(index), tracer.span("server.http"):
                    status, reply = serving.post(connection, body, request_id=index)
                if served.fresh and status == 200:
                    # The worker's session run and encode, replayed here.
                    with tracer, tracer.adopt(index, "server.submit"):
                        served.expect(table, request)
                results += len(json.loads(reply).get("results") or [])
            else:
                start = time.perf_counter()
                status, reply = serving.post(connection, body)
                untraced.append(time.perf_counter() - start)
            outcome.attempted += 1
            problem = served.check(table, request, status, reply)
            if problem:
                outcome.failed += 1
                outcome.problems.append(problem)
        cache = cache_delta(cache_before, server.status_payload()["cache"])
    finally:
        connection.close()
        server.close()
        engine.close()
    _finish_trace(tracer, untraced, results, cache, outcome, ctx.spans)
    return outcome


# --------------------------------------------------------------------------- #
# mutate_join
# --------------------------------------------------------------------------- #


class _Lake:
    """The mutating lake: its engine, process-backed server, in-process
    oracle session over the same engine, and the write plan."""

    def __init__(self, ctx: Context, tracer: Optional[Tracer] = None) -> None:
        from repro.core.api import DiscoverySession, QueryRequest
        from repro.core.discovery import D3L
        from repro.core.server import DiscoveryServer

        self.corpus = make_corpus(ctx.seed)
        targets = self.corpus.shuffled(self.corpus.pick(MUTATE_TARGETS, salt=6), salt=6)
        chosen = {table.name for table in targets}
        others = [table for table in self.corpus.lake.tables if table.name not in chosen]
        held_out = [others[i] for i in np.random.default_rng(5).choice(len(others), HELD_OUT, False)]
        # The seed orders the writes; which tables they touch is fixed.
        self.held_out = self.corpus.shuffled(held_out, salt=5)
        held = {table.name for table in self.held_out}
        self.requests = [
            QueryRequest(target=table, k=K, joins=True, explain=True) for table in targets
        ]
        self.tables = {t.name: t for t in self.corpus.lake.tables if t.name not in held}
        self.added: List[str] = []
        self.writes = 0
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            self.engine = D3L()
            self.engine.index_lake(_datalake(self.tables), workers=WORKERS)
            self.server = DiscoveryServer(self.engine, workers=WORKERS, backend="process")
        finally:
            if tracer is not None:
                tracer.restore()
        # Two requests per worker: each builds its join graph.  Caching
        # targets would not last: workers drop their caches on every write.
        for request in self.requests[: 2 * WORKERS]:
            self.server.submit(request)
        self.setup_s = time.perf_counter() - start
        self.oracle = DiscoverySession(self.engine)

    def write(self) -> None:
        """Add the next held-out table, or remove the one added before."""
        if self.added:
            name = self.added.pop()
            self.engine.remove_table(name)
            del self.tables[name]
        else:
            table = self.held_out[(self.writes // 2) % len(self.held_out)]
            self.engine.index_table(table)
            self.tables[table.name] = table
            self.added.append(table.name)
        self.writes += 1

    def close(self) -> None:
        self.server.close()
        self.oracle.close()
        self.engine.close()


def _datalake(tables: Dict[str, object]):
    from repro.lake.datalake import DataLake

    return DataLake("lake", list(tables.values()))


@dataclass
class _Ops:
    """What one pass of writes and requests observed."""

    latencies: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    scored: List = field(default_factory=list)
    results: int = 0


def _mutate_ops(lake: _Lake, seconds: float, outcome: Outcome, tracer=None) -> _Ops:
    """Alternate one write with ``REQUESTS_PER_WRITE`` requests until the
    writes and requests have taken ``seconds`` (or ``MAX_REQUESTS`` were
    sent; a traced pass always runs four cycles).  Every answer is checked
    against the oracle session outside the timed calls.  With a tracer, a
    cycle of one write and its requests is traced when its index is 2 or 3
    modulo 4 (so traced cycles both add and remove), and the
    oracle's run of each traced request is its worker-side replay; the
    latencies returned are the untraced ones."""
    ops = _Ops()
    busy = 0.0
    op = 0
    cycle = 0
    # A traced pass runs at least through its first two traced cycles.
    while (busy < seconds and len(ops.scored) < MAX_REQUESTS) or (tracer is not None and cycle < 4):
        traced = tracer is not None and cycle % 4 >= 2
        span = tracer.request if traced else _no_span
        with tracer if traced else nullcontext():
            start = time.perf_counter()
            with span(op, MUTATION):
                lake.write()
            ops.writes.append(time.perf_counter() - start)
            busy += ops.writes[-1]
            op += 1
            for _ in range(REQUESTS_PER_WRITE):
                request = lake.requests[op % len(lake.requests)]
                outcome.attempted += 1
                start = time.perf_counter()
                try:
                    with span(op):
                        payload = lake.server.submit(request)
                except Exception as error:  # noqa: BLE001 - counted, reported
                    outcome.failed += 1
                    outcome.problems.append(f"{request.target_name}: {error!r}")
                    continue
                finally:
                    busy += time.perf_counter() - start
                if not traced:
                    ops.latencies.append(time.perf_counter() - start)
                with tracer.adopt(op, "server.submit") if traced else nullcontext():
                    expected = answer(lake.oracle, request)
                problem = payload_problem(payload, expected)
                if problem:
                    outcome.failed += 1
                    outcome.problems.append(problem)
                ops.scored.append((request.target, payload, set(lake.tables)))
                ops.results += len(payload["results"] or []) if traced else 0
                op += 1
        cycle += 1
    outcome.attempted += len(ops.writes)
    return ops


def _no_span(*args):
    return nullcontext()


def _final_check(lake: _Lake, problems: List[str]) -> None:
    """Rankings and SA-join edges must equal a fresh engine's over the final
    tables."""
    from repro.core.api import DiscoverySession
    from repro.core.discovery import D3L

    def edges(engine):
        return [(e.left, e.right, e.overlap) for e in engine.build_join_graph().edges()]

    with D3L() as fresh:
        fresh.index_lake(_datalake(lake.tables))
        session = DiscoverySession(fresh)
        # Served answers already equal the oracle's, request by request.
        for request in lake.requests[:FINAL_CHECKS]:
            if json.dumps(answer(lake.oracle, request)) != json.dumps(answer(session, request)):
                problems.append(
                    f"after the writes, {request.target_name} ranks differently "
                    "from a fresh engine"
                )
        if edges(lake.engine) != edges(fresh):
            problems.append("after the writes, the SA-join edges differ from a fresh engine")


def mutate_join(ctx: Context) -> Outcome:
    """Set up, then alternate writes and joins requests (see ``WORKLOADS``)."""
    segments_before = audit.segments()
    baseline = audit.rss_mb([os.getpid()])
    outcome = Outcome()
    tracer = Tracer() if ctx.trace else None
    lake = _Lake(ctx, tracer)
    setups = [lake.setup_s]
    try:
        # Checks before timing, on the warm-up's targets.
        for request in lake.requests[: 2 * WORKERS]:
            problem = payload_problem(lake.server.submit(request), answer(lake.oracle, request))
            if problem:
                outcome.problems.append("warm-up: " + problem)
        if ctx.trace:
            cache_before = lake.server.status_payload()["cache"]
            ops = _mutate_ops(lake, ctx.seconds, outcome, tracer)
            cache = cache_delta(cache_before, lake.server.status_payload()["cache"])
            _finish_trace(tracer, ops.latencies, ops.results, cache, outcome, ctx.spans)
        else:
            ops = _mutate_ops(lake, ctx.seconds, outcome)
            outcome.metrics["index_mb"] = lake.engine.indexes.estimated_bytes() / 1e6
            outcome.metrics["rss_mb"] = (
                audit.rss_mb([os.getpid()]) - baseline + audit.rss_mb(lake.server.worker_pids())
            )
        _final_check(lake, outcome.problems)
    finally:
        lake.close()
    outcome.report.update(
        backend="process",
        server_workers=WORKERS,
        requests_per_write=REQUESTS_PER_WRITE,
        requests=len(ops.scored),
        writes=len(ops.writes),
    )
    if not ctx.trace:
        for _ in range(SETUP_REPEATS - 1):
            extra = _Lake(ctx)
            setups.append(extra.setup_s)
            extra.close()
        busy = sum(ops.latencies) + sum(ops.writes)
        outcome.metrics.update(setup_s=statistics.median(setups), qps=len(ops.latencies) / busy)
        outcome.metrics.update(latency_metrics("query", ops.latencies, outcome.report))
        outcome.metrics.update(effectiveness(lake.corpus, ops.scored))
        outcome.metrics.update(latency_metrics("mutation", ops.writes, outcome.report))
        outcome.report["setup_runs"] = [round(value, 4) for value in setups]
    outcome.problems += audit.leak_problems(segments_before)
    return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "serve_repeat",
            lambda ctx: _serve(ctx, "thread", fresh=False),
            why=(
                "Dashboard-style callers that wait for each reply: after warm-up "
                "every request hits the DiscoverySession profile cache."
            ),
            stresses=(
                "wire decode and encode, forest lookup, distance kernels, the KS "
                "sweep and ranking, over HTTP with the thread backend"
            ),
            bypasses="target profiling and signing (cached), worker pipes, joins, writes",
        ),
        # Runnable by name but left out of BENCHMARK.json: on a 2-CPU host
        # its two busy workers plus the HTTP parent share the CPUs with the
        # host's other tenants, and its median spread 24-34% between runs.
        Workload(
            "serve_fresh",
            lambda ctx: _serve(ctx, "process", fresh=True),
            why=(
                "Independent analysts sending new targets: every request misses "
                "the cache; the only workload on the process serving runtime."
            ),
            stresses=(
                "Algorithm 1 profiling and signing of ~10^3-row targets, large wire "
                "bodies, the worker pipe round trip, open-loop queueing"
            ),
            bypasses="the profile cache, joins, writes",
        ),
        Workload(
            "mutate_join",
            mutate_join,
            why=(
                "Writes beside reads: each write evicts session entries, ships a "
                "journal delta to the workers and stales the SA-join graph."
            ),
            stresses=(
                "index_table/remove_table, delta shipping, SA-join graph rebuilds, "
                "join-path walks, explain answers through process workers"
            ),
            bypasses="HTTP, wire decode, target profiling (cached targets)",
        ),
    )
}
