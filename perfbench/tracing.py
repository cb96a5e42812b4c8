"""Spans recorded around calls into the program's layers, from outside it.

The traced run patches the public functions listed by :func:`_layer_calls`
(and the HTTP handler entry point) with wrappers that record one
:class:`Span` per call: its name, start, end, parent span and request id.
Nothing under ``src/`` changes; :meth:`Tracer.restore` puts every original
back.  Spans are held in memory and summarised when the run ends.

Accounting.  One request is one tree: a ``request`` root span around the
call the benchmark times (an HTTP round trip, or ``DiscoveryServer.submit``),
with layer spans below it.  A span's self time is its duration minus the
durations of its direct children; children of one span never overlap,
because a traced run sends one request at a time, so this equals the
duration minus the time the children cover.  Stages that run in another
process (the serving workers) are replayed in this process after the
request and grafted under the span that waited for them (``adopt``), so
their time is subtracted from that span's self time.  The root's self time
is the request time no layer span accounts for, ``unattributed_ms``.  By
construction, the self times of a request's spans add up to its latency.

Workers forked while the wrappers are installed inherit them; a wrapper
records nothing outside the process that installed it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: Span name of a request's root; its self time is ``unattributed_ms``.
ROOT = "request"
#: Span name of a write's root (``mutate_join``).
MUTATION = "mutation"


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: Optional["Span"]
    request: Optional[int]
    end: float = 0.0
    count: int = 0
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)

    def to_dict(self, ids: Dict["Span", int]) -> Dict[str, object]:
        return {
            "id": ids[self],
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": None if self.parent is None else ids[self.parent],
            "request": self.request,
            "count": self.count,
        }


def _layer_calls():
    """``(owner, attribute, span name, counter)`` for every wrapped call.

    A counter maps ``(args, result)`` to the work count stored on the span.
    Owners are looked up where the caller resolves the name: functions
    imported by name into another module are patched in that module.
    """
    from repro.core import discovery, persistence, server, shared
    from repro.core.api import DiscoverySession, QueryResponse
    from repro.core.indexes import D3LIndexes
    from repro.core.joins import SAJoinGraph
    from repro.lsh.lsh_forest import LSHForest

    return [
        (persistence, "load_engine", "persistence.load", None),
        (server, "query_request_from_wire", "server.wire_decode", None),
        (server.DiscoveryServer, "submit", "server.submit", None),
        (DiscoverySession, "submit", "api.submit", None),
        (QueryResponse, "truncated", "server.encode", None),
        (QueryResponse, "to_dict", "server.encode", None),
        (D3LIndexes, "profile_table", "indexes.profile", lambda a, r: 1),
        (D3LIndexes, "batch_signatures", "indexes.sign", None),
        (D3LIndexes, "multi_lookup", "indexes.lookup", None),
        (D3LIndexes, "lookup", "indexes.lookup", None),
        (D3LIndexes, "multi_batch_attribute_distances", "indexes.distance", None),
        (D3LIndexes, "add_lake", "indexes.add_lake", None),
        (D3LIndexes, "add_table", "indexes.add_table", None),
        (D3LIndexes, "remove_table", "indexes.remove_table", None),
        (
            LSHForest,
            "multi_query",
            "lsh.multi_query",
            lambda a, r: sum(signature is not None for signature in a[1]),
        ),
        (LSHForest, "query", "lsh.query", None),
        (
            discovery,
            "ks_statistic_sorted_many",
            "stats.ks",
            lambda a, r: len(a[1]),
        ),
        (discovery, "ccdf_weights_many", "stats.ccdf", None),
        (
            discovery,
            "collect_attribute_candidate_distances",
            "discovery.collect",
            lambda a, r: sum(len(refs) for _, refs, _ in r),
        ),
        (SAJoinGraph, "build", "joins.graph_build", lambda a, r: 1),
        (discovery, "find_join_paths", "joins.find_paths", None),
        (shared, "build_index_delta", "shared.delta", None),
        (shared.SharedIndexSnapshot, "create", "shared.snapshot", None),
    ]


class Tracer:
    """Records spans around the program's layer calls while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._local = threading.local()
        self._roots: Dict[int, Span] = {}
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: Optional[Span], request: Optional[int]) -> Span:
        span = Span(name, time.perf_counter(), parent, request)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None, request: Optional[int] = None):
        """One span on this thread, nested under the innermost open one."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent.request
        span = self._open(name, parent, request)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    @contextmanager
    def request(self, request_id: int, name: str = ROOT):
        """The root span of one request (or write) issued by the benchmark."""
        with self.span(name, request=request_id) as root:
            self._roots[request_id] = root
            yield root

    @contextmanager
    def adopt(self, request_id: int, under: str):
        """Nest this thread's next spans under the request's latest ``under``
        span: work replayed here on behalf of another process."""
        parent = _last(self._roots[request_id], under)
        stack = self._stack()
        stack.append(parent)
        try:
            yield parent
        finally:
            stack.pop()

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _wrap(self, func: Callable, name: str, counter) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if counter is not None:
                    span.count = counter(args, result)
                return result

        traced.__wrapped__ = func
        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer call (idempotent)."""
        if self._patches:
            return self
        for owner, attribute, name, counter in _layer_calls():
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            self._patch(owner, attribute, wrapped)
        self._patch_http()
        return self

    def _patch_http(self) -> None:
        """The HTTP tier: body decode, response encode, and the handler."""
        from repro.core import server

        codec = types.SimpleNamespace(
            loads=self._wrap(json.loads, "server.wire_decode", None),
            dumps=self._wrap(json.dumps, "server.encode", None),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._patch(server, "json", codec)
        handler = server._DiscoveryRequestHandler
        do_post = handler.__dict__["do_POST"]
        tracer = self

        def traced_do_post(request_handler):
            if os.getpid() != tracer._pid:
                return do_post(request_handler)
            request_id = request_handler.headers.get("X-Request-Id")
            root = tracer._roots.get(int(request_id)) if request_id else None
            # The client's own server.http span is waiting on this handler.
            parent = root and _last(root, "server.http")
            with tracer.span("server.http", parent=parent, request=root and root.request):
                return do_post(request_handler)

        self._patch(handler, "do_POST", traced_do_post)

    def restore(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        ids = {span: index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict(ids)) + "\n")


#: Span name -> the layer its self time counts toward.  Scalar forest
#: descents count as forest work (``lsh.multi_query``); the ``server.submit``
#: span's own time is the dispatch cost (checkout, pickling, the pipe).
LAYER_OF = {
    ROOT: "unattributed",
    "lsh.query": "lsh.multi_query",
    "server.submit": "server.dispatch",
}


def request_layers(spans: List[Span]) -> Dict[int, Dict[str, float]]:
    """Per request: layer -> summed self time (seconds)."""
    per_request: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.request is None or _root_name(span) != ROOT:
            continue
        layer = LAYER_OF.get(span.name, span.name)
        per_request[span.request][layer] += span.self_time
    return per_request


def _last(span: Span, name: str) -> Span:
    """The last-opened span called ``name`` in ``span``'s subtree."""
    found = span if span.name == name else None
    for child in span.children:
        found = _last(child, name) or found
    return found


def _root_name(span: Span) -> str:
    while span.parent is not None:
        span = span.parent
    return span.name


def request_counts(spans: List[Span], name: str) -> Dict[int, int]:
    """Per request: the summed work count of spans called ``name``."""
    counts: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span.request is not None and span.name == name and _root_name(span) == ROOT:
            counts[span.request] += span.count
    return counts


def fallback_descents(spans: List[Span]) -> int:
    """Scalar descents made inside ``LSHForest.multi_query`` during requests."""
    return sum(
        1
        for span in spans
        if span.name == "lsh.query"
        and span.parent is not None
        and span.parent.name == "lsh.multi_query"
        and span.request is not None
    )
