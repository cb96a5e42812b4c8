"""The benchmark's tracer still fits the program it patches.

``perfbench/tracing.py`` splits a request into layers by wrapping functions
of ``repro`` from outside it (``owner.__dict__[name]``), and reads work
counts off their arguments and results.  A rename, a move, or a call that
stops going through the patched module global empties a layer or breaks the
traced run without failing anything else.  This installs the tracer on the
current sources, runs one traced in-process ``DiscoveryServer`` request, and
restores every original.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import server
from repro.core.api import QueryRequest
from repro.core.discovery import D3L
from repro.core.server import DiscoveryServer

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"

#: The layer calls of ``_layer_calls`` plus the HTTP codec and handler.
PATCHES = 25


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_patch_applies_and_every_original_is_restored(tracing):
    targets = [(owner, attribute) for owner, attribute, _, _ in tracing._layer_calls()]
    targets += [(server, "json"), (server._DiscoveryRequestHandler, "do_POST")]
    originals = [owner.__dict__[attribute] for owner, attribute in targets]
    tracer = tracing.Tracer().install()
    try:
        assert len(tracer._patches) == PATCHES
        for (owner, attribute), original in zip(targets, originals):
            assert owner.__dict__[attribute] is not original, attribute
    finally:
        tracer.restore()
    for (owner, attribute), original in zip(targets, originals):
        assert owner.__dict__[attribute] is original, attribute


def test_a_traced_server_request_fills_the_query_layers(
    tracing, small_synthetic_benchmark, fast_config
):
    lake = small_synthetic_benchmark.lake
    target = next(
        table for table in lake.tables if any(column.is_numeric for column in table.columns)
    )
    request = QueryRequest(target=target, k=10, joins=True)
    engine = D3L(config=fast_config)
    engine.index_lake(lake)
    with engine, DiscoveryServer(engine, port=0, workers=1) as served:
        expected = served.submit(request)
        tracer = tracing.Tracer().install()
        try:
            with tracer.request(1):
                traced = served.submit(request)
        finally:
            tracer.restore()
    assert traced == expected
    layers = tracing.request_layers(tracer.spans)[1]
    for layer in ("discovery.collect", "lsh.multi_query", "indexes.distance", "stats.ks"):
        assert layers.get(layer, 0.0) > 0.0, layer
    for name in ("discovery.collect", "lsh.multi_query", "stats.ks"):
        assert tracing.request_counts(tracer.spans, name)[1] > 0, name
    assert tracing.fallback_descents(tracer.spans) == 0
