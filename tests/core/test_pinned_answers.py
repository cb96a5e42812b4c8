"""Answers pinned as literals, so a change shared by both engines shows.

The batched engine is checked against the sequential engine everywhere
else, but both read the same forests and signature matrices: a fault there
(tie order, exclusion, deduplication of a walk) changes the two alike and
passes every equivalence test.  These literals were recorded from the
engine before query candidates were keyed by attribute id, on the small
Synthetic corpus with the fast test configuration: for eight targets, the
SHA-256 of the wire payload of a ``joins=True, explain=True`` request
(``truncated().to_dict()``, keys sorted) and its top-10 table names, and
the SA-join graph's edges.  Payloads do not depend on ``PYTHONHASHSEED``.
"""

import hashlib
import json

import pytest

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.discovery import D3L

PINNED = {
    'bus_stops_000': (
        '769f40fd3d74d6cfe6142a3caa44205fab25670552cd0aa21ce97b64716c86dc',
        [
            'bus_stops_003',
            'bus_stops_004',
            'bus_stops_001',
            'bus_stops_002',
            'schools_directory_000',
            'schools_directory_002',
            'schools_directory_004',
            'schools_directory_003',
            'gp_practices_002',
            'council_staff_001',
        ],
    ),
    'bus_stops_004': (
        '4af949e78898939b5d82aea4aa2138acedc15d4f0302509043b7c1176350fbc8',
        [
            'bus_stops_003',
            'bus_stops_001',
            'bus_stops_000',
            'bus_stops_002',
            'waste_collection_002',
            'schools_directory_001',
            'business_register_001',
            'business_register_004',
            'gp_practices_002',
            'business_register_003',
        ],
    ),
    'business_register_003': (
        '12fca2234d11036662c90b67c1988582e55c577fe784d6f913c9960709b04ffd',
        [
            'schools_directory_000',
            'business_register_002',
            'waste_collection_001',
            'schools_directory_003',
            'bus_stops_004',
            'waste_collection_004',
            'waste_collection_002',
            'business_register_001',
            'business_register_000',
            'bus_stops_003',
        ],
    ),
    'council_staff_002': (
        'd09f61b517ae8ec7b2a5f01254c40a5df8b111ddcf6b77f98ce34022eb8f1961',
        [
            'council_staff_000',
            'council_staff_004',
            'council_staff_003',
            'council_staff_001',
            'waste_collection_002',
            'waste_collection_000',
            'waste_collection_001',
            'gp_practices_004',
            'gp_practices_002',
            'gp_practices_000',
        ],
    ),
    'gp_practices_001': (
        'e8f226e40b5bc135c73a929568717b5d4a52b42844f4a3ba27c4024d7589865a',
        [
            'gp_practices_003',
            'gp_practices_000',
            'gp_practices_002',
            'schools_directory_003',
            'bus_stops_002',
            'business_register_002',
            'business_register_001',
            'bus_stops_003',
            'council_staff_000',
            'gp_practices_004',
        ],
    ),
    'schools_directory_000': (
        '221ab2040f1d713e33cdbb3b10a96dce3dbbcdc00c54b8db1440c17e3b1ef11e',
        [
            'schools_directory_002',
            'schools_directory_004',
            'schools_directory_003',
            'schools_directory_001',
            'business_register_004',
            'business_register_002',
            'bus_stops_003',
            'bus_stops_000',
            'bus_stops_001',
            'bus_stops_002',
        ],
    ),
    'schools_directory_004': (
        '9b454d458d2bb10efd2d9d1fb3f31676563c28d38584425d0e3b1d103221336f',
        [
            'schools_directory_003',
            'schools_directory_000',
            'schools_directory_002',
            'schools_directory_001',
            'waste_collection_001',
            'waste_collection_003',
            'gp_practices_004',
            'waste_collection_004',
            'gp_practices_000',
            'gp_practices_002',
        ],
    ),
    'waste_collection_003': (
        'e9b364b3c30b89f95d9c8e322544be7f3d6c50b683b2a0361f449fc8359f8582',
        [
            'waste_collection_002',
            'waste_collection_001',
            'waste_collection_000',
            'waste_collection_004',
            'schools_directory_004',
            'gp_practices_004',
            'business_register_004',
            'bus_stops_003',
            'gp_practices_000',
            'business_register_002',
        ],
    ),
}

EDGES = [
    ('bus_stops_001.Location Name', 'bus_stops_003.Location Name', 0.7222222222222222),
    ('bus_stops_004.Location Name', 'bus_stops_000.Location Name', 0.7878787878787878),
    ('bus_stops_004.Location Name', 'bus_stops_002.Location Name', 0.8275862068965517),
    ('business_register_000.Organisation', 'business_register_004.Organisation', 0.8064516129032258),
    ('council_staff_000.Owner', 'council_staff_001.Owner', 0.7083333333333334),
    ('council_staff_000.Owner', 'council_staff_002.Owner', 0.7291666666666666),
    ('council_staff_000.Owner', 'council_staff_003.Owner', 0.8571428571428571),
    ('council_staff_000.Owner', 'council_staff_004.Owner', 0.8604651162790697),
    ('gp_practices_000.Surgery Name', 'gp_practices_002.Surgery Name', 0.75),
    ('gp_practices_000.Surgery Name', 'gp_practices_003.Surgery Name', 0.7647058823529411),
    ('gp_practices_001.Address', 'gp_practices_000.Address', 0.7391304347826086),
    ('gp_practices_002.Surgery Name', 'gp_practices_003.Surgery Name', 0.7222222222222222),
    ('schools_directory_000.Institution', 'schools_directory_002.Institution', 0.76),
    ('schools_directory_000.Institution', 'schools_directory_003.Institution', 0.7352941176470589),
    ('schools_directory_000.Institution', 'schools_directory_004.Institution', 0.7777777777777778),
    ('schools_directory_001.Institution', 'schools_directory_002.Institution', 0.8125),
    ('schools_directory_002.Institution', 'schools_directory_004.Institution', 0.7777777777777778),
    ('waste_collection_000.Post Code', 'waste_collection_001.Post Code', 0.7428571428571429),
    ('waste_collection_002.Area', 'bus_stops_003.Area', 0.7777777777777778),
    ('waste_collection_002.Area', 'bus_stops_004.Area', 0.7407407407407407),
    ('waste_collection_002.Area', 'business_register_001.Area', 0.75),
    ('waste_collection_002.Area', 'business_register_002.Area', 0.7),
    ('waste_collection_002.Area', 'business_register_003.Area', 0.7222222222222222),
    ('waste_collection_002.Area', 'business_register_004.Area', 0.8518518518518519),
    ('waste_collection_002.Area', 'council_staff_000.City', 0.7037037037037037),
    ('waste_collection_002.Area', 'council_staff_001.City', 0.7777777777777778),
    ('waste_collection_002.Area', 'council_staff_003.City', 0.7222222222222222),
    ('waste_collection_002.Area', 'gp_practices_000.City', 0.7037037037037037),
    ('waste_collection_002.Area', 'gp_practices_004.City', 0.7777777777777778),
    ('waste_collection_002.Area', 'schools_directory_001.Location', 0.72),
    ('waste_collection_002.Area', 'schools_directory_004.Location', 0.7692307692307693),
    ('waste_collection_002.Area', 'waste_collection_001.Area', 0.8333333333333334),
    ('waste_collection_002.Area', 'waste_collection_003.Area', 0.8636363636363636),
    ('waste_collection_002.Area', 'waste_collection_004.Area', 0.8421052631578947),
]


@pytest.fixture(scope="module")
def engine(small_synthetic_benchmark, fast_config):
    engine = D3L(config=fast_config)
    engine.index_lake(small_synthetic_benchmark.lake)
    yield engine
    engine.close()


def test_the_targets_are_spread_over_the_lake(small_synthetic_benchmark):
    assert sorted(PINNED) == sorted(small_synthetic_benchmark.lake.table_names)[::4][:8]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_joins_explain_payload_is_the_pinned_one(engine, small_synthetic_benchmark, name):
    digest, top = PINNED[name]
    response = DiscoverySession(engine).submit(
        QueryRequest(
            target=small_synthetic_benchmark.lake.table(name), k=10, joins=True, explain=True
        )
    )
    payload = response.truncated().to_dict()
    assert [ranking["table"] for ranking in payload["results"]] == top
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_the_sa_join_edges_are_the_pinned_ones(engine):
    edges = sorted(
        (str(edge.left), str(edge.right), edge.overlap) for edge in engine.join_graph.edges()
    )
    assert edges == EDGES
