"""D3L core: the paper's primary contribution.

The public surface of the core is:

* :class:`~repro.core.config.D3LConfig` — all tunable parameters with the
  paper's defaults (q = 4, MinHash size 256, LSH threshold 0.7, ...);
* :class:`~repro.core.indexes.D3LIndexes` — the four LSH indexes (name,
  value, format, embedding) plus attribute profiles (Algorithm 1);
* :class:`~repro.core.discovery.D3L` — the discovery engine: given a target
  table, return the k most related datasets (section III), optionally
  extended through join paths (section IV, ``D3L+J``);
* :class:`~repro.core.weights.EvidenceWeights` — the Equation 3 weights and
  their logistic-regression training procedure.
"""

from repro.core.aggregation import (
    aggregate_column,
    build_distance_table,
    combined_distance,
    evidence_vector,
)
from repro.core.api import (
    AttributeRanking,
    DiscoverySession,
    JoinPathsBlock,
    QueryRequest,
    QueryResponse,
    TableRanking,
)
from repro.core.config import D3LConfig
from repro.core.discovery import (
    AttributeSearchResult,
    D3L,
    JoinAugmentedResult,
    QueryResult,
    TableResult,
)
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.core.joins import (
    JoinEdge,
    JoinPath,
    JoinPathSearch,
    JoinPathTree,
    SAJoinGraph,
    find_join_paths,
)
from repro.core.persistence import (
    load_engine,
    load_indexes,
    load_session,
    save_engine,
    save_indexes,
    save_session,
)
from repro.core.profiles import AttributeMatch, AttributeProfile, TableProfile
from repro.core.weights import EvidenceWeights, train_evidence_weights

__all__ = [
    "AttributeMatch",
    "AttributeProfile",
    "AttributeRanking",
    "AttributeSearchResult",
    "D3L",
    "DiscoverySession",
    "JoinAugmentedResult",
    "D3LConfig",
    "D3LIndexes",
    "EvidenceType",
    "EvidenceWeights",
    "JoinEdge",
    "JoinPath",
    "JoinPathSearch",
    "JoinPathTree",
    "JoinPathsBlock",
    "QueryRequest",
    "QueryResponse",
    "QueryResult",
    "SAJoinGraph",
    "TableProfile",
    "TableRanking",
    "TableResult",
    "aggregate_column",
    "build_distance_table",
    "combined_distance",
    "evidence_vector",
    "find_join_paths",
    "load_engine",
    "load_indexes",
    "load_session",
    "save_engine",
    "save_indexes",
    "save_session",
    "train_evidence_weights",
]
