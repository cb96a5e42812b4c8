"""The unified discovery-service API: request/response protocol + session.

The D3L engine is a *service*: Algorithm 1 indexes a lake once, then answers
many top-k related-dataset queries over the five evidence types.  This module
is the stable serving surface over that engine:

* :class:`QueryRequest` — a frozen, validated description of one discovery
  query: the target (a raw :class:`~repro.tables.table.Table` or a
  pre-profiled :class:`~repro.core.profiles.TableProfile`), the answer size
  ``k``, an optional evidence-type subset, optional Equation 3 weight
  overrides, the ``explain`` flag, the D3L+J ``joins`` flag, and the
  ``engine``.  Requests with ``attributes`` ask for attribute-level
  rankings instead of table rankings.
* :class:`QueryResponse` — the machine-readable answer: ranked tables (or
  attributes) with, under ``explain``, the per-evidence distance
  decomposition of Equation 2 — including the CCDF aggregation weights of
  every alignment — plus the Equation 3 ranking weights that produced the
  combined distances, and, for ``joins`` requests, the Algorithm 3
  ``join_paths`` block.  ``to_dict()``/``from_dict()`` round-trip losslessly
  through JSON.
* :class:`DiscoverySession` — the one way to run a query: wraps an indexed
  engine, memoizes target profiles *and* their query signatures across
  repeated requests (LRU, invalidated per table when the lake mutates), and
  runs each request in the calling process, on the batched kernels by
  default or on the sequential oracle on request (``engine="sequential"``).
  Rankings are bit-identical to the sequential oracle by construction.  The
  CLI and both ``repro serve`` backends submit through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import require_positive
from repro.core.discovery import (
    D3L,
    AttributeSearchResult,
    QueryResult,
    QueryTarget,
    TableResult,
    TableResults,
    attribute_signature_maps,
)
from repro.core.evidence import EvidenceType
from repro.core.joins import JoinEdge, JoinPath
from repro.core.lazy import BuiltOnRead
from repro.core.profiles import AttributeMatch, TableProfile
from repro.core.weights import EvidenceWeights
from repro.lake.datalake import AttributeRef
from repro.tables.table import Table

#: Wire-format identifier embedded in every serialized response, so readers
#: can reject payloads from a different protocol revision.
WIRE_FORMAT = "d3l.query_response/v1"

#: Wire-format identifier of serialized requests (the ``repro serve`` POST
#: body).  Optional on inbound payloads — a request dict without the marker
#: is accepted — but emitted by :func:`query_request_to_wire` so logs and
#: captures are self-describing.
REQUEST_WIRE_FORMAT = "d3l.query_request/v1"

#: How many join paths a :meth:`QueryResponse.truncated` copy keeps by
#: default — the same cap the CLI's rendered report applies, so the JSON
#: wire output cannot dwarf the human-readable one.
TRUNCATED_JOIN_PATH_CAP = 20

#: The two execution engines a request may select.  ``batched`` is the
#: default serving path (per-evidence sweeps);
#: ``sequential`` is the per-attribute oracle the batched path is verified
#: against — answers are identical either way.
ENGINES = ("batched", "sequential")


# --------------------------------------------------------------------------- #
# request
# --------------------------------------------------------------------------- #


def _coerce_evidence(values: Sequence[object]) -> Tuple[EvidenceType, ...]:
    """Normalise an evidence subset to EvidenceType members, order-preserving.

    Accepts enum members, single-letter codes (``"N"``) and names
    (``"name"``); unknown entries are rejected with the full list of valid
    codes, so a typo in a wire request fails loudly instead of silently
    querying nothing.
    """
    coerced: List[EvidenceType] = []
    for value in values:
        if isinstance(value, EvidenceType):
            coerced.append(value)
            continue
        text = str(value)
        member = None
        for lookup in (
            lambda: EvidenceType(text),
            lambda: EvidenceType(text.upper()),
            lambda: EvidenceType[text.upper()],
        ):
            try:
                member = lookup()
                break
            except (ValueError, KeyError):
                continue
        if member is None:
            valid = ", ".join(
                f"{evidence.value} ({evidence.name.lower()})"
                for evidence in EvidenceType.all()
            )
            raise ValueError(
                f"unknown evidence type {value!r}; valid types: {valid}"
            ) from None
        coerced.append(member)
    subset = tuple(dict.fromkeys(coerced))
    if not subset:
        raise ValueError("evidence subset must not be empty")
    return subset


def _coerce_weights(
    weights: Union[EvidenceWeights, Mapping[object, float]],
) -> EvidenceWeights:
    """Normalise weight overrides to :class:`EvidenceWeights` and validate.

    Mappings may be keyed by enum members or codes/names; values must be
    finite and non-negative (Equation 3 takes a weighted l2 norm — a negative
    weight would be silently meaningless).
    """
    if isinstance(weights, EvidenceWeights):
        values = weights.as_dict()
    else:
        values = {
            _coerce_evidence([key])[0]: float(value) for key, value in weights.items()
        }
    for evidence, value in values.items():
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(
                f"weight for evidence type {evidence.value!r} must be finite and "
                f"non-negative, got {value!r}"
            )
    return weights if isinstance(weights, EvidenceWeights) else EvidenceWeights(values)


@dataclass(frozen=True)
class QueryRequest:
    """One validated discovery query against an indexed engine.

    ``attributes`` switches the request to attribute-level discovery (the
    lake attributes most related to each named target column); otherwise the
    request asks for table-level rankings.  Validation happens at
    construction, with the same error messages the engines and
    :class:`~repro.core.config.D3LConfig` use, so malformed requests never
    reach an engine.
    """

    target: QueryTarget
    k: int = 10
    evidence: Optional[Sequence[object]] = None
    attributes: Optional[Sequence[str]] = None
    weights: Optional[Union[EvidenceWeights, Mapping[object, float]]] = None
    exclude_self: bool = True
    explain: bool = False
    joins: bool = False
    engine: str = "batched"

    def __post_init__(self) -> None:
        # Duck-typed table targets (anything exposing name/columns, as the
        # engines accept) pass; plainly wrong inputs fail fast.
        if not isinstance(self.target, TableProfile) and not (
            hasattr(self.target, "name") and hasattr(self.target, "columns")
        ):
            raise TypeError(
                "target must be a Table or a TableProfile, "
                f"got {type(self.target).__name__}"
            )
        # Integral (not int) so numpy integers from array sweeps are
        # accepted; normalised to plain int for the wire.
        if isinstance(self.k, bool) or not isinstance(self.k, numbers.Integral):
            raise ValueError("k must be an integer")
        require_positive("k", self.k)
        object.__setattr__(self, "k", int(self.k))
        # Checked, not coerced: a wire string such as "false" is truthy.
        for flag in ("exclude_self", "explain", "joins"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a boolean")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; valid engines: {', '.join(ENGINES)}"
            )
        if self.evidence is not None:
            object.__setattr__(self, "evidence", _coerce_evidence(self.evidence))
        if self.weights is not None:
            object.__setattr__(self, "weights", _coerce_weights(self.weights))
        if self.attributes is not None:
            if self.evidence is not None:
                raise ValueError(
                    "evidence subsets are not supported for attribute-level requests"
                )
            if self.joins:
                raise ValueError(
                    "join paths are not supported for attribute-level requests"
                )
            if isinstance(self.target, TableProfile):
                raise ValueError(
                    "attribute-level requests need a raw Table target "
                    "(profiles do not carry the columns to re-profile)"
                )
            names = tuple(dict.fromkeys(self.attributes))
            if not names:
                raise ValueError("attributes must not be empty when provided")
            for name in names:
                if not self.target.has_column(name):
                    raise KeyError(
                        f"target {self.target.name!r} has no attribute {name!r}"
                    )
            object.__setattr__(self, "attributes", names)

    @property
    def target_name(self) -> str:
        """Name of the query target (table or profile)."""
        return (
            self.target.table_name
            if isinstance(self.target, TableProfile)
            else self.target.name
        )

    @property
    def mode(self) -> str:
        """``"attributes"`` for attribute-level requests, else ``"table"``."""
        return "attributes" if self.attributes is not None else "table"


# --------------------------------------------------------------------------- #
# response
# --------------------------------------------------------------------------- #


@dataclass
class TableRanking:
    """One ranked source table of a table-level response.

    ``evidence_distances`` (the Equation 1 vector) and ``matches`` (the
    winning attribute alignments with their Equation 2 weights) are only
    populated when the request asked for ``explain``.
    """

    table_name: str
    distance: float
    evidence_distances: Optional[Dict[EvidenceType, float]] = None
    matches: Optional[List[AttributeMatch]] = None

    def covered_target_attributes(self) -> set:
        """Target attributes aligned with this table (explain mode only)."""
        if not self.matches:
            return set()
        return {match.target_attribute for match in self.matches}


class TableRankings(BuiltOnRead):
    """A table-level response's ranking, read as :class:`TableRanking` s.

    Each ranking is built when it is read, from the engine's ranked results
    (the batched engine's :class:`~repro.core.discovery.TableResults` also
    builds its result objects on read), so a response whose wire copy keeps
    k tables (:meth:`QueryResponse.truncated`) builds k rankings however
    many tables the full ranking holds.
    """

    __slots__ = ("_results", "_explain")

    def __init__(self, results: Sequence[TableResult], explain: bool) -> None:
        self._results = results
        self._explain = explain

    def __len__(self) -> int:
        return len(self._results)

    def _entry(self, position: int) -> TableRanking:
        results = self._results
        if not self._explain and isinstance(results, TableResults):
            return TableRanking(
                table_name=results.table_names[position], distance=results.distances[position]
            )
        entry = results[position]
        if not self._explain:
            return TableRanking(table_name=entry.table_name, distance=float(entry.distance))
        return TableRanking(
            table_name=entry.table_name,
            distance=float(entry.distance),
            evidence_distances=_float_distances(entry.evidence_distances),
            matches=list(entry.matches),
        )


@dataclass
class AttributeRanking:
    """One ranked lake attribute of an attribute-level response."""

    source: AttributeRef
    distance: float
    distances: Optional[Dict[EvidenceType, float]] = None


@dataclass
class JoinPathsBlock:
    """The SA-join extension of a table-level response (``joins=True``).

    ``paths`` are the Algorithm 3 join paths from the top-k tables,
    ``joined_tables`` the (sorted) tables reached beyond the starting
    tables, and ``truncated`` records whether the ``max_join_paths`` cap
    stopped the enumeration before every start table was fully explored.

    In a response the engine built, ``paths`` is the walk's
    :class:`~repro.core.joins.JoinPathTree`, a read-only sequence that
    builds each :class:`~repro.core.joins.JoinPath` on access, so the
    wire's :meth:`QueryResponse.truncated` copy builds only the paths it
    keeps; ``list()`` copies it.  Responses read back with
    :meth:`QueryResponse.from_dict` hold a plain list, which compares equal.
    """

    paths: Sequence[JoinPath]
    joined_tables: List[str]
    truncated: bool = False


@dataclass
class QueryResponse:
    """The machine-readable answer to one :class:`QueryRequest`.

    ``results`` holds the full table ranking (ascending combined distance —
    slicing with :meth:`top` answers the requested k, keeping sweeps over k
    cheap); in a response the engine built it is a :class:`TableRankings`,
    which builds each entry when it is read, and a response read back with
    :meth:`from_dict` holds a plain list, which compares equal.
    ``attribute_results`` holds per-attribute rankings for attribute-level
    requests.  Exactly one of the two is populated.
    ``join_paths`` carries the SA-join extension when the request asked for
    ``joins`` (table-level only).
    """

    target_name: str
    target_arity: int
    k: int
    mode: str
    engine: str
    explain: bool
    evidence: Optional[Tuple[EvidenceType, ...]]
    ranking_weights: Dict[EvidenceType, float]
    results: Optional[Sequence[TableRanking]] = None
    attribute_results: Optional[Dict[str, List[AttributeRanking]]] = None
    join_paths: Optional[JoinPathsBlock] = None

    # ------------------------------------------------------------------ #
    # convenience accessors
    # ------------------------------------------------------------------ #
    def top(self, k: Optional[int] = None) -> List[TableRanking]:
        """The ``k`` most related tables (default: the requested k)."""
        k = self.k if k is None else k
        if k < 0:
            raise ValueError("k must be non-negative")
        return (self.results or [])[:k]

    def table_names(self, k: Optional[int] = None) -> List[str]:
        """Names of the top-k tables."""
        return [ranking.table_name for ranking in self.top(k)]

    def result_for(self, table_name: str) -> Optional[TableRanking]:
        """The ranking entry of a specific table, when present."""
        for ranking in self.results or []:
            if ranking.table_name == table_name:
                return ranking
        return None

    def truncated(
        self,
        k: Optional[int] = None,
        max_join_paths: Optional[int] = TRUNCATED_JOIN_PATH_CAP,
    ) -> "QueryResponse":
        """A copy keeping only the top-``k`` rankings (default: requested k).

        The response itself carries the full candidate ranking so k sweeps
        stay cheap; wire emitters that only want the answer (the CLI's
        ``--json`` mode, the ``repro serve`` endpoint) slice it here before
        serialising.  The ``join_paths`` block is bounded too —
        ``max_join_paths`` caps the emitted paths (default
        :data:`TRUNCATED_JOIN_PATH_CAP`, the rendered report's cap; ``None``
        keeps every path) and the block's ``truncated`` flag is set whenever
        the cap drops any, so wire readers can tell a complete enumeration
        from a bounded one.  ``joined_tables`` keeps summarising the full
        search.
        """
        k = self.k if k is None else k
        join_paths = self.join_paths
        if (
            join_paths is not None
            and max_join_paths is not None
            and len(join_paths.paths) > max_join_paths
        ):
            join_paths = JoinPathsBlock(
                paths=list(join_paths.paths[:max_join_paths]),
                joined_tables=list(join_paths.joined_tables),
                truncated=True,
            )
        return dataclasses.replace(
            self,
            results=None if self.results is None else self.top(k),
            attribute_results=(
                None
                if self.attribute_results is None
                else {
                    name: entries[:k]
                    for name, entries in self.attribute_results.items()
                }
            ),
            join_paths=join_paths,
        )

    # ------------------------------------------------------------------ #
    # wire format
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary carrying everything the response holds."""
        return {
            "format": WIRE_FORMAT,
            "target": {"name": self.target_name, "arity": self.target_arity},
            "k": self.k,
            "mode": self.mode,
            "engine": self.engine,
            "explain": self.explain,
            "evidence": (
                None
                if self.evidence is None
                else [evidence.value for evidence in self.evidence]
            ),
            "ranking_weights": {
                evidence.value: float(weight)
                for evidence, weight in self.ranking_weights.items()
            },
            "results": (
                None
                if self.results is None
                else [_table_ranking_to_dict(ranking) for ranking in self.results]
            ),
            "attribute_results": (
                None
                if self.attribute_results is None
                else {
                    name: [_attribute_ranking_to_dict(entry) for entry in entries]
                    for name, entries in self.attribute_results.items()
                }
            ),
            "join_paths": (
                None if self.join_paths is None else _join_paths_to_dict(self.join_paths)
            ),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "QueryResponse":
        """Reconstruct a response serialized by :meth:`to_dict` (lossless)."""
        if payload.get("format") != WIRE_FORMAT:
            raise ValueError(
                f"payload format {payload.get('format')!r} is not {WIRE_FORMAT!r}"
            )
        target = payload["target"]
        evidence = payload.get("evidence")
        results = payload.get("results")
        attribute_results = payload.get("attribute_results")
        join_paths = payload.get("join_paths")
        return cls(
            target_name=target["name"],
            target_arity=int(target["arity"]),
            k=int(payload["k"]),
            mode=payload["mode"],
            engine=payload["engine"],
            explain=bool(payload["explain"]),
            evidence=(
                None
                if evidence is None
                else tuple(EvidenceType(code) for code in evidence)
            ),
            ranking_weights={
                EvidenceType(code): float(weight)
                for code, weight in payload["ranking_weights"].items()
            },
            results=(
                None
                if results is None
                else [_table_ranking_from_dict(entry) for entry in results]
            ),
            attribute_results=(
                None
                if attribute_results is None
                else {
                    name: [_attribute_ranking_from_dict(entry) for entry in entries]
                    for name, entries in attribute_results.items()
                }
            ),
            join_paths=(
                None if join_paths is None else _join_paths_from_dict(join_paths)
            ),
        )


def _distances_to_dict(distances: Mapping[EvidenceType, float]) -> Dict[str, float]:
    return {evidence.value: float(value) for evidence, value in distances.items()}


def _distances_from_dict(payload: Mapping[str, float]) -> Dict[EvidenceType, float]:
    return {EvidenceType(code): float(value) for code, value in payload.items()}


def _match_to_dict(match: AttributeMatch) -> Dict[str, object]:
    return {
        "target_attribute": match.target_attribute,
        "source": {"table": match.source.table, "column": match.source.column},
        "distances": _distances_to_dict(match.distances),
        "weights": _distances_to_dict(match.weights),
    }


def _match_from_dict(payload: Mapping[str, object]) -> AttributeMatch:
    source = payload["source"]
    return AttributeMatch(
        target_attribute=payload["target_attribute"],
        source=AttributeRef(source["table"], source["column"]),
        distances=_distances_from_dict(payload["distances"]),
        weights=_distances_from_dict(payload["weights"]),
    )


def _table_ranking_to_dict(ranking: TableRanking) -> Dict[str, object]:
    return {
        "table": ranking.table_name,
        "distance": float(ranking.distance),
        "evidence_distances": (
            None
            if ranking.evidence_distances is None
            else _distances_to_dict(ranking.evidence_distances)
        ),
        "matches": (
            None
            if ranking.matches is None
            else [_match_to_dict(match) for match in ranking.matches]
        ),
    }


def _table_ranking_from_dict(payload: Mapping[str, object]) -> TableRanking:
    evidence_distances = payload.get("evidence_distances")
    matches = payload.get("matches")
    return TableRanking(
        table_name=payload["table"],
        distance=float(payload["distance"]),
        evidence_distances=(
            None if evidence_distances is None else _distances_from_dict(evidence_distances)
        ),
        matches=(
            None if matches is None else [_match_from_dict(match) for match in matches]
        ),
    )


def _attribute_ranking_to_dict(entry: AttributeRanking) -> Dict[str, object]:
    return {
        "source": {"table": entry.source.table, "column": entry.source.column},
        "distance": float(entry.distance),
        "distances": (
            None if entry.distances is None else _distances_to_dict(entry.distances)
        ),
    }


def _attribute_ranking_from_dict(payload: Mapping[str, object]) -> AttributeRanking:
    source = payload["source"]
    distances = payload.get("distances")
    return AttributeRanking(
        source=AttributeRef(source["table"], source["column"]),
        distance=float(payload["distance"]),
        distances=None if distances is None else _distances_from_dict(distances),
    )


def _join_edge_to_dict(edge: JoinEdge) -> Dict[str, object]:
    return {
        "left": {"table": edge.left.table, "column": edge.left.column},
        "right": {"table": edge.right.table, "column": edge.right.column},
        "overlap": float(edge.overlap),
    }


def _join_edge_from_dict(payload: Mapping[str, object]) -> JoinEdge:
    left, right = payload["left"], payload["right"]
    return JoinEdge(
        left=AttributeRef(left["table"], left["column"]),
        right=AttributeRef(right["table"], right["column"]),
        overlap=float(payload["overlap"]),
    )


def _join_paths_to_dict(block: JoinPathsBlock) -> Dict[str, object]:
    return {
        "paths": [
            {
                "tables": list(path.tables),
                "edges": [_join_edge_to_dict(edge) for edge in path.edges],
            }
            for path in block.paths
        ],
        "joined_tables": list(block.joined_tables),
        "truncated": bool(block.truncated),
    }


def _join_paths_from_dict(payload: Mapping[str, object]) -> JoinPathsBlock:
    return JoinPathsBlock(
        paths=[
            JoinPath(
                tables=list(entry["tables"]),
                edges=[_join_edge_from_dict(edge) for edge in entry["edges"]],
            )
            for entry in payload["paths"]
        ],
        joined_tables=list(payload["joined_tables"]),
        truncated=bool(payload["truncated"]),
    )


# --------------------------------------------------------------------------- #
# request wire format
# --------------------------------------------------------------------------- #


def _table_to_wire(table: Table) -> Dict[str, object]:
    """A JSON-safe description of a raw table target (name + columns)."""
    return {
        "name": table.name,
        "columns": [
            {"name": column.name, "values": list(column.values)}
            for column in table.columns
        ],
    }


def _table_from_wire(payload: Mapping[str, object]) -> Table:
    """Rebuild a table target from its wire description."""
    from repro.tables.column import Column

    if not isinstance(payload, Mapping):
        raise ValueError("target must be an object with 'name' and 'columns'")
    name = payload.get("name")
    columns = payload.get("columns")
    if not isinstance(name, str) or not isinstance(columns, list):
        raise ValueError("target must carry a string 'name' and a 'columns' list")
    built = []
    for entry in columns:
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("name"), str)
            or not isinstance(entry.get("values"), list)
        ):
            raise ValueError(
                "each target column must be an object with a string 'name' "
                "and a 'values' list"
            )
        built.append(Column(entry["name"], list(entry["values"])))
    return Table(name, built)


#: Request fields carried on the wire besides the target; each is passed to
#: the :class:`QueryRequest` constructor verbatim, so its validation (and
#: error messages) applies to wire payloads exactly as to in-process calls.
_REQUEST_WIRE_FIELDS = (
    "k",
    "evidence",
    "attributes",
    "weights",
    "exclude_self",
    "explain",
    "joins",
    "engine",
)

#: Fields of v1 requests from before queries ran in the calling process:
#: ``workers`` (a per-query fan-out) and ``backend`` (the fan-out's
#: execution backend).  The answer never depended on them, so
#: :func:`query_request_from_wire` validates them as it always did, then
#: drops them.
_RETIRED_REQUEST_WIRE_FIELDS = ("workers", "backend")
_RETIRED_BACKENDS = ("serial", "thread", "process")


def query_request_to_wire(request: QueryRequest) -> Dict[str, object]:
    """Serialise a request for the ``repro serve`` ``POST /query`` body.

    Only raw-table targets can travel — a :class:`TableProfile` is
    process-local state with no wire representation.
    """
    if isinstance(request.target, TableProfile):
        raise ValueError("pre-profiled targets cannot be serialised to the wire")
    payload: Dict[str, object] = {
        "format": REQUEST_WIRE_FORMAT,
        "target": _table_to_wire(request.target),
        "k": request.k,
        "exclude_self": request.exclude_self,
        "explain": request.explain,
        "joins": request.joins,
        "engine": request.engine,
    }
    if request.evidence is not None:
        payload["evidence"] = [evidence.value for evidence in request.evidence]
    if request.attributes is not None:
        payload["attributes"] = list(request.attributes)
    if request.weights is not None:
        weights = _coerce_weights(request.weights)
        payload["weights"] = {
            evidence.value: float(value)
            for evidence, value in weights.as_dict().items()
        }
    return payload


def query_request_from_wire(payload: Mapping[str, object]) -> QueryRequest:
    """Build a validated :class:`QueryRequest` from a wire payload.

    The ``format`` marker is optional but, when present, must name
    :data:`REQUEST_WIRE_FORMAT`.  Unknown top-level fields are rejected so a
    misspelt option fails loudly instead of silently running with defaults.
    The retired ``workers`` and ``backend`` fields are validated with their
    old messages, then dropped (:func:`_check_retired_fields`).
    """
    if not isinstance(payload, Mapping):
        raise ValueError("request payload must be a JSON object")
    marker = payload.get("format")
    if marker is not None and marker != REQUEST_WIRE_FORMAT:
        raise ValueError(
            f"payload format {marker!r} is not {REQUEST_WIRE_FORMAT!r}"
        )
    if "target" not in payload:
        raise ValueError("request payload must carry a 'target'")
    unknown = (
        set(payload)
        - set(_REQUEST_WIRE_FIELDS)
        - set(_RETIRED_REQUEST_WIRE_FIELDS)
        - {"format", "target"}
    )
    if unknown:
        raise ValueError(
            f"unknown request fields: {', '.join(sorted(map(str, unknown)))}"
        )
    options = {
        field_name: payload[field_name]
        for field_name in _REQUEST_WIRE_FIELDS
        if field_name in payload and payload[field_name] is not None
    }
    if "attributes" in options:
        attributes = options["attributes"]
        if not isinstance(attributes, list):
            raise ValueError("attributes must be a list of column names")
        options["attributes"] = tuple(attributes)
    if "weights" in options and not isinstance(options["weights"], Mapping):
        raise ValueError("weights must be an object of evidence type to weight")
    target = _table_from_wire(payload["target"])
    _check_retired_fields(payload)
    return QueryRequest(target=target, **options)


def _check_retired_fields(payload: Mapping[str, object]) -> None:
    """Refuse a v1 ``workers`` or ``backend`` value that was refused before
    they were retired, with the same message."""
    workers = payload.get("workers")
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
            raise ValueError("workers must be an integer")
        require_positive("workers", workers)
    backend = payload.get("backend")
    if backend is not None and backend not in _RETIRED_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; valid backends: {', '.join(_RETIRED_BACKENDS)}"
        )
    if workers is not None and workers > 1 and payload.get("attributes") is not None:
        raise ValueError("workers are not supported for attribute-level requests")


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #


def _ranking_weights(engine: D3L, request: QueryRequest) -> EvidenceWeights:
    """The Equation 3 weights a request resolves to (mirrors the engines).

    Explicit overrides win; otherwise an evidence subset implies binary
    weights over that subset (Experiment 1 mode) and the engine's trained or
    default weights apply to full-evidence requests.
    """
    if request.weights is not None:
        return request.weights
    if request.evidence is None or request.attributes is not None:
        return engine.weights
    return EvidenceWeights(
        {
            evidence: (1.0 if evidence in request.evidence else 0.0)
            for evidence in EvidenceType.all()
        }
    )


def _execute_locked(
    engine: D3L,
    request: QueryRequest,
    profile: Optional[TableProfile] = None,
    signature_maps: Optional[Dict[str, Dict[EvidenceType, object]]] = None,
) -> QueryResponse:
    """Run one request against ``engine`` and build its response.

    The caller holds the read side of the engine's index lock.  Table-level
    requests run the batched engine by default and the sequential oracle on
    request (``engine="sequential"``); ``profile``/``signature_maps`` let a
    session substitute its memoized target state — both are deterministic
    functions of the target, so answers are unchanged.
    """
    weights_used = _ranking_weights(engine, request)
    if request.attributes is not None:
        if request.engine == "sequential":
            answers = {
                name: engine._execute_related_attributes(
                    request.target,
                    name,
                    k=request.k,
                    exclude_self=request.exclude_self,
                    weights=request.weights,
                )
                for name in request.attributes
            }
        else:
            answers = engine._execute_related_attributes_bulk(
                request.target,
                list(request.attributes),
                k=request.k,
                exclude_self=request.exclude_self,
                weights=request.weights,
            )
        return _attribute_response(request, answers, weights_used)

    target = profile if profile is not None else request.target
    if request.engine == "sequential":
        result = engine._execute_query(
            target,
            request.k,
            evidence_types=request.evidence,
            exclude_self=request.exclude_self,
            weights=request.weights,
        )
    else:
        result = engine._execute_query_batch(
            target,
            request.k,
            evidence_types=request.evidence,
            exclude_self=request.exclude_self,
            weights=request.weights,
            signature_maps=signature_maps,
        )
    response = _table_response(request, result, weights_used)
    if request.joins:
        # D3L+J (section IV): walk the engine's cached SA-join graph from
        # the ranked answer.  The graph is version-invalidated against the
        # indexes, so repeated joins requests through one engine/session pay
        # for construction once per lake snapshot.
        augmented = engine.augment_with_joins(result, request.k)
        response.join_paths = JoinPathsBlock(
            paths=augmented.join_paths,
            joined_tables=sorted(augmented.joined_tables),
            truncated=augmented.truncated,
        )
    return response


def _float_distances(
    distances: Mapping[EvidenceType, float],
) -> Dict[EvidenceType, float]:
    """A plain-float copy of a per-evidence mapping (drops numpy scalars)."""
    return {evidence: float(value) for evidence, value in distances.items()}


def _ranking_weights_dict(weights_used: EvidenceWeights) -> Dict[EvidenceType, float]:
    """The Equation 3 weights a response echoes, over all five types."""
    return {
        evidence: float(weights_used.get(evidence, 0.0))
        for evidence in EvidenceType.all()
    }


def _table_response(
    request: QueryRequest, result: QueryResult, weights_used: EvidenceWeights
) -> QueryResponse:
    return QueryResponse(
        target_name=result.target_name,
        target_arity=result.target_arity,
        k=request.k,
        mode="table",
        engine=request.engine,
        explain=request.explain,
        evidence=None if request.evidence is None else tuple(request.evidence),
        ranking_weights=_ranking_weights_dict(weights_used),
        results=TableRankings(result.results, request.explain),
    )


def _attribute_response(
    request: QueryRequest,
    answers: Dict[str, List[AttributeSearchResult]],
    weights_used: EvidenceWeights,
) -> QueryResponse:
    attribute_results = {
        name: [
            AttributeRanking(
                source=entry.ref,
                distance=float(entry.distance),
                distances=(
                    _float_distances(entry.distances) if request.explain else None
                ),
            )
            for entry in entries
        ]
        for name, entries in answers.items()
    }
    target = request.target
    return QueryResponse(
        target_name=target.name,
        target_arity=target.arity,
        k=request.k,
        mode="attributes",
        engine=request.engine,
        explain=request.explain,
        evidence=None,
        ranking_weights=_ranking_weights_dict(weights_used),
        attribute_results=attribute_results,
    )


# --------------------------------------------------------------------------- #
# the serving façade
# --------------------------------------------------------------------------- #


class DiscoverySession:
    """A serving-tier façade over one indexed :class:`~repro.core.discovery.D3L`.

    The session memoizes the expensive per-target state — the Algorithm 1
    :class:`TableProfile` *and* the per-evidence query signatures — in an LRU
    keyed by target content, so repeated queries against the same target
    (k sweeps, evidence ablations, dashboard refreshes) skip straight to
    candidate collection.  When the underlying lake mutates, only the
    entries whose target shares a name with a mutated table are evicted
    (resolved through the indexes' mutation journal); the cache is dropped
    wholesale only when the mutation set is no longer reconstructible or the
    engine's indexes were rebound to a different object.

    Typical usage::

        engine = load_engine("engine.pkl")
        session = DiscoverySession(engine)
        response = session.submit(QueryRequest(target=table, k=10, explain=True))
        payload = response.to_dict()          # JSON-safe wire format
    """

    def __init__(self, engine: D3L, profile_cache_size: int = 64) -> None:
        require_positive("profile_cache_size", profile_cache_size)
        self.engine = engine
        self.profile_cache_size = profile_cache_size
        self._cache: "OrderedDict[object, Tuple[str, TableProfile, Dict]]" = OrderedDict()
        self._cache_version: Optional[int] = None
        self._cache_indexes: Optional[object] = None
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------ #
    # submitting requests
    # ------------------------------------------------------------------ #
    def submit(self, request: QueryRequest) -> QueryResponse:
        """Execute one request and return its response.

        Table-level requests resolve the target through the profile cache;
        attribute-level requests re-profile the named columns (the
        attribute engines profile per column subset, which the cache cannot
        reuse).

        The whole submission — cache versioning, target resolution (which
        reads the live signature matrices), and execution — runs on the
        read side of the engine's index lock, so a concurrent lake mutation
        can never hand this session half-swapped index state.
        """
        with self.engine.index_lock.read():
            self._check_version()
            if request.attributes is not None:
                return _execute_locked(self.engine, request)
            profile, signature_maps = self._resolve_target(request.target)
            return _execute_locked(
                self.engine, request, profile=profile, signature_maps=signature_maps
            )

    def query(self, target: QueryTarget, k: int = 10, **options) -> QueryResponse:
        """Convenience: build and submit a table-level request."""
        return self.submit(QueryRequest(target=target, k=k, **options))

    def related_attributes(
        self,
        target: Table,
        attributes: Optional[Sequence[str]] = None,
        k: int = 10,
        **options,
    ) -> QueryResponse:
        """Convenience: build and submit an attribute-level request.

        ``attributes=None`` asks about every column of the target.
        """
        names = (
            tuple(attributes)
            if attributes is not None
            else tuple(column.name for column in target.columns)
        )
        return self.submit(QueryRequest(target=target, k=k, attributes=names, **options))

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters and current occupancy of the profile cache."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
            "capacity": self.profile_cache_size,
        }

    def clear_cache(self) -> None:
        """Drop every memoized target profile."""
        self._cache.clear()

    def close(self) -> None:
        """Drop the profile cache and close the engine (:meth:`D3L.close`).

        The session stays usable; its cache re-fills on the next request.
        """
        self.clear_cache()
        self.engine.close()

    def __enter__(self) -> "DiscoverySession":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def save(self, path) -> "object":
        """Persist the session (engine + session settings) to ``path``."""
        from repro.core.persistence import save_session

        return save_session(self, path)

    def _check_version(self) -> None:
        """Invalidate stale cache entries when the underlying lake mutated.

        Both the mutation counter and the indexes' identity are checked —
        an engine whose ``indexes`` was rebound (e.g. to a restored object,
        whose counter restarts) must not be served signatures derived from
        the old object, so a rebind still clears everything.  A version bump
        on the *same* indexes object resolves the mutated table names
        through the mutation journal and evicts only the entries caching a
        target of that name; when the journal cannot cover the gap the whole
        cache is dropped, restoring the old wholesale behaviour.
        """
        indexes = self.engine.indexes
        if indexes is self._cache_indexes and indexes.version == self._cache_version:
            return
        mutated = (
            indexes.mutated_tables_since(self._cache_version)
            if indexes is self._cache_indexes and self._cache_version is not None
            else None
        )
        if mutated is None:
            self._cache.clear()
        elif mutated:
            for key in [
                key
                for key, (table_name, _, _) in self._cache.items()
                if table_name in mutated
            ]:
                del self._cache[key]
        self._cache_indexes = indexes
        self._cache_version = indexes.version

    def _resolve_target(self, target: QueryTarget) -> Tuple[TableProfile, Dict]:
        key = self._fingerprint(target)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._hits += 1
            return cached[1], cached[2]
        self._misses += 1
        profile = (
            target
            if isinstance(target, TableProfile)
            else self.engine.indexes.profile_table(target)
        )
        entries = list(profile.attributes.items())
        signature_maps = attribute_signature_maps(
            self.engine.indexes, profile.table_name, entries
        )
        # The table name rides along so _check_version can evict per table.
        self._cache[key] = (profile.table_name, profile, signature_maps)
        while len(self._cache) > self.profile_cache_size:
            self._cache.popitem(last=False)
        return profile, signature_maps

    @staticmethod
    def _fingerprint(target: QueryTarget) -> object:
        """A content key for the profile cache.

        Raw tables are fingerprinted over their name, column names, and
        values — one cheap hashing pass, orders of magnitude cheaper than
        the Algorithm 1 profiling it saves.  Pre-profiled targets are keyed
        by identity: the cache entry itself keeps the profile alive, so the
        id cannot be recycled while the entry exists.
        """
        if isinstance(target, TableProfile):
            return ("profile", id(target))
        digest = hashlib.blake2b(digest_size=16)
        digest.update(target.name.encode("utf-8", "surrogatepass"))
        for column in target.columns:
            digest.update(b"\x00")
            digest.update(column.name.encode("utf-8", "surrogatepass"))
            # One update per column: "\x1f" + repr(value) for every cell, the
            # same bytes as hashing the cells one at a time.
            if column.values:
                cells = "\x1f" + "\x1f".join(map(repr, column.values))
                digest.update(cells.encode("utf-8", "surrogatepass"))
        return ("table", digest.hexdigest())
