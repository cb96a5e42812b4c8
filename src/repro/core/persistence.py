"""Saving and loading indexed engines (versioned multi-section format, v3).

Index construction is the expensive part of dataset discovery (Figure 6a of
the paper); a deployment indexes the lake once and answers many queries.
These helpers persist a fully indexed :class:`~repro.core.discovery.D3L`
engine (or just its :class:`~repro.core.indexes.D3LIndexes`) to disk and load
it back, so the indexing cost is paid once per lake snapshot.

Format version 3 no longer pickles the engine object graph.  The payload is
a dictionary of explicit sections:

* ``config`` / ``weights`` / ``embedding_model`` / ``subject_classifier`` —
  the small configuration objects, pickled as-is;
* ``profiles`` / ``table_profiles`` — the attribute and table profiles;
* ``evidence`` — per indexed evidence type, the **raw NumPy buffers** of the
  index: the signature matrix (rows, degeneracy flags, row-order refs) and
  the forest's per-tree sorted key arrays with their item lists;
* ``join_graph`` (engine payloads, optional) — the SA-join graph of section
  IV as plain node/edge records (table pairs, joined attribute refs, exact
  overlap coefficients), persisted whenever the engine had built it for the
  current lake snapshot, so a restored engine or serving session answers
  ``joins=True`` requests without re-running graph construction.

Loading reconstructs the signature matrices, signature registries, and
forests directly from those buffers — no signature is recomputed, no tree is
re-sorted — so a load costs array reshapes plus dictionary builds rather than
re-derivation.  Older payloads (v2 pickled whole engine objects, whose layout
this version abandons) are rejected with a clear :class:`PersistenceError`
telling the caller to re-index.

Pickle remains the container serialisation: the sections are plain data
(numpy arrays, dataclasses, dictionaries of set representations) produced by
this library itself.  Files should be treated like any other binary cache —
do not load engines from untrusted sources.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, Union

import networkx as nx

from repro.core.discovery import D3L
from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes
from repro.core.joins import JoinEdge, JoinOverlapCache, SAJoinGraph
from repro.lake.datalake import AttributeRef

PathLike = Union[str, Path]

#: Current on-disk format version; bumped when the persisted layout changes.
#: Version 3: multi-section payloads storing signature matrices and forest
#: key arrays as raw NumPy buffers (loads skip all re-derivation).
#: Version 2 (whole-engine pickles) and older are rejected.
FORMAT_VERSION = 3


class PersistenceError(RuntimeError):
    """Raised when a persisted engine cannot be loaded."""


def _write(payload: dict, path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def _read(path: PathLike, expected_kind: str) -> dict:
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no persisted engine at {path}")
    with path.open("rb") as handle:
        try:
            payload = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, AttributeError) as error:
            raise PersistenceError(f"cannot unpickle {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("kind") != expected_kind:
        raise PersistenceError(f"{path} does not contain a persisted {expected_kind}")
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"{path} uses persisted format version {version}, expected {FORMAT_VERSION}; "
            "versions before 3 pickled whole engine objects and cannot be migrated — "
            "re-index the lake and save it again"
        )
    if "sections" not in payload:
        raise PersistenceError(f"{path} is missing the v{FORMAT_VERSION} payload sections")
    return payload


# --------------------------------------------------------------------------- #
# section (de)construction
# --------------------------------------------------------------------------- #


def _indexes_sections(indexes: D3LIndexes, copy: bool = True) -> Dict[str, object]:
    """Explicit sections of one ``D3LIndexes``, with raw-array index state.

    ``copy=False`` exposes the live arrays as trimmed views instead of
    copies — used by the shared-memory snapshot writer
    (:mod:`repro.core.shared`), which reads each array exactly once while
    streaming it into a segment; such sections must not outlive the next
    mutation of ``indexes``.
    """
    evidence_sections = {}
    for evidence in EvidenceType.indexed():
        refs, matrix, flags = indexes._matrices[evidence].export_state(copy=copy)
        evidence_sections[evidence.value] = {
            "refs": refs,
            "matrix": matrix,
            "flags": flags,
            "forest": indexes._forests[evidence].export_state(copy=copy),
        }
    return {
        "config": indexes.config,
        "embedding_model": indexes.embedding_model,
        "subject_classifier": indexes.subject_classifier,
        "profiles": indexes.profiles,
        "table_profiles": indexes.table_profiles,
        "evidence": evidence_sections,
    }


def _restore_indexes(sections: Dict[str, object]) -> D3LIndexes:
    """Rebuild a ``D3LIndexes`` from its sections without re-deriving anything."""
    indexes = D3LIndexes(
        config=sections["config"],
        embedding_model=sections["embedding_model"],
        subject_classifier=sections["subject_classifier"],
    )
    indexes.adopt_profiles(sections["profiles"], sections["table_profiles"])
    for evidence in EvidenceType.indexed():
        section = sections["evidence"][evidence.value]
        refs, matrix, flags = section["refs"], section["matrix"], section["flags"]
        indexes._matrices[evidence].import_state(refs, matrix, flags)
        stored = indexes._signatures[evidence]
        signature_rows = {}
        if evidence is EvidenceType.EMBEDDING:
            for row, ref in enumerate(refs):
                signature = indexes._projection_factory.from_bits(
                    matrix[row], is_zero=bool(flags[row])
                )
                stored[ref] = signature
                signature_rows[ref] = signature.bits
        else:
            for row, ref in enumerate(refs):
                signature = indexes._minhash_factory.from_hashvalues(matrix[row])
                stored[ref] = signature
                signature_rows[ref] = signature.hashvalues
        indexes._forests[evidence].import_state(section["forest"], signature_rows)
    return indexes


def indexes_sections(indexes: D3LIndexes, copy: bool = True) -> Dict[str, object]:
    """Public v3 section writer (see :func:`_indexes_sections`).

    The shared-memory snapshot layer (:mod:`repro.core.shared`) uses this to
    split an index into picklable metadata and the raw NumPy buffers it
    places into a segment; the on-disk format and the in-memory segment
    layout stay two serialisations of the same sections.
    """
    return _indexes_sections(indexes, copy=copy)


def restore_indexes_from_sections(sections: Dict[str, object]) -> D3LIndexes:
    """Public v3 section reader (see :func:`_restore_indexes`).

    Array-valued section entries are adopted view-preserving: sections whose
    matrices, flags, and forest key/rank arrays are views over a shared
    buffer produce an index whose state *is* those views — the zero-copy
    attach path of :class:`repro.core.shared.SharedIndexSnapshot`.
    """
    return _restore_indexes(sections)


def _join_graph_section(graph) -> Dict[str, object]:
    """Plain node/edge records of a built SA-join graph (nodes, edges, overlaps)."""
    edges = []
    for first, second in graph.graph.edges:
        edge = graph.edge(first, second)
        edges.append(
            {
                "first": first,
                "second": second,
                "left": (edge.left.table, edge.left.column),
                "right": (edge.right.table, edge.right.column),
                "overlap": float(edge.overlap),
            }
        )
    return {"nodes": list(graph.graph.nodes), "edges": edges}


def _restore_join_graph(section: Dict[str, object]) -> SAJoinGraph:
    """Rebuild a persisted SA-join graph without re-running construction."""
    graph = nx.Graph()
    graph.add_nodes_from(section["nodes"])
    for entry in section["edges"]:
        graph.add_edge(
            entry["first"],
            entry["second"],
            join=JoinEdge(
                left=AttributeRef(*entry["left"]),
                right=AttributeRef(*entry["right"]),
                overlap=entry["overlap"],
            ),
        )
    return SAJoinGraph(graph)


def _engine_sections(engine: D3L) -> Dict[str, object]:
    join_graph = engine.cached_join_graph
    return {
        "weights": engine.weights,
        "indexes": _indexes_sections(engine.indexes),
        "join_graph": None if join_graph is None else _join_graph_section(join_graph),
        "join_overlap_cache": dict(engine._join_overlap_cache),
    }


def _restore_engine(sections: Dict[str, object]) -> D3L:
    indexes = _restore_indexes(sections["indexes"])
    engine = D3L(
        config=indexes.config,
        embedding_model=indexes.embedding_model,
        weights=sections["weights"],
        subject_classifier=indexes.subject_classifier,
    )
    engine.indexes = indexes
    # Older v3 payloads predate the join-graph section; absent or None just
    # means the graph is rebuilt lazily on first use.
    join_graph = sections.get("join_graph")
    if join_graph is not None:
        engine.restore_join_graph(_restore_join_graph(join_graph))
    # Also an optional late addition: verified join overlaps survive a
    # round-trip so an incremental rebuild after mutation stays cheap.
    engine._join_overlap_cache = JoinOverlapCache(sections.get("join_overlap_cache") or {})
    return engine


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #


def save_engine(engine: D3L, path: PathLike) -> Path:
    """Persist a fully indexed engine (indexes, weights, configuration)."""
    payload = {
        "kind": "d3l_engine",
        "version": FORMAT_VERSION,
        "sections": _engine_sections(engine),
    }
    return _write(payload, path)


def load_engine(path: PathLike) -> D3L:
    """Load an engine previously saved with :func:`save_engine`."""
    payload = _read(path, "d3l_engine")
    try:
        return _restore_engine(payload["sections"])
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(f"{path} holds a malformed engine payload: {error}") from error


def save_session(session, path: PathLike) -> Path:
    """Persist a :class:`~repro.core.api.DiscoverySession` (engine + settings).

    The payload reuses the engine's v3 raw-buffer sections and adds a small
    ``session`` section with the serving-tier settings (cache capacity).
    The memoized profiles themselves are deliberately *not* persisted: they
    are a pure function of targets the next deployment may never see again,
    and the cache re-fills on first contact.
    """
    payload = {
        "kind": "d3l_session",
        "version": FORMAT_VERSION,
        "sections": {
            "engine": _engine_sections(session.engine),
            "session": {"profile_cache_size": session.profile_cache_size},
        },
    }
    return _write(payload, path)


def load_session(path: PathLike):
    """Load a serving session previously saved with :func:`save_session`."""
    from repro.core.api import DiscoverySession

    payload = _read(path, "d3l_session")
    try:
        sections = payload["sections"]
        engine = _restore_engine(sections["engine"])
        settings = sections["session"]
        return DiscoverySession(
            engine, profile_cache_size=int(settings["profile_cache_size"])
        )
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(f"{path} holds a malformed session payload: {error}") from error


def save_indexes(indexes: D3LIndexes, path: PathLike) -> Path:
    """Persist a set of indexes without the surrounding engine."""
    payload = {
        "kind": "d3l_indexes",
        "version": FORMAT_VERSION,
        "sections": _indexes_sections(indexes),
    }
    return _write(payload, path)


def load_indexes(path: PathLike) -> D3LIndexes:
    """Load indexes previously saved with :func:`save_indexes`."""
    payload = _read(path, "d3l_indexes")
    try:
        return _restore_indexes(payload["sections"])
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(f"{path} holds a malformed indexes payload: {error}") from error
