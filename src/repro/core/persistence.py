"""Saving and loading indexed engines (versioned, checksummed sections, v4).

Index construction is the expensive part of dataset discovery (Figure 6a of
the paper); a deployment indexes the lake once and answers many queries.
These helpers persist a fully indexed :class:`~repro.core.discovery.D3L`
engine (or just its :class:`~repro.core.indexes.D3LIndexes`) to disk and load
it back, so the indexing cost is paid once per lake snapshot.

A format-4 file is a small pickled header, the header's own CRC-32 (4
bytes, little-endian), then the sections it lists.  The header holds the
payload ``kind``, the format ``version`` and, per section, its name, byte
length and CRC-32; each section is one pickle of its own.  The sections of
an index are:

* ``config`` / ``embedding_model`` / ``subject_classifier`` — the small
  configuration objects, pickled as-is;
* ``profiles`` — the attribute and table profiles, in one pickle so that
  both map to the same profile objects;
* ``evidence`` — per indexed evidence type, the **raw NumPy buffers** of the
  index, each signature stored once at the width of its values: the
  signature matrix (``uint32`` MinHash rows for N, V and F; random
  projection bits packed 8 to a byte for E; degeneracy flags; row-order
  refs) and the forest's per-tree sorted big-endian key rows with their
  item lists.

An engine adds ``weights``, ``join_graph`` (the SA-join graph of section IV
as plain node/edge records, or None when the engine had not built it for
the current lake snapshot, so a restored engine answers ``joins=True``
requests without re-running graph construction) and ``join_overlap_cache``;
a session adds ``session`` (its settings).

Loading checks every section's length and checksum before unpickling it,
so a truncated or bit-flipped file raises :class:`PersistenceError` naming
the section rather than failing inside the restore.  It then rebuilds the
signature matrices and forests directly from the buffers — no signature is
recomputed, no tree is re-sorted.  Files of earlier versions are refused
with a :class:`PersistenceError` telling the caller to re-index: version 3
stored 64-bit signature rows, version 2 pickled whole engine objects.

Pickle remains the section serialisation: the sections are plain data
(numpy arrays, dataclasses, dictionaries of set representations) produced by
this library itself.  The checksums detect damage, not tampering: files
should be treated like any other binary cache — do not load engines from
untrusted sources.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
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
#: Version 4: a header listing checksummed sections; signatures stored once,
#: at the width of their values.  Versions 3 (64-bit signature rows and
#: rank-key copies) and 2 (whole-engine pickles) and older are refused.
FORMAT_VERSION = 4

#: The header's CRC-32, written right after the header's pickle.
_HEADER_CRC = struct.Struct("<I")


class PersistenceError(RuntimeError):
    """Raised when a persisted engine cannot be loaded."""


def _write(kind: str, sections: Dict[str, object], path: PathLike) -> Path:
    """Write the header, then each section's pickle (see the module docstring)."""
    blobs = {
        name: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        for name, value in sections.items()
    }
    table = [(name, len(blob), zlib.crc32(blob)) for name, blob in blobs.items()]
    header = pickle.dumps(
        {"kind": kind, "version": FORMAT_VERSION, "sections": table},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        handle.write(header)
        handle.write(_HEADER_CRC.pack(zlib.crc32(header)))
        for blob in blobs.values():
            handle.write(blob)
    return path


def _crc32(handle, size: int) -> int:
    """CRC-32 of the next ``size`` bytes of ``handle``, read in small chunks."""
    crc = 0
    while size > 0:
        chunk = handle.read(min(size, 1 << 16))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        size -= len(chunk)
    return crc


def _read(path: PathLike, expected_kind: str) -> Dict[str, object]:
    """The sections of a persisted ``expected_kind``, each checked against
    its length and checksum before it is unpickled."""
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no persisted engine at {path}")
    with path.open("rb") as handle:
        try:
            header = pickle.load(handle)
        # A damaged or foreign header can fail to unpickle in any way; each
        # failure is the same refusal.
        except Exception as error:  # noqa: BLE001 - any damage is refused alike
            raise PersistenceError(f"cannot unpickle {path}: {error}") from error
        if not isinstance(header, dict) or header.get("kind") != expected_kind:
            raise PersistenceError(f"{path} does not contain a persisted {expected_kind}")
        version = header.get("version")
        if version != FORMAT_VERSION:
            raise PersistenceError(
                f"{path} uses persisted format version {version}, expected {FORMAT_VERSION}; "
                "earlier versions stored the index in another layout (version 3: 64-bit "
                "signature rows; version 2: whole engine objects) and cannot be migrated — "
                "re-index the lake and save it again"
            )
        if "sections" not in header:
            raise PersistenceError(f"{path} is missing the v{FORMAT_VERSION} payload sections")
        header_size = handle.tell()
        handle.seek(0)
        raw = handle.read(header_size + _HEADER_CRC.size)
        if raw[header_size:] != _HEADER_CRC.pack(zlib.crc32(raw[:header_size])):
            raise PersistenceError(f"{path}: the header fails its checksum")
        remaining = os.fstat(handle.fileno()).st_size - handle.tell()
        starts = []
        for name, size, crc in header["sections"]:
            if size > remaining:
                raise PersistenceError(
                    f"{path} is truncated: section {name!r} needs {size} bytes, "
                    f"{remaining} remain"
                )
            starts.append((name, handle.tell()))
            if _crc32(handle, size) != crc:
                raise PersistenceError(f"{path}: section {name!r} fails its checksum")
            remaining -= size
        # Each section unpickles straight from the file: no copy of a
        # section's bytes is held while its objects are built.
        sections = {}
        for name, start in starts:
            handle.seek(start)
            try:
                sections[name] = pickle.load(handle)
            # An intact section written by code whose classes have since moved.
            except (pickle.UnpicklingError, AttributeError, ImportError) as error:
                raise PersistenceError(
                    f"{path}: section {name!r} cannot be unpickled: {error}"
                ) from error
    return sections


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
        "profiles": {"attributes": indexes.profiles, "tables": indexes.table_profiles},
        "evidence": evidence_sections,
    }


def _restore_indexes(sections: Dict[str, object]) -> D3LIndexes:
    """Rebuild a ``D3LIndexes`` from its sections without re-deriving anything."""
    indexes = D3LIndexes(
        config=sections["config"],
        embedding_model=sections["embedding_model"],
        subject_classifier=sections["subject_classifier"],
    )
    indexes.adopt_profiles(sections["profiles"]["attributes"], sections["profiles"]["tables"])
    for evidence in EvidenceType.indexed():
        section = sections["evidence"][evidence.value]
        indexes._matrices[evidence].import_state(
            section["refs"], section["matrix"], section["flags"]
        )
        indexes._forests[evidence].import_state(section["forest"])
    return indexes


def indexes_sections(indexes: D3LIndexes, copy: bool = True) -> Dict[str, object]:
    """Public section writer (see :func:`_indexes_sections`).

    The shared-memory snapshot layer (:mod:`repro.core.shared`) uses this to
    split an index into picklable metadata and the raw NumPy buffers it
    places into a segment; the on-disk format and the in-memory segment
    layout stay two serialisations of the same sections.
    """
    return _indexes_sections(indexes, copy=copy)


def restore_indexes_from_sections(sections: Dict[str, object]) -> D3LIndexes:
    """Public section reader (see :func:`_restore_indexes`).

    Array-valued section entries are adopted view-preserving: sections whose
    matrices, flags, and forest key arrays are views over a shared
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
        **_indexes_sections(engine.indexes),
        "weights": engine.weights,
        "join_graph": None if join_graph is None else _join_graph_section(join_graph),
        "join_overlap_cache": dict(engine._join_overlap_cache),
    }


def _restore_engine(sections: Dict[str, object]) -> D3L:
    indexes = _restore_indexes(sections)
    engine = D3L(
        config=indexes.config,
        embedding_model=indexes.embedding_model,
        weights=sections["weights"],
        subject_classifier=indexes.subject_classifier,
    )
    engine.indexes = indexes
    # None: the graph is rebuilt lazily on first use.
    join_graph = sections["join_graph"]
    if join_graph is not None:
        engine.restore_join_graph(_restore_join_graph(join_graph))
    # Verified join overlaps survive a round-trip so an incremental rebuild
    # after mutation stays cheap.
    engine._join_overlap_cache = JoinOverlapCache(sections["join_overlap_cache"])
    return engine


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #


def save_engine(engine: D3L, path: PathLike) -> Path:
    """Persist a fully indexed engine (indexes, weights, configuration)."""
    return _write("d3l_engine", _engine_sections(engine), path)


def load_engine(path: PathLike) -> D3L:
    """Load an engine previously saved with :func:`save_engine`."""
    sections = _read(path, "d3l_engine")
    try:
        return _restore_engine(sections)
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(f"{path} holds a malformed engine payload: {error}") from error


def save_session(session, path: PathLike) -> Path:
    """Persist a :class:`~repro.core.api.DiscoverySession` (engine + settings).

    The payload reuses the engine's raw-buffer sections and adds a small
    ``session`` section with the serving-tier settings (cache capacity).
    The memoized profiles themselves are deliberately *not* persisted: they
    are a pure function of targets the next deployment may never see again,
    and the cache re-fills on first contact.
    """
    sections = {
        **_engine_sections(session.engine),
        "session": {"profile_cache_size": session.profile_cache_size},
    }
    return _write("d3l_session", sections, path)


def load_session(path: PathLike):
    """Load a serving session previously saved with :func:`save_session`."""
    from repro.core.api import DiscoverySession

    sections = _read(path, "d3l_session")
    try:
        engine = _restore_engine(sections)
        settings = sections["session"]
        return DiscoverySession(
            engine, profile_cache_size=int(settings["profile_cache_size"])
        )
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(f"{path} holds a malformed session payload: {error}") from error


def save_indexes(indexes: D3LIndexes, path: PathLike) -> Path:
    """Persist a set of indexes without the surrounding engine."""
    return _write("d3l_indexes", _indexes_sections(indexes), path)


def load_indexes(path: PathLike) -> D3LIndexes:
    """Load indexes previously saved with :func:`save_indexes`."""
    sections = _read(path, "d3l_indexes")
    try:
        return _restore_indexes(sections)
    except (KeyError, TypeError, ValueError) as error:
        raise PersistenceError(f"{path} holds a malformed indexes payload: {error}") from error
