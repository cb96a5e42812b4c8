"""Zero-copy shared-memory snapshots of :class:`~repro.core.indexes.D3LIndexes`.

The paper's deployment model (Figure 6a) is index-once, query-many: one host
holds one read-only index and many worker processes answer queries against
it.  Before this layer, every worker pool shipped a full pickled index to
every worker — N workers cost N× resident memory plus serialization on the
hot path.  A :class:`SharedIndexSnapshot` instead exports the index **once**
into a named segment and workers attach by name:

* the v4 persistence sections (:func:`repro.core.persistence.indexes_sections`)
  are split into a small picklable manifest (config, embedding model, subject
  classifier, profiles, refs, forest item lists) and the raw NumPy buffers,
  which are exactly the per-evidence signature matrices (``uint32`` MinHash
  rows, packed projection bits) and degeneracy flags and the per-tree
  sorted big-endian forest key rows — a tree's rank keys are a view of its
  key rows, so nothing else is stored;
* the buffers are laid out 64-byte aligned behind the manifest in one
  ``multiprocessing.shared_memory`` segment (or an mmap'd file when POSIX
  shared memory is unavailable — same byte layout, same attach path);
* :meth:`SharedIndexSnapshot.attach` reconstructs a **read-only** index whose
  :class:`~repro.core.indexes.SignatureMatrix` and
  :class:`~repro.lsh.lsh_forest.LSHForest` arrays are views over the shared
  buffer — no array data is copied or pickled; only the manifest is
  unpickled once per process.

Lifecycle: the creator (a :class:`~repro.core.execution.WorkerPool`, for
sharded work or for ``repro serve --backend process``) holds the snapshot
for the life of its workers and releases the segment via :meth:`close` when
the pool is shut down or re-exports; a ``weakref.finalize`` backstop releases it when the
snapshot is dropped without an explicit close, so abandoned engines cannot
leak ``/dev/shm`` segments.  Attached mappings in live workers stay valid
after the unlink (POSIX semantics; the file backing behaves the same way).

Pickle remains the manifest serialisation — the manifest is produced by this
library from its own sections; treat descriptors like any other binary cache
and do not attach segments from untrusted sources.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import tempfile
import threading
import uuid
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import sanitizer

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.core.indexes import D3LIndexes

#: Name prefix of every segment (and fallback file) this layer creates; the
#: leak-audit helpers and the tier-1 leak fixture key on it.
SEGMENT_PREFIX = "d3l_snap_"

#: Buffers are laid out on 64-byte boundaries so every array view is aligned
#: for its dtype (and cache-line aligned for the distance kernels).
_ALIGNMENT = 64

#: Segment header: one little-endian uint64 holding the manifest pickle size.
_HEADER = struct.Struct("<Q")

#: Descriptor every worker process attaches: ``(kind, locator)`` where
#: kind is ``"shm"`` (segment name), ``"file"`` (mmap fallback path), or
#: ``"pickle"`` (degraded: the locator *is* the pickled index, shipped the
#: pre-snapshot way when no shared backing could be created).
Descriptor = Tuple[str, object]

#: Per-process attach cache: a process attaching the same descriptor twice
#: (e.g. a worker initialised for queries whose pool then verifies join
#: overlaps) reuses one mapping and one restored index.
_ATTACHED: Dict[Tuple[str, str], "D3LIndexes"] = {}

#: Live segments created by this process: locator -> kind.  Audited by
#: :func:`stray_segments` so tests can assert that everything on disk is
#: owned by a live snapshot.
_LIVE_SEGMENTS: Dict[str, str] = {}
_LIVE_LOCK = threading.Lock()


class SharedSnapshotError(RuntimeError):
    """Raised when a shared snapshot cannot be created or attached."""


def _array_specs(
    sections: Dict[str, object]
) -> Tuple[Dict[str, object], List[Tuple[str, np.ndarray]]]:
    """Split v4 sections into a picklable manifest ``meta`` and named buffers.

    The arrays keep a deterministic naming scheme
    (``{evidence}/matrix|flags`` and ``{evidence}/tree{t}/keys``) so the
    attach side can reassemble the sections without positional coupling.
    """
    arrays: List[Tuple[str, np.ndarray]] = []
    evidence_meta: Dict[str, object] = {}
    for value, section in sections["evidence"].items():
        forest = section["forest"]
        items: List[list] = []
        for tree_index, tree_state in enumerate(forest["trees"]):
            keys = np.ascontiguousarray(tree_state["keys"])
            arrays.append((f"{value}/tree{tree_index}/keys", keys))
            items.append(tree_state["items"])
        arrays.append(
            (f"{value}/matrix", np.ascontiguousarray(section["matrix"]))
        )
        arrays.append(
            (f"{value}/flags", np.ascontiguousarray(section["flags"], dtype=bool))
        )
        evidence_meta[value] = {
            "refs": section["refs"],
            "forest": {
                "num_hashes": forest["num_hashes"],
                "num_trees": forest["num_trees"],
                "seed": forest["seed"],
                "items": items,
            },
            "matrix_dtype": str(np.asarray(section["matrix"]).dtype),
        }
    meta = {
        "config": sections["config"],
        "embedding_model": sections["embedding_model"],
        "subject_classifier": sections["subject_classifier"],
        "profiles": sections["profiles"],
        "evidence": evidence_meta,
    }
    return meta, arrays


def _reassemble_sections(
    meta: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> Dict[str, object]:
    """Rebuild the v4 sections from a manifest plus named buffer views."""
    evidence_sections: Dict[str, object] = {}
    for value, entry in meta["evidence"].items():
        forest_meta = entry["forest"]
        trees = [
            {
                "keys": arrays[f"{value}/tree{tree_index}/keys"],
                "items": items,
            }
            for tree_index, items in enumerate(forest_meta["items"])
        ]
        evidence_sections[value] = {
            "refs": entry["refs"],
            "matrix": arrays[f"{value}/matrix"],
            "flags": arrays[f"{value}/flags"],
            "forest": {
                "num_hashes": forest_meta["num_hashes"],
                "num_trees": forest_meta["num_trees"],
                "seed": forest_meta["seed"],
                "trees": trees,
            },
        }
    return {
        "config": meta["config"],
        "embedding_model": meta["embedding_model"],
        "subject_classifier": meta["subject_classifier"],
        "profiles": meta["profiles"],
        "evidence": evidence_sections,
    }


def _aligned(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _release_backing(kind: str, locator: str, handle: object) -> None:
    """Unlink one backing (idempotent; the weakref.finalize target)."""
    with _LIVE_LOCK:
        _LIVE_SEGMENTS.pop(locator, None)
    if kind == "shm":
        try:
            handle.close()
            handle.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    else:
        try:
            os.unlink(locator)
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SharedIndexSnapshot:
    """One read-only export of a ``D3LIndexes`` that workers attach by name.

    Create with :meth:`create` (the owner side), ship :attr:`descriptor`
    to each worker process, and call :meth:`attach` in each worker.  The
    owner must :meth:`close` the snapshot when its pool is torn down or the
    index mutates; dropping the object without closing triggers the
    ``weakref.finalize`` backstop.
    """

    def __init__(
        self,
        descriptor: Descriptor,
        version: int,
        total_bytes: int,
        handle: object,
    ) -> None:
        self._descriptor = descriptor
        self.version = version
        self.total_bytes = total_bytes
        kind, locator = descriptor
        self._finalizer = weakref.finalize(
            self, _release_backing, kind, locator, handle
        )

    # ------------------------------------------------------------------ #
    # owner side
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, indexes: "D3LIndexes", backing: str = "auto"
    ) -> "SharedIndexSnapshot":
        """Export ``indexes`` into a shared segment (or the mmap'd fallback).

        ``backing`` is ``"auto"`` (POSIX shared memory, falling back to an
        mmap'd file), ``"shm"``, or ``"file"``.  The export reuses the
        persistence section writers with ``copy=False``, so each buffer is
        read exactly once while being streamed into the segment.
        """
        from repro.core.persistence import indexes_sections

        if backing not in ("auto", "shm", "file"):
            raise ValueError(f"unknown snapshot backing {backing!r}")
        meta, arrays = _array_specs(indexes_sections(indexes, copy=False))
        specs: Dict[str, Dict[str, object]] = {}
        offset = 0  # filled in after the manifest size is known
        payload_arrays: List[Tuple[int, np.ndarray]] = []
        # Two-pass layout: sizes first (the manifest embeds the offsets), so
        # pickle the manifest with placeholder offsets, then patch.  Offsets
        # are relative to the end of the header+manifest block, which keeps
        # the manifest pickle size independent of its own length.
        for name, array in arrays:
            offset = _aligned(offset)
            specs[name] = {
                "offset": offset,
                "shape": tuple(array.shape),
                "dtype": str(array.dtype),
            }
            payload_arrays.append((offset, array))
            offset += array.nbytes
        manifest = {
            "format": 4,
            "version": indexes.version,
            "meta": meta,
            "arrays": specs,
        }
        blob = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
        base = _aligned(_HEADER.size + len(blob))
        total = base + max(offset, 1)

        locator, handle, buf = cls._create_backing(backing, total)
        try:
            cls._write_payload(buf, blob, base, payload_arrays)
            if isinstance(handle, tuple):  # file backing: flush and seal
                mapped, file_handle = handle
                buf.release()
                mapped.flush()
                mapped.close()
                file_handle.close()
                kind = "file"
                handle = locator
            else:
                kind = "shm"
        except BaseException:
            if isinstance(handle, tuple):
                mapped, file_handle = handle
                buf.release()
                mapped.close()
                file_handle.close()
                _release_backing("file", locator, locator)
            else:
                _release_backing("shm", locator, handle)
            raise
        descriptor: Descriptor = (kind, locator)
        return cls(descriptor, indexes.version, total, handle)

    @staticmethod
    def _write_payload(
        buf,
        blob: bytes,
        base: int,
        payload_arrays: List[Tuple[int, np.ndarray]],
    ) -> None:
        """Stream header, manifest, and arrays into the backing buffer.

        Isolated in a function so every NumPy view over ``buf`` is dropped on
        return — the file backing cannot close an mmap with exported pointers.
        """
        _HEADER.pack_into(buf, 0, len(blob))
        buf[_HEADER.size : _HEADER.size + len(blob)] = blob
        for rel_offset, array in payload_arrays:
            if array.nbytes == 0:
                continue
            view = np.frombuffer(
                buf,
                dtype=array.dtype,
                count=array.size,
                offset=base + rel_offset,
            ).reshape(array.shape)
            view[...] = array

    @staticmethod
    def _create_backing(backing: str, total: int):
        """Allocate the segment: ``(locator, handle, writable buffer)``."""
        name = f"{SEGMENT_PREFIX}{os.getpid():x}_{uuid.uuid4().hex[:12]}"
        if backing == "auto" and not Path("/dev/shm").is_dir():
            backing = "file"  # attach maps /dev/shm directly; see attach()
        if backing in ("auto", "shm"):
            try:
                from multiprocessing import shared_memory

                segment = shared_memory.SharedMemory(
                    create=True, size=total, name=name
                )
                with _LIVE_LOCK:
                    _LIVE_SEGMENTS[segment.name] = "shm"
                # Under REPRO_SANITIZE=1, segments still live at interpreter
                # exit fail the process (the gc backstop doesn't count).
                sanitizer.arm_segment_ledger()
                return segment.name, segment, segment.buf
            except (ImportError, OSError, ValueError):
                if backing == "shm":
                    raise SharedSnapshotError(
                        f"cannot create a {total}-byte POSIX shared-memory segment"
                    )
        try:
            path = Path(tempfile.gettempdir()) / f"{name}.v4"
            with path.open("wb") as seed_handle:
                seed_handle.truncate(total)
            file_handle = path.open("r+b")
            mapped = mmap.mmap(file_handle.fileno(), total)
            with _LIVE_LOCK:
                _LIVE_SEGMENTS[str(path)] = "file"
            sanitizer.arm_segment_ledger()
            return str(path), (mapped, file_handle), memoryview(mapped)
        except OSError as error:
            raise SharedSnapshotError(
                f"cannot create an mmap'd snapshot file: {error}"
            ) from error

    @property
    def descriptor(self) -> Descriptor:
        """The picklable ``(kind, locator)`` workers attach with."""
        return self._descriptor

    def shipped_bytes(self) -> int:
        """Bytes of the descriptor shipped to each worker."""
        return len(pickle.dumps(self._descriptor, protocol=pickle.HIGHEST_PROTOCOL))

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Release the segment (idempotent).

        Workers that already attached keep their mappings — POSIX unlink
        semantics — but no new attach can start and nothing stays on disk.
        """
        self._finalizer()

    unlink = close

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    @staticmethod
    def attach(descriptor: Descriptor) -> "D3LIndexes":
        """Reconstruct a read-only index over the shared buffers (no copy).

        One process attaches each descriptor at most once (cached); the
        restored index keeps the mapping alive for its own lifetime.  The
        degraded ``("pickle", indexes)`` descriptor — used when no shared
        backing could be created — returns the shipped object directly.
        """
        kind, locator = descriptor
        if kind == "pickle":
            return locator  # the pickled index itself, shipped the old way
        key = (kind, locator)
        cached = _ATTACHED.get(key)
        if cached is not None:
            return cached

        if kind == "shm":
            # Map the POSIX segment directly (it is a file under /dev/shm)
            # instead of going through SharedMemory: plain refcounting keeps
            # the mapping alive exactly as long as the views, with no
            # resource-tracker registration and no destructor ordering
            # hazards in worker processes at interpreter exit.
            path = f"/dev/shm/{locator}"
        elif kind == "file":
            path = str(locator)
        else:
            raise SharedSnapshotError(f"unknown snapshot descriptor kind {kind!r}")
        try:
            file_handle = open(path, "rb")
        except FileNotFoundError as error:
            raise SharedSnapshotError(
                f"snapshot backing {path!r} is gone (snapshot closed?)"
            ) from error
        with file_handle:
            mapped = mmap.mmap(file_handle.fileno(), 0, access=mmap.ACCESS_READ)
        buf = memoryview(mapped)
        keepalive = mapped

        (blob_size,) = _HEADER.unpack_from(buf, 0)
        manifest = pickle.loads(buf[_HEADER.size : _HEADER.size + blob_size])
        base = _aligned(_HEADER.size + blob_size)
        arrays: Dict[str, np.ndarray] = {}
        for name, spec in manifest["arrays"].items():
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            view = np.frombuffer(
                buf,
                dtype=np.dtype(spec["dtype"]),
                count=count,
                offset=base + spec["offset"],
            ).reshape(shape)
            if view.flags.writeable:
                view.flags.writeable = False
            arrays[name] = view
        # Write barrier: under REPRO_SANITIZE=1 a writable view here (a
        # regression of the freeze above) fails the attach outright instead
        # of letting a worker scribble on the host's segment.
        sanitizer.assert_read_only_views(f"{kind}:{locator}", arrays)

        from repro.core.persistence import restore_indexes_from_sections

        indexes = restore_indexes_from_sections(
            _reassemble_sections(manifest["meta"], arrays)
        )
        # The journal covers nothing before the snapshot's version.
        indexes.version = indexes._journal_floor = manifest["version"]
        # The mapping must outlive every array view handed to the index.
        indexes._shared_backing = keepalive
        _ATTACHED[key] = indexes
        return indexes


# --------------------------------------------------------------------------- #
# delta refresh
# --------------------------------------------------------------------------- #

#: Net-effect delta between two index versions: ``(target_version, ops)``
#: where each op is ``("remove", table_name, None, None)`` or
#: ``("upsert", table_name, table_profile, signatures_by_attribute)``, one op
#: per mutated table in sorted-name order.  Because each upsert carries the
#: table's *current* profile and signatures, applying a delta is idempotent
#: and convergent from any intermediate state between the base and target
#: versions.
IndexDelta = Tuple[int, List[Tuple[str, str, object, object]]]


def build_index_delta(
    indexes: "D3LIndexes", base_version: int, max_tables: Optional[int] = None
) -> Optional[IndexDelta]:
    """Net delta bringing an index at ``base_version`` up to ``indexes``.

    Returns None when the mutated-table set is not reconstructible (the base
    fell out of the journal window) or exceeds ``max_tables`` — consumers
    then fall back to a full re-ship.  Each mutated table contributes one op:
    an upsert with its current profile and per-attribute signatures, or a
    remove when it is no longer indexed.
    """
    from repro.core.evidence import EvidenceType

    mutated = indexes.mutated_tables_since(base_version)
    if mutated is None:
        return None
    if max_tables is not None and len(mutated) > max_tables:
        return None
    ops: List[Tuple[str, str, object, object]] = []
    for name in sorted(mutated):
        profile = indexes.table_profiles.get(name)
        if profile is None:
            ops.append(("remove", name, None, None))
        else:
            # The stored signatures ARE what add_profiled_table inserted, so
            # the op reuses them instead of re-signing the table.
            signatures = {
                attribute_name: {
                    evidence: indexes.signature(evidence, attribute.ref)
                    for evidence in EvidenceType.indexed()
                }
                for attribute_name, attribute in profile.attributes.items()
            }
            ops.append(("upsert", name, profile, signatures))
    return (indexes.version, ops)


def apply_index_delta(indexes: "D3LIndexes", delta: IndexDelta) -> None:
    """Apply a :func:`build_index_delta` result to a (possibly shared) index.

    No-op when ``indexes`` already reached the target version, so shipping
    the same delta with every message is safe — each worker applies it
    exactly once.  Mutating an attached snapshot copies only the touched
    arrays (copy-on-write in :class:`~repro.core.indexes.SignatureMatrix` and
    the forest rebuild path); the shared base segment stays untouched.
    """
    target_version, ops = delta
    if indexes.version >= target_version:
        return
    journal = indexes.journal_state()
    # Ops touch distinct tables (one net op per table), so all removals can
    # run first as one batch — one forest tombstone pass and one matrix
    # compaction per evidence type instead of per-table replay (the PR-8
    # known ceiling on the worker delta path).
    removals = [name for kind, name, _, _ in ops if kind == "remove"]
    if removals:
        indexes.remove_tables(removals)
    for kind, name, profile, signatures in ops:
        if kind != "remove":
            indexes.add_profiled_table(profile, signatures)
    # Pin the worker's counter to the host's (the number of *net* ops can
    # differ from the host's bump count) and journal every op's table at the
    # target version, so worker-side caches keep evicting per table.
    indexes.rebase_journal(journal, target_version, [name for _, name, _, _ in ops])


# --------------------------------------------------------------------------- #
# leak auditing
# --------------------------------------------------------------------------- #


def live_segment_locators() -> List[str]:
    """Locators (segment names / file paths) of snapshots this process owns."""
    with _LIVE_LOCK:
        return sorted(_LIVE_SEGMENTS)


def stray_segments() -> List[str]:
    """On-disk snapshot segments not owned by a live snapshot of this process.

    Scans ``/dev/shm`` and the temp directory for the :data:`SEGMENT_PREFIX`;
    anything found that is not registered as live is a leak (or debris from
    another process — callers comparing before/after a scope, like the tier-1
    leak fixture, are immune to pre-existing debris).
    """
    with _LIVE_LOCK:
        live = set(_LIVE_SEGMENTS)
    stray: List[str] = []
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        for path in shm_dir.glob(f"{SEGMENT_PREFIX}*"):
            if path.name not in live:
                stray.append(str(path))
    for path in Path(tempfile.gettempdir()).glob(f"{SEGMENT_PREFIX}*"):
        if str(path) not in live:
            stray.append(str(path))
    return sorted(stray)
