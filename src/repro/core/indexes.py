"""The four LSH indexes of D3L and their construction (Algorithm 1).

``D3LIndexes`` profiles every attribute of every lake table and inserts its
set representations / embedding vector into the corresponding LSH Forest:

* ``IN`` — MinHash of the attribute-name q-gram set;
* ``IV`` — MinHash of the informative-token set (textual attributes only);
* ``IF`` — MinHash of the format-string set;
* ``IE`` — random projection of the aggregated embedding vector (textual
  attributes only).

Numeric attributes are indexed only in ``IN`` and ``IF``; their extents are
kept in the attribute profiles for the KS-based D evidence (Algorithm 2).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.core.profiles import AttributeProfile, TableProfile
from repro.lake.datalake import AttributeRef, DataLake
from repro.lsh.lsh_forest import _NO_IDS, ItemIds, LSHForest, Walk
from repro.lsh.minhash import MinHash, MinHashFactory, batch_jaccard_distances
from repro.lsh.random_projection import (
    RandomProjection,
    RandomProjectionFactory,
    batch_cosine_distances,
)
from repro.ml.subject_attribute import SubjectAttributeClassifier, heuristic_subject_attribute
from repro.stats.ks import ks_statistic_sorted, ks_statistic_sorted_many
from repro.tables.table import Table
from repro.text.embeddings import HashingSubwordEmbedding, WordEmbeddingModel

#: Signature type union used internally.
Signature = object

#: How many mutations the delta journal remembers.  A consumer whose base
#: version fell further behind than this cannot reconstruct the mutated-table
#: set and must fall back to full invalidation.
_MUTATION_LOG_LIMIT = 64


class AttributeIds(ItemIds):
    """The ``int32`` ids of one lake's attributes, with each id's table.

    One registry is shared by the four forests and the four signature
    matrices of a :class:`D3LIndexes`, so a forest candidate's id is also
    its row key in every matrix.  Ids are process-local and never
    persisted: a load, a snapshot attach or a delta apply assigns them
    afresh.  Ranks order ids as :class:`~repro.lake.datalake.AttributeRef`
    orders refs — by table, then column — and every table gets a code the
    same way (never reused).
    """

    def __init__(self) -> None:
        super().__init__(sort_key=attrgetter("table", "column"))
        #: The name of each table code.
        self.table_names: List[str] = []
        self._code_of: Dict[str, int] = {}
        self._table_of: List[int] = []
        self._tables = _NO_IDS

    def _assigned(self, ref: AttributeRef) -> None:
        code = self._code_of.get(ref.table)
        if code is None:
            code = self._code_of[ref.table] = len(self.table_names)
            self.table_names.append(ref.table)
        self._table_of.append(code)

    def table_code(self, table_name: Optional[str]) -> int:
        """The code of ``table_name`` (-1 when none of its attributes has an id)."""
        return self._code_of.get(table_name, -1)

    def tables(self) -> np.ndarray:
        """The ``int32`` table code of every id (cached until an id is added)."""
        if self._tables.shape[0] != len(self._table_of):
            self._tables = np.asarray(self._table_of, dtype=np.int32)
        return self._tables


class Candidates(NamedTuple):
    """One lookup's answer: attribute ids in ``(distance, ref)`` order, and
    their distances (``float64``)."""

    ids: np.ndarray
    distances: np.ndarray


class SignatureMatrix:
    """Per-evidence signature matrix with an id↔row registry.

    All signatures of one index live in a single ``(N, width)`` array so
    that the distances between a query signature and any subset of stored
    attributes are one vectorized agreement count (MinHash: ``uint32``
    values) or XOR popcount (random projection: bits packed 8 to a byte)
    instead of N pairwise calls.  A parallel boolean flag per row marks
    degenerate signatures (empty MinHash / zero-vector projection) whose
    distance is pinned at 1.0.

    Rows belong to ids of ``ids`` (a registry of its own unless the caller
    shares one); :meth:`rows` maps ids to rows in one gather.  Rows are
    stable between removals; a removal swaps the last row into the vacated
    slot and updates the registry, so the dense block stays packed.
    """

    def __init__(self, width: int, dtype: np.dtype, ids: Optional[ItemIds] = None) -> None:
        self.width = width
        self._dtype = np.dtype(dtype)
        self._ids = ItemIds() if ids is None else ids
        self._matrix = np.empty((0, width), dtype=self._dtype)
        self._flags = np.empty(0, dtype=bool)
        #: The id of each row.
        self._items: List[int] = []
        #: The row of each id (-1: not stored; ids past its end have none).
        self._row_of = _NO_IDS

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, ref: AttributeRef) -> bool:
        return self.row(ref) is not None

    def row(self, ref: AttributeRef) -> Optional[int]:
        """Current row of ``ref`` (None when not stored)."""
        item = self._ids.find(ref)
        if item is None or item >= self._row_of.shape[0] or self._row_of[item] < 0:
            return None
        return int(self._row_of[item])

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The row of each id (-1 where the id has no row here)."""
        if self._row_of.shape[0] >= len(self._ids):
            return self._row_of[ids]
        rows = np.full(ids.shape[0], -1, dtype=np.int32)
        inside = ids < self._row_of.shape[0]
        rows[inside] = self._row_of[ids[inside]]
        return rows

    def _place(self, items: Sequence[int], first_row: int) -> None:
        """Record ``items`` at consecutive rows from ``first_row``."""
        if len(self._ids) > self._row_of.shape[0]:
            grown = np.full(max(len(self._ids), 2 * self._row_of.shape[0]), -1, dtype=np.int32)
            grown[: self._row_of.shape[0]] = self._row_of
            self._row_of = grown
        self._row_of[list(items)] = np.arange(first_row, first_row + len(items), dtype=np.int32)

    def _ensure_writable(self) -> None:
        """Copy-on-write guard for mutating a matrix adopted as shared views.

        A worker-side index attached through
        :class:`~repro.core.shared.SharedIndexSnapshot` holds read-only views
        over the host's segment; the first delta mutation promotes them to a
        private copy so the shared base stays untouched (and other attached
        workers unaffected).
        """
        if not self._matrix.flags.writeable:
            self._matrix = self._matrix.copy()
        if not self._flags.flags.writeable:
            self._flags = self._flags.copy()

    def add(self, ref: AttributeRef, values: np.ndarray, degenerate: bool) -> None:
        """Insert (or overwrite) the signature row of ``ref``."""
        self.add_batch([ref], np.asarray(values)[np.newaxis], np.asarray([degenerate]))

    def add_batch(
        self, refs: Sequence[AttributeRef], values: np.ndarray, degenerate: np.ndarray
    ) -> None:
        """Insert many signature rows with one capacity grow and one copy.

        Equivalent to calling :meth:`add` once per ref in order (including
        the overwrite semantics for refs already stored), but appends all the
        genuinely new rows as a single block.
        """
        items = [self._ids.assign(ref) for ref in refs]
        values = np.asarray(values)
        degenerate = np.asarray(degenerate, dtype=bool)
        self._ensure_writable()
        existing = self.rows(np.asarray(items, dtype=np.int64))
        fresh_positions: List[int] = []
        fresh_of: Dict[int, int] = {}
        for position, (item, row) in enumerate(zip(items, existing.tolist())):
            if row >= 0:
                self._matrix[row] = values[position]
                self._flags[row] = degenerate[position]
            elif item in fresh_of:
                # Duplicate within the batch: later occurrence overwrites.
                fresh_positions[fresh_of[item]] = position
            else:
                fresh_of[item] = len(fresh_positions)
                fresh_positions.append(position)
        if not fresh_positions:
            return
        count = len(self._items)
        needed = count + len(fresh_positions)
        if needed > self._matrix.shape[0]:
            capacity = max(8, 2 * count, needed)
            matrix = np.empty((capacity, self.width), dtype=self._dtype)
            matrix[:count] = self._matrix[:count]
            self._matrix = matrix
            flags = np.empty(capacity, dtype=bool)
            flags[:count] = self._flags[:count]
            self._flags = flags
        fresh = np.asarray(fresh_positions, dtype=np.intp)
        self._matrix[count:needed] = values[fresh]
        self._flags[count:needed] = degenerate[fresh]
        self._items.extend(items[position] for position in fresh_positions)
        self._place(self._items[count:], count)

    def discard(self, ref: AttributeRef) -> None:
        """Remove the row of ``ref`` (no-op when absent), keeping rows packed."""
        row = self.row(ref)
        if row is None:
            return
        self._ensure_writable()
        self._row_of[self._items[row]] = -1
        last = len(self._items) - 1
        if row != last:
            self._matrix[row] = self._matrix[last]
            self._flags[row] = self._flags[last]
            self._items[row] = self._items[last]
            self._row_of[self._items[row]] = row
        self._items.pop()

    def discard_batch(self, refs: Sequence[AttributeRef]) -> int:
        """Remove many rows in one stable compaction; returns rows dropped.

        Equivalent to calling :meth:`discard` once per ref except for the
        physical row order of the survivors: the sequential path swap-packs
        (order depends on removal order), this path compacts stably (order
        is the surviving subsequence).  No consumer observes the
        difference — lookups go through the id→row registry and tie order
        through the id ranks, both row-order independent — and the batched
        path costs one fancy-index copy instead of up to ``len(refs)``
        per-row swap chains.
        """
        dropped = sorted({row for row in map(self.row, refs) if row is not None})
        if not dropped:
            return 0
        self._ensure_writable()
        count = len(self._items)
        keep = np.ones(count, dtype=bool)
        keep[dropped] = False
        keep_rows = np.flatnonzero(keep)
        # Fancy indexing copies, so writing the compacted block back into
        # the prefix of the live arrays cannot alias itself.
        self._matrix[: keep_rows.size] = self._matrix[:count][keep_rows]
        self._flags[: keep_rows.size] = self._flags[:count][keep_rows]
        self._row_of[[self._items[row] for row in dropped]] = -1
        self._items = [self._items[row] for row in keep_rows.tolist()]
        self._place(self._items, 0)
        return len(dropped)

    def gather(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Signature rows and degeneracy flags for ``rows``."""
        return self._matrix[rows], self._flags[rows]

    def compact(self) -> None:
        """Trim the backing arrays to exactly the populated rows.

        Rows, the registry, and all distances are unchanged; only the spare
        growth capacity is released — useful for long-lived engines after
        bulk removals.  (Persistence does not need it: ``export_state``
        slices exactly the populated rows.)
        """
        count = len(self._items)
        if self._matrix.shape[0] != count:
            self._matrix = np.ascontiguousarray(self._matrix[:count])
            self._flags = np.ascontiguousarray(self._flags[:count])

    @property
    def refs(self) -> List[AttributeRef]:
        """Stored refs in row order (row ``i`` belongs to ``refs[i]``)."""
        items = self._ids.items
        return [items[item] for item in self._items]

    def export_state(
        self, copy: bool = True
    ) -> Tuple[List[AttributeRef], np.ndarray, np.ndarray]:
        """``(refs, matrix, flags)`` covering exactly the populated rows.

        ``copy=False`` returns trimmed *views* of the live arrays instead of
        copies — for callers that only read them once into another buffer
        (the shared-memory snapshot writer); the views must not be mutated.
        """
        count = len(self._items)
        matrix, flags = self._matrix[:count], self._flags[:count]
        if copy:
            matrix, flags = matrix.copy(), flags.copy()
        return self.refs, matrix, flags

    def import_state(
        self, refs: Sequence[AttributeRef], matrix: np.ndarray, flags: np.ndarray
    ) -> None:
        """Restore a state produced by :meth:`export_state` (replaces contents).

        Arrays that are already contiguous with the right dtype — including
        read-only views over a shared-memory segment — are adopted as-is
        (no copy); the matrix then stays a view for the lifetime of the
        restored object, which is what makes worker-side attaches zero-copy.
        Each ref gets its registry id.
        """
        matrix = np.ascontiguousarray(matrix, dtype=self._dtype)
        flags = np.ascontiguousarray(flags, dtype=bool)
        refs = list(refs)
        if matrix.shape != (len(refs), self.width) or flags.shape != (len(refs),):
            raise ValueError(
                f"inconsistent signature-matrix state: {len(refs)} refs, "
                f"matrix {matrix.shape}, flags {flags.shape}"
            )
        self._matrix = matrix
        self._flags = flags
        self._items = [self._ids.assign(ref) for ref in refs]
        self._row_of = np.full(len(self._ids), -1, dtype=np.int32)
        self._place(self._items, 0)

    def estimated_bytes(self) -> int:
        """Footprint of the populated rows plus the registry references."""
        count = len(self._items)
        row_bytes = self.width * self._dtype.itemsize
        return int(count * (row_bytes + 1 + 8))


class D3LIndexes:
    """Attribute profiles plus the four LSH indexes over a data lake."""

    def __init__(
        self,
        config: Optional[D3LConfig] = None,
        embedding_model: Optional[WordEmbeddingModel] = None,
        subject_classifier: Optional[SubjectAttributeClassifier] = None,
    ) -> None:
        self.config = config or D3LConfig()
        self.embedding_model = embedding_model or HashingSubwordEmbedding(
            dimension=self.config.embedding_dimension, seed=self.config.seed
        )
        self.subject_classifier = subject_classifier

        cfg = self.config
        #: One id per lake attribute, shared by every forest and matrix.
        self.ids = AttributeIds()
        self._minhash_factory = MinHashFactory(num_perm=cfg.num_hashes, seed=cfg.seed)
        self._projection_factory = RandomProjectionFactory(
            num_bits=cfg.num_hashes, seed=cfg.seed + 1
        )
        self._forests: Dict[EvidenceType, LSHForest] = {
            evidence: LSHForest(
                num_hashes=cfg.num_hashes,
                num_trees=cfg.num_trees,
                seed=cfg.seed + 2 + i,
                ids=self.ids,
            )
            for i, evidence in enumerate(EvidenceType.indexed())
        }
        #: One matrix row per indexed attribute and evidence type: the only
        #: copy of its signature besides the forest's tree rows.
        self._matrices: Dict[EvidenceType, SignatureMatrix] = {
            evidence: SignatureMatrix(cfg.num_hashes, np.dtype(np.uint32), ids=self.ids)
            for evidence in (EvidenceType.NAME, EvidenceType.VALUE, EvidenceType.FORMAT)
        }
        self._matrices[EvidenceType.EMBEDDING] = SignatureMatrix(
            (cfg.num_hashes + 7) // 8, np.dtype(np.uint8), ids=self.ids
        )
        self.profiles: Dict[AttributeRef, AttributeProfile] = {}
        self.table_profiles: Dict[str, TableProfile] = {}
        #: The live profile of each attribute id (None once removed).
        self._profile_of: List[Optional[AttributeProfile]] = []
        #: Monotonic mutation counter: bumped on every insert/removal so
        #: serving-tier caches (session profile caches, worker pools) can
        #: detect that a snapshot of this object has gone stale.
        self.version: int = 0
        #: Trailing mutation journal: ``(version after the bump, table name)``
        #: for the last ``_MUTATION_LOG_LIMIT`` mutations.  Lets delta-aware
        #: consumers (session caches, worker pools, the join-graph overlap
        #: cache) invalidate per table via :meth:`mutated_tables_since`
        #: instead of wholesale on every version bump.
        self._mutation_log: List[Tuple[int, str]] = []
        #: Oldest base version the journal answers from: every mutation
        #: after it is journaled.
        self._journal_floor: int = 0

    # ------------------------------------------------------------------ #
    # profiling
    # ------------------------------------------------------------------ #
    def profile_table(self, table: Table) -> TableProfile:
        """Profile every attribute of ``table`` (without inserting anything)."""
        attributes = {
            column.name: AttributeProfile.build(
                table.name, column, self.embedding_model, self.config
            )
            for column in table.columns
        }
        if self.subject_classifier is not None:
            subject = self.subject_classifier.identify(table)
        else:
            subject = heuristic_subject_attribute(table)
        return TableProfile(
            table_name=table.name,
            attributes=attributes,
            subject_attribute=subject,
            arity=table.arity,
            cardinality=table.cardinality,
        )

    def signatures_for(self, profile: AttributeProfile) -> Dict[EvidenceType, Optional[Signature]]:
        """Compute the per-evidence signatures of a (possibly external) profile.

        Evidence types without usable features (empty set representation,
        zero embedding) map to None so callers skip the corresponding index.
        """
        signatures: Dict[EvidenceType, Optional[Signature]] = {}
        for evidence in (EvidenceType.NAME, EvidenceType.VALUE, EvidenceType.FORMAT):
            tokens = profile.set_representation(evidence)
            signatures[evidence] = self._minhash_factory.from_tokens(tokens) if tokens else None
        if profile.has_embedding():
            signatures[EvidenceType.EMBEDDING] = self._projection_factory.from_vector(
                profile.embedding
            )
        else:
            signatures[EvidenceType.EMBEDDING] = None
        return signatures

    def signature_of(
        self, evidence: EvidenceType, profile: AttributeProfile
    ) -> Optional[Signature]:
        """The signature of one evidence type only (None without features).

        Cheaper than :meth:`signatures_for` when the caller needs a single
        index — e.g. the SA-join graph build signing a subject attribute
        whose stored value signature is missing.
        """
        if evidence is EvidenceType.EMBEDDING:
            if not profile.has_embedding():
                return None
            return self._projection_factory.from_vector(profile.embedding)
        tokens = profile.set_representation(evidence)
        return self._minhash_factory.from_tokens(tokens) if tokens else None

    def batch_signatures(
        self, table_profiles: Sequence[TableProfile]
    ) -> Dict[str, Dict[str, Dict[EvidenceType, Optional[Signature]]]]:
        """Per-attribute signatures of many tables, computed in batched passes.

        One :meth:`MinHashFactory.from_tokens_batch` call per set-backed
        evidence type and one :meth:`RandomProjectionFactory.from_vectors`
        call cover every attribute of every table, so the batch pays for each
        *distinct* token hash once across the whole group instead of once per
        attribute.  The wider the batch, the more vocabulary sharing the
        MinHash kernel can exploit — ``add_lake`` batches the entire lake and
        shard workers batch their whole shard.  Values are bit-identical to
        per-attribute :meth:`signatures_for`.

        Returns ``{table name: {attribute name: {evidence: signature}}}``.
        """
        keys: List[Tuple[str, str]] = []
        profiles: List[AttributeProfile] = []
        signatures: Dict[str, Dict[str, Dict[EvidenceType, Optional[Signature]]]] = {}
        for table_profile in table_profiles:
            per_table: Dict[str, Dict[EvidenceType, Optional[Signature]]] = {}
            signatures[table_profile.table_name] = per_table
            for name, profile in table_profile.attributes.items():
                per_table[name] = dict.fromkeys(EvidenceType.indexed())
                keys.append((table_profile.table_name, name))
                profiles.append(profile)
        for evidence in (EvidenceType.NAME, EvidenceType.VALUE, EvidenceType.FORMAT):
            token_sets = [profile.set_representation(evidence) for profile in profiles]
            populated = [index for index, tokens in enumerate(token_sets) if tokens]
            batch = self._minhash_factory.from_tokens_batch(
                [token_sets[index] for index in populated]
            )
            for position, index in enumerate(populated):
                table_name, name = keys[index]
                signatures[table_name][name][evidence] = batch[position]
        embedded = [index for index, profile in enumerate(profiles) if profile.has_embedding()]
        projections = self._projection_factory.from_vectors(
            [profiles[index].embedding for index in embedded]
        )
        for position, index in enumerate(embedded):
            table_name, name = keys[index]
            signatures[table_name][name][EvidenceType.EMBEDDING] = projections[position]
        return signatures

    def table_signatures(
        self, table_profile: TableProfile
    ) -> Dict[str, Dict[EvidenceType, Optional[Signature]]]:
        """Per-attribute signatures of one table (a one-table batch)."""
        return self.batch_signatures([table_profile])[table_profile.table_name]

    # ------------------------------------------------------------------ #
    # index construction (Algorithm 1)
    # ------------------------------------------------------------------ #
    def add_table(self, table: Table) -> TableProfile:
        """Profile ``table`` and insert its attributes into the four indexes."""
        table_profile = self.profile_table(table)
        self.add_profiled_table(table_profile)
        return table_profile

    def add_profiled_table(
        self,
        table_profile: TableProfile,
        signatures_by_attribute: Optional[Dict[str, Dict[EvidenceType, Optional[Signature]]]] = None,
    ) -> None:
        """Insert an already profiled table into the four indexes.

        ``signatures_by_attribute`` (as produced by :meth:`table_signatures`)
        lets callers that computed signatures elsewhere — notably the shard
        workers of :class:`~repro.core.parallel.ParallelIndexBuilder` — feed
        them straight into the buffered forest inserts and one batched
        signature-matrix append per evidence type.
        """
        if signatures_by_attribute is None:
            signatures_by_attribute = self.table_signatures(table_profile)
        previous = self.table_profiles.get(table_profile.table_name)
        if previous is not None:
            # Re-indexing is replace semantics (matching DataLake.add_table):
            # drop every entry of the previous profile first, so attributes
            # that no longer exist don't linger as ghost candidates in the
            # forests and signature matrices.
            self._discard_table_entries(previous)
        self.table_profiles[table_profile.table_name] = table_profile
        for profile in table_profile.attributes.values():
            self._set_profile(profile)
        for evidence in EvidenceType.indexed():
            refs: List[AttributeRef] = []
            raws: List[np.ndarray] = []
            flags: List[bool] = []
            forest = self._forests[evidence]
            for name, profile in table_profile.attributes.items():
                signature = signatures_by_attribute[name][evidence]
                if signature is None:
                    continue
                raw = _raw(signature)
                forest.insert(profile.ref, raw)
                refs.append(profile.ref)
                raws.append(raw)
                flags.append(_is_degenerate(signature))
            if refs:
                rows = np.vstack(raws)
                if evidence is EvidenceType.EMBEDDING:
                    rows = np.packbits(rows, axis=1)
                self._matrices[evidence].add_batch(refs, rows, np.asarray(flags, dtype=bool))
        self.version += 1
        self._log_mutation(table_profile.table_name)

    def add_lake(
        self,
        lake: DataLake,
        workers: Optional[int] = None,
        backend: str = "process",
    ) -> None:
        """Index every table of ``lake``, in sorted table-name order.

        The sorted order makes index construction independent of lake
        insertion order, so serial and sharded builds (``workers > 1``, via
        :class:`~repro.core.parallel.ParallelIndexBuilder`, over any
        ``backend`` from :data:`~repro.core.execution.BACKENDS`) produce
        identical index contents.
        """
        if workers is not None and workers > 1:
            from repro.core.parallel import ParallelIndexBuilder

            ParallelIndexBuilder(self, workers=workers, backend=backend).build(lake)
            return
        table_profiles = [
            self.profile_table(lake.table(name)) for name in sorted(lake.table_names)
        ]
        signatures = self.batch_signatures(table_profiles)
        for table_profile in table_profiles:
            self.add_profiled_table(table_profile, signatures[table_profile.table_name])

    def remove_table(self, table_name: str) -> bool:
        """Remove a table's attributes from every index (incremental maintenance).

        Data lakes change over time (the paper cites Goods' rapidly changing
        datasets as a motivating setting); removal plus re-insertion keeps
        the indexes consistent without rebuilding them from scratch.
        Returns True when the table was indexed, False otherwise.
        """
        table_profile = self.table_profiles.pop(table_name, None)
        if table_profile is None:
            return False
        self._discard_table_entries(table_profile)
        self.version += 1
        self._log_mutation(table_name)
        return True

    def remove_tables(self, table_names: Sequence[str]) -> int:
        """Remove many tables in one batched pass; returns how many were indexed.

        Equivalent to calling :meth:`remove_table` per name (same registry
        state, same per-table version bumps and journal entries, same query
        answers) but collects every doomed ref first and then discards per
        evidence type with one forest tombstone pass
        (:meth:`~repro.lsh.lsh_forest.LSHForest.remove_batch`) and one
        stable matrix compaction (:meth:`SignatureMatrix.discard_batch`)
        instead of per-table swap chains — the batched half of the worker
        delta replay path.
        """
        refs: List[AttributeRef] = []
        removed: List[str] = []
        for table_name in table_names:
            table_profile = self.table_profiles.pop(table_name, None)
            if table_profile is None:
                continue
            removed.append(table_name)
            for profile in table_profile.attributes.values():
                self._drop_profile(profile.ref)
                refs.append(profile.ref)
        for evidence in EvidenceType.indexed():
            self._forests[evidence].remove_batch(refs)
            self._matrices[evidence].discard_batch(refs)
        for table_name in removed:
            self.version += 1
            self._log_mutation(table_name)
        return len(removed)

    def _discard_table_entries(self, table_profile: TableProfile) -> None:
        """Drop every per-attribute entry of ``table_profile`` from the indexes.

        Shared by :meth:`remove_table` and the replace path of
        :meth:`add_profiled_table`; touches neither ``table_profiles`` nor
        the version counter.
        """
        for profile in table_profile.attributes.values():
            self._drop_profile(profile.ref)
            for evidence in EvidenceType.indexed():
                self._forests[evidence].remove(profile.ref)
                self._matrices[evidence].discard(profile.ref)

    def _set_profile(self, profile: AttributeProfile) -> None:
        """Record ``profile`` as its attribute's live profile, giving it an id."""
        self.profiles[profile.ref] = profile
        item = self.ids.assign(profile.ref)
        self._profile_of.extend([None] * (item + 1 - len(self._profile_of)))
        self._profile_of[item] = profile

    def _drop_profile(self, ref: AttributeRef) -> None:
        if self.profiles.pop(ref, None) is not None:
            self._profile_of[self.ids.find(ref)] = None

    def adopt_profiles(
        self,
        profiles: Dict[AttributeRef, AttributeProfile],
        table_profiles: Dict[str, TableProfile],
    ) -> None:
        """Take restored profiles as the indexes' own (a load or an attach)."""
        self.profiles, self.table_profiles = profiles, table_profiles
        self._profile_of = []
        for profile in profiles.values():
            self._set_profile(profile)

    def _log_mutation(self, table_name: str) -> None:
        """Journal one mutation under the just-bumped version counter."""
        self._mutation_log.append((self.version, table_name))
        if len(self._mutation_log) > _MUTATION_LOG_LIMIT:
            dropped = len(self._mutation_log) - _MUTATION_LOG_LIMIT
            self._journal_floor = max(self._journal_floor, self._mutation_log[dropped - 1][0])
            del self._mutation_log[:dropped]

    def journal_state(self) -> Tuple[List[Tuple[int, str]], int]:
        """A copy of the mutation journal, for :meth:`rebase_journal`."""
        return list(self._mutation_log), self._journal_floor

    def rebase_journal(
        self, journal: Tuple[List[Tuple[int, str]], int], version: int, tables: Sequence[str]
    ) -> None:
        """Restore ``journal`` and journal ``tables`` as mutated at ``version``.

        For a replica that replayed a net delta up to another index's
        ``version``: the replay bumped the counter once per table under its
        own numbering, so the counter jumps to ``version`` and every replayed
        table is journaled there.  For any base the replica held since
        ``journal`` was taken, that is a superset of what changed, so caches
        keep evicting per table across the jump.
        """
        self._mutation_log, self._journal_floor = journal
        self.version = version
        for table_name in tables:
            self._log_mutation(table_name)

    def mutated_tables_since(self, version: int) -> Optional[set]:
        """Tables mutated after ``version``, or None when not reconstructible.

        Covers the interval ``(version, self.version]`` from the journal.
        Returns an empty set when ``version`` is current, and None when the
        base version is unknown (e.g. a restored engine whose journal was not
        persisted), older than the oldest version the journal covers, or the
        journal is empty — callers must then fall back to full invalidation.
        """
        if version == self.version:
            return set()
        if version > self.version or version < self._journal_floor:
            return None
        if not self._mutation_log:
            return None
        return {name for logged, name in self._mutation_log if logged > version}

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def table_names(self) -> List[str]:
        """Names of all indexed tables."""
        return list(self.table_profiles)

    @property
    def attribute_count(self) -> int:
        """Number of profiled attributes."""
        return len(self.profiles)

    def forest(self, evidence: EvidenceType) -> LSHForest:
        """The LSH Forest backing an indexed evidence type."""
        return self._forests[evidence]

    def signature(self, evidence: EvidenceType, ref: AttributeRef) -> Optional[Signature]:
        """Stored signature of an indexed attribute (None when not indexed),
        rebuilt from a copy of its matrix row."""
        matrix = self._matrices[evidence]
        row = matrix.row(ref)
        if row is None:
            return None
        values, flags = matrix.gather(np.array([row]))
        if evidence is EvidenceType.EMBEDDING:
            return self._projection_factory.from_bits(
                np.unpackbits(values[0], count=self.config.num_hashes), is_zero=bool(flags[0])
            )
        return self._minhash_factory.from_hashvalues(values[0])

    def subject_attribute(self, table_name: str) -> Optional[str]:
        """Subject attribute of an indexed table."""
        table_profile = self.table_profiles.get(table_name)
        return table_profile.subject_attribute if table_profile else None

    # ------------------------------------------------------------------ #
    # lookups and distances
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        evidence: EvidenceType,
        profile: AttributeProfile,
        k: int,
        exclude_table: Optional[str] = None,
        query_signatures: Optional[Dict[EvidenceType, Optional[Signature]]] = None,
        max_distance: Optional[float] = None,
    ) -> List[Tuple[AttributeRef, float]]:
        """Retrieve up to ``k`` related attributes with their estimated distances.

        Results are sorted by ascending distance.  Attributes of
        ``exclude_table`` (normally the target itself, when it is a lake
        member) are filtered out.  ``max_distance`` restricts the result to
        candidates at least as similar as the LSH threshold demands — the
        strict reading of ``a' ∈ I.lookup(a)`` used by the Algorithm 2 guards
        and the join-graph construction.
        """
        if not evidence.is_indexed:
            raise ValueError("distribution evidence has no LSH index to look up")
        signatures = query_signatures or self.signatures_for(profile)
        signature = signatures[evidence]
        if signature is None:
            return []
        candidates = self._forests[evidence].query(_raw(signature), k)
        if exclude_table is not None:
            candidates = [ref for ref in candidates if ref.table != exclude_table]
        positions, rows = self._resolve(evidence, candidates)
        if not rows.size:
            return []
        refs = [candidates[position] for position in positions.tolist()]
        distances = self._batch_signature_distances(evidence, signature, rows)
        results = list(zip(refs, distances.tolist()))
        if max_distance is not None:
            results = [pair for pair in results if pair[1] <= max_distance]
        results.sort(key=lambda pair: (pair[1], pair[0]))
        return results[:k]

    def threshold_distance(self) -> float:
        """The distance corresponding to the configured LSH similarity threshold."""
        return 1.0 - self.config.lsh_threshold

    def attribute_distance(
        self,
        evidence: EvidenceType,
        profile: AttributeProfile,
        ref: AttributeRef,
        query_signatures: Optional[Dict[EvidenceType, Optional[Signature]]] = None,
    ) -> float:
        """Estimated distance of one evidence type between a profile and an
        indexed attribute (1.0 when either side lacks that evidence)."""
        if evidence is EvidenceType.DISTRIBUTION:
            other = self.profiles.get(ref)
            if other is None or not profile.is_numeric or not other.is_numeric:
                return 1.0
            return ks_statistic_sorted(profile.numeric_sorted, other.numeric_sorted)
        signatures = query_signatures or self.signatures_for(profile)
        signature = signatures[evidence]
        stored = self.signature(evidence, ref)
        if signature is None or stored is None:
            return 1.0
        return _signature_distance(signature, stored)

    def batch_attribute_distances(
        self,
        evidence: EvidenceType,
        profile: AttributeProfile,
        refs: Sequence[AttributeRef],
        query_signatures: Optional[Dict[EvidenceType, Optional[Signature]]] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`attribute_distance` over many stored attributes.

        Returns one distance per entry of ``refs`` (1.0 for refs that lack
        the evidence), computed with a single matrix operation for the
        signature-backed types.  Values are identical to the scalar path.
        """
        refs = list(refs)
        distances = np.ones(len(refs), dtype=np.float64)
        if not refs:
            return distances
        if evidence is EvidenceType.DISTRIBUTION:
            if not profile.is_numeric:
                return distances
            query_sorted = profile.numeric_sorted
            for position, ref in enumerate(refs):
                other = self.profiles.get(ref)
                if other is None or not other.is_numeric:
                    continue
                distances[position] = ks_statistic_sorted(query_sorted, other.numeric_sorted)
            return distances
        signatures = query_signatures or self.signatures_for(profile)
        signature = signatures[evidence]
        if signature is None:
            return distances
        positions, rows = self._resolve(evidence, refs)
        if rows.size:
            distances[positions] = self._batch_signature_distances(evidence, signature, rows)
        return distances

    def _resolve(
        self, evidence: EvidenceType, refs: Sequence[AttributeRef]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(positions, rows)`` of the refs stored in ``evidence``'s matrix."""
        rows = [self._matrices[evidence].row(ref) for ref in refs]
        positions = [position for position, row in enumerate(rows) if row is not None]
        return (
            np.asarray(positions, dtype=np.intp),
            np.asarray([rows[position] for position in positions], dtype=np.intp),
        )

    def multi_lookup(
        self,
        evidence: EvidenceType,
        signatures: Sequence[Optional[Signature]],
        k: int,
        exclude_table: Optional[str] = None,
        max_distance: Optional[float] = None,
        exclude_tables: Optional[Sequence[Optional[str]]] = None,
        walks: bool = False,
    ) -> List[Candidates]:
        """:meth:`lookup` for many query signatures of one evidence type, on ids.

        One batched forest descent
        (:meth:`~repro.lsh.lsh_forest.LSHForest.multi_query`) returns,
        for every signature, exactly the candidates — in the same order —
        that a one-signature descent returns; exclusion and the matrix rows
        of every query's candidates are resolved in one pass, each query's
        candidates are scored with one kernel call, and all queries'
        candidates are ranked by one ``lexsort`` — the multi-query batching
        the batched query engine runs on.  Entry ``i`` is a
        :class:`Candidates` whose ids (in :attr:`ids`) are, in order, the
        attributes of ``lookup(evidence, ..., query_signatures={...})`` for
        signature ``i``, with the same distances; ``None`` signatures yield
        empty answers.

        ``exclude_tables`` gives each query its own exclusion (entry ``i``
        applies to signature ``i``), which is how the SA-join graph build
        batches one probe per lake table while every probe still excludes
        its own table; it overrides ``exclude_table`` when provided.

        ``walks=True`` returns ``(answers, walks)``: each query's forest
        :class:`~repro.lsh.lsh_forest.Walk` too, taken before exclusion, so
        the SA-join graph can keep its probes' candidate pools.
        """
        if not evidence.is_indexed:
            raise ValueError("distribution evidence has no LSH index to look up")
        if exclude_tables is not None and len(exclude_tables) != len(signatures):
            raise ValueError("exclude_tables must align with signatures")
        # One batched descent for every query; entry i is exactly what
        # forest.query(signature i, k) returns, so the candidates re-ranked
        # below by (distance, ref rank) are lookup()'s candidates.
        found = self._forests[evidence].multi_query(
            [None if signature is None else _raw(signature) for signature in signatures],
            k,
            walks=walks,
        )
        walk_list: List[Walk] = found if walks else []
        per_query = [walk.ids[:k] for walk in walk_list] if walks else found
        counts = [len(ids) for ids in per_query]
        ids = np.concatenate(per_query) if per_query else _NO_IDS
        query_of = np.repeat(np.arange(len(per_query)), counts)
        excluded = (
            [exclude_table] * len(signatures) if exclude_tables is None else exclude_tables
        )
        if any(name is not None for name in excluded):
            codes = np.asarray([self.ids.table_code(name) for name in excluded], dtype=np.int32)
            kept = self.ids.tables()[ids] != codes[query_of]
            ids, query_of = ids[kept], query_of[kept]
        rows = self._matrices[evidence].rows(ids)
        if (rows < 0).any():
            stored = rows >= 0
            ids, query_of, rows = ids[stored], query_of[stored], rows[stored]
        distances = self._pairwise_signature_distances(evidence, signatures, query_of, rows)
        if max_distance is not None:
            close = distances <= max_distance
            ids, query_of, distances = ids[close], query_of[close], distances[close]
        # (query, distance, ref rank) == per query (distance, ref): the scalar
        # tie order, without per-pair Python comparisons.
        order = np.lexsort((self.ids.ranks()[ids], distances, query_of))
        ids, distances = ids[order], distances[order]
        bounds = np.searchsorted(query_of[order], np.arange(len(signatures) + 1)).tolist()
        results = [
            Candidates(ids[start : min(end, start + k)], distances[start : min(end, start + k)])
            for start, end in zip(bounds, bounds[1:])
        ]
        return (results, walk_list) if walks else results

    def walk_keys(
        self, evidence: EvidenceType, signatures: Sequence[Signature]
    ) -> np.ndarray:
        """Forest tree keys of query signatures, for
        :meth:`~repro.lsh.lsh_forest.LSHForest.walk_steps`."""
        return self._forests[evidence].walk_keys([_raw(signature) for signature in signatures])

    def multi_batch_attribute_distances(
        self,
        evidence: EvidenceType,
        profiles: Sequence[AttributeProfile],
        ids_per_profile: Sequence[np.ndarray],
        signatures: Optional[Sequence[Optional[Signature]]] = None,
    ) -> List[np.ndarray]:
        """:meth:`batch_attribute_distances` for many query profiles, on ids.

        Signature-backed evidence types resolve every (profile, candidate)
        pair's matrix row in one pass and score each profile's candidates
        with one kernel call; the distribution type runs the Algorithm 2
        KS loop of each profile as one vectorized sweep over the candidates
        sharing its cached sorted extent
        (:func:`~repro.stats.ks.ks_statistic_sorted_many`).  Entry ``i``
        equals ``batch_attribute_distances(evidence, profiles[i], refs)``
        exactly, for the refs of the attribute ids ``ids_per_profile[i]``.
        """
        outputs = [np.ones(len(ids), dtype=np.float64) for ids in ids_per_profile]
        if evidence is EvidenceType.DISTRIBUTION:
            for profile, ids, output in zip(profiles, ids_per_profile, outputs):
                if profile.is_numeric and len(ids):
                    positions, extents = self.numeric_extents(ids)
                    if extents:
                        output[positions] = ks_statistic_sorted_many(
                            profile.numeric_sorted, extents
                        )
            return outputs
        if signatures is None:
            signatures = [self.signatures_for(profile)[evidence] for profile in profiles]
        counts = [
            0 if signature is None else len(ids)
            for signature, ids in zip(signatures, ids_per_profile)
        ]
        if not sum(counts):
            return outputs
        ids = np.concatenate([ids for ids, count in zip(ids_per_profile, counts) if count])
        query_of = np.repeat(np.arange(len(counts)), counts)
        rows = self._matrices[evidence].rows(ids)
        stored = rows >= 0
        distances = np.ones(ids.shape[0], dtype=np.float64)
        distances[stored] = self._pairwise_signature_distances(
            evidence, signatures, query_of[stored], rows[stored]
        )
        bounds = np.cumsum([0] + counts).tolist()
        for index, count in enumerate(counts):
            if count:
                outputs[index] = distances[bounds[index] : bounds[index + 1]]
        return outputs

    def numeric_extents(self, ids: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Positions of the numeric attributes among ``ids``, and their
        cached sorted extents."""
        profile_of = self._profile_of
        positions: List[int] = []
        extents: List[np.ndarray] = []
        for position, item in enumerate(ids.tolist()):
            other = profile_of[item] if item < len(profile_of) else None
            if other is not None and other.is_numeric:
                positions.append(position)
                extents.append(other.numeric_sorted)
        return np.asarray(positions, dtype=np.intp), extents

    def _pairwise_signature_distances(
        self,
        evidence: EvidenceType,
        signatures: Sequence[Optional[Signature]],
        query_of: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Distances of (query signature, matrix row) pairs grouped by query:
        pair ``j`` scores ``signatures[query_of[j]]`` against row ``rows[j]``,
        and ``query_of`` is non-decreasing.

        Each query's pairs are one :meth:`_batch_signature_distances` call,
        the kernel the single-query :meth:`lookup` scores with, comparing
        the stored rows with the one query row instead of with a copy of it
        per pair.
        """
        distances = np.empty(rows.shape[0], dtype=np.float64)
        bounds = np.flatnonzero(np.diff(query_of)) + 1
        for start, end in zip([0, *bounds.tolist()], [*bounds.tolist(), rows.shape[0]]):
            if start < end:
                distances[start:end] = self._batch_signature_distances(
                    evidence, signatures[int(query_of[start])], rows[start:end]
                )
        return distances

    def _batch_signature_distances(
        self, evidence: EvidenceType, signature: Signature, rows: np.ndarray
    ) -> np.ndarray:
        """Distances between one query signature and the given matrix rows."""
        stored, degenerate = self._matrices[evidence].gather(rows)
        if isinstance(signature, MinHash):
            return batch_jaccard_distances(
                signature.hashvalues,
                stored,
                query_empty=signature.is_empty(),
                empty_rows=degenerate,
            )
        if isinstance(signature, RandomProjection):
            return batch_cosine_distances(
                signature.bits,
                stored,
                query_zero=signature.is_zero,
                zero_rows=degenerate,
            )
        raise TypeError(f"unsupported signature type: {type(signature)!r}")

    # ------------------------------------------------------------------ #
    # space accounting (Table II)
    # ------------------------------------------------------------------ #
    def index_bytes(self) -> Dict[str, int]:
        """Approximate per-index memory footprint."""
        sizes = {
            f"I{evidence.value}": self._forests[evidence].estimated_bytes()
            + self._matrices[evidence].estimated_bytes()
            for evidence in EvidenceType.indexed()
        }
        sizes["profiles"] = sum(profile.estimated_bytes() for profile in self.profiles.values())
        return sizes

    def estimated_bytes(self) -> int:
        """Total approximate footprint of indexes plus profiles."""
        return sum(self.index_bytes().values())


def _raw(signature: Signature) -> np.ndarray:
    """The underlying array of a MinHash or RandomProjection signature."""
    if isinstance(signature, MinHash):
        return signature.hashvalues
    if isinstance(signature, RandomProjection):
        return signature.bits
    raise TypeError(f"unsupported signature type: {type(signature)!r}")


def _is_degenerate(signature: Signature) -> bool:
    """True for signatures whose pairwise distance is pinned at 1.0."""
    if isinstance(signature, MinHash):
        return signature.is_empty()
    if isinstance(signature, RandomProjection):
        return signature.is_zero
    raise TypeError(f"unsupported signature type: {type(signature)!r}")


def _signature_distance(first: Signature, second: Signature) -> float:
    """Estimated distance between two signatures of the same kind."""
    if isinstance(first, MinHash) and isinstance(second, MinHash):
        if first.is_empty() or second.is_empty():
            return 1.0
        return first.jaccard_distance(second)
    if isinstance(first, RandomProjection) and isinstance(second, RandomProjection):
        return first.cosine_distance(second)
    raise TypeError("cannot compare signatures of different kinds")
