"""Table Union Search (TUS) baseline — Nargesian, Zhu, Pu, Miller, PVLDB 2018.

TUS measures attribute unionability from instance values only, with three
signals:

* *set unionability* — overlap of the raw value-token sets (MinHash / LSH);
* *semantic unionability* — overlap of the YAGO class annotations of the
  value tokens (here: the synthetic :class:`~repro.baselines.knowledge_base.
  KnowledgeBase`);
* *natural-language unionability* — cosine similarity of embedding vectors
  built from the value tokens.

Per attribute pair the ensemble takes the maximum of the three scores, and
tables are ranked by a max-score aggregation over their aligned attributes —
the behaviour the D3L paper contrasts with its weighted multi-evidence
aggregation.  Numeric attributes are ignored entirely, as the paper notes
("they are completely ignored by TUS").

The original implementation is not public; as in the paper, this is a
re-implementation from the TUS paper's description, sharing the same LSH
substrate (LSH Forest, threshold 0.7, MinHash size 256) as the D3L engine so
that efficiency comparisons reflect algorithmic differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.baselines.base import Alignment, RankedAnswer, RankedTable
from repro.baselines.knowledge_base import KnowledgeBase
from repro.core.config import D3LConfig
from repro.lake.datalake import AttributeRef, DataLake
from repro.lsh.lsh_forest import LSHForest
from repro.lsh.minhash import MinHash, MinHashFactory, exact_jaccard
from repro.lsh.random_projection import (
    RandomProjection,
    RandomProjectionFactory,
    exact_cosine_similarity,
)
from repro.tables.column import Column
from repro.tables.table import Table
from repro.text.embeddings import HashingSubwordEmbedding, WordEmbeddingModel, aggregate_vectors
from repro.text.token_stats import value_token_set


@dataclass
class _TUSAttribute:
    """Per-attribute state stored by the TUS indexer.

    The raw token and class sets (and the embedding vector) are kept so the
    unionability *measures* can be computed exactly once the LSH indexes have
    done their blocking — in TUS "the index is only a blocking mechanism"
    and the actual measures are evaluated on the data, which is where its
    query-time cost comes from.  These raw sets are re-derivable from the
    lake contents and are therefore not counted as index space in Table II.
    """

    ref: AttributeRef
    tokens: frozenset
    classes: frozenset
    embedding: np.ndarray
    set_signature: Optional[MinHash]
    semantic_signature: Optional[MinHash]
    embedding_signature: Optional[RandomProjection]

    @property
    def token_set_size(self) -> int:
        """Number of distinct value tokens."""
        return len(self.tokens)

    @property
    def class_set_size(self) -> int:
        """Number of distinct knowledge-base classes."""
        return len(self.classes)


class TableUnionSearch:
    """The TUS unionability search baseline."""

    def __init__(
        self,
        config: Optional[D3LConfig] = None,
        knowledge_base: Optional[KnowledgeBase] = None,
        embedding_model: Optional[WordEmbeddingModel] = None,
    ) -> None:
        self.config = config or D3LConfig()
        self.knowledge_base = knowledge_base or KnowledgeBase()
        self.embedding_model = embedding_model or HashingSubwordEmbedding(
            dimension=self.config.embedding_dimension, seed=self.config.seed
        )
        cfg = self.config
        self._minhash_factory = MinHashFactory(num_perm=cfg.num_hashes, seed=cfg.seed + 100)
        self._projection_factory = RandomProjectionFactory(
            num_bits=cfg.num_hashes, seed=cfg.seed + 101
        )
        self._set_forest = LSHForest(cfg.num_hashes, cfg.num_trees, seed=cfg.seed + 102)
        self._semantic_forest = LSHForest(cfg.num_hashes, cfg.num_trees, seed=cfg.seed + 103)
        self._embedding_forest = LSHForest(cfg.num_hashes, cfg.num_trees, seed=cfg.seed + 104)
        self._attributes: Dict[AttributeRef, _TUSAttribute] = {}
        self._table_names: List[str] = []

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _profile_column(self, table_name: str, column: Column) -> Optional[_TUSAttribute]:
        """Profile one attribute; numeric attributes are not indexed."""
        if column.is_numeric:
            return None
        ref = AttributeRef(table_name, column.name)
        values = column.non_missing
        tokens = value_token_set(values)
        if not tokens:
            return None

        set_signature = self._minhash_factory.from_tokens(tokens)

        # Semantic evidence: one knowledge-base lookup per value (per token),
        # the cost the D3L paper identifies as TUS's bottleneck.
        classes = self.knowledge_base.annotate_extent(values)
        semantic_signature = (
            self._minhash_factory.from_tokens(classes) if classes else None
        )

        vectors = self.embedding_model.vectors(sorted(tokens))
        embedding = aggregate_vectors(vectors, self.embedding_model.dimension)
        embedding_signature = (
            self._projection_factory.from_vector(embedding) if np.any(embedding) else None
        )

        return _TUSAttribute(
            ref=ref,
            tokens=frozenset(tokens),
            classes=frozenset(classes),
            embedding=embedding,
            set_signature=set_signature,
            semantic_signature=semantic_signature,
            embedding_signature=embedding_signature,
        )

    def index_table(self, table: Table) -> None:
        """Profile and index every textual attribute of ``table``."""
        self._table_names.append(table.name)
        for column in table.columns:
            profile = self._profile_column(table.name, column)
            if profile is None:
                continue
            self._attributes[profile.ref] = profile
            if profile.set_signature is not None:
                self._set_forest.insert(profile.ref, profile.set_signature.hashvalues)
            if profile.semantic_signature is not None:
                self._semantic_forest.insert(profile.ref, profile.semantic_signature.hashvalues)
            if profile.embedding_signature is not None:
                self._embedding_forest.insert(profile.ref, profile.embedding_signature.bits)

    def index_lake(self, lake: DataLake) -> None:
        """Index every table of ``lake``."""
        for table in lake:
            self.index_table(table)

    @property
    def attribute_count(self) -> int:
        """Number of indexed attributes."""
        return len(self._attributes)

    def estimated_bytes(self) -> int:
        """Approximate footprint of the three indexes (Table II accounting)."""
        return (
            self._set_forest.estimated_bytes()
            + self._semantic_forest.estimated_bytes()
            + self._embedding_forest.estimated_bytes()
        )

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def _attribute_unionability(
        self, query: _TUSAttribute, candidate: _TUSAttribute
    ) -> float:
        """Ensemble unionability of an attribute pair: max of the three measures.

        The measures are computed exactly on the stored token sets, class
        sets and embedding vectors (the LSH forests only block candidates),
        mirroring the original system's query-time behaviour and cost.
        """
        scores = [0.0]
        if query.tokens and candidate.tokens:
            scores.append(exact_jaccard(query.tokens, candidate.tokens))
        if query.classes and candidate.classes:
            scores.append(exact_jaccard(query.classes, candidate.classes))
        if np.any(query.embedding) and np.any(candidate.embedding):
            similarity = exact_cosine_similarity(query.embedding, candidate.embedding)
            scores.append(min(1.0, max(0.0, similarity)))
        return max(scores)

    def query(self, target: Table, k: int, exclude_self: bool = True) -> RankedAnswer:
        """Rank lake tables by unionability with ``target``.

        Candidate attributes are retrieved from the three LSH forests; every
        candidate pair is then scored with the full ensemble (the paper notes
        that in TUS "the index is only a blocking mechanism" with significant
        post-lookup computation).  Tables are ranked by the maximum
        unionability score over their aligned attributes.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        exclude_table = target.name if exclude_self else None
        pool = self.config.candidate_pool_size(k)

        table_scores: Dict[str, float] = {}
        table_alignments: Dict[str, Dict[str, Alignment]] = {}

        for column in target.columns:
            query_profile = self._profile_column(target.name, column)
            if query_profile is None:
                continue
            candidates: Set[AttributeRef] = set()
            if query_profile.set_signature is not None:
                candidates.update(
                    self._set_forest.query(query_profile.set_signature.hashvalues, pool)
                )
            if query_profile.semantic_signature is not None:
                candidates.update(
                    self._semantic_forest.query(
                        query_profile.semantic_signature.hashvalues, pool
                    )
                )
            if query_profile.embedding_signature is not None:
                candidates.update(
                    self._embedding_forest.query(query_profile.embedding_signature.bits, pool)
                )

            for ref in candidates:
                if exclude_table is not None and ref.table == exclude_table:
                    continue
                candidate = self._attributes.get(ref)
                if candidate is None:
                    continue
                score = self._attribute_unionability(query_profile, candidate)
                if score <= 0.0:
                    continue
                alignment = Alignment(
                    target_attribute=column.name, source=ref, score=score
                )
                alignments = table_alignments.setdefault(ref.table, {})
                existing = alignments.get(column.name)
                if existing is None or existing.score < score:
                    alignments[column.name] = alignment
                table_scores[ref.table] = max(table_scores.get(ref.table, 0.0), score)

        results = [
            RankedTable(
                table_name=table_name,
                score=score,
                alignments=list(table_alignments.get(table_name, {}).values()),
            )
            for table_name, score in table_scores.items()
        ]
        results.sort(key=lambda result: (-result.score, result.table_name))
        return RankedAnswer(target_name=target.name, requested_k=k, results=results)
