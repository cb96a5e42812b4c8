"""Attribute and table profiles (the feature extraction of Algorithm 1).

An :class:`AttributeProfile` holds the set representations and vectors the
indexes are built from:

* the q-gram set of the attribute name (N);
* the informative-token set of the extent (V);
* the format-string set of the extent (F);
* the aggregated word-embedding vector of the frequent tokens (E);
* the numeric extent, for the KS statistic (D).

A :class:`TableProfile` groups the attribute profiles of one table and
records its subject attribute (section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.config import D3LConfig
from repro.core.evidence import EvidenceType
from repro.lake.datalake import AttributeRef
from repro.tables.column import Column
from repro.text.embeddings import WordEmbeddingModel, aggregate_vectors
from repro.text.qgrams import name_qgrams
from repro.text.regex_format import format_set
from repro.text.token_stats import informative_and_frequent_tokens


#: Maximum number of distinct values kept in an attribute's value sample.
VALUE_SAMPLE_LIMIT = 512


def sample_overlap(left: Set[str], right: Set[str]) -> float:
    """Overlap coefficient ``|A ∩ B| / min(|A|, |B|)`` of two value samples.

    The single definition of the section IV SA-joinability metric: both
    :meth:`AttributeProfile.value_overlap` and the sharded join-graph
    verification (:func:`~repro.core.parallel.verify_value_overlaps`) funnel
    through it, so the sequential oracle and the worker shards can never
    disagree on the formula.
    """
    if not left or not right:
        return 0.0
    return len(left & right) / min(len(left), len(right))


@dataclass
class AttributeProfile:
    """The extracted features of one attribute."""

    ref: AttributeRef
    is_numeric: bool
    qgrams: Set[str]
    tokens: Set[str]
    formats: Set[str]
    embedding: np.ndarray
    numeric_values: List[float]
    cardinality: int
    distinct_count: int
    value_sample: Set[str] = field(default_factory=set)
    _numeric_sorted: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def numeric_sorted(self) -> np.ndarray:
        """Sorted finite numeric extent, cached for the KS fast path.

        One sort per attribute replaces one sort per candidate pair in
        Algorithm 2 (``ks_statistic_sorted`` consumes this directly).
        """
        if self._numeric_sorted is None:
            values = np.asarray(self.numeric_values, dtype=np.float64)
            values = values[np.isfinite(values)]
            values.sort()
            self._numeric_sorted = values
        return self._numeric_sorted

    @classmethod
    def build(
        cls,
        table_name: str,
        column: Column,
        embedding_model: WordEmbeddingModel,
        config: D3LConfig,
    ) -> "AttributeProfile":
        """Extract every feature of Algorithm 1 from one column.

        Numeric attributes receive name and format features only (plus their
        numeric extent); token and embedding features are left empty because
        the paper considers them uninformative for numbers.
        """
        ref = AttributeRef(table_name, column.name)
        qgrams = name_qgrams(column.name, q=config.qgram_size)
        values = column.non_missing
        formats = format_set(values)
        if column.is_numeric:
            tokens: Set[str] = set()
            embedding = np.zeros(embedding_model.dimension, dtype=np.float64)
            value_sample: Set[str] = set()
        else:
            tokens, frequent_tokens = informative_and_frequent_tokens(values)
            vectors = embedding_model.vectors(sorted(frequent_tokens))
            embedding = aggregate_vectors(vectors, embedding_model.dimension)
            # A bounded sample of distinct whole values, used to verify the
            # partial inclusion dependencies behind SA-joinability.
            value_sample = {
                value.lower() for value in column.distinct_values[:VALUE_SAMPLE_LIMIT]
            }
        return cls(
            ref=ref,
            is_numeric=column.is_numeric,
            qgrams=qgrams,
            tokens=tokens,
            formats=formats,
            embedding=embedding,
            numeric_values=list(column.numeric_values) if column.is_numeric else [],
            cardinality=len(values),
            distinct_count=len(column.distinct_values),
            value_sample=value_sample,
        )

    def set_representation(self, evidence: EvidenceType) -> Set[str]:
        """The set representation used for a Jaccard-grounded evidence type."""
        if evidence is EvidenceType.NAME:
            return self.qgrams
        if evidence is EvidenceType.VALUE:
            return self.tokens
        if evidence is EvidenceType.FORMAT:
            return self.formats
        raise ValueError(f"evidence type {evidence} has no set representation")

    def has_embedding(self) -> bool:
        """True when the attribute has a non-zero embedding vector."""
        return bool(np.any(self.embedding))

    def value_overlap(self, other: "AttributeProfile") -> float:
        """Overlap coefficient between the two attributes' value samples.

        ``|A ∩ B| / min(|A|, |B|)`` over distinct case-folded values — the
        postulated (possibly partial) inclusion dependency of section IV.
        """
        return sample_overlap(self.value_sample, other.value_sample)

    def estimated_bytes(self) -> int:
        """Approximate size of the profile (used in space-overhead accounting)."""
        text_bytes = sum(len(item) for item in self.qgrams)
        text_bytes += sum(len(item) for item in self.tokens)
        text_bytes += sum(len(item) for item in self.formats)
        text_bytes += sum(len(item) for item in self.value_sample)
        cached_sorted = 0 if self._numeric_sorted is None else self._numeric_sorted.nbytes
        return int(
            text_bytes
            + self.embedding.nbytes
            + 8 * len(self.numeric_values)
            + cached_sorted
        )


@dataclass
class TableProfile:
    """Profiles of every attribute of one table plus its subject attribute."""

    table_name: str
    attributes: Dict[str, AttributeProfile]
    subject_attribute: Optional[str]
    arity: int
    cardinality: int

    @property
    def attribute_refs(self) -> List[AttributeRef]:
        """References of every profiled attribute."""
        return [profile.ref for profile in self.attributes.values()]

    def profile(self, column_name: str) -> AttributeProfile:
        """The profile of the named attribute."""
        return self.attributes[column_name]

    def subject_profile(self) -> Optional[AttributeProfile]:
        """The profile of the subject attribute, when one was identified."""
        if self.subject_attribute is None:
            return None
        return self.attributes.get(self.subject_attribute)

    def estimated_bytes(self) -> int:
        """Approximate size of all attribute profiles."""
        return sum(profile.estimated_bytes() for profile in self.attributes.values())


@dataclass
class AttributeMatch:
    """An alignment between a target attribute and a lake attribute.

    Carries the five distances (one per evidence type) and, after weighting,
    the Equation 2 weights used when the match is aggregated into a table
    relatedness vector.
    """

    target_attribute: str
    source: AttributeRef
    distances: Dict[EvidenceType, float]
    weights: Dict[EvidenceType, float] = field(default_factory=dict)

    def mean_distance(self) -> float:
        """Unweighted mean of the five distances (used for alignment choice)."""
        values = [self.distances[evidence] for evidence in EvidenceType.all()]
        return float(sum(values) / len(values))

    def best_evidence(self) -> EvidenceType:
        """The evidence type with the smallest distance for this match."""
        return min(EvidenceType.all(), key=lambda evidence: self.distances[evidence])
