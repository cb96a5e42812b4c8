"""The numeric special case: D-relatedness and Algorithm 2.

Numeric attributes carry no useful token or embedding evidence, and no LSH
scheme applies to the features extractable from raw numbers, so the paper
grounds their relatedness in the Kolmogorov–Smirnov statistic over their
extents — but only when cheaper, already-indexed evidence suggests the two
attributes (or their tables' subject attributes) are related at all.  That
guard is Algorithm 2; this module implements it.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.evidence import EvidenceType
from repro.core.indexes import D3LIndexes, Signature
from repro.core.profiles import AttributeProfile, TableProfile
from repro.lake.datalake import AttributeRef
from repro.stats.ks import ks_statistic_sorted

#: Number of candidates retrieved for the subject-attribute guard lookups.
_GUARD_POOL = 50


def _lookup_refs(
    indexes: D3LIndexes,
    evidence: EvidenceType,
    profile: AttributeProfile,
    exclude_table: Optional[str],
    query_signatures: Optional[Dict[EvidenceType, Optional[Signature]]] = None,
) -> Set[AttributeRef]:
    return {
        ref
        for ref, _ in indexes.lookup(
            evidence,
            profile,
            k=_GUARD_POOL,
            exclude_table=exclude_table,
            query_signatures=query_signatures,
            max_distance=indexes.threshold_distance(),
        )
    }


def subject_attributes_related(
    indexes: D3LIndexes,
    target_profile: TableProfile,
    source_table: str,
    exclude_table: Optional[str] = None,
) -> bool:
    """True when the target's subject attribute retrieves any attribute of
    ``source_table`` through *any* of the four indexes (the ``I*`` guard)."""
    subject = target_profile.subject_profile()
    if subject is None:
        return False
    query_signatures = indexes.signatures_for(subject)
    for evidence in EvidenceType.indexed():
        for ref in _lookup_refs(
            indexes, evidence, subject, exclude_table, query_signatures
        ):
            if ref.table == source_table:
                return True
    return False


def compute_d_relatedness(
    indexes: D3LIndexes,
    target_table_profile: TableProfile,
    target_attribute: AttributeProfile,
    source_ref: AttributeRef,
    subject_guard: Optional[bool] = None,
    exclude_table: Optional[str] = None,
) -> float:
    """Algorithm 2: the D distance between a target attribute and a lake attribute.

    Returns the KS statistic over the two numeric extents when the guard
    passes (the tables' subject attributes are related by any index, or the
    two attributes are N- or F-related) and 1.0 otherwise.  Non-numeric
    inputs always yield 1.0.

    ``subject_guard`` lets the caller pass a precomputed result of
    :func:`subject_attributes_related` (the discovery engine computes it once
    per source table rather than once per attribute pair).
    """
    source_profile = indexes.profiles.get(source_ref)
    if source_profile is None:
        return 1.0
    if not target_attribute.is_numeric or not source_profile.is_numeric:
        return 1.0

    if subject_guard is None:
        subject_guard = subject_attributes_related(
            indexes, target_table_profile, source_ref.table, exclude_table=exclude_table
        )
    if subject_guard:
        return ks_statistic_sorted(target_attribute.numeric_sorted, source_profile.numeric_sorted)

    query_signatures = indexes.signatures_for(target_attribute)
    for evidence in (EvidenceType.NAME, EvidenceType.FORMAT):
        related = _lookup_refs(
            indexes, evidence, target_attribute, exclude_table, query_signatures
        )
        if source_ref in related:
            return ks_statistic_sorted(
                target_attribute.numeric_sorted, source_profile.numeric_sorted
            )
    return 1.0
