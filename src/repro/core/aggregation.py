"""Aggregation of attribute distances into table relatedness (section III-D).

The flow mirrors the paper exactly:

1. per (target, source-table) pair, the aligned attribute matches form a
   Table-I-style distance table (:func:`build_distance_table`);
2. each column of that table is aggregated with the Equation 1 weighted
   average, using the Equation 2 CCDF weights carried by each match
   (:func:`aggregate_column`, :func:`evidence_vector`);
3. the resulting 5-dimensional vector is reduced to a scalar relatedness
   distance with the Equation 3 weighted l2-norm (:func:`combined_distance`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

from repro.core.evidence import EvidenceType
from repro.core.profiles import AttributeMatch


def build_distance_table(matches: Sequence[AttributeMatch]) -> List[Dict[str, object]]:
    """Render matches as rows of a Table-I-style distance table.

    Mostly useful for reporting/examples: each row names the aligned pair and
    lists the five distances.
    """
    rows = []
    for match in matches:
        row: Dict[str, object] = {
            "pair": (match.target_attribute, str(match.source)),
        }
        for evidence in EvidenceType.all():
            row[f"D{evidence.value}"] = match.distances[evidence]
        rows.append(row)
    return rows


def aggregate_column(matches: Sequence[AttributeMatch], evidence: EvidenceType) -> float:
    """Equation 1: weighted average of one evidence type across matches.

    Each match contributes its distance of the given type weighted by its
    Equation 2 weight.  When every weight is zero (all matches are the worst
    of their populations) the unweighted mean is used so the value remains
    defined; an empty match list aggregates to the maximal distance 1.0.
    """
    if not matches:
        return 1.0
    weighted_sum = 0.0
    weight_sum = 0.0
    for match in matches:
        distance = match.distances[evidence]
        weight = match.weights.get(evidence, 1.0)
        weighted_sum += weight * distance
        weight_sum += weight
    if weight_sum <= 0.0:
        return float(sum(match.distances[evidence] for match in matches) / len(matches))
    return float(weighted_sum / weight_sum)


def evidence_vector(matches: Sequence[AttributeMatch]) -> Dict[EvidenceType, float]:
    """The 5-dimensional relatedness vector of a (target, source) pair."""
    return {evidence: aggregate_column(matches, evidence) for evidence in EvidenceType.all()}


def combined_distance(
    vector: Mapping[EvidenceType, float],
    weights: Mapping[EvidenceType, float],
) -> float:
    """Equation 3: weighted l2-norm of the relatedness vector.

    The source table is treated as a point in a 5-dimensional space in which
    the target sits at the origin; the weights express the relative
    importance of the evidence types (learned by logistic regression or
    supplied by an ablation).

    Weights are rescaled so the largest is 1 before applying the formula.
    This is a monotone transformation (it never changes the ranking the
    paper's Equation 3 induces) and it keeps the combined distance inside
    [0, 1] for any non-negative weight vector, which the rest of the
    framework assumes of every distance.
    """
    values = [vector.get(evidence, 1.0) for evidence in EvidenceType.all()]
    return combined_distances([values], weights)[0]


def combined_distances(
    vectors: Sequence[Sequence[float]],
    weights: Mapping[EvidenceType, float],
) -> List[float]:
    """:func:`combined_distance` of many vectors, each listing its five
    distances in ``EvidenceType.all()`` order, with the weights rescaled once.

    Every vector goes through the same float operations in the same order
    as a :func:`combined_distance` call, so the values are identical.
    """
    raw_weights = [
        max(float(weights.get(evidence, 0.0)), 0.0) for evidence in EvidenceType.all()
    ]
    largest = max(raw_weights, default=0.0)
    if largest > 0.0:
        raw_weights = [weight / largest for weight in raw_weights]
    denominator = 0.0
    for weight in raw_weights:
        denominator += weight
    distances = []
    for vector in vectors:
        values = [float(value) for value in vector]
        if denominator <= 0.0:
            # Degenerate weighting: fall back to the unweighted Euclidean
            # norm, normalised to stay within [0, 1].
            distances.append(math.sqrt(sum(value ** 2 for value in values) / len(values)))
            continue
        numerator = 0.0
        for weight, value in zip(raw_weights, values):
            numerator += (weight * value) ** 2
        distances.append(math.sqrt(numerator / denominator))
    return distances
