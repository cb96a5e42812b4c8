"""Ablation — contribution of the numeric (D) evidence.

The paper reports that disabling distribution evidence (treating D_D = 1
everywhere) costs less than 3.5% of aggregated precision and recall on its
real corpus, because most numeric relationships are already caught by name
and format evidence.  This ablation repeats that measurement.
"""

import numpy as np

from conftest import REAL_KS, NUM_TARGETS, run_once

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.evidence import EvidenceType
from repro.evaluation.metrics import precision_recall_at_k


def _sweep(suite, evidence_types, ks, num_targets, seed):
    corpus = suite.benchmark
    targets = corpus.pick_targets(num_targets, seed=seed)
    max_k = max(ks)
    # Both variants rank with the same trained Equation 3 weights so that the
    # comparison isolates the contribution of the D (KS) distances themselves
    # rather than a change of weighting scheme.
    session = DiscoverySession(suite.d3l)
    answers = {
        target.name: session.submit(
            QueryRequest(
                target=target,
                k=max_k,
                evidence=evidence_types,
                weights=suite.d3l.weights,
                engine="sequential",
            )
        )
        for target in targets
    }
    rows = []
    for k in ks:
        precisions, recalls = [], []
        for target in targets:
            precision, recall = precision_recall_at_k(
                answers[target.name], corpus.ground_truth, target.name, k
            )
            precisions.append(precision)
            recalls.append(recall)
        rows.append(
            {
                "k": k,
                "precision": float(np.mean(precisions)),
                "recall": float(np.mean(recalls)),
            }
        )
    return rows


def test_ablation_numeric_evidence(benchmark, record_rows, real_suite):
    def run_ablation():
        with_numeric = _sweep(real_suite, None, REAL_KS, NUM_TARGETS, seed=15)
        without_numeric = _sweep(
            real_suite, list(EvidenceType.indexed()), REAL_KS, NUM_TARGETS, seed=15
        )
        rows = []
        for row in with_numeric:
            rows.append({"variant": "all_evidence", **row})
        for row in without_numeric:
            rows.append({"variant": "without_distribution", **row})
        return rows

    rows = run_once(benchmark, run_ablation)
    record_rows(
        "ablation_numeric_evidence",
        rows,
        "Ablation: aggregated effectiveness with vs without D (KS) evidence",
    )

    def mean_metric(variant, metric):
        return float(np.mean([row[metric] for row in rows if row["variant"] == variant]))

    # The paper: dropping numeric evidence costs only a few percent (< 3.5%
    # at its scale); allow a slightly wider band on the generated corpus.
    drop_precision = mean_metric("all_evidence", "precision") - mean_metric(
        "without_distribution", "precision"
    )
    drop_recall = mean_metric("all_evidence", "recall") - mean_metric(
        "without_distribution", "recall"
    )
    assert abs(drop_precision) <= 0.15
    assert abs(drop_recall) <= 0.15
