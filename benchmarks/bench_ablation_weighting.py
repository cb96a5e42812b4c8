"""Ablation — the aggregation/weighting scheme (design choice of section III-D).

The paper attributes part of D3L's advantage to (i) the Equation 2 CCDF
weighting inside Equation 1 and (ii) the learned Equation 3 evidence weights,
in contrast with the max-score aggregation used by the baselines.  This
ablation compares, on the real-style corpus:

* D3L with its trained Equation 3 weights (the full system);
* D3L with uniform evidence weights;
* single-evidence rankings (value evidence only), which approximates a
  max-signal strategy over the strongest individual evidence type.
"""

import numpy as np

from conftest import REAL_KS, NUM_TARGETS, run_once

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.evidence import EvidenceType
from repro.core.weights import EvidenceWeights
from repro.evaluation.metrics import precision_recall_at_k


def _sweep(suite, weights, evidence_types, ks, num_targets, seed):
    benchmark_corpus = suite.benchmark
    targets = benchmark_corpus.pick_targets(num_targets, seed=seed)
    max_k = max(ks)
    rows = []
    session = DiscoverySession(suite.d3l)
    answers = {
        target.name: session.submit(
            QueryRequest(
                target=target,
                k=max_k,
                evidence=evidence_types,
                weights=weights,
                engine="sequential",
            )
        )
        for target in targets
    }
    for k in ks:
        precisions, recalls = [], []
        for target in targets:
            precision, recall = precision_recall_at_k(
                answers[target.name], benchmark_corpus.ground_truth, target.name, k
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


def test_ablation_weighting_scheme(benchmark, record_rows, real_suite):
    def run_ablation():
        variants = {
            "trained_weights": (real_suite.d3l.weights, None),
            "uniform_weights": (EvidenceWeights.uniform(), None),
            "value_only": (None, [EvidenceType.VALUE]),
        }
        rows = []
        for label, (weights, evidence_types) in variants.items():
            for row in _sweep(
                real_suite, weights, evidence_types, REAL_KS, NUM_TARGETS, seed=14
            ):
                rows.append({"variant": label, **row})
        return rows

    rows = run_once(benchmark, run_ablation)
    record_rows(
        "ablation_weighting",
        rows,
        "Ablation: trained Eq.3 weights vs uniform weights vs value-only ranking",
    )

    def mean_recall(variant):
        return float(np.mean([row["recall"] for row in rows if row["variant"] == variant]))

    # Multi-evidence aggregation (trained or uniform) beats single-evidence ranking.
    assert max(mean_recall("trained_weights"), mean_recall("uniform_weights")) >= mean_recall(
        "value_only"
    ) - 0.05
