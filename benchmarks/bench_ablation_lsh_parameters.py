"""Ablation — LSH configuration (MinHash size and candidate pool).

The paper fixes MinHash size 256 and LSH threshold 0.7 for all systems; this
ablation quantifies what those choices buy by comparing effectiveness and
per-query time for smaller signatures and a smaller candidate pool on the
real-style corpus.
"""

import time

import numpy as np

from conftest import NUM_TARGETS, run_once

from repro.core.api import DiscoverySession, QueryRequest
from repro.core.config import D3LConfig
from repro.core.discovery import D3L
from repro.evaluation.experiments import build_embedding_model
from repro.evaluation.metrics import precision_recall_at_k

K = 20


def _evaluate(corpus, config, seed=16):
    embedding_model = build_embedding_model(corpus, config)
    engine = D3L(config=config, embedding_model=embedding_model)
    start = time.perf_counter()
    engine.index_lake(corpus.lake)
    index_seconds = time.perf_counter() - start

    targets = corpus.pick_targets(NUM_TARGETS, seed=seed)
    precisions, recalls = [], []
    session = DiscoverySession(engine)
    start = time.perf_counter()
    for target in targets:
        answer = session.submit(QueryRequest(target=target, k=K, engine="sequential"))
        precision, recall = precision_recall_at_k(
            answer, corpus.ground_truth, target.name, K
        )
        precisions.append(precision)
        recalls.append(recall)
    query_seconds = (time.perf_counter() - start) / max(len(targets), 1)
    return {
        "num_hashes": config.num_hashes,
        "min_candidates": config.min_candidates,
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "index_seconds": index_seconds,
        "query_seconds": query_seconds,
    }


def test_ablation_lsh_parameters(benchmark, record_rows, real_corpus):
    def run_ablation():
        configurations = [
            D3LConfig(num_hashes=64, embedding_dimension=48, min_candidates=20),
            D3LConfig(num_hashes=128, embedding_dimension=48, min_candidates=50),
            D3LConfig(num_hashes=256, embedding_dimension=48, min_candidates=50),
        ]
        return [_evaluate(real_corpus, config) for config in configurations]

    rows = run_once(benchmark, run_ablation)
    record_rows(
        "ablation_lsh_parameters",
        rows,
        "Ablation: MinHash size / candidate pool vs effectiveness and time",
    )

    assert len(rows) == 3
    for row in rows:
        assert 0.0 <= row["precision"] <= 1.0
        assert row["index_seconds"] > 0
    # Larger signatures cost indexing time.
    assert rows[-1]["index_seconds"] >= rows[0]["index_seconds"] * 0.8
