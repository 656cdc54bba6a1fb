"""Featurization throughput of the block kernel on both pair shapes.

``FeatureExtractor.feature_matrix`` groups pairs into one block per
question.  This benchmark times it on the two shapes the system feeds
it:

* **training** — the Table-I pair population (every positive plus one
  negative each): hundreds of small blocks, every positive on the
  leakage-guard path;
* **serving** — fresh questions, each one block of one thread against
  every candidate answerer, as the router scores them.

Both are checked element-wise against the scalar reference oracle
(``tests/feature_oracle.py``), the kernel must beat the oracle's
one-pair-at-a-time loop on the training pairs by at least 5x, and the
measurement is recorded in
``BENCH_features.json`` at the repo root.  Serving blocks are timed with
each question's topic inference already cached, so the figure is the
kernel alone.
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from _meta import write_bench
from conftest import FORUM_CONFIG

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.forum.models import Thread  # noqa: E402
from tests.feature_oracle import scalar_matrix  # noqa: E402

RESULT_PATH = ROOT / "BENCH_features.json"
REPEATS = 10
ORACLE_REPEATS = 3
MIN_SPEEDUP = 5.0
N_QUESTIONS = 40


def build_pairs(dataset):
    """The Table-I pair population: every positive plus one negative each."""
    records = dataset.answer_records()
    pairs = [(r.user, dataset.thread(r.thread_id)) for r in records]
    pairs += [
        (u, dataset.thread(tid))
        for u, tid in dataset.sample_negative_pairs(len(records), seed=0)
    ]
    return pairs


def serving_blocks(dataset):
    """Fresh copies of the last questions, each against every answerer."""
    next_tid = max(t.thread_id for t in dataset) + 1
    next_post = max(p.post_id for t in dataset for p in t.posts) + 1
    candidates = sorted(dataset.answerers)
    blocks = []
    for i, t in enumerate(dataset.threads[-N_QUESTIONS:]):
        question = Thread(
            dataclasses.replace(
                t.question, thread_id=next_tid + i, post_id=next_post + i
            )
        )
        blocks.append([(u, question) for u in candidates if u != t.asker])
    return blocks


def time_call(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_feature_matrix_throughput(benchmark, dataset, extractor):
    train = build_pairs(dataset)
    blocks = serving_blocks(dataset)

    def serve():
        for block in blocks:
            extractor.feature_matrix(block)

    # Equivalence with the oracle; this also warms the per-question
    # info and the asker memos before timing.
    for pairs in (train, blocks[0], blocks[-1]):
        np.testing.assert_allclose(
            extractor.feature_matrix(pairs),
            scalar_matrix(extractor, pairs),
            rtol=0.0,
            atol=1e-12,
        )
    serve()

    oracle_seconds = time_call(
        lambda: scalar_matrix(extractor, train), ORACLE_REPEATS
    )
    train_seconds = time_call(lambda: extractor.feature_matrix(train), REPEATS)
    serve_seconds = time_call(serve, REPEATS)
    result = benchmark.pedantic(
        extractor.feature_matrix, args=(train,), rounds=3, iterations=1
    )
    assert result.shape == (len(train), extractor.spec.n_features)

    n_serve = sum(len(b) for b in blocks)
    record = {
        "forum": {
            "n_users": FORUM_CONFIG.n_users,
            "n_questions": FORUM_CONFIG.n_questions,
        },
        "n_features": extractor.spec.n_features,
        "training": {
            "n_pairs": len(train),
            "n_blocks": len({t.thread_id for _, t in train}),
            "seconds": round(train_seconds, 6),
            "us_per_pair": round(train_seconds / len(train) * 1e6, 3),
            "oracle_seconds": round(oracle_seconds, 6),
            "speedup_vs_oracle": round(oracle_seconds / train_seconds, 2),
        },
        "serving": {
            "n_questions": len(blocks),
            "candidates_per_question": round(n_serve / len(blocks), 1),
            "ms_per_question": round(serve_seconds / len(blocks) * 1e3, 4),
            "us_per_pair": round(serve_seconds / n_serve * 1e6, 3),
        },
    }
    write_bench(RESULT_PATH, record)
    print(
        f"\nfeature_matrix: training {train_seconds * 1e3:.2f} ms "
        f"({len(train)} pairs), serving "
        f"{serve_seconds / len(blocks) * 1e3:.3f} ms/question "
        f"({n_serve // len(blocks)} candidates), "
        f"{oracle_seconds / train_seconds:.1f}x the oracle "
        f"-> {RESULT_PATH.name}"
    )
    assert oracle_seconds / train_seconds >= MIN_SPEEDUP
