"""Two-stage candidate retrieval vs dense Sec.-V routing.

Three measurements, recorded together in ``BENCH_retrieval.json``:

* **Tier-1 smoke** (fast lane, run by CI on every push) — on the
  default bench forum, the fused candidate pool must cover the dense
  eligible set with recall >= 0.95 at the default budgets, while
  actually pruning the scored population.  Routing decisions are
  compared pick-for-pick against the dense path, and ``pool`` is timed
  per question against its set-algebra oracle
  (``tests/retrieval_oracle.py``), the pools asserted equal.
* **Large-scale speedup** (``@slow``) — a 26k-user forum with 10k+
  candidate answerers; end-to-end per-question routing (predict +
  LP) through the two-stage pool must be >= 5x faster than dense
  scoring, with the one-time index build amortized and reported.
* **Online replay** (``@slow``) — the streaming deployment loop run
  dense and two-stage over the same stream; precision@5 / MRR movement
  quantifies what the bounded pool costs (or gains) end to end.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import FORUM_CONFIG

from _meta import record_bench
from repro import perf
from repro.core import (
    ForumPredictor,
    OnlineConfig,
    PredictorConfig,
    QuestionRouter,
    ServingCore,
    replay,
)
from repro.core.retrieval import (
    CandidateRetriever,
    RetrievalConfig,
    candidate_recall,
)
from repro.forum import ForumConfig, generate_forum

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.retrieval_oracle import pool_oracle  # noqa: E402

RESULT_PATH = ROOT / "BENCH_retrieval.json"

# The large-scale arm sizes the forum for >= 10k distinct answerers in
# the training window; featurization cost, not model quality, is what
# is being measured, so the fit budget is trimmed accordingly.
LARGE_FORUM = ForumConfig(n_users=26_000, n_questions=36_000, activity_tail=1.4)
LARGE_PREDICTOR = PredictorConfig(
    vote_epochs=30, timing_epochs=30, betweenness_sample_size=200
)
# Budgets scaled to the ~12k-answerer population (the defaults are
# Tier-1-sized).  The activity generator carries eligible-set recall —
# the answer model's eligible set is dominated by window answer volume
# — while the topic/MF generators contribute the question-specific
# heads, so their budgets stay small to keep the pool (and the
# second-stage scoring cost) bounded.
LARGE_RETRIEVAL = RetrievalConfig(
    topic_top_k=128, recency_top_k=1536, mf_top_k=128, pool_size=1792
)

RECALL_FLOOR = 0.95
SPEEDUP_FLOOR = 5.0
POOL_REPEATS = 7


def _merge_record(section: str, payload: dict) -> None:
    """Read-modify-write one section of the shared JSON record."""
    record_bench(RESULT_PATH, section, payload)


def _split_final_day(dataset):
    """(history, final-day questions) split on question creation time."""
    last_question = max(t.created_at for t in dataset.threads)
    split = last_question - 24.0
    history = dataset.threads_in_window(0.0, split)
    final = dataset.threads_in_window(split, last_question + 1.0)
    return history, final


def _build_retriever(predictor, retrieval=None):
    retriever = CandidateRetriever(
        retrieval or RetrievalConfig(), predictor.topics
    )
    extractor = predictor.extractor
    start = time.perf_counter()
    retriever.build(extractor.frozen, extractor.window)
    return retriever, time.perf_counter() - start


def _route_all(router, threads, candidates):
    """(results, seconds) of routing every thread one at a time."""
    start = time.perf_counter()
    results = [
        router.recommend(thread, candidates, tradeoff=0.1)
        for thread in threads
    ]
    return results, time.perf_counter() - start


def _pick_parity(dense_results, pooled_results):
    """Fraction of questions where both paths pick the same top user."""
    agree, comparable = 0, 0
    for dense, pooled in zip(dense_results, pooled_results):
        if dense is None or pooled is None:
            continue
        comparable += 1
        if dense.ranked_users()[0][0] == pooled.ranked_users()[0][0]:
            agree += 1
    return (agree / comparable if comparable else 1.0), comparable


def _time_pool_vs_oracle(retriever, threads, candidates):
    """(pool, oracle) µs per question: best of ``POOL_REPEATS`` each.

    The two take turns, and which goes first alternates per round, so
    drift in the host's speed falls on both.  Every pool must equal the
    oracle's.
    """
    arms = {
        "pool": retriever.pool,
        "oracle": lambda t, c: pool_oracle(retriever, t, c),
    }
    best = {name: [] for name in arms}
    for thread in threads:
        expected = pool_oracle(retriever, thread, candidates)
        np.testing.assert_array_equal(
            retriever.pool(thread, candidates), expected
        )
        times = {name: float("inf") for name in arms}
        for r in range(POOL_REPEATS):
            for name in sorted(arms, reverse=r % 2 == 1):
                start = time.perf_counter()
                arms[name](thread, candidates)
                times[name] = min(times[name], time.perf_counter() - start)
        for name in arms:
            best[name].append(times[name])
    return tuple(float(np.mean(best[name])) * 1e6 for name in ("pool", "oracle"))


def test_tier1_recall_smoke(benchmark, dataset, config):
    """Pool recall vs the dense eligible set at Tier-1 scale (CI gate)."""
    history, final = _split_final_day(dataset)
    predictor = ForumPredictor(config).fit(history)
    candidates = sorted(history.answerers)
    threads = final.threads[:40]
    assert threads, "final day has no questions"

    dense_router = QuestionRouter(predictor, epsilon=0.3, default_capacity=3.0)
    retriever, build_seconds = _build_retriever(predictor)
    pooled_router = QuestionRouter(
        predictor, epsilon=0.3, default_capacity=3.0, retriever=retriever
    )

    dense_results, _ = _route_all(dense_router, threads, candidates)

    def pooled():
        return _route_all(pooled_router, threads, candidates)[0]

    pooled_results = benchmark.pedantic(pooled, rounds=1, iterations=1)

    recalls, pool_sizes = [], []
    for thread, dense in zip(threads, dense_results):
        pool = retriever.pool(thread, candidates)
        pool_sizes.append(int(pool.size))
        if dense is not None:
            # ``dense.users`` is exactly the dense eligible set.
            recalls.append(candidate_recall(pool, dense.users))
    mean_recall = float(np.mean(recalls))
    min_recall = float(np.min(recalls))
    parity, comparable = _pick_parity(dense_results, pooled_results)
    # The serving path's form: one ascending int64 candidate array.
    pool_us, oracle_us = _time_pool_vs_oracle(
        retriever, threads, np.asarray(candidates, dtype=np.int64)
    )

    payload = {
        "forum": {
            "n_users": FORUM_CONFIG.n_users,
            "n_questions": FORUM_CONFIG.n_questions,
        },
        "n_candidates": len(candidates),
        "n_questions": len(threads),
        "pool_size_mean": round(float(np.mean(pool_sizes)), 1),
        "index_build_seconds": round(build_seconds, 4),
        "eligible_recall_mean": round(mean_recall, 4),
        "eligible_recall_min": round(min_recall, 4),
        "top_pick_agreement": round(parity, 4),
        "questions_compared": comparable,
        "pool_us_per_question": round(pool_us, 1),
        "oracle_pool_us_per_question": round(oracle_us, 1),
        "pool_repeats": POOL_REPEATS,
    }
    _merge_record("tier1_smoke", payload)
    print(
        f"\nTier-1 retrieval smoke: recall {mean_recall:.3f} "
        f"(min {min_recall:.3f}), pool {np.mean(pool_sizes):.0f} of "
        f"{len(candidates)} candidates, top-pick agreement {parity:.3f}; "
        f"pool {pool_us:.0f} µs/question vs set-algebra oracle "
        f"{oracle_us:.0f} µs (best of {POOL_REPEATS}, pools equal)"
    )
    assert mean_recall >= RECALL_FLOOR
    # The pool must actually prune, not just pass everyone through.
    assert np.mean(pool_sizes) < len(candidates)
    # Near-equal routing decisions at Tier-1 scale.
    assert parity >= 0.9


@pytest.mark.slow
def test_speedup_at_scale(benchmark):
    """>= 5x end-to-end routing speedup at 10k+ candidate answerers."""
    forum = generate_forum(LARGE_FORUM, seed=0)
    dataset, _ = forum.dataset.preprocess()
    history, final = _split_final_day(dataset)
    predictor = ForumPredictor(LARGE_PREDICTOR).fit(history)
    candidates = sorted(history.answerers)
    assert len(candidates) >= 10_000
    threads = final.threads[:12]

    # The router's default eligibility threshold (epsilon=0.5): the
    # dense eligible set it induces is what pool recall is held to.
    dense_router = QuestionRouter(predictor, default_capacity=3.0)
    retriever, build_seconds = _build_retriever(predictor, LARGE_RETRIEVAL)
    pooled_router = QuestionRouter(
        predictor, default_capacity=3.0, retriever=retriever
    )

    # Warm both paths once (lazy caches: batch tables, postings).
    dense_router.recommend(threads[0], candidates, tradeoff=0.1)
    pooled_router.recommend(threads[0], candidates, tradeoff=0.1)

    dense_results, dense_seconds = _route_all(
        dense_router, threads, candidates
    )

    def pooled():
        return _route_all(pooled_router, threads, candidates)

    pooled_results, pooled_seconds = benchmark.pedantic(
        pooled, rounds=1, iterations=1
    )
    speedup = dense_seconds / pooled_seconds

    recalls = []
    pool_sizes = [
        r.pool_size for r in pooled_results if r is not None
    ]
    for thread, dense in zip(threads, dense_results):
        if dense is not None:
            recalls.append(
                candidate_recall(retriever.pool(thread, candidates), dense.users)
            )
    parity, comparable = _pick_parity(dense_results, pooled_results)

    payload = {
        "forum": {
            "n_users": LARGE_FORUM.n_users,
            "n_questions": LARGE_FORUM.n_questions,
        },
        "n_candidates": len(candidates),
        "n_questions": len(threads),
        "dense_ms_per_question": round(dense_seconds / len(threads) * 1e3, 2),
        "two_stage_ms_per_question": round(
            pooled_seconds / len(threads) * 1e3, 2
        ),
        "speedup": round(speedup, 2),
        "index_build_seconds": round(build_seconds, 4),
        "pool_size_mean": round(float(np.mean(pool_sizes)), 1),
        "eligible_recall_mean": round(float(np.mean(recalls)), 4),
        "top_pick_agreement": round(parity, 4),
        "questions_compared": comparable,
    }
    _merge_record("large_scale", payload)
    print(
        f"\nRouting at {len(candidates)} candidates: dense "
        f"{payload['dense_ms_per_question']:.0f} ms/q, two-stage "
        f"{payload['two_stage_ms_per_question']:.0f} ms/q "
        f"({speedup:.1f}x; index build {build_seconds:.2f}s, pool "
        f"{np.mean(pool_sizes):.0f}, recall {np.mean(recalls):.3f})"
    )
    assert speedup >= SPEEDUP_FLOOR
    assert float(np.mean(recalls)) >= RECALL_FLOOR


@pytest.mark.slow
def test_online_replay_precision(benchmark, dataset, config):
    """Precision@5 movement when the deployment loop routes two-stage."""
    kwargs = dict(
        refit_interval_hours=168.0,
        window_hours=336.0,
        warmup_hours=168.0,
        epsilon=0.25,
    )

    def run(retrieval):
        core = ServingCore(config, OnlineConfig(**kwargs, retrieval=retrieval))
        with perf.use_registry() as registry:
            report = replay(core, dataset)
        return report, registry

    dense_report, _ = run(None)
    two_stage_report, registry = benchmark.pedantic(
        lambda: run(RetrievalConfig()), rounds=1, iterations=1
    )

    queries = registry.counter("retrieval.queries")
    pooled = registry.counter("retrieval.pool_users")
    payload = {
        "forum": {
            "n_users": FORUM_CONFIG.n_users,
            "n_questions": FORUM_CONFIG.n_questions,
        },
        "n_routed_dense": dense_report.n_routed,
        "n_routed_two_stage": two_stage_report.n_routed,
        "precision_at_5_dense": round(dense_report.precision_at(5), 6),
        "precision_at_5_two_stage": round(
            two_stage_report.precision_at(5), 6
        ),
        "precision_at_5_delta": round(
            two_stage_report.precision_at(5) - dense_report.precision_at(5), 6
        ),
        "mrr_dense": round(dense_report.mrr, 6),
        "mrr_two_stage": round(two_stage_report.mrr, 6),
        "mean_pool_size": round(pooled / queries, 1) if queries else None,
        "dense_fallbacks": registry.counter("retrieval.dense_fallbacks"),
    }
    _merge_record("online_replay", payload)
    print(
        f"\nOnline replay: P@5 dense "
        f"{payload['precision_at_5_dense']:.4f} vs two-stage "
        f"{payload['precision_at_5_two_stage']:.4f} "
        f"(delta {payload['precision_at_5_delta']:+.4f}), mean pool "
        f"{payload['mean_pool_size']}"
    )
    assert two_stage_report.n_routed > 0
    # The bounded pool may shift individual picks, but ranking quality
    # must stay in the same regime as dense routing.
    assert (
        two_stage_report.precision_at(5)
        >= 0.8 * dense_report.precision_at(5)
    )
