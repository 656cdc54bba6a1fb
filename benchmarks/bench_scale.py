"""Columnar event store at forum scale.

Two measurements, recorded together in ``BENCH_scale.json``:

* **Scale smoke** (fast lane, run by CI on every push) — streams a 10k
  user synthetic forum straight into one columnar answer log plus the
  question store, asserting a peak-RSS ceiling.
* **Million-user stream** (``@slow``) — generates a >= 1M user /
  multi-million post forum through the chunked streaming generator into
  columnar segments, never materializing Python post objects; records
  posts/sec, columnar footprint, and the peak RSS high-water mark.
"""

import time
from pathlib import Path

import pytest

from _meta import record_bench
from repro import perf
from repro.forum import ForumConfig
from repro.forum.streaming import ingest_stream

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

SMOKE_CONFIG = ForumConfig(
    n_users=10_000, n_questions=8_000, activity_tail=1.3
)
# Generous on purpose: the smoke ingest needs tens of MB, but the
# interpreter + imported scientific stack already sit at a few hundred.
# The ceiling catches accidental O(n_posts) materialization (which at
# this scale adds GBs), not allocator noise.
SMOKE_RSS_CEILING = 2 * 1024**3

MILLION_CONFIG = ForumConfig(
    n_users=1_000_000,
    n_questions=1_500_000,
    activity_tail=1.3,
)
MILLION_RSS_CEILING = 8 * 1024**3


def test_scale_smoke(benchmark):
    """CI gate: bounded-memory streamed ingest into one answer log."""

    def ingest():
        with perf.use_registry() as registry:
            start = time.perf_counter()
            result = ingest_stream(
                SMOKE_CONFIG, seed=0, chunk_questions=2_000
            )
            seconds = time.perf_counter() - start
        return result, seconds, registry

    (log, questions, report), ingest_seconds, registry = (
        benchmark.pedantic(ingest, rounds=1, iterations=1)
    )
    posts = report.n_questions + report.n_answers
    assert report.n_questions == SMOKE_CONFIG.n_questions
    assert questions.n_rows == report.n_questions
    assert log.n_rows == report.n_answers
    assert report.peak_rss_bytes < SMOKE_RSS_CEILING
    assert registry.counter("scale.peak_rss_bytes") == report.peak_rss_bytes

    payload = {
        "forum": {
            "n_users": SMOKE_CONFIG.n_users,
            "n_questions": SMOKE_CONFIG.n_questions,
        },
        "n_posts": posts,
        "n_answers": report.n_answers,
        "ingest_seconds": round(ingest_seconds, 4),
        "posts_per_second": round(posts / ingest_seconds),
        "question_bytes": report.question_bytes,
        "answer_bytes": report.answer_bytes,
        "peak_rss_bytes": report.peak_rss_bytes,
        "rss_ceiling_bytes": SMOKE_RSS_CEILING,
    }
    record_bench(RESULT_PATH, "smoke", payload)
    print(
        f"\nScale smoke: {posts} posts streamed in {ingest_seconds:.2f}s "
        f"({posts / ingest_seconds:.0f}/s), peak RSS "
        f"{report.peak_rss_bytes / 1024**2:.0f} MB"
    )


@pytest.mark.slow
def test_million_user_stream():
    """>= 1M users / multi-million posts generated in bounded memory."""
    with perf.use_registry():
        start = time.perf_counter()
        _, _, report = ingest_stream(
            MILLION_CONFIG, seed=0, chunk_questions=100_000
        )
        ingest_seconds = time.perf_counter() - start
    posts = report.n_questions + report.n_answers
    assert report.n_users >= 1_000_000
    assert posts >= 2_000_000
    assert report.peak_rss_bytes < MILLION_RSS_CEILING

    payload = {
        "forum": {
            "n_users": MILLION_CONFIG.n_users,
            "n_questions": MILLION_CONFIG.n_questions,
        },
        "n_posts": posts,
        "n_answers": report.n_answers,
        "n_active_users": report.n_active_users,
        "n_chunks": report.n_chunks,
        "ingest_seconds": round(ingest_seconds, 2),
        "posts_per_second": round(posts / ingest_seconds),
        "question_bytes": report.question_bytes,
        "answer_bytes": report.answer_bytes,
        "columnar_bytes_per_post": round(
            (report.question_bytes + report.answer_bytes) / posts, 1
        ),
        "peak_rss_bytes": report.peak_rss_bytes,
        "rss_ceiling_bytes": MILLION_RSS_CEILING,
    }
    record_bench(RESULT_PATH, "million_user_stream", payload)
    print(
        f"\nMillion-user stream: {posts} posts in {ingest_seconds:.1f}s "
        f"({posts / ingest_seconds:.0f}/s), peak RSS "
        f"{report.peak_rss_bytes / 1024**3:.2f} GB, columnar store "
        f"{(report.question_bytes + report.answer_bytes) / 1024**2:.0f} MB"
    )
