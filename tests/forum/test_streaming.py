"""Streamed chunked generation: invariants, statistics, bounded footprint."""

import numpy as np
import pytest

from repro.forum import ForumConfig
from repro.forum.streaming import (
    ingest_stream,
    sample_users,
    stream_forum_chunks,
)

CONFIG = ForumConfig(n_users=3000, n_questions=2500, activity_tail=1.3)


@pytest.fixture(scope="module")
def chunks():
    return list(stream_forum_chunks(CONFIG, seed=5, chunk_questions=600))


class TestGroundTruth:
    def test_shapes_and_dtypes(self):
        users = sample_users(CONFIG, np.random.default_rng(0))
        assert users.n_users == CONFIG.n_users
        assert users.n_topics == CONFIG.n_topics
        assert users.interests.dtype == np.float32
        np.testing.assert_allclose(
            users.interests.sum(axis=1), 1.0, atol=1e-5
        )
        assert users.median_delay.min() >= 0.05
        assert users.median_delay.max() <= 24.0

    def test_topic_cdf_is_a_cdf(self):
        users = sample_users(CONFIG, np.random.default_rng(0))
        assert users.topic_cdf.shape == (CONFIG.n_topics, CONFIG.n_users)
        np.testing.assert_allclose(users.topic_cdf[:, -1], 1.0)
        assert np.all(np.diff(users.topic_cdf, axis=1) >= 0)


class TestChunkInvariants:
    def test_total_question_count(self, chunks):
        assert sum(c.n_questions for c in chunks) == CONFIG.n_questions

    def test_chronological_within_and_across_chunks(self, chunks):
        last = -np.inf
        for chunk in chunks:
            assert np.all(np.diff(chunk.q_created) >= 0)
            assert chunk.q_created[0] >= last
            assert chunk.q_created[0] >= chunk.t0
            assert chunk.q_created[-1] <= chunk.t1
            last = chunk.q_created[-1]

    def test_thread_ids_globally_unique_and_increasing(self, chunks):
        all_ids = np.concatenate([c.q_id for c in chunks])
        assert np.all(np.diff(all_ids) == 1)

    def test_answers_grouped_by_question(self, chunks):
        for chunk in chunks:
            assert np.all(np.diff(chunk.a_thread) >= 0)
            assert np.all(np.isin(chunk.a_thread, chunk.q_id))

    def test_no_self_answers(self, chunks):
        for chunk in chunks:
            askers = chunk.q_asker[chunk.a_thread - chunk.q_id[0]]
            assert np.all(chunk.a_author != askers)

    def test_delay_and_vote_ranges(self, chunks):
        for chunk in chunks:
            nonzero = chunk.a_delay[chunk.a_delay > 0]
            assert nonzero.min() >= 1.0 / 60.0
            assert chunk.a_votes.min() >= -6
            assert chunk.a_votes.max() <= 60
            np.testing.assert_array_equal(
                chunk.a_timestamp,
                chunk.q_created[chunk.a_thread - chunk.q_id[0]] + chunk.a_delay,
            )

    def test_topic_mixtures_normalized(self, chunks):
        for chunk in chunks:
            np.testing.assert_allclose(
                chunk.q_topics.sum(axis=1), 1.0, atol=1e-5
            )
            np.testing.assert_allclose(
                chunk.a_topics.sum(axis=1), 1.0, atol=1e-5
            )

    def test_deterministic_under_seed(self):
        a = list(stream_forum_chunks(CONFIG, seed=5, chunk_questions=600))
        b = list(stream_forum_chunks(CONFIG, seed=5, chunk_questions=600))
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.q_created, cb.q_created)
            np.testing.assert_array_equal(ca.a_author, cb.a_author)
            np.testing.assert_array_equal(ca.a_votes, cb.a_votes)


class TestStatistics:
    def test_unanswered_fraction(self, chunks):
        answered = set()
        for chunk in chunks:
            answered.update(np.unique(chunk.a_thread).tolist())
        frac = 1.0 - len(answered) / CONFIG.n_questions
        assert abs(frac - CONFIG.unanswered_fraction) < 0.05

    def test_answers_per_answered_question(self, chunks):
        n_answers = sum(c.n_answers for c in chunks)
        answered = set()
        for chunk in chunks:
            answered.update(np.unique(chunk.a_thread).tolist())
        per_q = n_answers / len(answered)
        # 1 + Poisson(mean_extra_answers), minus the rare dropped
        # asker-collision rows.
        assert abs(per_q - (1 + CONFIG.mean_extra_answers)) < 0.12

    def test_activity_is_heavy_tailed(self, chunks):
        authors = np.concatenate([c.a_author for c in chunks])
        _, counts = np.unique(authors, return_counts=True)
        # Paper Fig. 4a: a large minority of answerers post 2+ answers.
        assert (counts >= 2).mean() > 0.15
        assert counts.max() > 10


class TestIngest:
    def test_single_shard_equals_stream_totals(self):
        chunks = list(stream_forum_chunks(CONFIG, seed=5, chunk_questions=600))
        log, questions, report = ingest_stream(
            CONFIG, seed=5, chunk_questions=600
        )
        assert questions.n_rows == CONFIG.n_questions == report.n_questions
        assert log.n_rows == report.n_answers
        assert report.peak_rss_bytes > 0
        np.testing.assert_array_equal(
            log.column("user"),
            np.concatenate([c.a_author for c in chunks]),
        )
        np.testing.assert_array_equal(
            log.column("votes"),
            np.concatenate([c.a_votes for c in chunks]),
        )
        assert report.n_chunks == len(chunks)
