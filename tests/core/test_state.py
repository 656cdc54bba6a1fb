"""Tests for repro.core.state — the incremental forum state engine."""

import numpy as np
import pytest

from repro.core import FeatureExtractor
from repro.core.state import ForumState
from repro.core.topic_context import TopicModelContext
from repro.forum.dataset import ForumDataset


@pytest.fixture(scope="module")
def topics(dataset):
    return TopicModelContext.fit(dataset, n_topics=4, seed=0)


def assert_tables_equal(ta, tb):
    assert ta.user_index == tb.user_index
    assert ta.row_of == tb.row_of
    assert ta.dup_users == tb.dup_users
    for name in (
        "n",
        "votes_sum",
        "median_rt",
        "d_u",
        "topic_sum",
        "seg_start",
        "hist_topics",
        "hist_votes",
        "hist_answer_topics",
        "times_sorted",
        "time_rank",
    ):
        np.testing.assert_array_equal(
            getattr(ta, name), getattr(tb, name), err_msg=name
        )


def assert_frozen_equal(fa, fb):
    """Every FrozenState field bit-equal between two snapshots."""
    assert fa.fingerprint == fb.fingerprint
    assert fa.n_threads == fb.n_threads
    assert fa.duration_hours == fb.duration_hours
    assert fa.question_info == fb.question_info
    assert fa.questions_asked == fb.questions_asked
    assert fa.global_median_response == fb.global_median_response
    assert fa.thread_sets == fb.thread_sets
    assert set(fa.histories) == set(fb.histories)
    assert fa.discussed_count == fb.discussed_count
    assert set(fa.discussed_sum) == set(fb.discussed_sum)
    for user in fa.discussed_sum:
        np.testing.assert_array_equal(
            fa.discussed_sum[user], fb.discussed_sum[user]
        )
    for name in (
        "qa_closeness",
        "qa_betweenness",
        "dense_closeness",
        "dense_betweenness",
    ):
        assert getattr(fa, name) == getattr(fb, name), name
    assert sorted(fa.qa_graph.edges()) == sorted(fb.qa_graph.edges())
    assert sorted(fa.dense_graph.edges()) == sorted(fb.dense_graph.edges())
    assert_tables_equal(fa.batch_tables, fb.batch_tables)


class TestMutation:
    def test_append_rejects_duplicates(self, dataset, topics):
        state = ForumState(topics)
        state.append(dataset.threads[0])
        with pytest.raises(ValueError, match="already"):
            state.append(dataset.threads[0])

    def test_append_rejects_out_of_order(self, dataset, topics):
        state = ForumState(topics)
        state.append(dataset.threads[5])
        with pytest.raises(ValueError, match="order"):
            state.append(dataset.threads[0])

    def test_evict_drops_old_threads(self, dataset, topics):
        state = ForumState.from_dataset(dataset, topics)
        cutoff = dataset.threads[len(dataset) // 2].created_at
        removed = state.evict(cutoff)
        assert removed > 0
        assert len(state) == len(dataset) - removed
        assert all(t.created_at >= cutoff for t in state.to_dataset())

    def test_fingerprint_matches_dataset(self, dataset, topics):
        state = ForumState.from_dataset(dataset, topics)
        assert state.fingerprint() == dataset.fingerprint()


class TestAppendInference:
    def test_one_transform_per_thread(self, dataset, transform_sizes):
        """Unseen posts of an appended thread are inferred in one pass,
        and the state equals one built from post-by-post inference."""
        half = len(dataset) // 2
        topics = TopicModelContext.fit(
            ForumDataset(dataset.threads[:half]), n_topics=4, seed=0
        )
        arriving = dataset.threads[half : half + 12]
        # Reference: every arriving post inferred alone, ahead of time.
        reference = TopicModelContext(topics.vocabulary, topics.model, {})
        for thread in arriving:
            for post in thread.posts:
                reference.post_topics(post)
        expected = ForumState(reference)
        for thread in arriving:
            expected.append(thread)

        transform_sizes.clear()
        state = ForumState(topics)
        for thread in arriving:
            state.append(thread)
        assert transform_sizes == [len(t.posts) for t in arriving]
        assert max(transform_sizes) > 1
        for thread in arriving:
            for post in thread.posts:
                np.testing.assert_array_equal(
                    topics.post_topics(post), reference.post_topics(post)
                )
        got = state.freeze(betweenness_sample_size=50, seed=0)
        want = expected.freeze(betweenness_sample_size=50, seed=0)
        assert_tables_equal(got.batch_tables, want.batch_tables)
        for tid, info in want.question_info.items():
            np.testing.assert_array_equal(
                got.question_info[tid].topics, info.topics
            )


class TestEquivalence:
    def test_append_evict_equals_fresh_build(self, dataset, topics):
        """The tentpole invariant: an incrementally maintained window is
        indistinguishable from a state built fresh over the same slice."""
        cutoff = dataset.threads[len(dataset) // 3].created_at
        end = dataset.threads[-1].created_at + 1.0

        grown = ForumState(topics)
        for thread in dataset:
            grown.append(thread)
        grown.evict(cutoff)

        window = dataset.threads_in_window(cutoff, end)
        fresh = ForumState.from_dataset(window, topics)

        assert grown.fingerprint() == fresh.fingerprint()
        assert_frozen_equal(
            grown.freeze(betweenness_sample_size=100, seed=0),
            fresh.freeze(betweenness_sample_size=100, seed=0),
        )

    def test_extractor_from_state_matches_dataset_path(self, dataset, topics):
        state = ForumState.from_dataset(dataset, topics)
        via_state = FeatureExtractor.from_state(
            state, betweenness_sample_size=100, seed=0
        )
        via_dataset = FeatureExtractor(
            dataset, topics, betweenness_sample_size=100, seed=0
        )
        assert via_state.window_fingerprint == via_dataset.window_fingerprint
        pairs = [
            (u, t)
            for u in sorted(dataset.answerers)[:8]
            for t in dataset.threads[:5]
        ]
        np.testing.assert_array_equal(
            via_state.feature_matrix(pairs), via_dataset.feature_matrix(pairs)
        )


class TestFreeze:
    def test_freeze_cached_until_mutation(self, dataset, topics):
        half = dataset.threads[: len(dataset) // 2]
        rest = dataset.threads[len(dataset) // 2 :]
        state = ForumState(topics)
        for thread in half:
            state.append(thread)
        first = state.freeze(betweenness_sample_size=100, seed=0)
        assert state.freeze(betweenness_sample_size=100, seed=0) is first
        state.append(rest[0])
        assert state.freeze(betweenness_sample_size=100, seed=0) is not first

    def test_frozen_snapshot_isolated_from_appends(self, dataset, topics):
        half = len(dataset) // 2
        state = ForumState(topics)
        for thread in dataset.threads[:half]:
            state.append(thread)
        frozen = state.freeze(betweenness_sample_size=100, seed=0)
        n_threads = frozen.n_threads
        n_questions = len(frozen.question_info)
        for thread in dataset.threads[half:]:
            state.append(thread)
        assert frozen.n_threads == n_threads
        assert len(frozen.question_info) == n_questions
        assert dataset.threads[half].thread_id not in frozen.question_info

    def test_freeze_key_includes_parameters(self, dataset, topics):
        state = ForumState.from_dataset(dataset, topics)
        sampled = state.freeze(betweenness_sample_size=100, seed=0)
        exact = state.freeze(betweenness_sample_size=None, seed=0)
        assert sampled is not exact
