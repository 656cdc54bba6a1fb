"""Tests for repro.core.state — the incremental forum state engine."""

import dataclasses
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FeatureExtractor
from repro.core import state as state_module
from repro.core.dtypes import IdOverflowError
from repro.core.state import ForumState, FrozenState
from repro.core.topic_context import TopicModelContext
from repro.forum.dataset import ForumDataset
from repro.forum.models import Thread


@pytest.fixture(scope="module")
def topics(dataset):
    return TopicModelContext.fit(dataset, n_topics=4, seed=0)


def assert_frozen_equal(a, b):
    """Every table of two snapshots bit-equal, dtypes included."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, field.name
            np.testing.assert_array_equal(x, y, err_msg=field.name)
        elif dataclasses.is_dataclass(x):  # the history segments
            assert_frozen_equal(x, y)
        else:
            assert x == y, field.name


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


def fresh_context(topics):
    """A context sharing ``topics``' model with a private copy of its
    cache, so the posts it has not seen are inferred again."""
    return TopicModelContext(
        topics.vocabulary, topics.model, dict(topics._post_topics)
    )


@pytest.fixture(scope="module")
def half_topics(dataset):
    """Topics of the first half: the second half's posts are new."""
    half = len(dataset) // 2
    return TopicModelContext.fit(
        ForumDataset(dataset.threads[:half]), n_topics=4, seed=0
    )


class TestAppendInference:
    def test_one_transform_per_flush(
        self, dataset, half_topics, transform_sizes
    ):
        """Appends infer their new posts one flush at a time and the first
        read infers the rest; the state equals one built from
        post-by-post inference."""
        half = len(dataset) // 2
        arriving = dataset.threads[half : half + 30]
        # Reference: every arriving post inferred alone, ahead of time.
        reference = fresh_context(half_topics)
        for thread in arriving:
            for post in thread.posts:
                reference.post_topics(post)
        expected = ForumState(reference)
        for thread in arriving:
            expected.append(thread)

        flushes, queued = [], 0
        for thread in arriving:
            queued += len(thread.posts)
            if queued >= state_module._SETTLE_DOCS:
                flushes.append(queued)
                queued = 0
        assert len(flushes) >= 2 and queued > 0

        topics = fresh_context(half_topics)
        transform_sizes.clear()
        state = ForumState(topics)
        for thread in arriving:
            state.append(thread)
        assert transform_sizes == flushes
        got = state.freeze(betweenness_sample_size=50, seed=0)
        assert transform_sizes == flushes + [queued]
        for thread in arriving:
            for post in thread.posts:
                np.testing.assert_array_equal(
                    topics.post_topics(post), reference.post_topics(post)
                )
        assert_frozen_equal(
            got, expected.freeze(betweenness_sample_size=50, seed=0)
        )

    def test_untokenizable_body_fails_at_its_own_append(
        self, dataset, half_topics
    ):
        """A body that cannot be encoded raises on the append that carried
        it and leaves the state as it was; later appends and the refit's
        freeze go through."""
        half = len(dataset) // 2
        first, bad, after = dataset.threads[half : half + 3]
        broken = Thread(replace(bad.question, body=None), list(bad.answers))
        state = ForumState(fresh_context(half_topics))
        state.append(first)
        with pytest.raises(TypeError):
            state.append(broken)
        assert broken.thread_id not in state
        assert len(state) == 1
        state.append(after)
        frozen = state.freeze(betweenness_sample_size=50, seed=0)
        assert frozen.question_tids[:-1].tolist() == sorted(
            [first.thread_id, after.thread_id]
        )

    def test_anonymous_answer_fails_at_its_own_append(
        self, dataset, half_topics
    ):
        """An answer by the loaders' anonymous -1 raises on the append
        that carried it and leaves the state as it was, so later reads
        go through."""
        half = len(dataset) // 2
        first, bad = dataset.threads[half], next(
            t for t in dataset.threads[half + 1 :] if t.answers
        )
        anonymous = Thread(
            bad.question,
            [replace(bad.answers[0], author=-1), *bad.answers[1:]],
        )
        state = ForumState(fresh_context(half_topics))
        state.append(first)
        with pytest.raises(IdOverflowError):
            state.append(anonymous)
        assert anonymous.thread_id not in state
        assert len(state) == 1
        frozen = state.freeze(betweenness_sample_size=50, seed=0)
        assert frozen.question_tids[:-1].tolist() == [first.thread_id]
        assert state.num_answers == len(first.answers)


# Operations of the settle property; appends are drawn most often so
# queues build up between reads.
_OPS = ("append",) * 6 + (
    "evict",
    "freeze",
    "answer_events",
    "answerers",
    "num_answers",
    "answer_log",
)


def replay_ops(topics, threads, ops, settle_docs):
    """Run ``ops`` on a fresh state with the flush size set to
    ``settle_docs``; returns what every read returned, then a final
    freeze."""
    reads = []
    with mock.patch.object(state_module, "_SETTLE_DOCS", settle_docs):
        state = ForumState(fresh_context(topics))
        appended = 0
        for op, arg in ops:
            if op == "append":
                if appended < len(threads):
                    state.append(threads[appended])
                    appended += 1
            elif op == "evict":
                if appended:
                    cutoff = threads[arg * appended // 100].created_at
                    reads.append(state.evict(cutoff))
            elif op == "freeze":
                reads.append(state.freeze(betweenness_sample_size=20, seed=0))
            elif op == "answer_events":
                reads.append(state.answer_events())
            elif op == "answerers":
                reads.append(state.answerers)
            elif op == "num_answers":
                reads.append(state.num_answers)
            else:
                log = state.answer_log
                reads.append({c: log.column(c).copy() for c in log.columns})
        reads.append(state.freeze(betweenness_sample_size=20, seed=0))
    return reads


def assert_reads_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(a, FrozenState):
            assert_frozen_equal(a, b)
        elif isinstance(a, tuple):  # answer_events columns
            for col_a, col_b in zip(a, b, strict=True):
                assert col_a.dtype == col_b.dtype
                np.testing.assert_array_equal(col_a, col_b)
        elif isinstance(a, dict):  # answer_log columns
            assert list(a) == list(b)
            for name in a:
                assert a[name].dtype == b[name].dtype
                np.testing.assert_array_equal(a[name], b[name], err_msg=name)
        else:
            assert a == b


class TestSettleProperty:
    """Group-committed inference is invisible to every reader: any
    interleaving of appends, evictions and reads returns the same values
    bit for bit whether the state settles after every append (flush size
    0, the old eager behaviour), once one new post waits (1), at the
    default flush size, or only when read."""

    @pytest.fixture(scope="class")
    def threads(self, dataset):
        # Straddle the fitted half: cached and uncached posts both arrive.
        half = len(dataset) // 2
        return dataset.threads[half - 5 : half + 45]

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(0, 99)),
            min_size=5,
            max_size=80,
        )
    )
    def test_reads_independent_of_flush_size(self, half_topics, threads, ops):
        eager = replay_ops(half_topics, threads, ops, 0)
        for settle_docs in (1, state_module._SETTLE_DOCS, sys.maxsize):
            assert_reads_equal(
                replay_ops(half_topics, threads, ops, settle_docs), eager
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
        n_questions = frozen.question_tids.size
        for thread in dataset.threads[half:]:
            state.append(thread)
        assert frozen.n_threads == n_threads
        assert frozen.question_tids.size == n_questions
        assert dataset.threads[half].thread_id not in frozen.question_tids

    def test_freeze_key_includes_parameters(self, dataset, topics):
        state = ForumState.from_dataset(dataset, topics)
        sampled = state.freeze(betweenness_sample_size=100, seed=0)
        exact = state.freeze(betweenness_sample_size=None, seed=0)
        assert sampled is not exact
