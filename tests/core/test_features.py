"""Tests for repro.core.features — the 20-feature extractor."""

import numpy as np
import pytest


def features(extractor, user, thread):
    """The x_uq vector of one pair, through a one-row feature matrix."""
    return extractor.feature_matrix([(user, thread)])[0]


def pick_answered_pair(dataset):
    """An (answerer, thread) pair where the answerer has other answers too."""
    counts = dataset.answers_per_user()
    heavy = max(counts, key=counts.get)
    for t in dataset:
        if heavy in t.answerers:
            return heavy, t
    raise AssertionError("no pair found")


class TestVectorShape:
    def test_dimension(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        assert x.shape == (extractor.spec.n_features,)
        assert np.all(np.isfinite(x))

    def test_matrix(self, extractor, dataset):
        t = dataset.threads[0]
        pairs = [(u, t) for u in list(dataset.answerers)[:5]]
        m = extractor.feature_matrix(pairs)
        assert m.shape == (5, extractor.spec.n_features)

    def test_empty_matrix(self, extractor):
        m = extractor.feature_matrix([])
        assert m.shape == (0, extractor.spec.n_features)


class TestUserFeatures:
    def test_answers_exclude_target_thread(self, extractor, dataset):
        """a_u must not count the user's answer to the target thread."""
        user, thread = pick_answered_pair(dataset)
        total = dataset.answers_per_user()[user]
        x = features(extractor, user, thread)
        col = extractor.spec.columns_of("answers_provided")[0]
        assert x[col] == total - 1

    def test_answers_for_nonparticipant(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        other = next(t for t in dataset if user not in t.answerers)
        x = features(extractor, user, other)
        col = extractor.spec.columns_of("answers_provided")[0]
        assert x[col] == dataset.answers_per_user()[user]

    def test_unknown_user_defaults(self, extractor, dataset):
        """A user absent from the window gets zero activity, uniform topics."""
        thread = dataset.threads[0]
        x = features(extractor, 999_999, thread)
        spec = extractor.spec
        assert x[spec.columns_of("answers_provided")[0]] == 0.0
        assert x[spec.columns_of("net_answer_votes")[0]] == 0.0
        d_u = x[spec.columns_of("topics_answered")]
        np.testing.assert_allclose(d_u, 1.0 / extractor.topics.n_topics)
        # Centralities default to zero for off-graph users.
        assert x[spec.columns_of("qa_closeness")[0]] == 0.0

    def test_net_votes_sum(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        expected = sum(
            t.answer_by(user).votes
            for t in dataset
            if user in t.answerers and t.thread_id != thread.thread_id
        )
        x = features(extractor, user, thread)
        col = extractor.spec.columns_of("net_answer_votes")[0]
        assert x[col] == pytest.approx(expected)

    def test_median_response_time(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        times = [
            t.response_time(user)
            for t in dataset
            if user in t.answerers and t.thread_id != thread.thread_id
        ]
        x = features(extractor, user, thread)
        col = extractor.spec.columns_of("median_response_time")[0]
        assert x[col] == pytest.approx(np.median(times))

    def test_answer_ratio_smoothed(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        asked = sum(1 for t in dataset if t.asker == user)
        answered = dataset.answers_per_user()[user] - 1  # excl. target
        x = features(extractor, user, thread)
        col = extractor.spec.columns_of("answer_ratio")[0]
        assert x[col] == pytest.approx(answered / (1 + asked))


class TestQuestionFeatures:
    def test_question_votes(self, extractor, dataset):
        thread = dataset.threads[0]
        x = features(extractor, 999_999, thread)
        col = extractor.spec.columns_of("net_question_votes")[0]
        assert x[col] == thread.question.votes

    def test_lengths_positive(self, extractor, dataset):
        thread = dataset.threads[0]
        x = features(extractor, 999_999, thread)
        spec = extractor.spec
        assert x[spec.columns_of("question_word_length")[0]] > 0
        assert x[spec.columns_of("question_code_length")[0]] > 0

    def test_topics_asked_simplex(self, extractor, dataset):
        thread = dataset.threads[0]
        x = features(extractor, 999_999, thread)
        d_q = x[extractor.spec.columns_of("topics_asked")]
        assert d_q.sum() == pytest.approx(1.0)

    def test_out_of_window_question(self, extractor, dataset, forum):
        """Features still computable for a thread outside the window."""
        from repro.forum.models import Post, Thread

        q = Post(
            post_id=10**8,
            thread_id=10**8,
            author=list(dataset.users)[0],
            timestamp=dataset.duration_hours + 1.0,
            votes=2,
            body="<p>topic0word0 topic0word1</p><pre><code>x = 1</code></pre>",
            is_question=True,
        )
        thread = Thread(question=q)
        user, _ = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        assert np.all(np.isfinite(x))
        assert x[extractor.spec.columns_of("net_question_votes")[0]] == 2


class TestUserQuestionFeatures:
    def test_similarity_bounds(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        spec = extractor.spec
        s_uq = x[spec.columns_of("user_question_topic_similarity")[0]]
        s_uv = x[spec.columns_of("user_user_topic_similarity")[0]]
        assert 0.0 <= s_uq <= 1.0
        assert 0.0 <= s_uv <= 1.0

    def test_g_uq_bounded_by_answer_count(self, extractor, dataset):
        """g_uq sums similarities in [0,1] over answered questions."""
        user, thread = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        spec = extractor.spec
        g_uq = x[spec.columns_of("topic_weighted_questions_answered")[0]]
        n_answers = x[spec.columns_of("answers_provided")[0]]
        assert 0.0 <= g_uq <= n_answers + 1e-9

    def test_zero_history_zero_weighted(self, extractor, dataset):
        thread = dataset.threads[0]
        x = features(extractor, 999_999, thread)
        spec = extractor.spec
        assert x[spec.columns_of("topic_weighted_questions_answered")[0]] == 0.0
        assert x[spec.columns_of("topic_weighted_answer_votes")[0]] == 0.0


class TestSocialFeatures:
    def test_cooccurrence_excludes_target(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        col = extractor.spec.columns_of("thread_cooccurrence")[0]
        shared = sum(
            1
            for t in dataset
            if t.thread_id != thread.thread_id
            and user in (t.asker, *t.answerers)
            and thread.asker in (t.asker, *t.answerers)
        )
        assert x[col] == shared

    def test_answerer_centralities_positive(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        spec = extractor.spec
        # Heavy answerers are well-connected: closeness must be positive.
        assert x[spec.columns_of("qa_closeness")[0]] > 0
        assert x[spec.columns_of("dense_closeness")[0]] > 0

    def test_resource_allocation_nonnegative(self, extractor, dataset):
        user, thread = pick_answered_pair(dataset)
        x = features(extractor, user, thread)
        spec = extractor.spec
        assert x[spec.columns_of("qa_resource_allocation")[0]] >= 0
        assert x[spec.columns_of("dense_resource_allocation")[0]] >= 0
