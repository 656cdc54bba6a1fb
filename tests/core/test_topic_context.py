"""Tests for repro.core.topic_context."""

import numpy as np
import pytest

from repro import perf
from repro.core.topic_context import TopicModelContext
from repro.forum.dataset import ForumDataset
from repro.forum.models import Post


def make_post(post_id, body):
    return Post(
        post_id=post_id,
        thread_id=0,
        author=0,
        timestamp=0.0,
        votes=0,
        body=body,
        is_question=True,
    )


@pytest.fixture(scope="module")
def context(dataset):
    return TopicModelContext.fit(dataset, n_topics=4, seed=0)


class TestFit:
    def test_n_topics(self, context):
        assert context.n_topics == 4

    def test_every_post_cached(self, context, dataset):
        for thread in dataset.threads[:20]:
            for post in thread.posts:
                d = context.post_topics(post)
                assert d.shape == (4,)
                assert d.sum() == pytest.approx(1.0)
                assert np.all(d >= 0)

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            TopicModelContext.fit(ForumDataset([]), n_topics=2)

    def test_recovers_planted_topic_structure(self, context, dataset, forum):
        """Questions sharing a planted topic look more similar under LDA.

        The context fits fewer topics (4) than the generator plants (8),
        so planted topics can merge — but same-planted-topic questions
        must still be closer on average than different-topic ones.
        """
        from repro.topics.similarity import total_variation_similarity

        mains = np.argmax(forum.question_topics, axis=1)
        threads = dataset.threads[:120]
        dists = [context.post_topics(t.question) for t in threads]
        same, diff = [], []
        for i in range(len(threads)):
            for j in range(i + 1, len(threads)):
                sim = total_variation_similarity(dists[i], dists[j])
                if mains[threads[i].thread_id] == mains[threads[j].thread_id]:
                    same.append(sim)
                else:
                    diff.append(sim)
        assert np.mean(same) > np.mean(diff) + 0.05


class TestInference:
    def test_infer_unseen_body(self, context):
        d = context.infer_body("<p>topic0word1 topic0word2 topic0word3</p>")
        assert d.shape == (4,)
        assert d.sum() == pytest.approx(1.0)

    def test_unseen_post_gets_cached(self, context, dataset):
        post = make_post(10**9, "<p>topic1word1 topic1word2</p>")
        first = context.post_topics(post)
        second = context.post_topics(post)
        np.testing.assert_array_equal(first, second)

    def test_empty_body_uniform(self, context):
        d = context.infer_body("")
        np.testing.assert_allclose(d, 0.25, atol=0.05)


class TestBatchedInference:
    BODIES = [
        "<p>topic0word1 topic0word2 topic0word3</p>",
        "<p>topic1word1 topic1word1 topic2word3</p>",
        "",
        "<p>topic3word2 topic0word1</p>",
    ]

    def test_one_pass_equals_post_by_post(
        self, context, dataset, transform_sizes
    ):
        fresh = [
            make_post(10**9 + 100 + i, body)
            for i, body in enumerate(self.BODIES)
        ]
        known = dataset.threads[1].posts
        posts = [fresh[0], *known, *fresh, fresh[1]]
        with perf.use_registry() as reg:
            got = context.post_topics_many(posts)
        # Only the unseen posts are inferred, each once, in one call.
        assert transform_sizes == [len(fresh)]
        assert reg.counter("topics.docs_inferred") == len(fresh)
        assert reg.stage("topics.infer").calls == 1
        alone = TopicModelContext(context.vocabulary, context.model, {})
        for post, dist in zip(posts, got):
            assert dist is context.post_topics(post)
            if post in fresh:
                np.testing.assert_array_equal(dist, alone.post_topics(post))
        assert transform_sizes == [len(fresh)] + [1] * len(fresh)

    def test_all_cached_runs_no_inference(
        self, context, dataset, transform_sizes
    ):
        assert len(context.post_topics_many(dataset.threads[0].posts)) > 1
        assert context.post_topics_many([]) == []
        assert transform_sizes == []
