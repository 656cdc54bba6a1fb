"""Cross-module integration and robustness tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ForumPredictor,
    PredictorConfig,
    build_extractor,
    build_pair_dataset,
)
from repro.forum import (
    ForumConfig,
    ForumDataset,
    Post,
    Thread,
    generate_forum,
    load_dataset,
    save_dataset,
)

FAST = PredictorConfig(
    n_topics=3,
    vote_epochs=30,
    timing_epochs=30,
    betweenness_sample_size=50,
)


def tiny_forum(seed=0):
    forum = generate_forum(ForumConfig(n_users=120, n_questions=150), seed=seed)
    dataset, _ = forum.dataset.preprocess()
    return dataset


class TestEndToEndFlows:
    def test_generate_save_load_train_predict(self, tmp_path):
        """The full adopter workflow, file round trip included."""
        dataset = tiny_forum()
        path = tmp_path / "forum.jsonl.gz"
        save_dataset(dataset, path)
        reloaded = load_dataset(path)
        predictor = ForumPredictor(FAST).fit(reloaded)
        thread = reloaded.threads[-1]
        pred = predictor.predict(next(iter(reloaded.answerers)), thread)
        assert 0.0 <= pred.answer_probability <= 1.0
        assert np.isfinite(pred.votes)
        assert pred.response_time > 0

    def test_stack_exchange_json_through_pipeline(self, tmp_path):
        """API-format data flows through preprocessing and featurization."""
        rng = np.random.default_rng(0)
        items = []
        base = 1_528_020_000
        for q in range(40):
            answers = [
                {
                    "answer_id": 10_000 + 10 * q + j,
                    "creation_date": base + q * 3600 + (j + 1) * 600,
                    "score": int(rng.integers(-2, 8)),
                    "body": f"<p>answer topic{q % 3}word{j} detail</p>",
                    "owner": {"user_id": 500 + int(rng.integers(0, 20))},
                }
                for j in range(int(rng.integers(1, 3)))
            ]
            items.append(
                {
                    "question_id": q,
                    "creation_date": base + q * 3600,
                    "score": int(rng.integers(0, 10)),
                    "body": f"<p>question topic{q % 3}word0 words here</p>"
                    "<pre><code>x = 1</code></pre>",
                    "owner": {"user_id": int(rng.integers(0, 200))},
                    "answers": answers,
                }
            )
        path = tmp_path / "api.json"
        path.write_text(json.dumps({"items": items}))
        from repro.forum import load_api_json

        dataset, _ = load_api_json(path).preprocess()
        extractor = build_extractor(dataset, FAST)
        pairs = build_pair_dataset(dataset, extractor, seed=0)
        assert pairs.n_pairs > 0
        assert np.all(np.isfinite(pairs.x))


class TestRobustness:
    def test_posts_with_empty_bodies(self):
        """Threads whose posts carry no text must not break featurization."""
        threads = []
        pid = 0
        for q in range(25):
            question = Post(
                post_id=pid,
                thread_id=q,
                author=q % 5,
                timestamp=float(q),
                votes=1,
                body="",
                is_question=True,
            )
            pid += 1
            answer = Post(
                post_id=pid,
                thread_id=q,
                author=5 + q % 7,
                timestamp=float(q) + 0.5,
                votes=0,
                body="",
                is_question=False,
            )
            pid += 1
            threads.append(Thread(question=question, answers=[answer]))
        dataset = ForumDataset(threads)
        with pytest.raises(ValueError, match="vocabulary is empty"):
            build_extractor(dataset, FAST)

    def test_mixed_empty_and_real_bodies(self):
        """A few empty posts among real ones are tolerated."""
        dataset = tiny_forum(seed=2)
        threads = list(dataset.threads)
        # Replace one question body with an empty string.
        victim = threads[0]
        empty_question = Post(
            post_id=victim.question.post_id,
            thread_id=victim.thread_id,
            author=victim.asker,
            timestamp=victim.created_at,
            votes=victim.question.votes,
            body="",
            is_question=True,
        )
        threads[0] = Thread(question=empty_question, answers=victim.answers)
        patched = ForumDataset(threads)
        extractor = build_extractor(patched, FAST)
        x = extractor.feature_matrix(
            [(next(iter(patched.answerers)), patched.threads[0])]
        )
        assert np.all(np.isfinite(x))

    def test_constant_votes_dataset(self):
        """Zero-variance vote targets must not produce NaNs anywhere."""
        dataset = tiny_forum(seed=3)
        flat_threads = []
        for t in dataset.threads:
            answers = [
                Post(
                    post_id=a.post_id,
                    thread_id=a.thread_id,
                    author=a.author,
                    timestamp=a.timestamp,
                    votes=1,
                    body=a.body,
                    is_question=False,
                )
                for a in t.answers
            ]
            flat_threads.append(Thread(question=t.question, answers=answers))
        flat = ForumDataset(flat_threads)
        predictor = ForumPredictor(FAST).fit(flat)
        pred = predictor.predict(
            next(iter(flat.answerers)), flat.threads[0]
        )
        assert np.isfinite(pred.votes)

    def test_single_thread_window(self):
        """An extractor over a one-thread window stays finite."""
        dataset = tiny_forum(seed=4)
        window = ForumDataset([dataset.threads[0]])
        extractor = build_extractor(window, FAST)
        x = extractor.feature_matrix([(12345, dataset.threads[-1])])
        assert np.all(np.isfinite(x))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_io_roundtrip_property(seed):
    """Any generated forum survives a JSON round trip byte-exactly."""
    import io as _io
    import tempfile
    from pathlib import Path

    forum = generate_forum(ForumConfig(n_users=30, n_questions=15), seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        save_dataset(forum.dataset, path)
        back = load_dataset(path)
    assert len(back) == len(forum.dataset)
    for a, b in zip(forum.dataset, back):
        assert a.question.body == b.question.body
        assert a.created_at == b.created_at
        assert [p.votes for p in a.answers] == [p.votes for p in b.answers]
