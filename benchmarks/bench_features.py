"""Featurization throughput of the block kernel on both pair shapes.

``FeatureExtractor.feature_matrix`` groups pairs into one block per
question.  This benchmark times it on the two shapes the system feeds
it:

* **training** — the Table-I pair population (every positive plus one
  negative each): hundreds of small blocks, every positive on the
  leakage-guard path;
* **serving** — fresh questions, each one block of one thread against
  every candidate answerer, as the router scores them.  Timed in both
  input forms: a ``PairBlocks`` per question (one int64 candidate
  array, as ``ServingCore`` calls the kernel) and a list of
  ``(user, thread)`` tuples per question.

Both are checked element-wise against the scalar reference oracle
(``tests/feature_oracle.py``), the kernel must beat the oracle's
one-pair-at-a-time loop on the training pairs by at least 5x, and the
measurement is recorded in
``BENCH_features.json`` at the repo root.  Serving blocks are timed with
each question's topic inference already cached, so the figure is the
kernel alone.

The topic inference that fills that cache, ``d(p)`` of every new post,
is timed separately: the last posts of the forum, already encoded,
through ``LdaVariational.transform`` one post per call and in batches
of 3, 8 and ``ForumState``'s flush size (a thread's posts, a
micro-batch's questions, the posts one settle of ingested threads
infers), with the batched output asserted bit-identical to the one-post
calls.  A batch
costs as many fixed-point sweeps as its slowest post, so the record
also counts the sweeps of each post alone and of each batch of 8.
"""

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from _meta import record_bench
from conftest import FORUM_CONFIG

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import repro.topics.lda as lda_module  # noqa: E402
from repro.core.features import PairBlocks  # noqa: E402
from repro.core.state import _SETTLE_DOCS  # noqa: E402
from repro.forum.models import Thread  # noqa: E402
from repro.topics.tokenizer import split_text_and_code, tokenize  # noqa: E402
from tests.feature_oracle import scalar_matrix  # noqa: E402

RESULT_PATH = ROOT / "BENCH_features.json"
REPEATS = 10
ORACLE_REPEATS = 3
MIN_SPEEDUP = 5.0
N_QUESTIONS = 40
N_POSTS = 120
INFER_BATCHES = (1, 3, 8, _SETTLE_DOCS)


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
    """Fresh copies of the last questions, each against every answerer
    but its asker, as one ``PairBlocks`` per question."""
    next_tid = max(t.thread_id for t in dataset) + 1
    next_post = max(p.post_id for t in dataset for p in t.posts) + 1
    candidates = np.array(sorted(dataset.answerers), dtype=np.int64)
    blocks = []
    for i, t in enumerate(dataset.threads[-N_QUESTIONS:]):
        question = Thread(
            dataclasses.replace(
                t.question, thread_id=next_tid + i, post_id=next_post + i
            )
        )
        users = candidates[candidates != t.asker]
        blocks.append(PairBlocks(users, [question], np.array([users.size])))
    return blocks


def as_pairs(block):
    """The same pairs as a list of ``(user, thread)`` tuples."""
    (thread,) = block.threads
    return [(u, thread) for u in block.users.tolist()]


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
    pair_lists = [as_pairs(b) for b in blocks]

    def serve(inputs):
        for block in inputs:
            extractor.feature_matrix(block)

    # Equivalence with the oracle, and of the two serving forms bit for
    # bit; this also warms the per-question info and the asker memos
    # before timing.
    for pairs in (train, pair_lists[0], pair_lists[-1]):
        np.testing.assert_allclose(
            extractor.feature_matrix(pairs),
            scalar_matrix(extractor, pairs),
            rtol=0.0,
            atol=1e-12,
        )
    for block, pairs in zip(blocks, pair_lists):
        np.testing.assert_array_equal(
            extractor.feature_matrix(block), extractor.feature_matrix(pairs)
        )

    oracle_seconds = time_call(
        lambda: scalar_matrix(extractor, train), ORACLE_REPEATS
    )
    train_seconds = time_call(lambda: extractor.feature_matrix(train), REPEATS)
    # The two serving forms take turns, so a slow stretch of a shared
    # host hits them alike; each keeps its best round.
    forms = {"pair_blocks": blocks, "pair_list": pair_lists}
    serve_seconds = dict.fromkeys(forms, float("inf"))
    for _ in range(REPEATS):
        for form, inputs in forms.items():
            serve_seconds[form] = min(
                serve_seconds[form], time_call(lambda: serve(inputs), 1)
            )
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
            **{
                form: {
                    "ms_per_question": round(
                        seconds / len(blocks) * 1e3, 4
                    ),
                    "us_per_pair": round(seconds / n_serve * 1e6, 3),
                }
                for form, seconds in serve_seconds.items()
            },
        },
    }
    for section, payload in record.items():
        record_bench(RESULT_PATH, section, payload)
    print(
        f"\nfeature_matrix: training {train_seconds * 1e3:.2f} ms "
        f"({len(train)} pairs), serving "
        f"{serve_seconds['pair_blocks'] / len(blocks) * 1e3:.3f} ms/question "
        f"as PairBlocks, "
        f"{serve_seconds['pair_list'] / len(blocks) * 1e3:.3f} as pair lists "
        f"({n_serve // len(blocks)} candidates), "
        f"{oracle_seconds / train_seconds:.1f}x the oracle "
        f"-> {RESULT_PATH.name}"
    )
    assert oracle_seconds / train_seconds >= MIN_SPEEDUP


def count_sweeps(model, batches, monkeypatch):
    """Fixed-point sweeps of ``model.transform`` on each batch, counted
    on the inference module's digamma: two calls per sweep."""
    calls = []
    digamma = lda_module.digamma

    def counting(*args, **kwargs):
        calls.append(1)
        return digamma(*args, **kwargs)

    sweeps = []
    with monkeypatch.context() as patch:
        patch.setattr(lda_module, "digamma", counting)
        for batch in batches:
            calls.clear()
            model.transform(batch)
            sweeps.append(len(calls) // 2)
    return np.array(sweeps)


def test_topic_inference_batches(dataset, extractor, monkeypatch):
    topics = extractor.topics
    posts = [p for t in dataset.threads for p in t.posts][-N_POSTS:]
    docs = [
        topics.vocabulary.encode(tokenize(split_text_and_code(p.body).words))
        for p in posts
    ]
    model = topics.model

    def infer(size):
        return np.vstack(
            [
                model.transform(docs[i : i + size])
                for i in range(0, len(docs), size)
            ]
        )

    alone = infer(1)
    for size in INFER_BATCHES:
        np.testing.assert_array_equal(infer(size), alone)
    # Batch sizes take turns, so a slow stretch of a shared host hits
    # them alike; each keeps its best round.
    best = dict.fromkeys(INFER_BATCHES, float("inf"))
    for _ in range(REPEATS):
        for size in INFER_BATCHES:
            best[size] = min(best[size], time_call(lambda: infer(size), 1))
    ms_per_post = {
        str(size): round(seconds / len(docs) * 1e3, 4)
        for size, seconds in best.items()
    }
    single = count_sweeps(model, [[doc] for doc in docs], monkeypatch)
    of_8 = count_sweeps(
        model, [docs[i : i + 8] for i in range(0, len(docs), 8)], monkeypatch
    )
    sweeps = {
        "alone_mean": round(float(single.mean()), 1),
        "alone_max": int(single.max()),
        "batch_of_8_mean": round(float(of_8.mean()), 1),
        "batch_of_8_max": int(of_8.max()),
    }
    record_bench(
        RESULT_PATH,
        "inference",
        {
            "n_posts": len(docs),
            "n_topics": model.n_topics,
            "vocab_size": model.vocab_size,
            "distinct_words_per_post": round(
                float(np.mean([np.unique(d).size for d in docs])), 1
            ),
            "ms_per_post_by_batch_size": ms_per_post,
            "sweeps": sweeps,
        },
    )
    print(
        "\ntopic inference: "
        + ", ".join(
            f"{ms} ms/post in batches of {size}"
            for size, ms in ms_per_post.items()
        )
        + f"; {sweeps['alone_mean']} sweeps/post alone (max "
        f"{sweeps['alone_max']}), {sweeps['batch_of_8_mean']} per batch of 8"
        f" -> {RESULT_PATH.name}"
    )
