"""Held-out inference is batch-invariant for every LDA model.

``transform(docs)[i]`` must equal ``transform([docs[i]])[0]`` bit for
bit: serving infers every post of a thread, and every question of a
micro-batch, in one call, and the result may not depend on which other
documents shared it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.topics.lda as lda_module
from repro.topics.lda import LdaGibbs, LdaVariational

from .lda_oracle import PerDocLdaVariational

N_TOPICS = 3
BLOCK = 4  # topic t owns words [BLOCK * t, BLOCK * (t + 1))
VOCAB = N_TOPICS * BLOCK
# Words of every topic at once: its posterior converges dozens of
# sweeps after a single-topic document's, over several passes.
STRAGGLER = np.repeat(np.arange(VOCAB), 3)
ENGINES = {"batched": LdaVariational, "perdoc": PerDocLdaVariational}


def _corpus() -> list[np.ndarray]:
    """Mostly one topic's words plus two from anywhere: topics that
    overlap a little, so no posterior is reached exactly and extra
    sweeps would show in the bits."""
    rng = np.random.default_rng(0)
    return [
        np.r_[
            rng.integers(BLOCK * (i % N_TOPICS), BLOCK * (i % N_TOPICS + 1), 10),
            rng.integers(0, VOCAB, 2),
        ]
        for i in range(60)
    ]


@pytest.fixture(scope="module")
def models():
    fitted = {
        engine: cls(N_TOPICS, VOCAB, n_iter=30, inner_iter=10, seed=0).fit(
            _corpus()
        )
        for engine, cls in ENGINES.items()
    }
    fitted["gibbs"] = LdaGibbs(N_TOPICS, VOCAB, n_iter=20, seed=0).fit(
        _corpus()
    )
    return fitted


def _single_topic_doc():
    """Words of one topic: converges within a few sweeps."""
    return st.integers(0, N_TOPICS - 1).flatmap(
        lambda t: st.lists(
            st.integers(BLOCK * t, BLOCK * (t + 1) - 1), max_size=12
        )
    )


@st.composite
def batches(draw):
    """Docs (possibly empty, with repeated words), optionally with the
    straggler and a copy of one doc inserted at drawn positions."""
    docs = draw(
        st.lists(
            st.one_of(
                _single_topic_doc(),
                st.lists(st.integers(0, VOCAB - 1), max_size=12),
            ),
            min_size=1,
            max_size=8,
        )
    )
    docs = [np.array(doc, dtype=np.int64) for doc in docs]
    if draw(st.booleans()):
        docs.insert(draw(st.integers(0, len(docs))), STRAGGLER)
    if draw(st.booleans()):
        copy = docs[draw(st.integers(0, len(docs) - 1))]
        docs.insert(draw(st.integers(0, len(docs))), copy)
    return docs


def _transform(model, docs):
    if isinstance(model, LdaGibbs):
        return model.transform(docs, n_iter=3, seed=5)
    return model.transform(docs)


BATCH_EXAMPLES = [
    [np.array([], dtype=np.int64), np.array([0, 0, 0, 1])],
    [np.array([0, 1]), STRAGGLER, np.array([0, 1]), np.array([4, 4, 4])],
    [STRAGGLER, np.array([8, 9, 10, 11, 8, 9]), STRAGGLER],
]


def _with_examples(test):
    for docs in BATCH_EXAMPLES:
        test = example(docs=docs)(test)
    return test


@pytest.mark.parametrize("engine", [*ENGINES, "gibbs"])
@settings(max_examples=25, deadline=None)
@given(docs=batches())
@_with_examples
def test_batched_inference_equals_per_document(models, engine, docs):
    model = models[engine]
    together = _transform(model, docs)
    alone = np.vstack([_transform(model, [doc]) for doc in docs])
    assert together.shape == (len(docs), N_TOPICS)
    np.testing.assert_array_equal(together, alone)


def test_straggler_converges_long_after_single_topic_docs(
    models, monkeypatch
):
    """The straggler really does keep sweeping alone in a batch, so the
    property exercises the active-set compaction and the per-document
    outer loop."""
    calls = []
    original = lda_module.digamma

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lda_module, "digamma", counting)

    def sweeps(doc):
        calls.clear()
        models["batched"].transform([doc])
        return len(calls) // 2  # two digamma calls per sweep

    easy = max(sweeps(np.array([t * BLOCK, t * BLOCK + 1])) for t in range(3))
    hard = sweeps(STRAGGLER)
    assert hard > 2 * models["batched"].inner_iter  # three passes or more
    assert hard >= 4 * easy


@pytest.mark.parametrize("engine", list(ENGINES))
def test_empty_batch(models, engine):
    assert models[engine].transform([]).shape == (0, N_TOPICS)
