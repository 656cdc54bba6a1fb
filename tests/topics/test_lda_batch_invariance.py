"""Held-out inference is batch-invariant for every LDA model.

``transform(docs)[i]`` must equal ``transform([docs[i]])[0]`` bit for
bit: serving infers every post of a thread, and every question of a
micro-batch, in one call, and the result may not depend on which other
documents shared it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.topics.lda as lda_module
from repro.topics.lda import LdaGibbs, LdaVariational

from .lda_oracle import WARMUP_SWEEPS, PerDocLdaVariational, _documents, _sweep

N_TOPICS = 3
BLOCK = 4  # topic t owns words [BLOCK * t, BLOCK * (t + 1))
VOCAB = N_TOPICS * BLOCK
# Words of every topic at once: its posterior converges past the plain
# warm-up, long after a single-topic document's.
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
    # Settles on sweep 22, mid-cycle, while the straggler sweeps on.
    [np.array([0, 7, 11]), STRAGGLER],
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


@pytest.fixture
def digamma_calls(monkeypatch):
    """The length of every digamma argument: a sweep of the batched
    engine makes two calls, both on (active docs, ...) arrays."""
    calls = []
    original = lda_module.digamma

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(lda_module, "digamma", counting)
    return calls


def _active_sizes(model, docs, calls):
    """Active-set size of every sweep of ``model.transform(docs)``."""
    calls.clear()
    model.transform(docs)
    return calls[::2]


def test_straggler_extrapolates_alone_after_compaction(
    models, digamma_calls, monkeypatch
):
    """In a batch the single-topic documents finish during the plain
    warm-up and the straggler sweeps on alone past it, so the property
    exercises compaction with kept cycle state; extrapolation settles
    it in fewer sweeps than the plain loop."""
    easy = [np.array([t * BLOCK, t * BLOCK + 1]) for t in range(N_TOPICS)]
    sizes = _active_sizes(models["batched"], [*easy, STRAGGLER], digamma_calls)
    assert sizes[0] == N_TOPICS + 1
    assert set(sizes[WARMUP_SWEEPS - 1 :]) == {1}
    assert len(sizes) > WARMUP_SWEEPS + 2  # a whole cycle alone

    monkeypatch.setattr(lda_module, "_WARMUP_SWEEPS", 10**9)  # never extrapolate
    plain = _active_sizes(models["batched"], [STRAGGLER], digamma_calls)
    assert len(sizes) < len(plain)


@pytest.mark.parametrize("engine", list(ENGINES))
def test_transform_returns_a_fixed_point(models, engine):
    """One more plain sweep from each returned gamma moves it by less
    than ``tol`` in mean: the stop is on a plain sweep, not on an
    extrapolated point."""
    model = models[engine]
    rng = np.random.default_rng(0)
    docs = [*_corpus(), STRAGGLER]
    docs += [rng.integers(0, VOCAB, rng.integers(1, 13)) for _ in range(100)]
    corpus = model._corpus(docs)
    gamma = np.ones((len(docs), N_TOPICS))
    model._squarem(corpus, model._exp_elog_beta, gamma)
    for d, beta_d, cnt in _documents(corpus, model._exp_elog_beta):
        step = _sweep(gamma[d], beta_d, cnt, model.alpha)
        assert np.abs(step - gamma[d]).mean() < model.tol


@pytest.mark.parametrize("budget", [WARMUP_SWEEPS - 5, WARMUP_SWEEPS + 2])
def test_unsettled_document_stops_at_sweep_budget(models, digamma_calls, budget):
    """A document the budget cannot settle stops after exactly
    ``n_iter * inner_iter`` sweeps, in the warm-up or mid-cycle, with
    that sweep's result."""
    meta, lam = models["batched"].to_state()
    meta = {**meta, "n_iter": 1, "inner_iter": budget}
    capped = {e: cls.from_state(meta, lam) for e, cls in ENGINES.items()}
    docs = [np.array([0, 1]), STRAGGLER]
    assert len(_active_sizes(capped["batched"], docs, digamma_calls)) == budget
    together = capped["batched"].transform(docs)
    np.testing.assert_array_equal(together, capped["perdoc"].transform(docs))
    settled = models["batched"].transform(docs)
    np.testing.assert_array_equal(together[0], settled[0])
    assert not np.array_equal(together[1], settled[1])


@pytest.mark.parametrize("engine", list(ENGINES))
def test_empty_batch(models, engine):
    assert models[engine].transform([]).shape == (0, N_TOPICS)


def test_zero_tol_reaches_fixed_points_without_warnings(models):
    """With ``tol=0`` no document stops early, so documents reach exact
    fixed points (r = v = 0) and their extrapolation step is 0/0.  That
    row falls back to its plain sweep, quietly: the output is the same
    as with warnings ignored, and matches the per-document oracle."""
    meta, lam = models["batched"].to_state()
    meta = {**meta, "tol": 0.0}
    model = LdaVariational.from_state(meta, lam)
    docs = [*_corpus(), STRAGGLER, np.array([0, 1])]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = PerDocLdaVariational.from_state(meta, lam).transform(docs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.transform(docs)
    np.testing.assert_array_equal(got, expected)
