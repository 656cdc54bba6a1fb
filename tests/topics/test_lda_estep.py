"""The batched LdaVariational E-step against the per-document oracle.

The batched active-set fixed point is the one engine; the per-document
loop (``lda_oracle.py``) is the readable reference.  The contract is
agreement to 1e-8; by construction they perform identical arithmetic
in identical order, so we actually hold them to bit-level agreement.
"""

import numpy as np
import pytest

from repro.topics.lda import LdaVariational, _extrapolate

from .lda_oracle import PerDocLdaVariational

ENGINES = {"batched": LdaVariational, "perdoc": PerDocLdaVariational}


def _docs(seed: int, n_docs: int = 40, vocab: int = 30) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(0, 25))
        docs.append(rng.integers(0, vocab, size=length))
    docs.append(np.array([], dtype=int))  # empty doc keeps the prior
    return docs


def _fit(engine: str, seed: int = 3) -> LdaVariational:
    model = ENGINES[engine](n_topics=4, vocab_size=30, n_iter=15, seed=seed)
    model.fit(_docs(seed))
    return model


class TestEngineEquivalence:
    def test_batched_matches_perdoc_exactly(self):
        batched = _fit("batched")
        perdoc = _fit("perdoc")
        assert np.max(np.abs(batched.doc_topic_ - perdoc.doc_topic_)) <= 1e-8
        assert np.max(np.abs(batched.topic_word_ - perdoc.topic_word_)) <= 1e-8
        np.testing.assert_array_equal(batched.doc_topic_, perdoc.doc_topic_)
        np.testing.assert_array_equal(batched.topic_word_, perdoc.topic_word_)

    def test_transform_matches_perdoc_exactly(self):
        batched = _fit("batched")
        perdoc = _fit("perdoc")
        # Seed 110 adds a document whose SqS3 step length is clamped.
        held_out = _docs(99, n_docs=15) + _docs(110, n_docs=15)
        np.testing.assert_array_equal(
            batched.transform(held_out), perdoc.transform(held_out)
        )

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_engines_recover_block_structure(self, engine):
        # On a separable corpus the topics must recover the blocks.
        rng = np.random.default_rng(0)
        docs = []
        for i in range(60):
            block = rng.integers(0, 15) if i % 2 else rng.integers(15, 30)
            docs.append(
                rng.integers(15 * (i % 2 == 0), 15 + 15 * (i % 2 == 0), 40)
            )
        model = ENGINES[engine](n_topics=2, vocab_size=30, n_iter=30, seed=1)
        model.fit(docs)
        block_mass = model.topic_word_[:, :15].sum(axis=1)
        assert (block_mass.min() < 0.05) and (block_mass.max() > 0.95)


class TestExtrapolate:
    """The SqS3 step on hand-worked cycles, row by row."""

    def test_linear_cycle_lands_on_its_fixed_point(self):
        # Each sweep halves the distance to (2, 2): |r| / |v| = 2.
        g0, g1, g2 = np.array([[[4.0, 1.0]], [[3.0, 1.5]], [[2.5, 1.75]]])
        np.testing.assert_array_equal(_extrapolate(g0, g1, g2, 0.1), [[2.0, 2.0]])

    def test_step_never_shorter_than_the_plain_one(self):
        # An oscillating cycle: |r| / |v| = 1/2 is clamped to 1, which
        # lands on g2.
        g0, g1, g2 = np.array([[[1.0, 2.0]], [[2.0, 1.0]], [[1.0, 2.0]]])
        np.testing.assert_array_equal(_extrapolate(g0, g1, g2, 0.1), g2)

    def test_rows_leaving_the_support_take_g2(self):
        # Row 0 lands on (2, 2) == alpha, row 1 on (3, 3) > alpha; row 2
        # does not move, so its step length is 0 / 0.
        g0 = np.array([[4.0, 1.0], [5.0, 2.0], [3.0, 3.0]])
        g1 = np.array([[3.0, 1.5], [4.0, 2.5], [3.0, 3.0]])
        g2 = np.array([[2.5, 1.75], [3.5, 2.75], [3.0, 3.0]])
        with np.errstate(invalid="ignore"):
            out = _extrapolate(g0, g1, g2, 2.0)
        np.testing.assert_array_equal(out, [g2[0], [3.0, 3.0], g2[2]])


class TestEngineConfig:
    def test_unknown_engine_rejected(self):
        # Snapshots of the retired corpus-wide engine inferred held-out
        # documents differently; loading one must fail, not drift.
        meta, lam = _fit("batched").to_state()
        for engine in ("global", "bogus"):
            with pytest.raises(ValueError, match="e_step"):
                LdaVariational.from_state({**meta, "e_step": engine}, lam)

    @pytest.mark.parametrize("engine", ["batched", "perdoc", None])
    def test_state_round_trip_preserves_engine(self, engine):
        # Older snapshots carry an e_step tag; both per-document tags
        # ran today's arithmetic, so they load with identical inference.
        model = _fit("batched")
        meta, lam = model.to_state()
        assert "e_step" not in meta
        if engine is not None:
            meta = {**meta, "e_step": engine}
        restored = LdaVariational.from_state(meta, lam)
        held_out = _docs(7, n_docs=10)
        np.testing.assert_array_equal(
            model.transform(held_out), restored.transform(held_out)
        )
