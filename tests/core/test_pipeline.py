"""Integration tests for repro.core.pipeline."""

import numpy as np
import pytest

from repro.core.pipeline import ForumPredictor, PredictorConfig
from repro.forum.dataset import ForumDataset


@pytest.fixture(scope="module")
def fitted(dataset, predictor_config):
    return ForumPredictor(predictor_config).fit(dataset)


class TestFit:
    def test_components_present(self, fitted):
        assert fitted.topics is not None
        assert fitted.extractor is not None
        assert fitted.answer_model is not None
        assert fitted.vote_model is not None
        assert fitted.timing_model is not None

    def test_empty_dataset_raises(self, predictor_config):
        with pytest.raises(ValueError):
            ForumPredictor(predictor_config).fit(ForumDataset([]))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PredictorConfig(n_topics=0)
        with pytest.raises(ValueError):
            PredictorConfig(negative_ratio=0)


class TestPredict:
    def test_single_pair(self, fitted, dataset):
        thread = dataset.threads[0]
        user = next(iter(dataset.answerers))
        pred = fitted.predict(user, thread)
        assert 0.0 <= pred.answer_probability <= 1.0
        assert np.isfinite(pred.votes)
        assert pred.response_time > 0

    def test_batch_matches_single(self, fitted, dataset):
        thread = dataset.threads[0]
        users = list(dataset.answerers)[:4]
        batch = fitted.predict_batch([(u, thread) for u in users])
        for i, u in enumerate(users):
            single = fitted.predict(u, thread)
            assert batch["answer"][i] == pytest.approx(single.answer_probability)
            assert batch["votes"][i] == pytest.approx(single.votes)
            assert batch["response_time"][i] == pytest.approx(
                single.response_time
            )

    def test_empty_batch(self, fitted):
        out = fitted.predict_batch([])
        assert all(len(v) == 0 for v in out.values())

    def test_unfitted_raises(self, dataset, predictor_config):
        predictor = ForumPredictor(predictor_config)
        with pytest.raises(RuntimeError):
            predictor.predict(0, dataset.threads[0])

    def test_answerers_rank_above_strangers(self, fitted, dataset):
        """Predicted answer probability separates real answerers from
        random non-participants on average."""
        answer_probs, stranger_probs = [], []
        strangers = [u for u in range(10**6, 10**6 + 5)]
        for thread in dataset.threads[:30]:
            for u in thread.answerers:
                answer_probs.append(
                    fitted.predict(u, thread).answer_probability
                )
            answer_probs_threads = thread
            for u in strangers[:2]:
                stranger_probs.append(
                    fitted.predict(u, thread).answer_probability
                )
        assert np.mean(answer_probs) > np.mean(stranger_probs)


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestGatedPredictMatrix:
    """``epsilon`` gates the vote and timing heads to eligible rows."""

    @pytest.fixture(scope="class")
    def rows(self, fitted, dataset):
        users = sorted(dataset.answerers)
        pairs = [(u, t) for t in dataset.threads[-4:] for u in users]
        x = fitted.extractor.feature_matrix(pairs)
        horizons = fitted._horizons([t for _, t in pairs])
        return x, horizons

    @pytest.mark.parametrize("epsilon", [0.05, 0.25, 0.5, 0.999])
    def test_eligible_rows_bit_identical_to_ungated(
        self, fitted, rows, epsilon
    ):
        x, horizons = rows
        full = fitted.predict_matrix(x, horizons)
        gated = fitted.predict_matrix(x, horizons, epsilon=epsilon)
        assert bitwise_equal(full["answer"], gated["answer"])
        eligible = full["answer"] >= epsilon
        for key in ("votes", "response_time"):
            assert bitwise_equal(full[key][eligible], gated[key][eligible])
            assert np.isnan(gated[key][~eligible]).all()

    def test_heads_see_only_eligible_rows(self, fitted, rows, monkeypatch):
        x, horizons = rows
        answer = fitted.answer_model.predict_proba(x)
        epsilon = float(np.median(answer))
        seen = {}
        for name in ("vote_model", "timing_model"):
            model = getattr(fitted, name)
            original = model.predict

            def spy(xs, *args, _name=name, _original=original):
                seen[_name] = len(xs)
                return _original(xs, *args)

            monkeypatch.setattr(model, "predict", spy)
        fitted.predict_matrix(x, horizons, epsilon=epsilon)
        n_eligible = int((answer >= epsilon).sum())
        assert 0 < n_eligible < len(x)
        assert seen == {"vote_model": n_eligible, "timing_model": n_eligible}

    def test_predict_batch_scores_every_row(self, fitted, dataset):
        thread = dataset.threads[-1]
        pairs = [(u, thread) for u in sorted(dataset.answerers)]
        out = fitted.predict_batch(pairs)
        assert (out["answer"] < 0.25).any()  # ineligible rows are scored
        for values in out.values():
            assert values.shape == (len(pairs),)
            assert np.isfinite(values).all()


class TestFeatureWindow:
    def test_separate_window(self, dataset, predictor_config):
        """Training on late threads with features from early threads."""
        mid = dataset.threads[len(dataset) // 2].created_at
        early = dataset.threads_in_window(0.0, mid)
        late = dataset.threads_in_window(mid, dataset.duration_hours + 1)
        predictor = ForumPredictor(predictor_config).fit(
            late, feature_window=early
        )
        thread = late.threads[0]
        pred = predictor.predict(next(iter(early.answerers)), thread)
        assert 0.0 <= pred.answer_probability <= 1.0
