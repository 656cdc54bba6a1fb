"""Tests for repro.core.explain — per-prediction feature attribution."""

import numpy as np
import pytest

from repro.core.explain import explain_prediction
from repro.core.pipeline import ForumPredictor


@pytest.fixture(scope="module")
def fitted(dataset, predictor_config):
    return ForumPredictor(predictor_config).fit(dataset)


@pytest.fixture(scope="module")
def explanation(fitted, dataset):
    user = next(iter(dataset.answerers))
    return explain_prediction(fitted, user, dataset.threads[0]), user


class TestStructure:
    def test_all_twenty_features_per_task(self, explanation, fitted):
        exp, _ = explanation
        names = set(fitted.extractor.spec.feature_names)
        for task in ("answer", "votes", "response_time"):
            contributions = getattr(exp, task)
            assert {c.feature for c in contributions} == names

    def test_identifies_pair(self, explanation, dataset):
        exp, user = explanation
        assert exp.user == user
        assert exp.thread_id == dataset.threads[0].thread_id

    def test_top_sorted_by_magnitude(self, explanation):
        exp, _ = explanation
        top = exp.top("answer", 5)
        mags = [abs(c.contribution) for c in top]
        assert mags == sorted(mags, reverse=True)
        assert len(top) == 5

    def test_contributions_finite(self, explanation):
        exp, _ = explanation
        for task in ("answer", "votes", "response_time"):
            for c in getattr(exp, task):
                assert np.isfinite(c.contribution)
                assert np.isfinite(c.value)


class TestLinearExactness:
    def test_answer_contributions_sum_to_logit(self, fitted, dataset):
        """Linear attribution is exact: contributions + intercept = logit."""
        user = next(iter(dataset.answerers))
        thread = dataset.threads[0]
        exp = explain_prediction(fitted, user, thread)
        total = sum(c.contribution for c in exp.answer)
        x = fitted.extractor.feature_matrix([(user, thread)])
        p = fitted.answer_model.predict_proba(x)[0]
        logit = np.log(p / (1 - p))
        intercept = fitted.answer_model.classifier.intercept_
        assert total + intercept == pytest.approx(logit, abs=1e-8)


class TestPerturbationSanity:
    def test_zeroing_everything_changes_prediction(self, fitted, dataset):
        """Some feature must matter for the vote prediction."""
        user = next(iter(dataset.answerers))
        exp = explain_prediction(fitted, user, dataset.threads[0])
        assert any(abs(c.contribution) > 1e-6 for c in exp.votes)

    def test_unfitted_raises(self, predictor_config, dataset):
        with pytest.raises(RuntimeError):
            explain_prediction(
                ForumPredictor(predictor_config), 0, dataset.threads[0]
            )
