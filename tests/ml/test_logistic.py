"""Tests for repro.ml.logistic."""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import auc_score


def make_separable(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
    return x, y


def make_noisy(n=400, d=6, seed=0):
    """Overlapping classes: the L2 optimum is finite and well inside."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    logits = x @ rng.normal(size=d) + 0.3
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return x, y


def objective(w, x, y, l2):
    """mean NLL + 0.5 (l2/n) ||beta||^2 and its gradient; w = (beta, b)."""
    n = len(y)
    z = x @ w[:-1] + w[-1]
    loss = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 / n * w[:-1] @ w[:-1]
    r = (1.0 / (1.0 + np.exp(-z)) - y) / n
    grad = np.append(x.T @ r + l2 / n * w[:-1], r.sum())
    return loss, grad


class TestNewtonSolver:
    def test_gradient_vanishes_at_fit(self):
        x, y = make_noisy()
        model = LogisticRegression(l2=5.0).fit(x, y)
        _, grad = objective(np.append(model.coef_, model.intercept_), x, y, 5.0)
        assert np.max(np.abs(grad)) <= 1e-6

    @pytest.mark.parametrize("l2", [1e-3, 1.0, 20.0])
    def test_matches_lbfgs_oracle(self, l2):
        x, y = make_noisy(seed=7)
        model = LogisticRegression(l2=l2).fit(x, y)
        oracle = minimize(
            objective,
            np.zeros(x.shape[1] + 1),
            args=(x, y, l2),
            jac=True,
            method="L-BFGS-B",
            options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000},
        )
        ours = np.append(model.coef_, model.intercept_)
        np.testing.assert_allclose(ours, oracle.x, rtol=0, atol=1e-5)
        assert objective(ours, x, y, l2)[0] <= oracle.fun + 1e-12

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_constant_labels_terminate_finite(self, label):
        x, _ = make_noisy(n=50, seed=3)
        model = LogisticRegression(l2=1e-2).fit(x, np.full(50, label))
        assert np.all(np.isfinite(model.coef_))
        assert np.isfinite(model.intercept_)
        assert len(model.loss_history_) <= model.max_iter + 1
        p = model.predict_proba(x)
        assert np.all(p > 0.99) if label else np.all(p < 0.01)

    def test_loss_history_non_increasing(self):
        x, y = make_noisy(seed=11)
        history = LogisticRegression(l2=0.1).fit(x, y).loss_history_
        assert len(history) > 2
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_refit_is_a_function_of_its_data(self):
        x, y = make_noisy(seed=13)
        model = LogisticRegression().fit(x[:200], y[:200])
        model.fit(x, y)
        fresh = LogisticRegression().fit(x, y)
        assert np.array_equal(model.coef_, fresh.coef_)
        assert model.intercept_ == fresh.intercept_


class TestFit:
    def test_separable_data_high_accuracy(self):
        x, y = make_separable()
        model = LogisticRegression().fit(x, y)
        acc = np.mean(model.predict(x) == y)
        assert acc > 0.95

    def test_recovers_coefficient_signs(self):
        x, y = make_separable()
        model = LogisticRegression().fit(x, y)
        assert model.coef_[0] > 0
        assert model.coef_[1] > 0
        assert model.coef_[0] > model.coef_[1]

    def test_probabilities_in_unit_interval(self):
        x, y = make_separable()
        p = LogisticRegression().fit(x, y).predict_proba(x)
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_auc_beats_chance(self):
        x, y = make_separable(seed=4)
        p = LogisticRegression().fit(x, y).predict_proba(x)
        assert auc_score(y, p) > 0.9

    def test_loss_monotone_overall(self):
        x, y = make_separable(seed=2)
        model = LogisticRegression(max_iter=300).fit(x, y)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_stronger_l2_shrinks_coefficients(self):
        x, y = make_separable(seed=3)
        weak = LogisticRegression(l2=1e-4).fit(x, y)
        strong = LogisticRegression(l2=50.0).fit(x, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_noisy_labels_still_converge(self):
        rng = np.random.default_rng(5)
        x, y = make_separable(seed=5)
        flip = rng.uniform(size=len(y)) < 0.2
        y = np.where(flip, 1 - y, y)
        model = LogisticRegression().fit(x, y)
        assert np.all(np.isfinite(model.coef_))


class TestValidation:
    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            LogisticRegression().predict_proba(np.zeros((1, 2)))

    def test_non_binary_labels_raise(self):
        with pytest.raises(ValueError, match="binary"):
            LogisticRegression().fit(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), np.array([0, 1]))

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros(3), np.array([0, 1, 0]))

    def test_negative_l2_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1.0)

    def test_predict_single_row(self):
        x, y = make_separable()
        model = LogisticRegression().fit(x, y)
        p = model.predict_proba(np.array([1.0, 1.0]))
        assert p.shape == (1,)
