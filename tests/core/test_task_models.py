"""Tests for the three task models (answer, vote, timing) on pair data."""

import copy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.core import ForumPredictor
from repro.core.answer_model import AnswerModel
from repro.core.timing_model import TimingModel
from repro.core.vote_model import VoteModel
from repro.ml.metrics import auc_score, rmse
from repro.ml.network import MLP


class TestAnswerModel:
    def test_beats_chance_on_pairs(self, pairs):
        n = pairs.n_pairs
        train = np.arange(n) % 2 == 0
        model = AnswerModel().fit(pairs.x[train], pairs.is_event[train])
        auc = auc_score(
            pairs.is_event[~train], model.predict_proba(pairs.x[~train])
        )
        assert auc > 0.7

    def test_coefficients_available(self, pairs):
        model = AnswerModel().fit(pairs.x, pairs.is_event)
        assert model.coefficients.shape == (pairs.x.shape[1],)

    def test_unfitted_coefficients_raise(self):
        with pytest.raises(RuntimeError):
            AnswerModel().coefficients


class TestVoteModel:
    def test_beats_mean_predictor(self, pairs, predictor_config):
        pos = pairs.positives
        train = pos[: len(pos) // 2]
        test = pos[len(pos) // 2 :]
        model = VoteModel(
            pairs.x.shape[1], epochs=predictor_config.vote_epochs, seed=0
        )
        model.fit(pairs.x[train], pairs.votes[train])
        model_rmse = rmse(pairs.votes[test], model.predict(pairs.x[test]))
        mean_rmse = rmse(
            pairs.votes[test],
            np.full(len(test), pairs.votes[train].mean()),
        )
        assert model_rmse < mean_rmse

    def test_unfitted_predict_raises(self, pairs):
        with pytest.raises(RuntimeError):
            VoteModel(pairs.x.shape[1]).predict(pairs.x[:1])

    def test_invalid_features(self):
        with pytest.raises(ValueError):
            VoteModel(0)


class TestTimingModel:
    @pytest.fixture(scope="class")
    def fitted(self, pairs, predictor_config):
        model = TimingModel(
            pairs.x.shape[1], epochs=predictor_config.timing_epochs, seed=0
        )
        n = pairs.n_pairs
        train = np.arange(n) % 2 == 0
        model.fit(
            pairs.x[train],
            pairs.times[train],
            pairs.horizons[train],
            pairs.is_event[train],
        )
        return model, train

    def test_predictions_positive_and_within_horizon(self, fitted, pairs):
        model, train = fitted
        test_pos = np.flatnonzero(~train & (pairs.is_event == 1.0))
        preds = model.predict(pairs.x[test_pos], pairs.horizons[test_pos])
        assert np.all(preds > 0)
        assert np.all(preds <= pairs.horizons[test_pos] + 1e-9)

    def test_beats_median_predictor(self, fitted, pairs):
        model, train = fitted
        train_pos = np.flatnonzero(train & (pairs.is_event == 1.0))
        test_pos = np.flatnonzero(~train & (pairs.is_event == 1.0))
        preds = model.predict(pairs.x[test_pos], pairs.horizons[test_pos])
        model_rmse = rmse(pairs.times[test_pos], preds)
        const_rmse = rmse(
            pairs.times[test_pos],
            np.full(len(test_pos), pairs.times[train_pos].mean()),
        )
        assert model_rmse < 1.25 * const_rmse  # competitive with constant

    def test_rate_parameters_positive(self, fitted, pairs):
        model, _ = fitted
        mu, omega = model.rate_parameters(pairs.x[:10])
        assert np.all(mu > 0)
        assert np.all(omega > 0)

    def test_expected_predictor_mode(self, pairs, predictor_config):
        model = TimingModel(
            pairs.x.shape[1],
            predictor="expected",
            decay="constant",
            epochs=20,
            seed=0,
        )
        model.fit(pairs.x, pairs.times, pairs.horizons, pairs.is_event)
        preds = model.predict(pairs.x[:5], pairs.horizons[:5])
        assert preds.shape == (5,)
        assert np.all(preds >= 0)

    def test_invalid_predictor(self, pairs):
        with pytest.raises(ValueError):
            TimingModel(pairs.x.shape[1], predictor="magic")

    def test_unfitted_raises(self, pairs):
        with pytest.raises(RuntimeError):
            TimingModel(pairs.x.shape[1]).predict(pairs.x[:1], 1.0)


def _stale_epochs(validation_history):
    """Epochs run after the last improvement (by more than 1e-12)."""
    best, best_epoch = np.inf, 0
    for epoch, loss in enumerate(validation_history):
        if loss < best - 1e-12:
            best, best_epoch = loss, epoch
    return len(validation_history) - 1 - best_epoch


class TestTimingPatience:
    """Patience scales with an overridden epoch budget: 25 stale epochs
    end a cold 300-epoch fit, 25 * 60 // 300 = 5 a warm 60-epoch one."""

    def test_warm_fit_stops_after_five_stale_epochs(self, pairs):
        model = TimingModel(pairs.x.shape[1], seed=0)
        assert (model.epochs, model.patience) == (300, 25)
        args = (pairs.x, pairs.times, pairs.horizons, pairs.is_event)
        cold = model.fit(*args)
        assert len(cold.validation_history) < 300
        assert _stale_epochs(cold.validation_history) == 25
        warm = model.fit(*args, epochs=60)
        assert len(warm.validation_history) < 60
        assert _stale_epochs(warm.validation_history) == 5

    def test_warm_refit_weights_match_full_patience(
        self, dataset, predictor_config
    ):
        """A warm refit on a grown window keeps the weights it would get
        with patience 25: no validation gain follows a 5-epoch stall."""
        cfg = replace(predictor_config, timing_epochs=300, vote_epochs=5)
        ids = [t.thread_id for t in dataset.threads]
        early = dataset.subset(ids[: len(ids) * 3 // 5])
        scaled = ForumPredictor(cfg).fit(early)
        full = copy.deepcopy(scaled)
        # An override equal to the budget keeps the configured patience.
        full.timing_model.epochs = cfg.warm_epochs
        scaled.fit(dataset, warm_start=True)
        full.fit(dataset, warm_start=True)
        for net in ("excitation_net", "decay_net"):
            np.testing.assert_array_equal(
                getattr(scaled.timing_model.process, net).flat_parameters(),
                getattr(full.timing_model.process, net).flat_parameters(),
            )


class TestTrainingBuffers:
    """A fit releases its per-batch-size training buffers when it returns,
    so a long-lived predictor's buffers do not grow over warm refits, and
    the weights equal those of fits that keep their buffers."""

    @staticmethod
    def layers(predictor):
        process = predictor.timing_model.process
        nets = (
            predictor.vote_model.network,
            process.excitation_net,
            process.decay_net,
        )
        return [layer for net in nets for layer in net.layers]

    def sliding_refits(self, dataset, predictor_config):
        """Flat weights and per-layer buffer counts after each of six
        warm refits on a window sliding over the test forum."""
        cfg = replace(
            predictor_config, vote_epochs=20, timing_epochs=20, warm_epochs=10
        )
        first = dataset.threads[0].created_at
        span = dataset.threads[-1].created_at - first
        predictor = ForumPredictor(cfg)
        weights, counts = [], []
        for i in range(6):
            start = first + span * i / 12
            predictor.fit(
                dataset.threads_in_window(start, start + span / 2),
                warm_start=True,
            )
            process = predictor.timing_model.process
            weights.append(
                [
                    net.flat_parameters().copy()
                    for net in (
                        predictor.vote_model.network,
                        process.excitation_net,
                        process.decay_net,
                    )
                ]
            )
            counts.append([len(layer._bufs) for layer in self.layers(predictor)])
        return weights, counts

    def test_buffers_bounded_over_sliding_warm_refits(
        self, dataset, predictor_config
    ):
        weights, counts = self.sliding_refits(dataset, predictor_config)
        with mock.patch.object(MLP, "release_buffers", lambda self: None):
            kept_weights, kept_counts = self.sliding_refits(
                dataset, predictor_config
            )
        assert all(n == 0 for per_fit in counts for n in per_fit)
        # Kept, the buffers pile up: each window brings new batch sizes.
        assert max(kept_counts[-1]) > max(kept_counts[0])
        for got, want in zip(weights, kept_weights, strict=True):
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
