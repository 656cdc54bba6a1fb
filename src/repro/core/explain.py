"""Per-prediction explanations.

The paper's conclusion: "the learnt features can provide analytics to
forum administrators too."  This module turns each prediction into a
feature-attribution breakdown:

* the answer model is linear in standardized features, so attribution
  is exact: contribution = coefficient x z-score;
* the vote and timing networks are explained by single-feature
  perturbation — each feature is reset to its training mean and the
  prediction delta recorded (a leave-one-feature-at-mean sensitivity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..forum.models import Thread
from .pipeline import ForumPredictor

__all__ = ["FeatureContribution", "PredictionExplanation", "explain_prediction"]


@dataclass(frozen=True)
class FeatureContribution:
    """One feature's contribution to one prediction."""

    feature: str
    value: float  # raw feature value
    contribution: float  # signed effect on the prediction

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeatureContribution({self.feature}={self.value:.3g}, "
            f"{self.contribution:+.4f})"
        )


@dataclass(frozen=True)
class PredictionExplanation:
    """Attributions for all three tasks of one (user, question) pair."""

    user: int
    thread_id: int
    answer: list[FeatureContribution]
    votes: list[FeatureContribution]
    response_time: list[FeatureContribution]

    def top(self, task: str, n: int = 5) -> list[FeatureContribution]:
        """The ``n`` largest-magnitude contributions for a task."""
        contributions = getattr(self, task)
        return sorted(contributions, key=lambda c: -abs(c.contribution))[:n]


def _aggregate_columns(
    spec, per_column: np.ndarray, raw: np.ndarray
) -> list[FeatureContribution]:
    """Sum column-level contributions up to the 20 named features."""
    out = []
    for name in spec.feature_names:
        cols = spec.columns_of(name)
        out.append(
            FeatureContribution(
                feature=name,
                value=float(raw[cols].sum()) if len(cols) > 1 else float(raw[cols[0]]),
                contribution=float(per_column[cols].sum()),
            )
        )
    return out


def _perturbation_contributions(predict_fn, z: np.ndarray) -> np.ndarray:
    """Prediction delta when each standardized feature is zeroed (mean).

    ``predict_fn`` maps a standardized (1, d) matrix to a scalar array.
    """
    base = float(predict_fn(z)[0])
    deltas = np.zeros(z.shape[1])
    for j in range(z.shape[1]):
        perturbed = z.copy()
        perturbed[0, j] = 0.0  # the training mean in standardized space
        deltas[j] = base - float(predict_fn(perturbed)[0])
    return deltas


def explain_prediction(
    predictor: ForumPredictor, user: int, thread: Thread
) -> PredictionExplanation:
    """Feature attributions for one pair across all three tasks."""
    if predictor.extractor is None:
        raise RuntimeError("predictor is not fitted")
    x = predictor.extractor.feature_matrix([(user, thread)])
    spec = predictor.extractor.spec

    # Task (i): exact linear attribution on standardized features.
    answer_scaler = predictor.answer_model.scaler
    z_answer = answer_scaler.transform(x)
    answer_cols = predictor.answer_model.coefficients * z_answer[0]
    answer = _aggregate_columns(spec, answer_cols, x[0])

    # Task (ii): perturbation sensitivity through the vote network.
    vote_model = predictor.vote_model
    z_vote = vote_model.scaler.transform(x)
    vote_cols = _perturbation_contributions(
        lambda m: vote_model.network.predict(m), z_vote
    )
    votes = _aggregate_columns(spec, vote_cols, x[0])

    # Task (iii): perturbation sensitivity of the predicted time.
    timing = predictor.timing_model
    horizon = predictor._horizons([thread])

    def timing_predict(z_std: np.ndarray) -> np.ndarray:
        from ..pointprocess.exponential import conditional_expected_time

        mu, omega = timing.process.predict_parameters(z_std)
        if timing.predictor == "expected":
            return timing.process.predict_response_time(z_std, horizon)
        return conditional_expected_time(mu, omega, horizon)

    z_timing = timing.scaler.transform(x)
    timing_cols = _perturbation_contributions(timing_predict, z_timing)
    response_time = _aggregate_columns(spec, timing_cols, x[0])

    return PredictionExplanation(
        user=user,
        thread_id=thread.thread_id,
        answer=answer,
        votes=votes,
        response_time=response_time,
    )
