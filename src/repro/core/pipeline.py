"""End-to-end forum predictor (paper Fig. 1).

``ForumPredictor`` glues the full methodology together: fit topics over
the feature window, build the SLN graphs, extract the 20 features, and
train the three task models (answer probability, net votes, response
time).  Prediction then works for any (user, question) pair, including
brand-new questions.

Training decomposes into three independently callable stages —
:meth:`ForumPredictor.fit_topics`, :meth:`ForumPredictor.build_state`
and :meth:`ForumPredictor.fit_models` — which :meth:`ForumPredictor.fit`
composes for the one-shot batch path.  Streaming callers instead keep a
long-lived :class:`~repro.core.state.ForumState` and call
:meth:`ForumPredictor.refit_from_state` on each refit: with
``warm_start`` the previously fitted topic model is kept (topic vectors
are embedded in the state, so refitting them would invalidate it) and
the vote/timing networks continue training from their current weights
instead of a fresh initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from .answer_model import AnswerModel
from .features import FeatureExtractor, PairBlocks
from .parallel import parallel_map
from .resilience import NonFiniteFeatureError
from .state import ForumState
from .timing_model import TimingModel
from .topic_context import TopicModelContext
from .vote_model import VoteModel

__all__ = ["PredictorConfig", "Prediction", "ForumPredictor"]


def _fit_model_task(task):
    """Fit one task model; module-level so it pickles to workers.

    The model is fitted in place and returned — in a worker process the
    caller receives a fitted pickle round-trip of the model it sent.
    """
    name, model, args, kwargs = task
    with perf.timer(f"pipeline.fit_{name}"):
        model.fit(*args, **kwargs)
    return model


@dataclass(frozen=True)
class PredictorConfig:
    """Hyperparameters; defaults follow the paper's Sec. IV-A setup."""

    n_topics: int = 8  # paper's K = 8
    lda_method: str = "variational"
    lda_min_count: int = 2
    vote_hidden: tuple[int, ...] = (20, 20, 20, 20)  # L=4, 20 units
    excitation_hidden: tuple[int, ...] = (100, 50)
    decay: str = "network"
    omega: float = 0.5  # constant decay rate per hour when decay="constant"
    answer_l2: float = 1e-2
    vote_epochs: int = 300
    timing_epochs: int = 300
    warm_epochs: int = 60  # fine-tune budget when refitting warm
    negative_ratio: float = 1.0  # negatives per positive for task (i)
    betweenness_sample_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if self.negative_ratio <= 0:
            raise ValueError("negative_ratio must be positive")
        if self.warm_epochs < 1:
            raise ValueError("warm_epochs must be >= 1")


@dataclass(frozen=True)
class Prediction:
    """Joint prediction for one (user, question) pair."""

    answer_probability: float  # hat a_uq
    votes: float  # hat v_uq
    response_time: float  # hat r_uq, hours


class ForumPredictor:
    """Trains and serves the paper's three predictors."""

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config or PredictorConfig()
        self.topics: TopicModelContext | None = None
        self.extractor: FeatureExtractor | None = None
        self.answer_model: AnswerModel | None = None
        self.vote_model: VoteModel | None = None
        self.timing_model: TimingModel | None = None
        self._horizon_reference: float = 0.0

    # -- training -----------------------------------------------------------------

    def fit_topics(self, window: ForumDataset) -> TopicModelContext:
        """Stage 1: fit the topic model over the feature window."""
        cfg = self.config
        with perf.timer("pipeline.fit_topics"):
            self.topics = TopicModelContext.fit(
                window,
                n_topics=cfg.n_topics,
                method=cfg.lda_method,
                min_count=cfg.lda_min_count,
                seed=cfg.seed,
            )
        return self.topics

    def build_state(self, window: ForumDataset) -> ForumState:
        """Stage 2: a fresh incremental state holding the window.

        Fits topics first if :meth:`fit_topics` has not run — the state
        embeds per-post topic vectors, so it is bound to one context.
        """
        if self.topics is None:
            self.fit_topics(window)
        return ForumState.from_dataset(window, self.topics)

    def fit_models(
        self,
        dataset: ForumDataset,
        *,
        warm_start: bool = False,
        n_jobs: int | None = None,
    ) -> "ForumPredictor":
        """Stage 3: train the three task models over ``dataset``.

        Requires a bound extractor.  With ``warm_start`` the existing
        vote/timing networks continue training from their current
        weights; the answer model's logistic regression is convex and is
        always refit from scratch.

        The three fits are independent (separate seeded RNGs, no shared
        state), so with ``n_jobs > 1`` (or ``REPRO_N_JOBS``) they run in
        worker processes — each fit is deterministic and pickling
        preserves float bits, so results are identical to a serial run.
        """
        cfg = self.config
        if self.extractor is None:
            raise RuntimeError("fit_models requires a bound extractor")
        records = dataset.answer_records()
        if not records:
            raise ValueError("dataset has no answers to train on")
        pos_pairs = [(r.user, dataset.thread(r.thread_id)) for r in records]
        votes = np.array([r.votes for r in records], dtype=float)
        times = np.array([r.response_time for r in records], dtype=float)
        n_neg = max(1, int(round(len(records) * cfg.negative_ratio)))
        neg_pairs = [
            (u, dataset.thread(tid))
            for u, tid in dataset.sample_negative_pairs(n_neg, seed=cfg.seed)
        ]
        # One batched featurization for positives and negatives; the
        # answer and timing models share the stacked matrix.
        all_pairs = pos_pairs + neg_pairs
        with perf.timer("pipeline.features"):
            x_all = self.extractor.feature_matrix(all_pairs)
        if not np.isfinite(x_all).all():
            # Poisoned window: refuse to train rather than let NaN/inf
            # propagate silently into the model weights.  The resilient
            # online loop catches this and falls back to its last-good
            # snapshot; offline callers should repair the dataset first.
            n_bad = int((~np.isfinite(x_all)).sum())
            raise NonFiniteFeatureError(
                f"feature matrix contains {n_bad} non-finite entries "
                f"across {len(all_pairs)} pairs"
            )
        x_pos = x_all[: len(pos_pairs)]
        is_event = np.r_[np.ones(len(pos_pairs)), np.zeros(len(neg_pairs))]

        # Warm networks resume from trained weights, so a short
        # fine-tuning budget replaces the full epoch schedule.
        vote_warm = warm_start and self.vote_model is not None
        if not vote_warm:
            self.vote_model = VoteModel(
                x_pos.shape[1],
                hidden=cfg.vote_hidden,
                epochs=cfg.vote_epochs,
                seed=cfg.seed,
            )
        timing_warm = warm_start and self.timing_model is not None
        if not timing_warm:
            self.timing_model = TimingModel(
                x_pos.shape[1],
                excitation_hidden=cfg.excitation_hidden,
                decay=cfg.decay,
                omega=cfg.omega,
                epochs=cfg.timing_epochs,
                seed=cfg.seed,
            )
        times_all = np.r_[times, np.zeros(len(neg_pairs))]
        horizons_all = self._horizons([t for _, t in all_pairs])
        tasks = [
            ("answer", AnswerModel(l2=cfg.answer_l2), (x_all, is_event), {}),
            (
                "vote",
                self.vote_model,
                (x_pos, votes),
                {"epochs": cfg.warm_epochs if vote_warm else None},
            ),
            (
                "timing",
                self.timing_model,
                (x_all, times_all, horizons_all, is_event),
                {"epochs": cfg.warm_epochs if timing_warm else None},
            ),
        ]
        with perf.timer("pipeline.fit_models"):
            fitted = parallel_map(
                _fit_model_task, tasks, n_jobs, merge_perf=True
            )
        self.answer_model, self.vote_model, self.timing_model = fitted
        return self

    def fit(
        self,
        dataset: ForumDataset,
        *,
        feature_window: ForumDataset | None = None,
        warm_start: bool = False,
        n_jobs: int | None = None,
    ) -> "ForumPredictor":
        """Train all three models.

        ``dataset`` supplies the training pairs (the paper's Omega);
        ``feature_window`` the questions features are computed over (the
        paper's F(q)), defaulting to ``dataset`` itself.  With
        ``warm_start`` a previously fitted topic model is kept and the
        vote/timing networks resume from their current weights — the
        periodic-refit path of the online loop.
        """
        cfg = self.config
        window = feature_window if feature_window is not None else dataset
        if len(dataset) == 0 or len(window) == 0:
            raise ValueError("dataset and feature window must be non-empty")
        if not (warm_start and self.topics is not None):
            self.fit_topics(window)
        state = ForumState.from_dataset(window, self.topics)
        return self.refit_from_state(
            state, dataset=dataset, warm_start=warm_start, n_jobs=n_jobs
        )

    def refit_from_state(
        self,
        state: ForumState,
        *,
        dataset: ForumDataset | None = None,
        warm_start: bool = True,
        n_jobs: int | None = None,
    ) -> "ForumPredictor":
        """Retrain against a state's current window without rebuilding it.

        ``dataset`` (training pairs) defaults to the state's own window.
        The extractor binds a frozen snapshot, so the caller can keep
        appending to ``state`` while this predictor serves.
        """
        cfg = self.config
        self.topics = state.topics
        self.extractor = FeatureExtractor.from_state(
            state,
            betweenness_sample_size=cfg.betweenness_sample_size,
            seed=cfg.seed,
        )
        if dataset is None:
            dataset = self.extractor.window
        # The paper's horizon T: timestamp of the last post in the data.
        self._horizon_reference = max(
            dataset.duration_hours, state.duration_hours
        )
        return self.fit_models(
            dataset, warm_start=warm_start, n_jobs=n_jobs
        )

    def _horizons(self, threads: list[Thread]) -> np.ndarray:
        """Observation window T - t(p_q0) per thread, floored at one hour."""
        return np.maximum(
            self._horizon_reference
            - np.array([t.created_at for t in threads]),
            1.0,
        )

    def _check_fitted(self) -> None:
        if self.extractor is None:
            raise RuntimeError("predictor is not fitted")

    # -- prediction -----------------------------------------------------------------

    def predict(self, user: int, thread: Thread) -> Prediction:
        """Joint prediction for a single pair."""
        self._check_fitted()
        x = self.extractor.feature_matrix([(user, thread)])
        horizon = self._horizons([thread])
        return Prediction(
            answer_probability=float(self.answer_model.predict_proba(x)[0]),
            votes=float(self.vote_model.predict(x)[0]),
            response_time=float(self.timing_model.predict(x, horizon)[0]),
        )

    def predict_batch(
        self, pairs: list[tuple[int, Thread]] | PairBlocks
    ) -> dict[str, np.ndarray]:
        """Vectorized predictions: arrays keyed answer/votes/response_time,
        for pairs in either form ``feature_matrix`` takes."""
        self._check_fitted()
        if not isinstance(pairs, PairBlocks):
            pairs = PairBlocks.from_pairs(pairs)
        if not len(pairs):
            empty = np.empty(0)
            return {"answer": empty, "votes": empty, "response_time": empty}
        x = self.extractor.feature_matrix(pairs)
        horizons = np.repeat(self._horizons(pairs.threads), pairs.sizes)
        return self.predict_matrix(x, horizons)

    def predict_matrix(
        self,
        x: np.ndarray,
        horizons: np.ndarray,
        *,
        epsilon: float | None = None,
    ) -> dict[str, np.ndarray]:
        """Model heads over prefeaturized rows (same keys as batch).

        Entry point for callers that already hold the feature matrix —
        the serving core stacks the rows of every query in a refit
        segment and runs the heads once here.

        With ``epsilon`` set, only the answer head runs on every row;
        the vote and timing heads run on the eligible rows
        ``answer >= epsilon`` (the only rows the Sec.-V LP reads) and
        every other row holds NaN there.  Each head is row-invariant
        (tiled inference forward), so the scored rows are bit-identical
        to an ungated call.
        """
        self._check_fitted()
        answer = self.answer_model.predict_proba(x)
        if epsilon is None:
            return {
                "answer": answer,
                "votes": self.vote_model.predict(x),
                "response_time": self.timing_model.predict(x, horizons),
            }
        eligible = np.flatnonzero(answer >= epsilon)
        votes = np.full(answer.shape, np.nan)
        response_time = np.full(answer.shape, np.nan)
        if eligible.size:
            x_eligible = x[eligible]
            votes[eligible] = self.vote_model.predict(x_eligible)
            response_time[eligible] = self.timing_model.predict(
                x_eligible, horizons[eligible]
            )
        return {
            "answer": answer,
            "votes": votes,
            "response_time": response_time,
        }
