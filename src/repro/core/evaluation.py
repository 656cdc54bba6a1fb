"""Experiment harness reproducing the paper's evaluation (Sec. IV).

Implements the cross-validation protocol of Sec. IV-A and drivers for:

* Table I   — model vs. baseline on all three tasks;
* Fig. 5    — sensitivity to the number of LDA topics K;
* Fig. 6    — leave-one-feature-out importance for the v and r tasks;
* Fig. 7    — leave-one-group-out importance vs. historical-data window.

Every driver accepts ``n_jobs`` (default serial; ``REPRO_N_JOBS`` in the
environment overrides the default): fold fits and the independent
ablation/sweep runs are embarrassingly parallel, so they dispatch
through a ``ProcessPoolExecutor``.  All randomness is derived from the
config seed per fold/run, never from shared RNG state, so parallel and
serial runs produce identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf

from ..baselines import MatrixFactorization, PoissonRegression, Sparfa
from ..forum.dataset import ForumDataset
from ..ml.crossval import stratified_kfold_indices
from ..ml.metrics import auc_score, rmse
from ..ml.scaler import StandardScaler
from .answer_model import AnswerModel
from .features import FeatureExtractor
from .parallel import parallel_map
from .pipeline import PredictorConfig
from .timing_model import TimingModel
from .topic_context import TopicModelContext
from .vote_model import VoteModel

__all__ = [
    "PairDataset",
    "MetricSummary",
    "TaskResult",
    "Table1Result",
    "build_pair_dataset",
    "build_extractor",
    "run_table1",
    "run_topic_sweep",
    "run_feature_importance",
    "run_group_importance_by_history",
]


# --------------------------------------------------------------------------
# Pair dataset construction
# --------------------------------------------------------------------------


@dataclass
class PairDataset:
    """All (user, question) pairs of one experiment with features attached.

    Rows are positives (answered pairs) followed by sampled negatives;
    ``is_event`` distinguishes them.
    """

    x: np.ndarray  # (n, d) feature matrix
    users: np.ndarray  # (n,) user ids
    thread_ids: np.ndarray  # (n,) question ids
    votes: np.ndarray  # (n,) answer votes (0 for negatives)
    times: np.ndarray  # (n,) response times (0 for negatives)
    horizons: np.ndarray  # (n,) observation windows T - t_q0
    is_event: np.ndarray  # (n,) 1.0 for answered pairs

    @property
    def n_pairs(self) -> int:
        return len(self.users)

    @property
    def positives(self) -> np.ndarray:
        return np.flatnonzero(self.is_event == 1.0)

    def keep_columns(self, mask: np.ndarray) -> "PairDataset":
        """A view with a feature-column subset (for ablations)."""
        return PairDataset(
            x=self.x[:, mask],
            users=self.users,
            thread_ids=self.thread_ids,
            votes=self.votes,
            times=self.times,
            horizons=self.horizons,
            is_event=self.is_event,
        )


def build_extractor(
    window: ForumDataset, config: PredictorConfig
) -> FeatureExtractor:
    """Topic model + feature extractor over a feature window F."""
    topics = TopicModelContext.fit(
        window,
        n_topics=config.n_topics,
        method=config.lda_method,
        min_count=config.lda_min_count,
        seed=config.seed,
    )
    return FeatureExtractor(
        window,
        topics,
        betweenness_sample_size=config.betweenness_sample_size,
        seed=config.seed,
    )


def build_pair_dataset(
    dataset: ForumDataset,
    extractor: FeatureExtractor,
    *,
    negative_ratio: float = 1.0,
    horizon_reference: float | None = None,
    seed: int = 0,
) -> PairDataset:
    """Positive pairs from ``dataset`` plus sampled negatives, featurized."""
    records = dataset.answer_records()
    if not records:
        raise ValueError("dataset has no answers")
    horizon_t = (
        horizon_reference if horizon_reference is not None else dataset.duration_hours
    )
    pos_pairs = [(r.user, dataset.thread(r.thread_id)) for r in records]
    n_neg = max(1, int(round(len(records) * negative_ratio)))
    neg_pairs = [
        (u, dataset.thread(tid))
        for u, tid in dataset.sample_negative_pairs(n_neg, seed=seed)
    ]
    all_pairs = pos_pairs + neg_pairs
    x = extractor.feature_matrix(all_pairs)
    horizons = np.maximum(
        horizon_t - np.array([t.created_at for _, t in all_pairs]), 1.0
    )
    return PairDataset(
        x=x,
        users=np.array([u for u, _ in all_pairs]),
        thread_ids=np.array([t.thread_id for _, t in all_pairs]),
        votes=np.r_[
            np.array([r.votes for r in records], dtype=float), np.zeros(n_neg)
        ],
        times=np.r_[
            np.array([r.response_time for r in records], dtype=float),
            np.zeros(n_neg),
        ],
        horizons=horizons,
        is_event=np.r_[np.ones(len(records)), np.zeros(n_neg)],
    )


# --------------------------------------------------------------------------
# Result containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricSummary:
    """Mean and standard deviation over CV iterations."""

    mean: float
    std: float

    @classmethod
    def of(cls, values: list[float]) -> "MetricSummary":
        arr = np.asarray(values, dtype=float)
        return cls(mean=float(arr.mean()), std=float(arr.std()))


@dataclass(frozen=True)
class TaskResult:
    """Model vs. baseline on one task; improvement as the paper reports it.

    ``model_values``/``baseline_values`` keep the per-fold metrics so
    significance can be assessed on identical folds.
    """

    model: MetricSummary
    baseline: MetricSummary
    higher_is_better: bool
    model_values: tuple[float, ...] = ()
    baseline_values: tuple[float, ...] = ()

    @property
    def improvement_percent(self) -> float:
        if self.higher_is_better:
            return 100.0 * (self.model.mean - self.baseline.mean) / self.baseline.mean
        return 100.0 * (self.baseline.mean - self.model.mean) / self.baseline.mean

    def significance(self):
        """Paired t-test of model vs. baseline over the CV folds."""
        from ..ml.significance import paired_t_test

        if len(self.model_values) < 2:
            raise ValueError("need per-fold values from at least 2 folds")
        return paired_t_test(self.model_values, self.baseline_values)

    def model_confidence_interval(self, confidence: float = 0.95):
        """Bootstrap CI of the model's mean metric over folds."""
        from ..ml.significance import bootstrap_ci

        return bootstrap_ci(np.array(self.model_values), confidence=confidence)


@dataclass(frozen=True)
class Table1Result:
    """The three rows of paper Table I."""

    answer: TaskResult  # AUC
    votes: TaskResult  # RMSE
    timing: TaskResult  # RMSE

    def as_rows(self) -> list[tuple[str, str, float, float, float]]:
        """(task, metric, baseline, model, improvement%) rows for printing."""
        return [
            (
                "a_uq",
                "AUC",
                self.answer.baseline.mean,
                self.answer.model.mean,
                self.answer.improvement_percent,
            ),
            (
                "v_uq",
                "RMSE",
                self.votes.baseline.mean,
                self.votes.model.mean,
                self.votes.improvement_percent,
            ),
            (
                "r_uq",
                "RMSE",
                self.timing.baseline.mean,
                self.timing.model.mean,
                self.timing.improvement_percent,
            ),
        ]


# --------------------------------------------------------------------------
# Fold-level evaluation
# --------------------------------------------------------------------------


def _fold_iterator(pairs: PairDataset, n_folds: int, n_repeats: int, seed: int):
    """The paper's CV: stratified by user, repeated ``n_repeats`` times."""
    groups = pairs.users.tolist()
    for repeat in range(n_repeats):
        yield from stratified_kfold_indices(
            groups, n_folds, seed=seed + 1000 * repeat
        )


def _index_map(values: np.ndarray) -> dict[int, int]:
    return {v: i for i, v in enumerate(np.unique(values))}


def _evaluate_answer_fold(
    pairs: PairDataset, train: np.ndarray, test: np.ndarray, config: PredictorConfig
) -> tuple[float, float]:
    """(model AUC, SPARFA AUC) on one fold."""
    model = AnswerModel(l2=config.answer_l2).fit(
        pairs.x[train], pairs.is_event[train]
    )
    model_auc = auc_score(
        pairs.is_event[test], model.predict_proba(pairs.x[test])
    )
    users = _index_map(pairs.users)
    questions = _index_map(pairs.thread_ids)
    rows = np.array([users[u] for u in pairs.users])
    cols = np.array([questions[q] for q in pairs.thread_ids])
    sparfa = Sparfa(
        len(users), len(questions), n_factors=3, seed=config.seed, n_iter=300
    )
    sparfa.fit(rows[train], cols[train], pairs.is_event[train])
    baseline_auc = auc_score(
        pairs.is_event[test], sparfa.predict_proba(rows[test], cols[test])
    )
    return model_auc, baseline_auc


def _evaluate_votes_fold(
    pairs: PairDataset, train: np.ndarray, test: np.ndarray, config: PredictorConfig
) -> tuple[float, float]:
    """(model RMSE, MF RMSE) over the fold's positive pairs."""
    train_pos = train[pairs.is_event[train] == 1.0]
    test_pos = test[pairs.is_event[test] == 1.0]
    model = VoteModel(
        pairs.x.shape[1],
        hidden=config.vote_hidden,
        epochs=config.vote_epochs,
        seed=config.seed,
    )
    model.fit(pairs.x[train_pos], pairs.votes[train_pos])
    model_rmse = rmse(pairs.votes[test_pos], model.predict(pairs.x[test_pos]))
    users = _index_map(pairs.users)
    questions = _index_map(pairs.thread_ids)
    rows = np.array([users[u] for u in pairs.users])
    cols = np.array([questions[q] for q in pairs.thread_ids])
    mf = MatrixFactorization(
        len(users), len(questions), n_factors=5, seed=config.seed, n_iter=300
    )
    mf.fit(rows[train_pos], cols[train_pos], pairs.votes[train_pos])
    baseline_rmse = rmse(
        pairs.votes[test_pos], mf.predict(rows[test_pos], cols[test_pos])
    )
    return model_rmse, baseline_rmse


def _evaluate_timing_fold(
    pairs: PairDataset, train: np.ndarray, test: np.ndarray, config: PredictorConfig
) -> tuple[float, float]:
    """(model RMSE, Poisson-regression RMSE) over the fold's positives."""
    test_pos = test[pairs.is_event[test] == 1.0]
    model = TimingModel(
        pairs.x.shape[1],
        excitation_hidden=config.excitation_hidden,
        decay=config.decay,
        omega=config.omega,
        epochs=config.timing_epochs,
        seed=config.seed,
    )
    model.fit(
        pairs.x[train],
        pairs.times[train],
        pairs.horizons[train],
        pairs.is_event[train],
    )
    model_rmse = rmse(
        pairs.times[test_pos],
        model.predict(pairs.x[test_pos], pairs.horizons[test_pos]),
    )
    train_pos = train[pairs.is_event[train] == 1.0]
    # Standardize (with outlier clipping) for the GLM too, and cap its
    # predictions at the training range — exp-link extrapolation
    # otherwise explodes on rare out-of-range test points.
    scaler = StandardScaler(clip=8.0)
    z_train = scaler.fit_transform(pairs.x[train_pos])
    poisson = PoissonRegression(l2=1e-3)
    poisson.fit(z_train, np.ceil(pairs.times[train_pos]))
    cap = float(pairs.times[train_pos].max())
    preds = np.minimum(
        poisson.predict_mean(scaler.transform(pairs.x[test_pos])), cap
    )
    baseline_rmse = rmse(pairs.times[test_pos], preds)
    return model_rmse, baseline_rmse


# --------------------------------------------------------------------------
# Experiment drivers
# --------------------------------------------------------------------------


def _table1_fold_task(
    args: tuple[PairDataset, np.ndarray, np.ndarray, PredictorConfig],
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
    """All three task comparisons on one fold (top-level: picklable)."""
    pairs, train, test, config = args
    with perf.timer("evaluation.fold"):
        answer = _evaluate_answer_fold(pairs, train, test, config)
        votes = _evaluate_votes_fold(pairs, train, test, config)
        timing = _evaluate_timing_fold(pairs, train, test, config)
    return answer, votes, timing


def run_table1(
    dataset: ForumDataset,
    *,
    config: PredictorConfig | None = None,
    n_folds: int = 5,
    n_repeats: int = 1,
    extractor: FeatureExtractor | None = None,
    pairs: PairDataset | None = None,
    n_jobs: int | None = None,
) -> Table1Result:
    """Reproduce Table I: all three tasks with Omega = Q, F = Q.

    ``extractor``/``pairs`` may be passed in to reuse featurization
    across experiments (they are deterministic given the config).
    ``n_jobs > 1`` evaluates folds in parallel worker processes; the
    folds and every model seed derive from ``config.seed``, so the
    result is identical to the serial run.
    """
    config = config or PredictorConfig()
    if pairs is None:
        if extractor is None:
            extractor = build_extractor(dataset, config)
        pairs = build_pair_dataset(
            dataset,
            extractor,
            negative_ratio=config.negative_ratio,
            seed=config.seed,
        )
    folds = list(_fold_iterator(pairs, n_folds, n_repeats, config.seed))
    with perf.timer("evaluation.table1_cv"):
        per_fold = parallel_map(
            _table1_fold_task,
            [(pairs, train, test, config) for train, test in folds],
            n_jobs,
            merge_perf=True,
        )
    metrics: dict[str, list[float]] = {
        "answer_model": [],
        "answer_base": [],
        "votes_model": [],
        "votes_base": [],
        "timing_model": [],
        "timing_base": [],
    }
    for answer, votes, timing in per_fold:
        metrics["answer_model"].append(answer[0])
        metrics["answer_base"].append(answer[1])
        metrics["votes_model"].append(votes[0])
        metrics["votes_base"].append(votes[1])
        metrics["timing_model"].append(timing[0])
        metrics["timing_base"].append(timing[1])
    return Table1Result(
        answer=TaskResult(
            MetricSummary.of(metrics["answer_model"]),
            MetricSummary.of(metrics["answer_base"]),
            higher_is_better=True,
            model_values=tuple(metrics["answer_model"]),
            baseline_values=tuple(metrics["answer_base"]),
        ),
        votes=TaskResult(
            MetricSummary.of(metrics["votes_model"]),
            MetricSummary.of(metrics["votes_base"]),
            higher_is_better=False,
            model_values=tuple(metrics["votes_model"]),
            baseline_values=tuple(metrics["votes_base"]),
        ),
        timing=TaskResult(
            MetricSummary.of(metrics["timing_model"]),
            MetricSummary.of(metrics["timing_base"]),
            higher_is_better=False,
            model_values=tuple(metrics["timing_model"]),
            baseline_values=tuple(metrics["timing_base"]),
        ),
    )


def _cv_fold_task(
    args: tuple[PairDataset, np.ndarray, np.ndarray, PredictorConfig, tuple[str, ...]],
) -> dict[str, float]:
    """Model-side metrics for the requested tasks on one fold."""
    pairs, train, test, config, tasks = args
    out: dict[str, float] = {}
    with perf.timer("evaluation.fold"):
        if "answer" in tasks:
            model = AnswerModel(l2=config.answer_l2).fit(
                pairs.x[train], pairs.is_event[train]
            )
            out["answer"] = auc_score(
                pairs.is_event[test], model.predict_proba(pairs.x[test])
            )
        if "votes" in tasks:
            train_pos = train[pairs.is_event[train] == 1.0]
            test_pos = test[pairs.is_event[test] == 1.0]
            vote = VoteModel(
                pairs.x.shape[1],
                hidden=config.vote_hidden,
                epochs=config.vote_epochs,
                seed=config.seed,
            )
            vote.fit(pairs.x[train_pos], pairs.votes[train_pos])
            out["votes"] = rmse(
                pairs.votes[test_pos], vote.predict(pairs.x[test_pos])
            )
        if "timing" in tasks:
            test_pos = test[pairs.is_event[test] == 1.0]
            timing = TimingModel(
                pairs.x.shape[1],
                excitation_hidden=config.excitation_hidden,
                decay=config.decay,
                omega=config.omega,
                epochs=config.timing_epochs,
                seed=config.seed,
            )
            timing.fit(
                pairs.x[train],
                pairs.times[train],
                pairs.horizons[train],
                pairs.is_event[train],
            )
            out["timing"] = rmse(
                pairs.times[test_pos],
                timing.predict(pairs.x[test_pos], pairs.horizons[test_pos]),
            )
    return out


def _cv_task_metrics(
    pairs: PairDataset,
    config: PredictorConfig,
    n_folds: int,
    n_repeats: int,
    tasks: tuple[str, ...] = ("answer", "votes", "timing"),
    n_jobs: int | None = None,
) -> dict[str, float]:
    """Mean model-side metrics over CV folds for the requested tasks."""
    folds = list(_fold_iterator(pairs, n_folds, n_repeats, config.seed))
    per_fold = parallel_map(
        _cv_fold_task,
        [(pairs, train, test, config, tasks) for train, test in folds],
        n_jobs,
        merge_perf=True,
    )
    return {t: float(np.mean([fold[t] for fold in per_fold])) for t in tasks}


def _topic_sweep_task(
    args: tuple[ForumDataset, PredictorConfig, int, int],
) -> dict[str, float]:
    """One K of the Fig. 5 sweep: fit topics + features, run the CV."""
    dataset, cfg, n_folds, n_repeats = args
    extractor = build_extractor(dataset, cfg)
    pairs = build_pair_dataset(
        dataset, extractor, negative_ratio=cfg.negative_ratio, seed=cfg.seed
    )
    return _cv_task_metrics(pairs, cfg, n_folds, n_repeats)


def run_topic_sweep(
    dataset: ForumDataset,
    *,
    topic_counts: tuple[int, ...] = (2, 5, 8, 12, 15),
    base_topics: int = 8,
    config: PredictorConfig | None = None,
    n_folds: int = 5,
    n_repeats: int = 1,
    n_jobs: int | None = None,
) -> dict[int, dict[str, float]]:
    """Fig. 5: percent metric change vs. K, relative to the K=8 default.

    Returns ``{K: {task: percent_change}}`` where positive means better
    (higher AUC for the answer task, lower RMSE for the others).  The
    per-K runs are independent and dispatch in parallel for
    ``n_jobs > 1``.
    """
    config = config or PredictorConfig()
    results: dict[int, dict[str, float]] = {}
    counts = tuple(dict.fromkeys((base_topics, *topic_counts)))
    configs = [
        PredictorConfig(**{**config.__dict__, "n_topics": k}) for k in counts
    ]
    with perf.timer("evaluation.topic_sweep"):
        per_k = parallel_map(
            _topic_sweep_task,
            [(dataset, cfg, n_folds, n_repeats) for cfg in configs],
            n_jobs,
            merge_perf=True,
        )
    raw = dict(zip(counts, per_k))
    base = raw[base_topics]
    for k in counts:
        if k == base_topics:
            continue
        results[k] = {
            "answer": 100.0 * (raw[k]["answer"] - base["answer"]) / base["answer"],
            "votes": 100.0 * (base["votes"] - raw[k]["votes"]) / base["votes"],
            "timing": 100.0 * (base["timing"] - raw[k]["timing"]) / base["timing"],
        }
    return results


def _ablation_task(
    args: tuple[PairDataset, PredictorConfig, int, int, tuple[str, ...]],
) -> dict[str, float]:
    """One ablation unit: serial CV over a column-subset dataset."""
    pairs, config, n_folds, n_repeats, tasks = args
    return _cv_task_metrics(pairs, config, n_folds, n_repeats, tasks=tasks)


def run_feature_importance(
    dataset: ForumDataset,
    *,
    config: PredictorConfig | None = None,
    n_folds: int = 5,
    n_repeats: int = 1,
    features: tuple[str, ...] | None = None,
    n_jobs: int | None = None,
) -> dict[str, dict[str, float]]:
    """Fig. 6: leave-one-feature-out percent RMSE increase for v and r.

    Returns ``{feature: {"votes": pct, "timing": pct}}`` where positive
    percent means removing the feature *hurt* (RMSE went up).  The base
    run and the per-feature ablations are independent and dispatch in
    parallel for ``n_jobs > 1``.
    """
    config = config or PredictorConfig()
    extractor = build_extractor(dataset, config)
    pairs = build_pair_dataset(
        dataset, extractor, negative_ratio=config.negative_ratio, seed=config.seed
    )
    spec = extractor.spec
    names = features if features is not None else tuple(spec.feature_names)
    tasks = ("votes", "timing")
    units = [pairs] + [
        pairs.keep_columns(spec.mask_without(features=(name,))) for name in names
    ]
    with perf.timer("evaluation.feature_importance"):
        metrics = parallel_map(
            _ablation_task,
            [(unit, config, n_folds, n_repeats, tasks) for unit in units],
            n_jobs,
            merge_perf=True,
        )
    base, ablations = metrics[0], metrics[1:]
    out: dict[str, dict[str, float]] = {}
    for name, ablated in zip(names, ablations):
        out[name] = {
            "votes": 100.0 * (ablated["votes"] - base["votes"]) / base["votes"],
            "timing": 100.0 * (ablated["timing"] - base["timing"]) / base["timing"],
        }
    return out


def _history_window_task(
    args: tuple[
        ForumDataset, ForumDataset, float, PredictorConfig, int, int, tuple[str, ...]
    ],
) -> dict[str, dict[str, float]]:
    """One history length of Fig. 7: featurize + full and per-group CV."""
    window, eval_set, horizon_reference, config, n_folds, n_repeats, groups = args
    extractor = build_extractor(window, config)
    pairs = build_pair_dataset(
        eval_set,
        extractor,
        negative_ratio=config.negative_ratio,
        horizon_reference=horizon_reference,
        seed=config.seed,
    )
    spec = extractor.spec
    per_history: dict[str, dict[str, float]] = {}
    per_history["full"] = _cv_task_metrics(
        pairs, config, n_folds, n_repeats, tasks=("votes", "timing")
    )
    for group in groups:
        mask = spec.mask_without(groups=(group,))
        per_history[group] = _cv_task_metrics(
            pairs.keep_columns(mask),
            config,
            n_folds,
            n_repeats,
            tasks=("votes", "timing"),
        )
    return per_history


def run_group_importance_by_history(
    dataset: ForumDataset,
    *,
    config: PredictorConfig | None = None,
    eval_first_day: int = 25,
    eval_last_day: int = 30,
    history_lengths: tuple[int, ...] = (5, 10, 15, 20, 25),
    n_folds: int = 5,
    n_repeats: int = 1,
    n_jobs: int | None = None,
) -> dict[int, dict[str, dict[str, float]]]:
    """Fig. 7: leave-one-group-out RMSE vs. historical window length.

    Evaluation pairs come from the last days (the paper's D25..D30); for
    each history length ``i`` features are computed over days
    ``(25 - i)..25``.  Returns ``{i: {group_or_none: {"votes": rmse,
    "timing": rmse}}}`` with key ``"full"`` for the un-ablated model.
    The per-history runs are independent and dispatch in parallel for
    ``n_jobs > 1``.
    """
    config = config or PredictorConfig()
    eval_set = dataset.threads_in_days(eval_first_day, eval_last_day)
    if len(eval_set) == 0:
        raise ValueError("no threads in the evaluation window")
    groups = ("user", "question", "user_question", "social")
    windows: list[ForumDataset] = []
    for history in history_lengths:
        first = max(1, eval_first_day - history)
        window = dataset.threads_in_days(first, eval_first_day)
        if len(window) == 0:
            raise ValueError(f"no threads in history window {first}..{eval_first_day}")
        windows.append(window)
    with perf.timer("evaluation.group_importance"):
        per_window = parallel_map(
            _history_window_task,
            [
                (
                    window,
                    eval_set,
                    dataset.duration_hours,
                    config,
                    n_folds,
                    n_repeats,
                    groups,
                )
                for window in windows
            ],
            n_jobs,
            merge_perf=True,
        )
    return dict(zip(history_lengths, per_window))
