"""Training time: the predictor's post-featurization fit.

Fits the full predictor ``N_TRIALS`` times over the benchmark forum with
flat-parameter buffered backprop, in-place Adam and the active-set
batched LDA E-step, and times it best of ``N_TRIALS``.  Every trial must
train bit-identical weights: the fit is deterministic under its seed.

Training time is post-featurization (topic fit + model fits —
featurization is benchmarked separately).  The per-stage breakdown and
the Table-1 means at this scale are recorded in ``BENCH_training.json``
at the repo root.
"""

from pathlib import Path

import numpy as np
from _meta import write_bench
from conftest import FORUM_CONFIG, N_FOLDS, N_REPEATS, PREDICTOR_CONFIG

from repro import perf
from repro.core import ForumPredictor, run_table1

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"

_STAGES = (
    "pipeline.fit_topics",
    "pipeline.features",
    "pipeline.fit_models",
    "pipeline.fit_answer",
    "pipeline.fit_vote",
    "pipeline.fit_timing",
)


def run_fit(dataset, n_jobs: int):
    """One full predictor fit in a private perf registry."""
    predictor = ForumPredictor(PREDICTOR_CONFIG)
    with perf.use_registry() as registry:
        predictor.fit(dataset, n_jobs=n_jobs)
    stages = {
        name: round(registry.stage(name).total_seconds, 6)
        for name in _STAGES
    }
    # Training cost excludes featurization: the batched feature engine
    # has its own benchmark.
    stages["train_seconds"] = round(
        stages["pipeline.fit_topics"] + stages["pipeline.fit_models"], 6
    )
    return predictor, stages


def learned_arrays(predictor) -> list[np.ndarray]:
    """Every array a fit learns: topics, answer head, vote/timing nets."""
    process = predictor.timing_model.process
    nets = [predictor.vote_model.network, process.excitation_net]
    if process.decay_net is not None:
        nets.append(process.decay_net)
    return [
        predictor.topics.model.to_state()[1],
        predictor.answer_model.classifier.coef_,
        *(net.flat_parameters() for net in nets),
    ]


# Serial: the parallel dispatch is determinism-tested in
# tests/core/test_parallel_fits.py, and three worker processes on a
# 2-CPU host only add spawn overhead and noise.
N_JOBS = 1
N_TRIALS = 3


def test_training_time(benchmark, dataset, extractor, pairs):
    runs = [run_fit(dataset, n_jobs=N_JOBS) for _ in range(N_TRIALS)]
    first = learned_arrays(runs[0][0])
    for predictor, _ in runs[1:]:
        for expected, got in zip(first, learned_arrays(predictor)):
            np.testing.assert_array_equal(got, expected)
    _, best = min(runs, key=lambda r: r[1]["train_seconds"])
    benchmark.pedantic(
        lambda: run_fit(dataset, n_jobs=N_JOBS), rounds=1, iterations=1
    )

    table = run_table1(
        dataset,
        config=PREDICTOR_CONFIG,
        n_folds=N_FOLDS,
        n_repeats=N_REPEATS,
        extractor=extractor,
        pairs=pairs,
    )
    table1 = {
        task: {
            "mean": round(getattr(table, task).model.mean, 6),
            "std": round(getattr(table, task).model.std, 6),
        }
        for task in ("answer", "votes", "timing")
    }

    record = {
        "forum": {
            "n_users": FORUM_CONFIG.n_users,
            "n_questions": FORUM_CONFIG.n_questions,
        },
        "stages": best,
        "n_jobs": N_JOBS,
        "n_trials": N_TRIALS,
        "table1": table1,
    }
    write_bench(RESULT_PATH, record)
    print(
        f"\nTraining: {best['train_seconds']:.2f}s "
        f"(topics {best['pipeline.fit_topics']:.2f}s, "
        f"models {best['pipeline.fit_models']:.2f}s), "
        f"{N_TRIALS} bit-identical fits -> {RESULT_PATH.name}"
    )
