"""Parallel CV dispatch: n_jobs resolution and serial/parallel identity."""

import numpy as np
import pytest

from repro.core.evaluation import _cv_task_metrics, run_table1
from repro.core.parallel import parallel_map, resolve_n_jobs


def _square(v):
    return v * v


class TestResolveNJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "3")
        assert resolve_n_jobs(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "3")
        assert resolve_n_jobs(2) == 2

    def test_garbage_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "lots")
        assert resolve_n_jobs(None) == 1

    def test_floor_at_one(self):
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(-4) == 1


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        tasks = list(range(7))
        assert parallel_map(_square, tasks, n_jobs=1) == [t * t for t in tasks]

    def test_parallel_preserves_order_and_values(self):
        tasks = list(range(7))
        assert parallel_map(_square, tasks, n_jobs=2) == [t * t for t in tasks]

    def test_single_task_stays_serial(self):
        assert parallel_map(_square, [5], n_jobs=4) == [25]


@pytest.mark.slow
class TestDeterminism:
    def test_table1_parallel_equals_serial(
        self, dataset, predictor_config, extractor, pairs
    ):
        """The fold seeds all derive from config.seed, so worker
        processes reproduce the serial numbers exactly."""
        kwargs = dict(
            config=predictor_config,
            n_folds=2,
            n_repeats=1,
            extractor=extractor,
            pairs=pairs,
        )
        serial = run_table1(dataset, **kwargs, n_jobs=1)
        parallel = run_table1(dataset, **kwargs, n_jobs=2)
        for task in ("answer", "votes", "timing"):
            s, p = getattr(serial, task), getattr(parallel, task)
            assert s.model_values == p.model_values
            assert s.baseline_values == p.baseline_values

    def test_cv_metrics_parallel_equals_serial(self, pairs, predictor_config):
        serial = _cv_task_metrics(
            pairs, predictor_config, 2, 1, tasks=("answer",), n_jobs=1
        )
        parallel = _cv_task_metrics(
            pairs, predictor_config, 2, 1, tasks=("answer",), n_jobs=2
        )
        assert serial == parallel

    def test_env_parallel_run(self, dataset, predictor_config, extractor, pairs, monkeypatch):
        """REPRO_N_JOBS drives the dispatch when n_jobs is omitted."""
        monkeypatch.setenv("REPRO_N_JOBS", "2")
        result = run_table1(
            dataset,
            config=predictor_config,
            n_folds=2,
            n_repeats=1,
            extractor=extractor,
            pairs=pairs,
        )
        assert np.isfinite(result.answer.model.mean)
