"""Incremental online refits must reproduce full rebuilds exactly.

Incremental refits exist purely as an optimisation: each refit freezes
the long-lived state instead of rebuilding the window, but both paths
construct their extractor through ``ForumState.freeze`` over the same
threads with the same topic context, so every ranking, every routed
score and every metric must come out identical to a warm full rebuild
(the oracle :class:`tests.online_oracle.RebuildCore`).
"""

import numpy as np
import pytest

from repro.core.online import replay
from repro.core.serving import ServingCore
from repro.core.serving.service import OnlineConfig

from ..online_oracle import RebuildCore

# The forum spans 720 h.  A window shorter than the stream, refitted
# every 120 h, makes every refit after the first evict threads, so the
# comparison covers eviction and the settle that runs with it.
ONLINE_KWARGS = dict(
    refit_interval_hours=120.0,
    window_hours=240.0,
    warmup_hours=240.0,
    epsilon=0.2,
)


@pytest.mark.slow
class TestEquivalence:
    @pytest.fixture(scope="class")
    def reports(self, dataset, predictor_config):
        online = OnlineConfig(**ONLINE_KWARGS)
        incremental = replay(ServingCore(predictor_config, online), dataset)
        rebuild = replay(
            RebuildCore(predictor_config, online, warm_start=True), dataset
        )
        return incremental, rebuild

    def test_counters_identical(self, reports):
        incremental, rebuild = reports
        assert incremental.n_questions_seen == rebuild.n_questions_seen
        assert incremental.n_routed == rebuild.n_routed
        assert incremental.n_refits == rebuild.n_refits
        assert incremental.n_refits >= 4

    def test_rankings_identical(self, reports):
        incremental, rebuild = reports
        assert len(incremental.rankings) == len(rebuild.rankings)
        for (rank_a, actual_a), (rank_b, actual_b) in zip(
            incremental.rankings, rebuild.rankings
        ):
            assert rank_a == rank_b
            assert actual_a == actual_b

    def test_routed_scores_identical(self, reports):
        incremental, rebuild = reports
        np.testing.assert_array_equal(
            np.asarray(incremental.routed_scores),
            np.asarray(rebuild.routed_scores),
        )

    def test_metrics_identical(self, reports):
        incremental, rebuild = reports
        assert incremental.hit_rate_at_1 == rebuild.hit_rate_at_1
        assert incremental.precision_at(5) == rebuild.precision_at(5)
        assert incremental.mrr == rebuild.mrr
        assert incremental.ndcg_at(5) == rebuild.ndcg_at(5)
