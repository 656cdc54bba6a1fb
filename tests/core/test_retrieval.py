"""Tests for repro.core.retrieval — two-stage candidate retrieval.

The load-bearing guarantees:

* with every budget unbounded, two-stage routing is *bit-identical* to
  the dense path (same rankings, same routed scores) on the Tier-1
  synthetic forum;
* every generator and the fused pool are deterministic under seed and
  independent of the append/evict history (and of thread permutations
  fed through ``forum.repair``) that produced the window;
* the blockwise-argpartition LP fill and the vectorized capacity
  gathering match their straightforward reference implementations
  exactly, ties included;
* the incremental :class:`UserLoadTracker` reproduces
  ``QuestionRouter.recent_load`` at every query time.
"""

import numpy as np
import pytest

from repro.core import OnlineConfig, ServingCore, replay
from repro.core.retrieval import (
    CandidateRetriever,
    MFEmbeddingIndex,
    RecencyIndex,
    RetrievalConfig,
    TopicInvertedIndex,
    candidate_recall,
    reciprocal_rank_fusion,
    top_k_by_score,
)
from repro.core.routing import (
    QuestionRouter,
    UserLoadTracker,
    _gather_from_dict,
    solve_routing_lp,
)
from repro.core.state import ForumState
from repro.forum.dataset import ForumDataset
from repro.forum.repair import repair_dataset


class TestRetrievalConfig:
    def test_defaults_are_two_stage(self):
        cfg = RetrievalConfig()
        assert cfg.mode == "two_stage"
        assert cfg.pool_size is not None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sparse"},
            {"topic_top_k": 0},
            {"pool_size": -1},
            {"rrf_k": 0.0},
            {"query_topics": 0},
            {"mf_factors": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RetrievalConfig(**kwargs)

    def test_exhaustive_unbounds_every_budget(self):
        cfg = RetrievalConfig.exhaustive(seed=5)
        assert cfg.topic_top_k is None
        assert cfg.recency_top_k is None
        assert cfg.mf_top_k is None
        assert cfg.pool_size is None
        assert cfg.seed == 5


class TestTopKByScore:
    def _reference(self, user_ids, scores, k):
        order = np.lexsort((user_ids, -scores))
        ranked = user_ids[order]
        return ranked if k is None else ranked[:k]

    @pytest.mark.parametrize("k", [None, 1, 3, 7, 50, 200])
    def test_matches_lexsort_with_ties(self, k):
        rng = np.random.default_rng(11)
        user_ids = np.unique(rng.integers(0, 10_000, size=120))
        # Few distinct values -> boundary ties are the common case.
        scores = rng.integers(0, 5, size=user_ids.size).astype(float)
        got = top_k_by_score(user_ids, scores, k)
        np.testing.assert_array_equal(
            got, self._reference(user_ids, scores, k)
        )

    def test_all_tied(self):
        user_ids = np.arange(10, 60, 3, dtype=np.int64)
        scores = np.ones(user_ids.size)
        np.testing.assert_array_equal(
            top_k_by_score(user_ids, scores, 4), user_ids[:4]
        )

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert top_k_by_score(empty, np.empty(0), 5).size == 0


class TestSolveRoutingLpBlockwise:
    """The argpartition fill vs the plain stable-argsort greedy fill."""

    def _reference(self, scores, capacities):
        capacities = np.clip(np.asarray(capacities, dtype=float), 0.0, None)
        p = np.zeros_like(scores)
        remaining = 1.0
        for u in np.argsort(-scores, kind="stable"):
            take = min(capacities[u], remaining)
            p[u] = take
            remaining -= take
            if remaining <= 1e-15:
                break
        return p

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [65, 200, 700])
    def test_large_instances_bit_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        # Coarse scores force ties across block boundaries.
        scores = rng.integers(0, 8, size=n).astype(float)
        caps = rng.uniform(0.0, 0.5, size=n)
        caps[rng.random(n) < 0.3] = 0.0
        caps[0] += 1.0  # keep the instance feasible
        np.testing.assert_array_equal(
            solve_routing_lp(scores, caps), self._reference(scores, caps)
        )

    def test_mass_spread_over_many_blocks(self):
        rng = np.random.default_rng(9)
        n = 500
        scores = rng.integers(0, 3, size=n).astype(float)
        caps = np.full(n, 0.004)  # needs 250 users to absorb the mass
        np.testing.assert_array_equal(
            solve_routing_lp(scores, caps), self._reference(scores, caps)
        )

    def test_small_instance_unchanged(self):
        scores = np.array([1.0, 3.0, 2.0])
        caps = np.array([1.0, 0.4, 1.0])
        p = solve_routing_lp(scores, caps)
        np.testing.assert_allclose(p, [0.0, 0.4, 0.6])

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            solve_routing_lp(np.ones(100), np.full(100, 0.001))


class TestGatherFromDict:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_python_gather(self, seed):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 500, size=80).astype(np.int64)
        mapping = {
            int(u): float(rng.normal())
            for u in rng.integers(0, 500, size=60)
        }
        expected = np.array([mapping.get(int(u), 2.5) for u in users])
        np.testing.assert_array_equal(
            _gather_from_dict(users, mapping, 2.5), expected
        )

    def test_empty_mapping(self):
        users = np.array([3, 1, 2], dtype=np.int64)
        np.testing.assert_array_equal(
            _gather_from_dict(users, {}, 1.5), np.full(3, 1.5)
        )


class TestUserLoadTracker:
    def test_matches_recent_load_scan(self, dataset):
        router = QuestionRouter.__new__(QuestionRouter)
        router.load_window_hours = 24.0
        tracker = UserLoadTracker(window_hours=24.0)
        # Threads fold in whole, so answer events arrive out of order
        # across threads — exactly the replay's insertion pattern.
        for thread in dataset:
            tracker.observe_thread(thread)
        horizon = dataset.duration_hours
        for now in np.linspace(0.0, horizon + 30.0, 13):
            expected = router.recent_load(dataset, float(now))
            assert dict(tracker.counts(float(now))) == expected

    def test_events_expire(self):
        tracker = UserLoadTracker(window_hours=10.0)
        tracker.observe(1, 5.0)
        tracker.observe(1, 12.0)
        tracker.observe(2, 8.0)
        assert tracker.counts(9.0) == {1: 1, 2: 1}
        assert tracker.counts(14.0) == {1: 2, 2: 1}
        assert tracker.counts(21.0) == {1: 1}
        assert tracker.counts(50.0) == {}

    def test_future_events_invisible(self):
        tracker = UserLoadTracker(window_hours=24.0)
        tracker.observe(7, 100.0)
        assert tracker.counts(99.0) == {}
        assert tracker.counts(100.0) == {7: 1}

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            UserLoadTracker(window_hours=0.0)


class TestReciprocalRankFusion:
    def test_cross_list_agreement_wins(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        b = np.array([2, 3, 4], dtype=np.int64)
        pool = reciprocal_rank_fusion([a, b], pool_size=2)
        np.testing.assert_array_equal(pool, [2, 3])

    def test_pool_sorted_ascending(self):
        lists = [np.array([9, 1, 5], dtype=np.int64)]
        pool = reciprocal_rank_fusion(lists)
        np.testing.assert_array_equal(pool, [1, 5, 9])

    def test_tie_breaks_by_user_id(self):
        a = np.array([8], dtype=np.int64)
        b = np.array([3], dtype=np.int64)
        pool = reciprocal_rank_fusion([a, b], pool_size=1)
        np.testing.assert_array_equal(pool, [3])

    def test_empty(self):
        assert reciprocal_rank_fusion([]).size == 0


class TestCandidateRecall:
    def test_values(self):
        pool = np.array([1, 2, 3], dtype=np.int64)
        assert candidate_recall(pool, np.array([2, 3])) == 1.0
        assert candidate_recall(pool, np.array([2, 9])) == 0.5
        assert candidate_recall(pool, np.empty(0, dtype=np.int64)) == 1.0


class TestRecencyIndex:
    def test_ranking_order(self):
        index = RecencyIndex()
        index.observe(5, 100, 10.0)
        index.observe(3, 101, 10.0)  # two answers -> outranks any count-1 user
        index.observe(3, 102, 4.0)
        index.observe(9, 103, 20.0)  # count ties broken by latest, then id
        np.testing.assert_array_equal(index.query(None), [3, 9, 5])
        np.testing.assert_array_equal(index.query(2), [3, 9])

    def test_count_tie_breaks_by_latest_then_id(self):
        index = RecencyIndex()
        index.observe(7, 200, 15.0)
        index.observe(2, 201, 15.0)
        index.observe(4, 202, 30.0)
        np.testing.assert_array_equal(index.query(None), [4, 2, 7])

    def test_forget_restores_aggregate(self):
        index = RecencyIndex()
        index.observe(5, 100, 10.0)
        index.observe(5, 101, 30.0)
        index.forget(5, 101)
        reference = RecencyIndex()
        reference.observe(5, 100, 10.0)
        np.testing.assert_array_equal(index.query(None), reference.query(None))
        index.forget(5, 100)
        assert len(index) == 0
        assert index.query(None).size == 0


class TestTopicInvertedIndex:
    def _small(self):
        rng = np.random.default_rng(2)
        user_ids = np.arange(0, 40, 2, dtype=np.int64)
        topics = rng.dirichlet(np.ones(6), size=user_ids.size)
        return TopicInvertedIndex(user_ids, topics)

    def test_requires_ascending_ids(self):
        with pytest.raises(ValueError):
            TopicInvertedIndex(
                np.array([3, 1], dtype=np.int64), np.ones((2, 2))
            )

    def test_full_query_is_exact_ranking(self):
        index = self._small()
        theta = np.random.default_rng(3).dirichlet(np.ones(6))
        scores = index.user_topics @ theta
        expected = index.user_ids[np.lexsort((index.user_ids, -scores))]
        np.testing.assert_array_equal(index.query(theta, None), expected)

    def test_expanding_everything_matches_full_path(self):
        index = self._small()
        index.build_postings()
        theta = np.random.default_rng(4).dirichlet(np.ones(6))
        full = index.query(theta, None)[:5]
        expanded = index.query(
            theta, 5, query_topics=6, per_topic=index.user_ids.size
        )
        np.testing.assert_array_equal(expanded, full)

    def test_update_users_rewrites_rows(self):
        index = self._small()
        index.build_postings()
        new_row = np.full((1, 6), 1.0 / 6.0)
        assert index.update_users(np.array([4], dtype=np.int64), new_row) == 1
        np.testing.assert_array_equal(index.user_topics[2], new_row[0])
        with pytest.raises(KeyError):
            index.update_users(np.array([5], dtype=np.int64), new_row)

    def test_parallel_postings_bit_identical(self):
        serial = self._small()
        serial.build_postings(n_jobs=1)
        parallel = self._small()
        parallel.build_postings(n_jobs=2)
        for topic in range(serial.n_topics):
            np.testing.assert_array_equal(
                serial._postings[topic], parallel._postings[topic]
            )


class TestMFEmbeddingIndex:
    def _triples(self, seed=0):
        rng = np.random.default_rng(seed)
        users = rng.integers(0, 30, size=200)
        threads = rng.integers(100, 160, size=200)
        votes = rng.integers(-2, 8, size=200).astype(float)
        topics = {
            int(t): rng.dirichlet(np.ones(4))
            for t in np.unique(threads)
        }
        return users, threads, votes, topics

    def test_deterministic_under_seed(self):
        users, threads, votes, topics = self._triples()
        a = MFEmbeddingIndex(seed=3).fit(users, threads, votes, topics)
        b = MFEmbeddingIndex(seed=3).fit(users, threads, votes, topics)
        theta = np.random.default_rng(1).dirichlet(np.ones(4))
        np.testing.assert_array_equal(a.query(theta, 10), b.query(theta, 10))

    def test_top_k_bound_and_membership(self):
        users, threads, votes, topics = self._triples()
        index = MFEmbeddingIndex().fit(users, threads, votes, topics)
        theta = np.random.default_rng(2).dirichlet(np.ones(4))
        got = index.query(theta, 7)
        assert got.size == 7
        assert np.isin(got, np.unique(users)).all()

    def test_warm_start_reuses_factors(self):
        users, threads, votes, topics = self._triples()
        index = MFEmbeddingIndex(n_iter=30).fit(users, threads, votes, topics)
        before = index._user_factors.copy()
        index.fit(users, threads, votes, topics)  # warm refit, same data
        assert index.fitted
        # Factors moved from (not reset to) the converged previous fit.
        assert not np.array_equal(index._user_factors, before) or np.allclose(
            index._user_factors, before
        )

    def test_unfitted_query_is_empty(self):
        index = MFEmbeddingIndex()
        assert index.query(np.ones(4), 5).size == 0


@pytest.fixture(scope="module")
def built_retriever(extractor):
    retriever = CandidateRetriever(RetrievalConfig(), extractor.topics)
    retriever.build(extractor.frozen, extractor.window)
    return retriever


class TestCandidateRetriever:
    def test_pool_is_sorted_candidate_subset(self, built_retriever, dataset):
        candidates = sorted(dataset.answerers)
        thread = dataset.threads[-1]
        pool = built_retriever.pool(thread, candidates)
        assert np.all(np.diff(pool) > 0)
        assert np.isin(pool, candidates).all()
        assert 0 < pool.size <= len(candidates)

    def test_unknown_candidates_always_kept(self, built_retriever, dataset):
        candidates = sorted(dataset.answerers) + [10_000_001, 10_000_002]
        pool = built_retriever.pool(dataset.threads[-1], candidates)
        assert {10_000_001, 10_000_002} <= set(pool.tolist())

    def test_exhaustive_pool_is_whole_candidate_set(
        self, extractor, dataset
    ):
        retriever = CandidateRetriever(
            RetrievalConfig.exhaustive(), extractor.topics
        )
        retriever.build(extractor.frozen, extractor.window)
        candidates = sorted(dataset.answerers)
        for thread in dataset.threads[-5:]:
            pool = retriever.pool(thread, candidates)
            np.testing.assert_array_equal(pool, candidates)

    def test_deterministic_rebuild(self, extractor, dataset):
        pools = []
        candidates = sorted(dataset.answerers)
        for _ in range(2):
            retriever = CandidateRetriever(
                RetrievalConfig(seed=11), extractor.topics
            )
            retriever.build(extractor.frozen, extractor.window)
            pools.append(
                [
                    retriever.pool(t, candidates)
                    for t in dataset.threads[-10:]
                ]
            )
        for a, b in zip(*pools):
            np.testing.assert_array_equal(a, b)

    def test_refresh_diffs_rows_not_rebuild(self, extractor):
        retriever = CandidateRetriever(RetrievalConfig(), extractor.topics)
        retriever.build(extractor.frozen, extractor.window)
        index_before = retriever._topic_index
        retriever.refresh(extractor.frozen, extractor.window)
        # Same user axis, nothing changed: the index object survives.
        assert retriever._topic_index is index_before


class TestStateListenerMaintenance:
    def test_recency_rides_append_and_evict(self, dataset, extractor):
        threads = dataset.threads
        split = len(threads) // 2
        prefix = ForumDataset(threads[:split])
        state = ForumState.from_dataset(prefix, extractor.topics)
        retriever = CandidateRetriever(RetrievalConfig(), extractor.topics)
        retriever.attach(state)
        for thread in threads[split:]:
            state.append(thread)
        cutoff = threads[split].created_at
        state.evict(cutoff)
        # Reference: a fresh index built over the surviving window only.
        reference = CandidateRetriever(RetrievalConfig(), extractor.topics)
        reference._recency.clear()
        for thread in state.to_dataset():
            reference.on_append(thread)
        np.testing.assert_array_equal(
            retriever._recency.query(None), reference._recency.query(None)
        )
        retriever.detach()
        assert retriever._attached is None

    def test_attach_is_idempotent_and_rebinds(self, dataset, extractor):
        state = ForumState.from_dataset(dataset, extractor.topics)
        retriever = CandidateRetriever(RetrievalConfig(), extractor.topics)
        retriever.attach(state)
        before = retriever._recency.query(None)
        retriever.attach(state)  # no-op: same state
        np.testing.assert_array_equal(retriever._recency.query(None), before)
        retriever.detach()


class TestOrderIndependence:
    def test_repair_permutation_same_pools(self, dataset, extractor):
        """Retrieval over a repaired shuffled window == repaired original."""
        threads = list(dataset.threads)
        shuffled = [threads[i] for i in np.random.default_rng(5).permutation(len(threads))]
        repaired_a, _ = repair_dataset(ForumDataset(threads))
        repaired_b, _ = repair_dataset(ForumDataset(shuffled))
        candidates = sorted(dataset.answerers)
        pools = []
        for window in (repaired_a, repaired_b):
            state = ForumState.from_dataset(window, extractor.topics)
            frozen = state.freeze()
            retriever = CandidateRetriever(
                RetrievalConfig(), extractor.topics
            )
            retriever.build(frozen, window)
            pools.append(
                [retriever.pool(t, candidates) for t in window.threads[-10:]]
            )
        for a, b in zip(*pools):
            np.testing.assert_array_equal(a, b)

    def test_history_independence_of_topic_index(self, dataset, extractor):
        """Direct build vs append-then-evict reach identical indices."""
        threads = dataset.threads
        cut = threads[len(threads) // 3].created_at
        window = ForumDataset([t for t in threads if t.created_at >= cut])
        direct = ForumState.from_dataset(window, extractor.topics)
        grown = ForumState.from_dataset(dataset, extractor.topics)
        grown.evict(cut)
        a = CandidateRetriever(RetrievalConfig(), extractor.topics)
        a.build(direct.freeze(), window)
        b = CandidateRetriever(RetrievalConfig(), extractor.topics)
        b.build(grown.freeze(), grown.to_dataset())
        np.testing.assert_array_equal(
            a._topic_index.user_ids, b._topic_index.user_ids
        )
        np.testing.assert_array_equal(
            a._topic_index.user_topics, b._topic_index.user_topics
        )


class TestDenseEquivalence:
    """Two-stage with top-K = all is bit-identical to the dense replay."""

    @pytest.fixture(scope="class")
    def reports(self, dataset, predictor_config):
        def run(retrieval):
            core = ServingCore(
                predictor_config,
                OnlineConfig(
                    refit_interval_hours=240.0,
                    window_hours=480.0,
                    warmup_hours=240.0,
                    epsilon=0.2,
                    retrieval=retrieval,
                ),
            )
            return replay(core, dataset)

        return run(None), run(RetrievalConfig.exhaustive())

    def test_reports_bit_identical(self, reports):
        dense, two_stage = reports
        assert dense.n_refits == two_stage.n_refits
        assert dense.n_questions_seen == two_stage.n_questions_seen
        assert dense.n_routed == two_stage.n_routed
        assert len(dense.rankings) == len(two_stage.rankings)
        for (ranked_a, actual_a), (ranked_b, actual_b) in zip(
            dense.rankings, two_stage.rankings
        ):
            assert ranked_a == ranked_b
            assert actual_a == actual_b
        assert dense.routed_scores == two_stage.routed_scores

    def test_metrics_identical(self, reports):
        dense, two_stage = reports
        assert dense.hit_rate_at_1 == two_stage.hit_rate_at_1
        assert dense.mrr == two_stage.mrr
        assert dense.precision_at(5) == two_stage.precision_at(5)


class TestBoundedTwoStageLoop:
    def test_bounded_loop_routes_with_small_pools(
        self, dataset, predictor_config
    ):
        from repro import perf

        retrieval = RetrievalConfig(
            topic_top_k=24, recency_top_k=24, mf_top_k=24, pool_size=48
        )
        core = ServingCore(
            predictor_config,
            OnlineConfig(
                refit_interval_hours=240.0,
                window_hours=480.0,
                warmup_hours=240.0,
                epsilon=0.2,
                retrieval=retrieval,
            ),
        )
        with perf.use_registry() as registry:
            report = replay(core, dataset)
        assert report.n_routed > 0
        queries = registry.counter("retrieval.queries")
        pooled = registry.counter("retrieval.pool_users")
        candidates = registry.counter("retrieval.candidate_users")
        assert queries > 0
        # The pools actually prune: fewer scored users than dense would.
        assert pooled < candidates
