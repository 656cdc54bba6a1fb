"""Property-based tests of cross-module invariants (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import PredictorConfig, build_extractor
from repro.core.resilience import FaultInjector, FaultPlan, StreamGuard
from repro.core.routing import solve_routing_lp
from repro.forum import ForumConfig, generate_forum
from repro.forum.dataset import ForumDataset
from repro.forum.repair import repair_dataset

FAST = PredictorConfig(n_topics=2, betweenness_sample_size=30)


@st.composite
def small_forums(draw):
    seed = draw(st.integers(0, 500))
    n_users = draw(st.integers(40, 90))
    n_questions = draw(st.integers(40, 80))
    return generate_forum(
        ForumConfig(n_users=n_users, n_questions=n_questions), seed=seed
    )


class TestPreprocessProperties:
    @settings(max_examples=10, deadline=None)
    @given(small_forums())
    def test_preprocess_invariants(self, forum):
        clean, report = forum.dataset.preprocess()
        # Every kept thread has at least one strictly-later answer.
        for thread in clean:
            assert thread.answers
            for answer in thread.answers:
                assert answer.timestamp > thread.created_at
        # At most one answer per user per thread.
        for thread in clean:
            authors = [a.author for a in thread.answers]
            assert len(authors) == len(set(authors))
        # Idempotence.
        twice, second = clean.preprocess()
        assert len(twice) == len(clean)
        assert second.duplicate_answers_removed == 0

    @settings(max_examples=10, deadline=None)
    @given(small_forums())
    def test_counts_add_up(self, forum):
        raw = forum.dataset
        clean, report = raw.preprocess()
        assert (
            len(clean) + report.questions_dropped_unanswered == len(raw)
        )
        assert (
            clean.num_answers
            + report.duplicate_answers_removed
            + report.zero_delay_answers_removed
            == raw.num_answers
        )


class TestFeatureProperties:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(0, 100))
    def test_feature_vectors_always_valid(self, seed):
        forum = generate_forum(
            ForumConfig(n_users=60, n_questions=60), seed=seed
        )
        clean, _ = forum.dataset.preprocess()
        if len(clean) < 10 or clean.num_answers < 5:
            return
        extractor = build_extractor(clean, FAST)
        spec = extractor.spec
        rng = np.random.default_rng(seed)
        users = list(clean.users) + [10**7]  # include an unknown user
        for _ in range(10):
            user = users[rng.integers(len(users))]
            thread = clean.threads[rng.integers(len(clean))]
            x = extractor.feature_matrix([(user, thread)])[0]
            assert np.all(np.isfinite(x))
            # Topic-distribution blocks lie on the simplex.
            for name in ("topics_answered", "topics_asked"):
                block = x[spec.columns_of(name)]
                assert block.sum() == pytest.approx(1.0, abs=1e-6)
                assert np.all(block >= -1e-12)
            # Similarities bounded.
            for name in (
                "user_question_topic_similarity",
                "user_user_topic_similarity",
            ):
                value = x[spec.columns_of(name)[0]]
                assert -1e-9 <= value <= 1.0 + 1e-9
            # Counts non-negative.
            for name in (
                "answers_provided",
                "thread_cooccurrence",
                "topic_weighted_questions_answered",
            ):
                assert x[spec.columns_of(name)[0]] >= 0.0


class TestRoutingLPProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 10),
        st.integers(0, 10_000),
    )
    def test_raising_a_score_never_lowers_its_probability(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        caps = rng.uniform(0.2, 1.0, size=n)
        if caps.sum() < 1.0:
            caps *= 1.5 / caps.sum()
        before = solve_routing_lp(scores, caps)
        target = rng.integers(n)
        bumped = scores.copy()
        bumped[target] += abs(rng.normal()) + 0.1
        after = solve_routing_lp(bumped, caps)
        assert after[target] >= before[target] - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 10_000))
    def test_always_feasible_distribution(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n) * 10
        caps = rng.uniform(0.0, 1.5, size=n)
        if caps.sum() < 1.0:
            caps = caps + (1.1 - caps.sum()) / n
        p = solve_routing_lp(scores, caps)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(p >= 0.0)
        assert np.all(p <= caps + 1e-12)


@st.composite
def fault_plans(draw):
    return FaultPlan(
        seed=draw(st.integers(0, 1000)),
        out_of_order_rate=draw(st.floats(0.0, 0.5)),
        duplicate_rate=draw(st.floats(0.0, 0.5)),
        missing_field_rate=draw(st.floats(0.0, 0.5)),
        clock_skew_rate=draw(st.floats(0.0, 0.5)),
        truncate_rate=draw(st.floats(0.0, 0.5)),
        max_delay_slots=draw(st.integers(1, 6)),
    )


class TestResilienceProperties:
    """Injector round-trip invariants: whatever the plan, the guarded
    stream satisfies every invariant featurization relies on."""

    @settings(max_examples=15, deadline=None)
    @given(fault_plans(), st.integers(0, 200))
    def test_event_count_conservation(self, plan, seed):
        forum = generate_forum(
            ForumConfig(n_users=50, n_questions=45), seed=seed
        )
        clean, _ = forum.dataset.preprocess()
        injector = FaultInjector(plan)
        stream = injector.perturb(clean)
        duplicates = injector.injected_counts().get("duplicate", 0)
        # Duplication is the only fault that changes the event count.
        assert len(stream) == len(clean) + duplicates
        guard = StreamGuard()
        admitted = [
            repaired
            for repaired in (guard.admit(t) for t in stream)
            if repaired is not None
        ]
        not_admitted = guard.report.count("quarantined") + guard.report.count(
            "dropped"
        )
        assert len(admitted) + not_admitted == len(stream)

    @settings(max_examples=15, deadline=None)
    @given(fault_plans(), st.integers(0, 200))
    # A late arrival whose clamped timestamp, ``timestamp + shift``,
    # rounded one ulp behind the stream clock.
    @example(
        FaultPlan(
            seed=112,
            out_of_order_rate=0.5,
            duplicate_rate=0.5,
            missing_field_rate=0.5,
            clock_skew_rate=0.5,
            truncate_rate=0.5,
            max_delay_slots=2,
        ),
        73,
    )
    def test_guarded_stream_is_monotone_and_finite(self, plan, seed):
        forum = generate_forum(
            ForumConfig(n_users=50, n_questions=45), seed=seed
        )
        clean, _ = forum.dataset.preprocess()
        stream = FaultInjector(plan).perturb(clean)
        guard = StreamGuard()
        last = float("-inf")
        seen_posts = set()
        for event in stream:
            admitted = guard.admit(event)
            if admitted is None:
                continue
            assert admitted.created_at >= last
            last = admitted.created_at
            for p in admitted.posts:
                assert math.isfinite(p.timestamp)
                assert math.isfinite(float(p.votes))
                assert p.post_id not in seen_posts
                seen_posts.add(p.post_id)
            for a in admitted.answers:
                assert a.timestamp >= admitted.created_at
                assert a.author != admitted.asker

    @settings(max_examples=3, deadline=None)
    @given(st.integers(0, 100))
    def test_no_nans_reach_feature_matrix(self, seed):
        plan = FaultPlan(
            seed=seed,
            missing_field_rate=0.4,
            clock_skew_rate=0.3,
            truncate_rate=0.2,
        )
        forum = generate_forum(
            ForumConfig(n_users=60, n_questions=60), seed=seed
        )
        clean, _ = forum.dataset.preprocess()
        stream = FaultInjector(plan).perturb(clean)
        guard = StreamGuard()
        admitted = [
            repaired
            for repaired in (guard.admit(t) for t in stream)
            if repaired is not None
        ]
        guarded = ForumDataset(admitted)
        if len(guarded) < 10 or guarded.num_answers < 5:
            return
        extractor = build_extractor(guarded, FAST)
        pairs = [
            (u, t)
            for u in list(guarded.answerers)[:4]
            for t in guarded.threads[:5]
        ]
        x = extractor.feature_matrix(pairs)
        assert np.all(np.isfinite(x))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 500))
    def test_repair_is_order_independent(self, seed):
        forum = generate_forum(
            ForumConfig(n_users=40, n_questions=35), seed=seed
        )
        raw = forum.dataset
        rng = np.random.default_rng(seed)
        shuffled = list(raw.threads)
        rng.shuffle(shuffled)
        a, _ = repair_dataset(raw)
        b, _ = repair_dataset(ForumDataset(shuffled))
        assert a.fingerprint() == b.fingerprint()
        assert {
            p.post_id for t in a for p in t.posts
        } == {p.post_id for t in b for p in t.posts}


class TestGeneratorOutcomeFunctions:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.05, 24.0),
        st.floats(0.0, 1.0),
        st.integers(0, 1000),
    )
    def test_delay_positive(self, median, match, seed):
        from repro.forum.generator import draw_answer_delay

        rng = np.random.default_rng(seed)
        delay = draw_answer_delay(median, match, rng)
        assert delay >= 1.0 / 60.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(0.0, 1.0),
        st.integers(-5, 40),
        st.integers(0, 1000),
    )
    def test_votes_within_platform_bounds(self, expertise, match, qv, seed):
        from repro.forum.generator import draw_answer_votes

        rng = np.random.default_rng(seed)
        votes = draw_answer_votes(expertise, match, qv, rng)
        assert -6 <= votes <= 60
        assert isinstance(votes, int)
