"""The retrieval pool's fast paths against their set-algebra oracles.

``tests/retrieval_oracle.py`` holds the reference versions: fusion by
``np.unique``/``np.add.at``, postings expansion by concatenate-and-unique,
pool assembly by ``np.union1d``, and recency tables rebuilt from the
per-thread maps.  Every property here asks for equality bit for bit
(values and dtype), not closeness.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.retrieval import (
    CandidateRetriever,
    RecencyIndex,
    RetrievalConfig,
    TopicInvertedIndex,
    reciprocal_rank_fusion,
)
from repro.core.state import ForumState
from repro.forum.dataset import ForumDataset
from repro.forum.models import Post, Thread

from ..retrieval_oracle import (
    pool_oracle,
    recency_query_oracle,
    recency_tables_oracle,
    rrf_oracle,
    topic_query_oracle,
)

def assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


# A narrow id range makes overlapping lists, duplicates and tied fused
# scores common.
ranked_lists = st.lists(
    st.lists(st.integers(0, 25), max_size=12).map(
        lambda r: np.array(r, dtype=np.int64)
    ),
    max_size=4,
)


class TestFusionOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        ranked_lists,
        st.one_of(st.none(), st.integers(1, 30)),
        st.sampled_from([0.0, 1.0, 60.0]),
    )
    @example([np.array([1, 2]), np.array([2, 1])], 1, 60.0)  # tied scores
    @example([np.array([3, 3, 1]), np.array([], dtype=np.int64)], 1, 60.0)
    @example([], None, 60.0)
    def test_matches_set_algebra(self, lists, pool_size, rrf_k):
        assert_same(
            reciprocal_rank_fusion(lists, rrf_k=rrf_k, pool_size=pool_size),
            rrf_oracle(lists, rrf_k=rrf_k, pool_size=pool_size),
        )

    @settings(max_examples=100, deadline=None)
    @given(ranked_lists.filter(lambda ls: any(len(r) for r in ls)))
    def test_pool_size_at_union_size(self, lists):
        union = np.unique(np.concatenate(lists)).size
        for pool_size in (1, union - 1, union, union + 1):
            if pool_size < 1:
                continue
            assert_same(
                reciprocal_rank_fusion(lists, pool_size=pool_size),
                rrf_oracle(lists, pool_size=pool_size),
            )


@st.composite
def topic_indices(draw):
    n_users = draw(st.integers(0, 24))
    n_topics = draw(st.integers(1, 6))
    ids = draw(
        st.lists(
            st.integers(0, 200), min_size=n_users, max_size=n_users,
            unique=True,
        )
    )
    # Few distinct masses: zero rows, tied columns and tied scores.
    masses = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
    rows = draw(
        st.lists(
            st.lists(masses, min_size=n_topics, max_size=n_topics),
            min_size=n_users,
            max_size=n_users,
        )
    )
    user_topics = np.array(rows, dtype=float).reshape(n_users, n_topics)
    index = TopicInvertedIndex(np.array(sorted(ids), dtype=np.int64), user_topics)
    if draw(st.booleans()):
        index.build_postings(1)
    theta = np.array(
        draw(st.lists(masses, min_size=n_topics, max_size=n_topics)),
        dtype=float,
    )
    return index, theta


class TestTopicQueryOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        topic_indices(),
        st.one_of(st.none(), st.integers(0, 26)),
        st.integers(1, 8),  # query_topics may exceed K
        st.one_of(st.none(), st.integers(0, 26)),
    )
    def test_matches_concatenate_unique(
        self, index_theta, top_k, query_topics, per_topic
    ):
        index, theta = index_theta
        kwargs = dict(query_topics=query_topics, per_topic=per_topic)
        expected = topic_query_oracle(index, theta, top_k, **kwargs)
        # Twice: the second query reads the postings the first cached.
        for _ in range(2):
            assert_same(index.query(theta, top_k, **kwargs), expected)


# One step of a recency-index history; few users and threads, so a
# forget often drops one thread of a user who keeps others.
users = st.integers(0, 3)
tids = st.integers(0, 4)
stamps = st.sampled_from([0.0, 1.0, 2.5, 2.5, 7.0, 100.0])
steps = st.one_of(
    st.tuples(st.just("observe"), users, tids, stamps),
    st.tuples(st.just("forget"), users, tids),
    st.tuples(
        st.just("block"),
        st.lists(
            st.tuples(users, tids, st.integers(1, 3), stamps), max_size=6
        ),
    ),
    st.tuples(st.just("clear")),
)


def apply(index: RecencyIndex, shadow: dict, step) -> None:
    """Run ``step`` on the index, and on a plain per-thread model."""
    kind = step[0]
    if kind == "observe":
        index.observe(*step[1:])
        rows = [(*step[1:3], 1, step[3])]
    elif kind == "forget":
        index.forget(*step[1:])
        user, tid = step[1:]
        shadow.get(user, {}).pop(tid, None)
        if not shadow.get(user, True):
            del shadow[user]
        rows = []
    elif kind == "block":
        rows = step[1]
        index.observe_block(
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.int64),
            np.array([r[2] for r in rows], dtype=np.int64),
            np.array([r[3] for r in rows], dtype=float),
        )
    else:
        index.clear()
        shadow.clear()
        rows = []
    for user, tid, count, ts in rows:
        latest, n = shadow.setdefault(user, {}).get(tid, (-np.inf, 0))
        shadow[user][tid] = (max(latest, ts), n + count)


class TestRecencyOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(steps, max_size=30))
    @example(
        [("observe", 1, 0, 7.0), ("observe", 1, 1, 2.5), ("forget", 1, 0)]
    )
    def test_tables_match_rebuild_after_every_step(self, history):
        index, shadow = RecencyIndex(), {}
        for step in history:
            apply(index, shadow, step)
            user_ids, latest, counts = index._tables()
            expected = recency_tables_oracle(shadow)
            np.testing.assert_array_equal(user_ids, expected[0])
            assert_same(latest, expected[1])
            assert_same(counts, expected[2])
            assert len(index) == user_ids.size
            np.testing.assert_array_equal(
                index.query(None), recency_query_oracle(shadow, None)
            )


@pytest.fixture(scope="module")
def retrievers(extractor):
    """Built retrievers: default, tight budgets, no MF, and exhaustive."""
    configs = {
        "default": RetrievalConfig(),
        "tight": RetrievalConfig(
            topic_top_k=6, recency_top_k=6, mf_top_k=6, pool_size=8,
            query_topics=9,
        ),
        "no_mf": RetrievalConfig(use_mf=False, pool_size=40),
        "exhaustive": RetrievalConfig.exhaustive(),
    }
    built = {}
    for name, cfg in configs.items():
        retriever = CandidateRetriever(cfg, extractor.topics)
        retriever.build(extractor.frozen, extractor.window)
        built[name] = retriever
    return built


class TestPoolOracle:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_union1d(self, retrievers, dataset, data):
        retriever = retrievers[data.draw(st.sampled_from(sorted(retrievers)))]
        thread = data.draw(st.sampled_from(dataset.threads[-25:]))
        known = sorted(dataset.answerers)
        candidates = data.draw(
            st.one_of(
                # What the serving path passes: ascending, distinct.
                st.just(known),
                st.lists(st.sampled_from(known), unique=True).map(sorted),
                # Unsorted, duplicated, and ids no index has seen.
                st.lists(
                    st.one_of(
                        st.sampled_from(known), st.integers(10**7, 10**7 + 5)
                    ),
                    max_size=80,
                ),
            )
        )
        if data.draw(st.booleans()):
            candidates = [u for u in candidates if u != thread.asker]
        assert_same(
            retriever.pool(thread, candidates),
            pool_oracle(retriever, thread, candidates),
        )


def test_user_first_seen_by_append_is_known_at_next_pool(dataset, extractor):
    """An append makes its answerer known before the next ``pool`` call.

    A candidate no index has seen is always kept; once it has answered
    in the window it competes like everyone else, and with a tight
    recency budget it falls out of the pool.
    """
    newcomer = 9_500_001
    threads = dataset.threads
    state = ForumState.from_dataset(ForumDataset(threads), extractor.topics)
    retriever = CandidateRetriever(
        RetrievalConfig(topic_top_k=5, recency_top_k=5, mf_top_k=5, pool_size=5),
        extractor.topics,
    )
    retriever.build(extractor.frozen, extractor.window)
    retriever.attach(state)
    candidates = sorted(dataset.answerers) + [newcomer]
    question = threads[-1]
    assert newcomer in retriever.pool(question, candidates)

    now = threads[-1].created_at + 1.0
    fresh = Thread(
        question=Post(9_500_010, 9_500_010, threads[0].asker, now, 0,
                      "a fresh question", True),
        answers=[Post(9_500_011, 9_500_010, newcomer, now + 0.5, 0,
                      "a first answer", False)],
    )
    state.append(fresh)
    pool = retriever.pool(question, candidates)
    assert newcomer in retriever._recency.users
    assert newcomer not in pool
    assert_same(pool, pool_oracle(retriever, question, candidates))
    retriever.detach()
