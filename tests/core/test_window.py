"""The window builder from bare columns: a hand-made log and the
streamed freeze of :func:`~repro.forum.streaming.ingest_stream`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import AnswerLog, EventStore
from repro.core.features import FeatureExtractor
from repro.core.window import WindowColumns, build_frozen
from repro.forum import ForumConfig, ForumDataset
from repro.forum.models import Post, Thread
from repro.forum.streaming import ingest_stream

STREAM_CONFIG = ForumConfig(
    n_users=300, n_questions=400, n_topics=4, activity_tail=1.3
)


def bind(frozen, topics):
    extractor = FeatureExtractor.__new__(FeatureExtractor)
    extractor._bind(frozen, topics, ForumDataset([]))
    return extractor


class TestHistories:
    def test_history_tables_from_log_columns(self):
        k = 2
        log = AnswerLog(k)
        log.append_thread(
            users=np.array([4, 6]),
            thread_id=50,
            votes=np.array([3.0, 1.0]),
            timestamps=np.array([2.0, 4.0]),
            response_times=np.array([1.0, 3.0]),
            question_topics=np.array([0.25, 0.75]),
            answer_topics=np.array([[0.1, 0.9], [0.6, 0.4]]),
        )
        questions = EventStore(
            {
                "thread_id": np.int32,
                "asker": np.int32,
                "created_at": np.float64,
                "votes": np.float32,
                "word_chars": np.float32,
                "code_chars": np.float32,
                "topics": (np.float32, k),
            }
        )
        questions.append(
            thread_id=[50],
            asker=[4],
            created_at=[1.0],
            votes=[2.0],
            word_chars=[10.0],
            code_chars=[0.0],
            topics=[[0.25, 0.75]],
        )
        frozen = build_frozen(WindowColumns.from_stores(log, questions))
        tables = frozen.batch_tables
        assert tables.users.tolist() == [4, 6]
        assert tables.n.tolist() == [1, 1]
        assert tables.votes_sum.tolist() == [3.0, 1.0]
        assert tables.hist_votes.dtype == np.float32
        np.testing.assert_allclose(tables.d_u[0], [0.1, 0.9])
        assert frozen.user_ids[:-1].tolist() == [4, 6]
        assert frozen.asked.tolist() == [1.0, 0.0, 0.0]
        assert frozen.global_median_response == 2.0


def random_columns(seed, n_rows, n_entries, k=3):
    """Columns of a random window: answer rows and discussed-topic
    entries over a small pool of users and threads."""
    rng = np.random.default_rng(seed)
    empty = np.empty(0, dtype=np.int64)
    return WindowColumns(
        n_topics=k,
        user=rng.integers(0, 6, n_rows).astype(np.int32),
        thread_id=rng.integers(0, 8, n_rows).astype(np.int32),
        votes=rng.integers(-3, 9, n_rows).astype(np.float32),
        response_time=rng.choice([0.5, 1.0, 2.0, rng.exponential()], n_rows),
        q_topics=rng.dirichlet(np.ones(k), n_rows),
        a_topics=rng.dirichlet(np.ones(k), n_rows),
        question_tid=empty,
        question_asker=empty,
        question_scalars=np.empty((0, 3)),
        question_topics=np.empty((0, k)),
        disc_user=rng.integers(0, 6, n_entries),
        disc_tid=rng.integers(0, 8, n_entries),
        disc_sum=rng.dirichlet(np.ones(k), n_entries),
        disc_count=rng.integers(1, 3, n_entries),
        member_user=empty,
        member_tid=empty,
        duration_hours=0.0,
        n_threads=0,
        fingerprint="",
        betweenness_sample_size=None,
        seed=0,
    )


class TestAgainstPerUserLoops:
    """The vectorized reductions equal the per-user loops they replace
    bit for bit: ``ndarray.sum``/``mean``/``np.median`` over each user's
    rows in arrival order, and discussed topics summed entry by entry."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(0, 60), st.integers(0, 40)
    )
    def test_tables_equal_loops(self, seed, n_rows, n_entries):
        cols = random_columns(seed, n_rows, n_entries)
        frozen = build_frozen(cols)
        tables = frozen.batch_tables
        assert tables.users.tolist() == sorted(set(cols.user.tolist()))
        for i, u in enumerate(tables.users.tolist()):
            rows = np.flatnonzero(cols.user == u)  # arrival order
            seg = slice(tables.seg_start[i], tables.seg_start[i] + rows.size)
            times = cols.response_time[rows]
            order = np.argsort(times, kind="stable")
            assert tables.n[i] == rows.size
            assert tables.votes_sum[i] == float(cols.votes[rows].sum())
            assert tables.median_rt[i] == float(np.median(times))
            topics = cols.a_topics[rows]
            np.testing.assert_array_equal(
                tables.topic_sum[i], topics.sum(axis=0)
            )
            np.testing.assert_array_equal(tables.d_u[i], topics.mean(axis=0))
            np.testing.assert_array_equal(
                tables.hist_tid[seg], cols.thread_id[rows]
            )
            np.testing.assert_array_equal(
                tables.times_sorted[seg], times[order]
            )
            np.testing.assert_array_equal(
                tables.time_rank[seg][order], np.arange(rows.size)
            )
            tids = cols.thread_id[rows].tolist()
            assert tables.dup[i] == (len(set(tids)) != len(tids))
        for u in set(cols.disc_user.tolist()):
            total, count = np.zeros(3), 0
            for j in np.flatnonzero(cols.disc_user == u):
                total = total + cols.disc_sum[j]
                count += cols.disc_count[j]
            row = frozen.user_ids.searchsorted(u)
            np.testing.assert_array_equal(frozen.disc[row], total / count)


@pytest.fixture(scope="module")
def streamed():
    log, questions, _ = ingest_stream(
        STREAM_CONFIG, seed=3, chunk_questions=150
    )
    return log, questions


class TestStreamedFreeze:
    def test_block_matches_the_log(self, streamed, extractor):
        """One block over a streamed question: the user features come
        straight from the log rows (the question's own left out), and
        the social features hold their no-evidence defaults."""
        log, questions = streamed
        frozen = build_frozen(WindowColumns.from_stores(log, questions))
        ex = bind(frozen, extractor.topics)
        user = log.column("user")
        thread_id = log.column("thread_id")
        tid = int(np.bincount(thread_id).argmax())  # most answered
        q = int(np.flatnonzero(questions.column("thread_id") == tid)[0])
        asker = int(questions.column("asker")[q])
        answerers = np.unique(user[thread_id == tid])
        ids, counts = np.unique(user, return_counts=True)
        busiest = ids[np.argsort(-counts, kind="stable")[:3]]
        users = np.unique(np.concatenate([answerers, busiest]))
        thread = Thread(
            Post(
                post_id=0,
                thread_id=tid,
                author=asker,
                timestamp=float(questions.column("created_at")[q]),
                votes=0,
                body="",
                is_question=True,
            )
        )
        x = ex.feature_matrix([(int(u), thread) for u in users])

        spec = ex.spec
        col = {name: spec.columns_of(name) for name in spec.feature_names}
        asked = np.bincount(
            questions.column("asker"), minlength=int(users.max()) + 1
        )
        response_time = log.column("response_time")
        for i, u in enumerate(users.tolist()):
            rows = (user == u) & (thread_id != tid)
            n = int(rows.sum())
            if n:
                votes = float(log.column("votes")[rows].astype(float).sum())
                median = np.median(response_time[rows])
                d_u = log.column("a_topics")[rows].astype(float).mean(axis=0)
            else:  # the question's own answer was the only one
                votes, median, d_u = 0.0, np.median(response_time), 0.25
            assert x[i, col["answers_provided"][0]] == n
            assert x[i, col["answer_ratio"][0]] == n / (1.0 + asked[u])
            assert x[i, col["net_answer_votes"][0]] == votes
            assert x[i, col["median_response_time"][0]] == median
            np.testing.assert_allclose(
                x[i, col["topics_answered"]], d_u, rtol=0.0, atol=1e-12
            )
        np.testing.assert_array_equal(
            x[:, col["topics_asked"]],
            np.tile(questions.column("topics")[q], (users.size, 1)),
        )
        assert (x[:, col["user_user_topic_similarity"][0]] == 1.0).all()
        for name in (
            "thread_cooccurrence",
            "qa_closeness",
            "qa_betweenness",
            "qa_resource_allocation",
            "dense_closeness",
            "dense_betweenness",
            "dense_resource_allocation",
        ):
            assert not x[:, col[name]].any(), name
