"""Columnar event store: segments, dtypes, compaction, overflow guard."""

import numpy as np
import pytest

from repro.core.columnar import (
    AnswerLog,
    EventStore,
    thread_activity,
)
from repro.core.dtypes import ID_DTYPE, ID_MAX, IdOverflowError, ensure_ids


class TestEventStore:
    def test_append_and_read_back(self):
        store = EventStore({"user": np.int32, "value": np.float32})
        start, stop = store.append(user=[1, 2, 3], value=[0.5, 1.5, 2.5])
        assert (start, stop) == (0, 3)
        assert store.n_rows == 3
        np.testing.assert_array_equal(store.column("user"), [1, 2, 3])
        np.testing.assert_allclose(store.column("value"), [0.5, 1.5, 2.5])

    def test_dtypes_are_pinned(self):
        store = EventStore(
            {"user": np.int32, "value": np.float32, "topics": (np.float32, 3)}
        )
        store.append(
            user=np.array([1], dtype=np.int64),
            value=[1.0],
            topics=np.ones((1, 3), dtype=np.float64),
        )
        assert store.column("user").dtype == np.int32
        assert store.column("value").dtype == np.float32
        assert store.column("topics").dtype == np.float32
        assert store.column("topics").shape == (1, 3)

    def test_scalar_broadcast(self):
        store = EventStore({"thread": np.int32, "t": np.float64})
        store.append(thread=7, t=[1.0, 2.0, 3.0])
        np.testing.assert_array_equal(store.column("thread"), [7, 7, 7])

    def test_growth_across_segment_boundaries(self):
        store = EventStore({"x": np.int32}, segment_rows=4)
        values = np.arange(11, dtype=np.int32)
        store.append(x=values[:3])
        store.append(x=values[3:10])  # splits across two boundaries
        store.append(x=values[10:])
        assert store.n_segments == 3
        np.testing.assert_array_equal(store.column("x"), values)

    def test_single_segment_column_is_zero_copy_view(self):
        store = EventStore({"x": np.int32}, segment_rows=64)
        store.append(x=[1, 2, 3])
        view = store.column("x")
        assert view.base is not None
        assert view.size == 3

    def test_gather(self):
        store = EventStore({"x": np.float64}, segment_rows=4)
        store.append(x=np.arange(10.0))
        np.testing.assert_array_equal(
            store.gather("x", np.array([0, 5, 9])), [0.0, 5.0, 9.0]
        )

    def test_row_ids_are_stable_across_appends(self):
        store = EventStore({"x": np.int32}, segment_rows=2)
        first = store.append(x=[10, 11])
        second = store.append(x=[12])
        assert first == (0, 2)
        assert second == (2, 3)
        assert store.gather("x", np.array([2]))[0] == 12


class TestAnswerLog:
    def _filled(self, k=3):
        log = AnswerLog(k, segment_rows=4)
        log.append_thread(
            users=np.array([5, 9]),
            thread_id=100,
            votes=np.array([2.0, -1.0]),
            timestamps=np.array([1.0, 2.0]),
            response_times=np.array([0.5, 1.5]),
            question_topics=np.full(k, 1.0 / k),
            answer_topics=np.full((2, k), 1.0 / k),
        )
        return log

    def test_column_dtypes(self):
        log = self._filled()
        assert log.column("user").dtype == ID_DTYPE
        assert log.column("thread_id").dtype == ID_DTYPE
        assert log.column("votes").dtype == np.float32
        assert log.column("timestamp").dtype == np.float64
        assert log.column("response_time").dtype == np.float64

    def test_append_block_matches_per_thread_appends(self):
        k = 2
        a, b = AnswerLog(k), AnswerLog(k)
        users = np.array([3, 4, 8], dtype=np.int64)
        tids = np.array([10, 10, 11], dtype=np.int64)
        votes = np.array([1.0, 0.0, 5.0])
        ts = np.array([0.5, 0.7, 1.1])
        rt = np.array([0.1, 0.3, 0.2])
        q = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        at = q[::-1].copy()
        a.append_block(users, tids, votes, ts, rt, q, at)
        for sel in (tids == 10, tids == 11):
            b.append_thread(
                users[sel], int(tids[sel][0]), votes[sel], ts[sel],
                rt[sel], q[sel][0], at[sel],
            )
        for name in a.columns:
            np.testing.assert_array_equal(a.column(name), b.column(name))

    def test_compact_keeps_live_rows_in_order(self):
        log = self._filled()
        log.append_thread(
            users=np.array([7]),
            thread_id=101,
            votes=np.array([0.0]),
            timestamps=np.array([3.0]),
            response_times=np.array([1.0]),
            question_topics=np.full(3, 1.0 / 3),
            answer_topics=np.full((1, 3), 1.0 / 3),
        )
        compacted = log.compact(np.array([0, 2]))
        assert compacted.n_rows == 2
        np.testing.assert_array_equal(compacted.column("user"), [5, 7])
        np.testing.assert_array_equal(compacted.column("thread_id"), [100, 101])


class TestOverflowGuard:
    def test_ensure_ids_rejects_out_of_range(self):
        with pytest.raises(IdOverflowError):
            ensure_ids(np.array([ID_MAX + 1], dtype=np.int64), "user id")

    def test_ensure_ids_rejects_negative(self):
        with pytest.raises(IdOverflowError):
            ensure_ids(np.array([-1], dtype=np.int32), "user id")

    def test_event_store_append_guards_ids(self):
        log = AnswerLog(2)
        with pytest.raises(IdOverflowError):
            log.append_thread(
                users=np.array([ID_MAX + 10], dtype=np.int64),
                thread_id=1,
                votes=np.array([0.0]),
                timestamps=np.array([0.0]),
                response_times=np.array([0.0]),
                question_topics=np.array([0.5, 0.5]),
                answer_topics=np.array([[0.5, 0.5]]),
            )

    def test_in_range_ids_preserved_exactly(self):
        ids = np.array([0, 1, ID_MAX], dtype=np.int64)
        out = ensure_ids(ids, "user id")
        assert out.dtype == ID_DTYPE
        np.testing.assert_array_equal(out.astype(np.int64), ids)


class TestThreadActivity:
    def test_group_by_matches_naive(self):
        rng = np.random.default_rng(3)
        users = rng.integers(0, 20, size=200)
        tids = rng.integers(0, 15, size=200)
        ts = rng.uniform(0, 100, size=200)
        u, t, counts, latest = thread_activity(users, tids, ts)
        expected = {}
        for a, b, c in zip(users, tids, ts):
            key = (int(a), int(b))
            cnt, lat = expected.get(key, (0, -np.inf))
            expected[key] = (cnt + 1, max(lat, c))
        assert len(u) == len(expected)
        for i in range(len(u)):
            cnt, lat = expected[(int(u[i]), int(t[i]))]
            assert counts[i] == cnt
            assert latest[i] == lat

    def test_empty(self):
        u, t, c, latest = thread_activity(
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int32),
            np.empty(0),
        )
        assert u.size == t.size == c.size == latest.size == 0
