"""ForumState listener hooks under eviction / freeze / compaction.

The retrieval engine rides ``on_append``/``on_evict`` to keep its
recency index incremental; these tests pin the hook contract the state
engine must honor however its columnar log is reorganized underneath:

* every appended thread fires ``on_append`` exactly once, after the
  state mutation is visible;
* every evicted thread fires ``on_evict`` exactly once, with the
  original :class:`Thread` object;
* freezes between (and during) mutations never fire hooks or change
  what listeners have observed;
* log compaction (triggered by heavy eviction) is invisible to
  listeners and to the frozen tables.
"""

import numpy as np
import pytest

import repro.core.state as state_module
from repro.core.state import ForumState
from repro.core.topic_context import TopicModelContext
from repro.forum import ForumConfig, generate_forum


class RecordingListener:
    def __init__(self):
        self.events: list[tuple[str, int]] = []

    def on_append(self, thread):
        self.events.append(("append", thread.thread_id))

    def on_evict(self, thread):
        self.events.append(("evict", thread.thread_id))

    def of(self, kind):
        return [tid for k, tid in self.events if k == kind]


class SnoopingListener(RecordingListener):
    """Checks the state already reflects the mutation when hooks fire."""

    def __init__(self, state):
        super().__init__()
        self.state = state
        self.violations = 0

    def on_append(self, thread):
        super().on_append(thread)
        if thread.answers:
            users, tids, _ = self.state.answer_events()
            if thread.thread_id not in set(tids.tolist()):
                self.violations += 1

    def on_evict(self, thread):
        super().on_evict(thread)
        _, tids, _ = self.state.answer_events()
        if thread.thread_id in set(tids.tolist()):
            self.violations += 1


@pytest.fixture(scope="module")
def listener_window():
    forum = generate_forum(
        ForumConfig(n_users=60, n_questions=120, activity_tail=1.3), seed=11
    )
    clean, _ = forum.dataset.preprocess()
    threads = sorted(clean, key=lambda t: t.created_at)
    topics = TopicModelContext.fit(clean, n_topics=4, seed=0)
    return topics, threads


@pytest.fixture(scope="module")
def threads(listener_window):
    return listener_window[1]


@pytest.fixture(scope="module")
def listener_topics(listener_window):
    return listener_window[0]


@pytest.fixture
def fresh_state(listener_topics):
    def build(threads, n=0):
        state = ForumState(listener_topics)
        for thread in threads[:n]:
            state.append(thread)
        return state

    return build


class TestHookFiring:
    def test_append_fires_once_per_thread(self, threads, fresh_state):
        state = fresh_state(threads)
        listener = RecordingListener()
        state.add_listener(listener)
        for thread in threads[:10]:
            state.append(thread)
        assert listener.of("append") == [t.thread_id for t in threads[:10]]
        assert listener.of("evict") == []

    def test_evict_fires_once_per_stale_thread(self, threads, fresh_state):
        state = fresh_state(threads, 20)
        listener = RecordingListener()
        state.add_listener(listener)
        cutoff = threads[8].created_at
        evicted = state.evict(cutoff)
        expected = [t.thread_id for t in threads[:20] if t.created_at < cutoff]
        assert evicted == len(expected)
        assert listener.of("evict") == expected
        assert listener.of("append") == []

    def test_hooks_see_mutated_state(self, threads, fresh_state):
        state = fresh_state(threads)
        listener = SnoopingListener(state)
        state.add_listener(listener)
        for thread in threads[:15]:
            state.append(thread)
        state.evict(threads[6].created_at)
        assert listener.violations == 0
        assert len(listener.of("evict")) == 6

    def test_removed_listener_stops_observing(self, threads, fresh_state):
        state = fresh_state(threads)
        listener = RecordingListener()
        state.add_listener(listener)
        state.append(threads[0])
        state.remove_listener(listener)
        state.append(threads[1])
        assert listener.of("append") == [threads[0].thread_id]


class TestFreezeInterleavings:
    def test_freeze_between_mutations_fires_no_hooks(self, threads, fresh_state):
        state = fresh_state(threads)
        listener = RecordingListener()
        state.add_listener(listener)
        for i, thread in enumerate(threads[:12]):
            state.append(thread)
            if i % 3 == 0:
                state.freeze()
        state.freeze()
        state.evict(threads[4].created_at)
        state.freeze()
        assert len(listener.of("append")) == 12
        assert len(listener.of("evict")) == 4

    def test_freeze_after_evict_matches_fresh_build(self, threads, fresh_state):
        """Sliding the window (with hooks attached) must leave exactly
        the same frozen tables as building a state from the survivors."""
        state = fresh_state(threads)
        state.add_listener(RecordingListener())
        for thread in threads[:30]:
            state.append(thread)
        state.freeze()  # populate caches mid-stream
        cutoff = threads[12].created_at
        state.evict(cutoff)
        frozen = state.freeze()

        reference = fresh_state(threads, 0)
        for thread in threads[:30]:
            if thread.created_at >= cutoff:
                reference.append(thread)
        ref_frozen = reference.freeze()

        tables, ref_tables = frozen.batch_tables, ref_frozen.batch_tables
        for name in (
            "users",
            "n",
            "hist_tid",
            "hist_votes",
            "times_sorted",
            "time_rank",
            "d_u",
        ):
            np.testing.assert_array_equal(
                getattr(tables, name), getattr(ref_tables, name), err_msg=name
            )
        assert (
            frozen.global_median_response == ref_frozen.global_median_response
        )


class TestCompactionInvisibility:
    def test_compaction_preserves_listener_and_frozen_views(
        self, threads, fresh_state, monkeypatch
    ):
        state = fresh_state(threads)
        # Force compaction to trigger: shrink the module's dead-row
        # floor so a modest eviction wave reorganizes the log.
        monkeypatch.setattr(state_module, "_COMPACT_MIN_DEAD", 1)
        listener = SnoopingListener(state)
        state.add_listener(listener)
        for thread in threads:
            state.append(thread)
        # Evict in waves, freezing between waves, until compaction ran.
        cut_points = [threads[len(threads) // 3].created_at,
                      threads[2 * len(threads) // 3].created_at]
        from repro import perf

        with perf.use_registry() as reg:
            for cutoff in cut_points:
                state.evict(cutoff)
                state.freeze()
        assert reg.counter("state.log_compactions") >= 1
        assert listener.violations == 0
        survivors = [
            t for t in threads if t.created_at >= cut_points[-1]
        ]
        assert sorted(listener.of("append")) == sorted(
            t.thread_id for t in threads
        )
        assert sorted(listener.of("evict")) == sorted(
            t.thread_id for t in threads if t not in survivors
        )
        # The frozen view equals a fresh build over the survivors.
        reference = fresh_state(threads)
        for thread in survivors:
            reference.append(thread)
        frozen, ref_frozen = state.freeze(), reference.freeze()
        tables, ref_tables = frozen.batch_tables, ref_frozen.batch_tables
        np.testing.assert_array_equal(tables.users, ref_tables.users)
        np.testing.assert_array_equal(tables.hist_votes, ref_tables.hist_votes)
