"""Incremental forum state engine.

:class:`ForumState` is a mutable, windowed view of the forum that owns
everything the feature layer used to rescan from scratch on every fit:
per-question :class:`QuestionInfo`, per-user answer histories,
discussed-topic aggregates, thread co-occurrence sets, and the two SLN
edge multisets.  ``append(thread)`` applies one thread's delta,
``evict(before_hours)`` slides the window forward, and ``freeze()``
materializes the read-only tables (:class:`FrozenState`) a
:class:`~repro.core.features.FeatureExtractor` computes features from.

Answer events are stored columnar: one row per answer in an append-only
:class:`~repro.core.columnar.AnswerLog` (contiguous numpy segments,
``int32`` ids / ``float32`` votes), with the per-user view reduced to a
list of row ids.  Freezing gathers rows by fancy indexing instead of
walking python objects, and eviction tombstones rows until a compaction
pass rewrites the log (when dead rows outnumber live ones).

Freezing is incremental where it matters: per-user reductions (medians,
topic means, sorted response times) are cached and recomputed only for
users whose history changed since the previous freeze, and graph
centralities are recomputed only when the edge *set* actually changed
(tracked by :class:`~repro.graphs.EdgeMultiset` versions).

Determinism contract: a state reached by any append/evict history holds
tables bit-identical to a state built fresh from the same thread window
(``ForumState.from_dataset``).  Three rules make that hold:

* threads must be appended in chronological order, so per-user row
  lists always match the fresh-build iteration order;
* cached per-user aggregates are pure functions of the gathered rows
  (and row *values* survive compaction unchanged);
* graphs are rebuilt in canonical (sorted) order before centralities,
  so set-iteration order never depends on the mutation history.

The online loop relies on this to make its incremental refit path
produce the exact same :class:`OnlineReport` as a full rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset, fingerprint_threads
from ..forum.models import Thread
from ..graphs import (
    EdgeMultiset,
    UndirectedGraph,
    betweenness_centrality,
    closeness_centrality,
    dense_links,
    qa_links,
)
from ..topics.tokenizer import split_text_and_code
from .columnar import (
    AnswerLog,
    BatchTables,
    EventStore,
    UserHistory,
    UserSummary,
    assemble_tables,
    user_summary,
)
from .dtypes import VALUE_DTYPE
from .topic_context import TopicModelContext

__all__ = [
    "QuestionInfo",
    "ColumnQuestionInfo",
    "ForumState",
    "FrozenState",
    "question_info_from_thread",
    "frozen_from_columns",
]

# Compaction triggers once dead rows outnumber live ones *and* there is
# enough garbage for the rewrite to pay for itself.
_COMPACT_MIN_DEAD = 1024


@dataclass(frozen=True)
class QuestionInfo:
    """Per-question quantities: votes, lengths and topic distribution."""

    votes: float
    word_length: float
    code_length: float
    topics: np.ndarray


def question_info_from_thread(
    thread: Thread, topics: TopicModelContext
) -> QuestionInfo:
    """Question-side quantities of one thread under a topic context."""
    split = split_text_and_code(thread.question.body)
    return QuestionInfo(
        votes=float(thread.question.votes),
        word_length=float(split.word_length),
        code_length=float(split.code_length),
        topics=topics.post_topics(thread.question),
    )


class ColumnQuestionInfo:
    """Read-only ``tid -> QuestionInfo`` mapping over question columns.

    The columnar stand-in for ``FrozenState.question_info``: instead of
    materializing one :class:`QuestionInfo` per question up front (the
    scale path holds hundreds of thousands), it keeps the per-question
    columns as flat arrays — typically views of the question store's
    columns — and builds dataclass instances on lookup only.  The topic
    row handed out is a view, never a copy.
    """

    def __init__(self, tids, votes, word_length, code_length, topics):
        self.tids = np.asarray(tids)
        self.votes = np.asarray(votes)
        self.word_length = np.asarray(word_length)
        self.code_length = np.asarray(code_length)
        self.topics = np.asarray(topics)
        self._row = {int(t): i for i, t in enumerate(self.tids.tolist())}

    def get(self, tid: int, default=None):
        i = self._row.get(tid)
        if i is None:
            return default
        return QuestionInfo(
            votes=float(self.votes[i]),
            word_length=float(self.word_length[i]),
            code_length=float(self.code_length[i]),
            topics=self.topics[i],
        )

    def __getitem__(self, tid: int) -> QuestionInfo:
        info = self.get(tid)
        if info is None:
            raise KeyError(tid)
        return info

    def __contains__(self, tid: int) -> bool:
        return tid in self._row

    def __iter__(self):
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)


@dataclass(frozen=True)
class FrozenState:
    """Read-only snapshot of one freeze; what the extractor consumes.

    Containers are copies (values are shared immutable artifacts), so
    later ``append``/``evict`` calls on the owning state never leak into
    an extractor already serving predictions.
    """

    question_info: dict[int, QuestionInfo]
    histories: dict[int, UserHistory]
    questions_asked: dict[int, int]
    global_median_response: float
    discussed_sum: dict[int, np.ndarray]
    discussed_count: dict[int, int]
    discussed_by_thread: dict[int, dict[int, tuple[np.ndarray, int]]]
    thread_sets: dict[int, set[int]]
    qa_graph: UndirectedGraph
    dense_graph: UndirectedGraph
    qa_closeness: dict[int, float]
    qa_betweenness: dict[int, float]
    dense_closeness: dict[int, float]
    dense_betweenness: dict[int, float]
    batch_tables: BatchTables
    duration_hours: float
    n_threads: int
    fingerprint: str


class ForumState:
    """Mutable windowed forum view with delta updates and lazy freezing."""

    def __init__(self, topics: TopicModelContext):
        self.topics = topics
        self._threads: dict[int, Thread] = {}
        self._last_created = float("-inf")
        self._num_answers = 0
        self._question_info: dict[int, QuestionInfo] = {}
        # Columnar answer events + per-user row-id lists (arrival order).
        self._log = AnswerLog(topics.n_topics)
        self._user_rows: dict[int, list[int]] = {}
        self._dead_rows = 0
        self._questions_asked: dict[int, int] = {}
        # Per-user, per-thread discussed-topic contributions, insertion
        # (= chronological) ordered: user -> {tid: (topic sum, n posts)}.
        self._discussed: dict[int, dict[int, tuple[np.ndarray, int]]] = {}
        self._thread_sets: dict[int, set[int]] = {}
        self._qa = EdgeMultiset(qa_links)
        self._dense = EdgeMultiset(dense_links)
        # Freeze caches.
        self._dirty_users: set[int] = set()
        self._summaries: dict[int, UserSummary] = {}
        self._dirty_discussed: set[int] = set()
        self._discussed_totals: dict[int, tuple[np.ndarray, int]] = {}
        self._rt_dirty = True
        self._global_median = 1.0
        self._centrality_key: tuple | None = None
        self._centralities: tuple[dict, dict, dict, dict] | None = None
        self._frozen: FrozenState | None = None
        self._frozen_key: tuple | None = None
        # Mutation listeners (candidate indices, monitors): objects with
        # ``on_append(thread)`` / ``on_evict(thread)`` hooks, notified
        # after each delta so derived structures update incrementally
        # instead of rebuilding from the window.
        self._listeners: list = []

    @classmethod
    def from_dataset(
        cls, window: ForumDataset, topics: TopicModelContext
    ) -> "ForumState":
        """State holding exactly the window's threads (chronological)."""
        state = cls(topics)
        for thread in window:
            state.append(thread)
        return state

    # -- basic access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._threads)

    def __contains__(self, thread_id: int) -> bool:
        return thread_id in self._threads

    @property
    def num_answers(self) -> int:
        return self._num_answers

    @property
    def last_created(self) -> float:
        """Creation time of the newest appended thread (-inf when empty).

        ``append`` rejects anything older; resilient consumers check
        against this clock before folding a repaired event in.
        """
        return self._last_created

    @property
    def answerers(self) -> set[int]:
        return set(self._user_rows)

    @property
    def answer_log(self) -> AnswerLog:
        """The columnar answer-event store (includes tombstoned rows)."""
        return self._log

    def answer_events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(user, thread_id, timestamp)`` columns of the live rows.

        The columnar read path for derived indices (recency, activity):
        one fancy-indexed gather instead of iterating Thread objects.
        """
        if not self._user_rows:
            empty_ids = self._log.column("user")[:0]
            return empty_ids, empty_ids, np.empty(0)
        rows = np.sort(
            np.concatenate(
                [
                    np.asarray(r, dtype=np.int64)
                    for r in self._user_rows.values()
                ]
            )
        )
        return (
            self._log.gather("user", rows),
            self._log.gather("thread_id", rows),
            self._log.gather("timestamp", rows),
        )

    @property
    def duration_hours(self) -> float:
        """Timestamp of the last post held (paper's horizon T)."""
        last = 0.0
        for t in self._threads.values():
            last = max(last, t.created_at)
            if t.answers:
                last = max(last, t.answers[-1].timestamp)
        return last

    def to_dataset(self) -> ForumDataset:
        """The held threads as an immutable :class:`ForumDataset`."""
        return ForumDataset(self._threads.values())

    def fingerprint(self) -> str:
        """Digest of the held (thread_id, created_at) pairs."""
        return fingerprint_threads(self._threads.values())

    # -- listeners ------------------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register for ``on_append``/``on_evict`` mutation callbacks."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- mutation -------------------------------------------------------------

    def append(self, thread: Thread) -> None:
        """Fold one arriving thread (question + its answers) into the state."""
        tid = thread.thread_id
        if tid in self._threads:
            raise ValueError(f"thread {tid} already in state")
        if thread.created_at < self._last_created:
            raise ValueError(
                "threads must be appended in chronological order "
                f"(got {thread.created_at} after {self._last_created})"
            )
        with perf.timer("state.append"):
            self._last_created = thread.created_at
            self._threads[tid] = thread
            info = question_info_from_thread(thread, self.topics)
            self._question_info[tid] = info
            asker = thread.asker
            self._questions_asked[asker] = self._questions_asked.get(asker, 0) + 1
            if thread.answers:
                answers = thread.answers
                timestamps = np.array([a.timestamp for a in answers])
                start = self._log.append_thread(
                    [a.author for a in answers],
                    tid,
                    np.array(
                        [float(a.votes) for a in answers], dtype=VALUE_DTYPE
                    ),
                    timestamps,
                    timestamps - thread.created_at,
                    info.topics,
                    np.stack(
                        [self.topics.post_topics(a) for a in answers]
                    ),
                )
                for offset, answer in enumerate(answers):
                    self._user_rows.setdefault(answer.author, []).append(
                        start + offset
                    )
                    self._dirty_users.add(answer.author)
                self._rt_dirty = True
            self._num_answers += len(thread.answers)
            k = self.topics.n_topics
            for post in thread.posts:
                d = self.topics.post_topics(post)
                per_user = self._discussed.setdefault(post.author, {})
                prev_sum, prev_count = per_user.get(tid, (np.zeros(k), 0))
                per_user[tid] = (prev_sum + d, prev_count + 1)
                self._dirty_discussed.add(post.author)
            answerers = thread.answerers
            for user in {asker, *answerers}:
                self._thread_sets.setdefault(user, set()).add(tid)
            self._qa.add_thread(asker, answerers)
            self._dense.add_thread(asker, answerers)
            self._frozen = None
        for listener in self._listeners:
            listener.on_append(thread)
        perf.incr("state.threads_appended")

    def evict(self, before_hours: float) -> int:
        """Drop threads created before ``before_hours``; returns the count."""
        stale = []
        for thread in self._threads.values():
            if thread.created_at >= before_hours:
                break  # appends are chronological, so iteration is too
            stale.append(thread)
        with perf.timer("state.evict"):
            for thread in stale:
                self._remove_thread(thread)
            if stale:
                self._frozen = None
                self._maybe_compact()
        for thread in stale:
            for listener in self._listeners:
                listener.on_evict(thread)
        perf.incr("state.threads_evicted", len(stale))
        return len(stale)

    def _remove_thread(self, thread: Thread) -> None:
        tid = thread.thread_id
        del self._threads[tid]
        del self._question_info[tid]
        asker = thread.asker
        remaining = self._questions_asked[asker] - 1
        if remaining:
            self._questions_asked[asker] = remaining
        else:
            del self._questions_asked[asker]
        answerers = thread.answerers
        for user in answerers:
            rows = np.asarray(self._user_rows[user], dtype=np.int64)
            keep = rows[self._log.gather("thread_id", rows) != tid]
            self._dead_rows += rows.size - keep.size
            if keep.size:
                self._user_rows[user] = keep.tolist()
                self._dirty_users.add(user)
            else:
                del self._user_rows[user]
                self._dirty_users.discard(user)
                self._summaries.pop(user, None)
        self._num_answers -= len(thread.answers)
        if thread.answers:
            self._rt_dirty = True
        for user in {post.author for post in thread.posts}:
            per_user = self._discussed[user]
            del per_user[tid]
            if per_user:
                self._dirty_discussed.add(user)
            else:
                del self._discussed[user]
                self._dirty_discussed.discard(user)
                self._discussed_totals.pop(user, None)
        for user in {asker, *answerers}:
            members = self._thread_sets[user]
            members.discard(tid)
            if not members:
                del self._thread_sets[user]
        self._qa.remove_thread(asker, answerers)
        self._dense.remove_thread(asker, answerers)

    def _maybe_compact(self) -> None:
        """Rewrite the log without tombstones once they dominate it.

        Row *values* are unchanged and per-user arrival order is
        preserved (live row ids are remapped monotonically), so every
        cached summary and every future freeze is unaffected.
        """
        if (
            self._dead_rows < _COMPACT_MIN_DEAD
            or self._dead_rows <= self._num_answers
        ):
            return
        with perf.timer("state.compact"):
            if self._user_rows:
                live = np.sort(
                    np.concatenate(
                        [
                            np.asarray(r, dtype=np.int64)
                            for r in self._user_rows.values()
                        ]
                    )
                )
            else:
                live = np.empty(0, dtype=np.int64)
            self._log = self._log.compact(live)
            for user, rows in self._user_rows.items():
                self._user_rows[user] = np.searchsorted(
                    live, np.asarray(rows, dtype=np.int64)
                ).tolist()
            self._dead_rows = 0
        perf.incr("state.log_compactions")

    # -- freezing -------------------------------------------------------------

    def _refresh_summaries(self) -> None:
        refreshed = 0
        for user in self._dirty_users:
            rows = self._user_rows.get(user)
            if rows is None:
                self._summaries.pop(user, None)
                continue
            self._summaries[user] = user_summary(self._log, rows)
            refreshed += 1
        self._dirty_users.clear()
        perf.incr("state.users_refreshed", refreshed)

    def _refresh_discussed(self) -> None:
        k = self.topics.n_topics
        for user in self._dirty_discussed:
            per_user = self._discussed.get(user)
            if per_user is None:
                self._discussed_totals.pop(user, None)
                continue
            total = np.zeros(k)
            count = 0
            for vec, n_posts in per_user.values():
                total = total + vec
                count += n_posts
            self._discussed_totals[user] = (total, count)
        self._dirty_discussed.clear()

    def _assemble_tables(self) -> BatchTables:
        # Canonical (sorted) user layout: the dict's insertion order
        # depends on the append/evict history, and the tables must be
        # identical however the window was reached.
        return assemble_tables(
            self._summaries, sorted(self._user_rows), self.topics.n_topics
        )

    def _refresh_centralities(
        self, betweenness_sample_size: int | None, seed: int
    ) -> tuple[dict, dict, dict, dict]:
        key = (self._qa.version, self._dense.version, betweenness_sample_size, seed)
        if self._centrality_key == key and self._centralities is not None:
            perf.incr("state.centrality_cache_hits")
            return self._centralities
        with perf.timer("state.centrality"):
            qa_graph = self._qa.graph()
            dense_graph = self._dense.graph()
            self._centralities = (
                closeness_centrality(qa_graph),
                betweenness_centrality(
                    qa_graph,
                    sample_sources=betweenness_sample_size,
                    seed=seed,
                ),
                closeness_centrality(dense_graph),
                betweenness_centrality(
                    dense_graph,
                    sample_sources=betweenness_sample_size,
                    seed=seed,
                ),
            )
        self._centrality_key = key
        return self._centralities

    def freeze(
        self, *, betweenness_sample_size: int | None = None, seed: int = 0
    ) -> FrozenState:
        """Materialize the read-only tables for the current window.

        Unchanged per-user blocks and unchanged graph topologies are
        served from caches; a repeated call with the same parameters on
        an unmutated state returns the previous snapshot.
        """
        key = (betweenness_sample_size, seed)
        if self._frozen is not None and self._frozen_key == key:
            return self._frozen
        with perf.timer("state.freeze"):
            self._refresh_summaries()
            self._refresh_discussed()
            if self._rt_dirty:
                if self._user_rows:
                    rows = np.concatenate(
                        [
                            np.asarray(r, dtype=np.int64)
                            for r in self._user_rows.values()
                        ]
                    )
                    self._global_median = float(
                        np.median(self._log.gather("response_time", rows))
                    )
                else:
                    self._global_median = 1.0
                self._rt_dirty = False
            qa_clo, qa_bet, dense_clo, dense_bet = self._refresh_centralities(
                betweenness_sample_size, seed
            )
            self._frozen = FrozenState(
                question_info=dict(self._question_info),
                histories={
                    u: self._summaries[u].history for u in self._user_rows
                },
                questions_asked=dict(self._questions_asked),
                global_median_response=self._global_median,
                discussed_sum={
                    u: total for u, (total, _) in self._discussed_totals.items()
                },
                discussed_count={
                    u: count for u, (_, count) in self._discussed_totals.items()
                },
                discussed_by_thread={
                    u: dict(per) for u, per in self._discussed.items()
                },
                thread_sets={u: set(s) for u, s in self._thread_sets.items()},
                qa_graph=self._qa.graph(),
                dense_graph=self._dense.graph(),
                qa_closeness=qa_clo,
                qa_betweenness=qa_bet,
                dense_closeness=dense_clo,
                dense_betweenness=dense_bet,
                batch_tables=self._assemble_tables(),
                duration_hours=self.duration_hours,
                n_threads=len(self._threads),
                fingerprint=self.fingerprint(),
            )
            self._frozen_key = key
        return self._frozen


def frozen_from_columns(
    log: AnswerLog,
    questions: EventStore,
    *,
    duration_hours: float | None = None,
) -> FrozenState:
    """A servable :class:`FrozenState` built straight from columnar stores.

    The scale path: a streamed forum
    (:func:`~repro.forum.streaming.ingest_stream`) has answer rows
    and question columns but no ``Thread`` objects and no post bodies,
    so the structures that need bodies or explicit post lists
    (discussed-topic aggregates, thread co-occurrence sets, SLN graphs
    and centralities) are empty here — the corresponding features
    evaluate to their documented no-evidence defaults.  Everything the
    batch feature engine actually reduces over — per-user histories,
    batch tables, per-question info — is exact, and ``question_info``
    stays columnar
    (:class:`ColumnQuestionInfo`) instead of materializing one
    dataclass per question.
    """
    with perf.timer("state.frozen_from_columns"):
        users_col = log.column("user")
        response_times = log.column("response_time")
        order = np.argsort(users_col, kind="stable")
        sorted_users = users_col[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_users[1:] != sorted_users[:-1]]
        ) if sorted_users.size else np.empty(0, dtype=np.int64)
        ends = np.append(starts[1:], sorted_users.size)
        summaries: dict[int, UserSummary] = {}
        for lo, hi in zip(starts.tolist(), ends.tolist()):
            # Stable argsort keeps each user's rows in arrival order.
            summaries[int(sorted_users[lo])] = user_summary(
                log, order[lo:hi]
            )
        users_sorted = sorted(summaries)
        tables = assemble_tables(summaries, users_sorted, log.n_topics)
        uniq, counts = np.unique(questions.column("asker"), return_counts=True)
        timestamps = log.column("timestamp")
        if duration_hours is None:
            duration_hours = max(
                float(timestamps.max()) if timestamps.size else 0.0,
                float(questions.column("created_at").max())
                if len(questions)
                else 0.0,
            )
        return FrozenState(
            question_info=ColumnQuestionInfo(
                questions.column("thread_id"),
                questions.column("votes"),
                questions.column("word_chars"),
                questions.column("code_chars"),
                questions.column("topics"),
            ),
            histories={u: summaries[u].history for u in users_sorted},
            questions_asked=dict(
                zip((int(u) for u in uniq.tolist()), counts.tolist())
            ),
            global_median_response=float(np.median(response_times))
            if response_times.size
            else 1.0,
            discussed_sum={},
            discussed_count={},
            discussed_by_thread={},
            thread_sets={},
            qa_graph=EdgeMultiset(qa_links).graph(),
            dense_graph=EdgeMultiset(dense_links).graph(),
            qa_closeness={},
            qa_betweenness={},
            dense_closeness={},
            dense_betweenness={},
            batch_tables=tables,
            duration_hours=float(duration_hours),
            n_threads=len(questions),
            fingerprint=f"columnar:{len(questions)}q:{len(log)}a",
        )
