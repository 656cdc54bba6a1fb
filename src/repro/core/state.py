"""Incremental forum state engine.

:class:`ForumState` is a mutable, windowed view of the forum that owns
everything the feature layer used to rescan from scratch on every fit:
per-question :class:`QuestionInfo`, the columnar answer log and
discussed-topic sums.  ``append(thread)``
queues one thread's delta, ``evict(before_hours)`` slides the window
forward, and ``freeze()`` compiles the read-only tables
(:class:`~repro.core.window.FrozenState`) a
:class:`~repro.core.features.FeatureExtractor` computes features from.

Topic inference is group-committed: ``append`` encodes the thread's
uncached posts and queues it, and one ``transform`` call later infers
every queued post before the queued threads are folded in append order.
That settle runs once the queue holds ``_SETTLE_DOCS`` uncached posts,
and at the top of every reader of topic-dependent state (``freeze``,
``evict``, ``answer_log``, ``answer_events``, ``answerers``,
``num_answers``), so no reader sees a half-applied window.

Answer events are stored columnar: one row per answer in an append-only
:class:`~repro.core.columnar.AnswerLog` (contiguous numpy segments,
``int32`` ids / ``float32`` votes).  Threads arrive in chronological
order and a thread's answers are consecutive rows, so eviction, which
drops the oldest threads, only moves the first live row forward; a
compaction rewrites the log once dead rows outnumber live ones.

A freeze flattens the window into :class:`~repro.core.window.WindowColumns`
(the live rows, the held questions and askers, the discussed-topic
entries and participation) and hands them to
:func:`~repro.core.window.build_frozen`, the one builder the streamed
path uses too; it derives both SLN graphs and their centralities from
the participation.

Determinism contract: a state reached by any append/evict history holds
tables bit-identical to a state built fresh from the same thread window
(``ForumState.from_dataset``).  Three rules make that hold:

* threads must be appended in chronological order, so the live rows
  and the discussed-topic entries are in the fresh build's order;
* the builder's sums add each user's rows in that order, and row
  *values* survive compaction unchanged;
* the graphs are built from the participation columns with nodes in
  ascending id order and each node's neighbours ascending, so no
  set- or dict-iteration order reaches the centralities or the
  resource-allocation sums.

The serving core relies on this: its incremental refits produce the
exact same :class:`OnlineReport` as a full rebuild of every window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset, fingerprint_threads
from ..forum.models import Thread
from ..topics.tokenizer import split_text_and_code
from .columnar import AnswerLog
from .dtypes import VALUE_DTYPE, check_id
from .topic_context import TopicModelContext
from .window import (
    ANSWER_COLUMNS,
    FrozenState,
    WindowColumns,
    build_frozen,
    id_array,
)

__all__ = [
    "QuestionInfo",
    "ForumState",
    "FrozenState",
    "question_info_from_thread",
]

# Compaction triggers once dead rows outnumber live ones *and* there is
# enough garbage for the rewrite to pay for itself.
_COMPACT_MIN_DEAD = 1024

# Queued uncached posts that make ``append`` settle.  A ``transform``
# call costs about what its slowest document costs, so per-post cost
# falls steeply up to a few dozen documents (on the e2e forum L, 0.47 ms
# a post at one call per thread, 0.12 ms in batches of 32); the cap
# keeps a refit from paying for a whole interval's inference at its
# freeze.
_SETTLE_DOCS = 32


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


class ForumState:
    """Mutable windowed forum view with delta updates and lazy freezing."""

    def __init__(self, topics: TopicModelContext):
        self.topics = topics
        self._threads: dict[int, Thread] = {}
        self._last_created = float("-inf")
        self._question_info: dict[int, QuestionInfo] = {}
        # Columnar answer events; rows before ``_live`` are evicted.
        self._log = AnswerLog(topics.n_topics)
        self._live = 0
        # Discussed-topic contributions in fold (= chronological) order:
        # (user, tid) -> (topic sum, n posts).
        self._discussed: dict[tuple[int, int], tuple[np.ndarray, int]] = {}
        # Freeze cache.
        self._frozen: FrozenState | None = None
        self._frozen_key: tuple | None = None
        # Mutation listeners (candidate indices, monitors): objects with
        # ``on_append(thread)`` / ``on_evict(thread)`` hooks, notified
        # after each delta so derived structures update incrementally
        # instead of rebuilding from the window.
        self._listeners: list = []
        # Appended threads whose topic-dependent fold waits for
        # ``_settle``, each with its uncached posts' encoded bodies.
        self._pending: list[tuple[Thread, dict[int, np.ndarray]]] = []
        self._pending_docs = 0

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
        self._settle()
        return len(self._log) - self._live

    @property
    def last_created(self) -> float:
        """Creation time of the newest appended thread (-inf when empty).

        ``append`` rejects anything older; resilient consumers check
        against this clock before folding a repaired event in.
        """
        return self._last_created

    @property
    def answerers(self) -> set[int]:
        return set(self.answer_events()[0].tolist())

    @property
    def answer_log(self) -> AnswerLog:
        """The columnar answer-event store (includes tombstoned rows)."""
        self._settle()
        return self._log

    def answer_events(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(user, thread_id, timestamp)`` columns of the live rows.

        The columnar read path for derived indices (recency, activity):
        views of the log, with no Thread object touched.
        """
        self._settle()
        return tuple(
            self._log.column(name)[self._live :]
            for name in ("user", "thread_id", "timestamp")
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
        """Take one arriving thread (question + its answers) into the state.

        The thread joins the thread map and the clock at once, and its
        listeners hear of it at once.  Its uncached posts are encoded
        at once too, so a body that cannot be tokenized fails here, on
        the event that carried it, and leaves the state unchanged; so
        does an answer author outside the answer log's ``int32`` ids
        (the loaders' anonymous -1 is valid for askers only).  The
        topic-dependent fold waits in a queue for :meth:`_settle`.
        """
        tid = thread.thread_id
        if tid in self._threads:
            raise ValueError(f"thread {tid} already in state")
        if thread.created_at < self._last_created:
            raise ValueError(
                "threads must be appended in chronological order "
                f"(got {thread.created_at} after {self._last_created})"
            )
        for answer in thread.answers:
            check_id(answer.author, "answer author")
        with perf.timer("state.append"):
            encoded = self.topics.encode_uncached(thread.posts)
            self._last_created = thread.created_at
            self._threads[tid] = thread
            self._pending.append((thread, encoded))
            self._pending_docs += len(encoded)
            self._frozen = None
            perf.incr("state.docs_deferred", len(encoded))
            if self._pending_docs >= _SETTLE_DOCS:
                self._settle()
            for listener in self._listeners:
                listener.on_append(thread)
        perf.incr("state.threads_appended")

    def _settle(self) -> None:
        """Infer every queued post in one pass, then fold the queued
        threads in append order.

        ``transform`` is batch-invariant bit for bit, so the tables equal
        those of folding each thread as it arrived.
        """
        if not self._pending:
            return
        with perf.timer("state.settle"):
            docs: dict[int, np.ndarray] = {}
            for _, encoded in self._pending:
                for pid, doc in encoded.items():
                    docs.setdefault(pid, doc)
            self.topics.infer_encoded(docs)
            for thread, _ in self._pending:
                self._fold(thread)
            self._pending.clear()
            self._pending_docs = 0

    def _fold(self, thread: Thread) -> None:
        """Apply one thread's topic-dependent delta (its posts are cached)."""
        tid = thread.thread_id
        posts = thread.posts
        post_topics = self.topics.post_topics_many(posts)
        info = question_info_from_thread(thread, self.topics)
        self._question_info[tid] = info
        if thread.answers:
            answers = thread.answers
            timestamps = np.array([a.timestamp for a in answers])
            self._log.append_thread(
                [a.author for a in answers],
                tid,
                np.array([float(a.votes) for a in answers], dtype=VALUE_DTYPE),
                timestamps,
                timestamps - thread.created_at,
                info.topics,
                np.stack(post_topics[1:]),
            )
        k = self.topics.n_topics
        for post, d in zip(posts, post_topics):
            key = (post.author, tid)
            prev_sum, prev_count = self._discussed.get(key, (np.zeros(k), 0))
            self._discussed[key] = (prev_sum + d, prev_count + 1)

    def evict(self, before_hours: float) -> int:
        """Drop threads created before ``before_hours``; returns the count."""
        stale = []
        for thread in self._threads.values():
            if thread.created_at >= before_hours:
                break  # appends are chronological, so iteration is too
            stale.append(thread)
        with perf.timer("state.evict"):
            self._settle()
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
        """Drop the oldest held thread; its answers are the first live
        rows."""
        tid = thread.thread_id
        del self._threads[tid]
        del self._question_info[tid]
        self._live += len(thread.answers)
        for user in {post.author for post in thread.posts}:
            del self._discussed[(user, tid)]

    def _maybe_compact(self) -> None:
        """Rewrite the log without its dead rows once they dominate it.

        Row *values* and order are unchanged, so every future freeze is
        unaffected.
        """
        n_live = len(self._log) - self._live
        if self._live < _COMPACT_MIN_DEAD or self._live <= n_live:
            return
        with perf.timer("state.compact"):
            self._log = self._log.compact(
                np.arange(self._live, len(self._log))
            )
            self._live = 0
        perf.incr("state.log_compactions")

    # -- freezing -------------------------------------------------------------

    def window_columns(
        self, *, betweenness_sample_size: int | None = None, seed: int = 0
    ) -> WindowColumns:
        """The current window as the builder's flat columns.

        Questions asked and participation come from the held threads'
        askers and the live rows; the discussed-topic entries are
        flattened in fold order.
        """
        self._settle()
        k = self.topics.n_topics
        rows = {
            name: self._log.column(name)[self._live :]
            for name in ANSWER_COLUMNS
        }
        n = len(self._threads)
        tids = id_array(self._threads, n)
        askers = id_array((t.asker for t in self._threads.values()), n)
        infos = [self._question_info[tid] for tid in self._threads]
        entries = self._discussed
        m = len(entries)
        return WindowColumns(
            n_topics=k,
            **rows,
            question_tid=tids,
            question_asker=askers,
            question_scalars=np.array(
                [(i.votes, i.word_length, i.code_length) for i in infos]
            ).reshape(n, 3),
            question_topics=np.array([i.topics for i in infos]).reshape(n, k),
            disc_user=id_array((user for user, _ in entries), m),
            disc_tid=id_array((tid for _, tid in entries), m),
            disc_sum=np.array(
                [total for total, _ in entries.values()]
            ).reshape(m, k),
            disc_count=id_array((count for _, count in entries.values()), m),
            member_user=np.concatenate([askers, rows["user"]]),
            member_tid=np.concatenate([tids, rows["thread_id"]]),
            duration_hours=self.duration_hours,
            n_threads=n,
            fingerprint=self.fingerprint(),
            betweenness_sample_size=betweenness_sample_size,
            seed=seed,
        )

    def freeze(
        self, *, betweenness_sample_size: int | None = None, seed: int = 0
    ) -> FrozenState:
        """Compile the read-only tables for the current window.

        A repeated call with the same parameters on an unmutated state
        returns the previous snapshot.
        """
        key = (betweenness_sample_size, seed)
        if self._frozen is not None and self._frozen_key == key:
            return self._frozen
        with perf.timer("state.freeze"):
            self._frozen = build_frozen(
                self.window_columns(
                    betweenness_sample_size=betweenness_sample_size, seed=seed
                )
            )
            self._frozen_key = key
        return self._frozen
