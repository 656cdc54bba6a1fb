"""Columnar append-only event store backing the hot data path.

The per-object ``Post``/``Thread`` layer is fine for a 700-user
synthetic forum, but at millions of posts the python-object overhead
(one heap object + dict per post, pointer-chasing per feature read)
dominates both memory and time.  This module stores the *hot* event
data — one row per answer event — as contiguous numpy columns instead:

* :class:`EventStore` — a generic append-only columnar store.  Columns
  grow in fixed-size **segments** (preallocated numpy arrays), so an
  append is an array slice write, never a realloc-and-copy of the full
  history; row ids are stable forever (append order == row order).
* :class:`AnswerLog` — the answer-event schema used by
  :class:`~repro.core.state.ForumState`: ``int32`` ids, ``float32``
  votes, ``float64`` times, per-row question/answer topic mixtures.
  The scale path (streaming generator and ingest) uses the same log
  with ``float32`` topics.
* The per-user freeze artifacts (:class:`UserHistory`,
  :class:`UserSummary`, :class:`BatchTables`) and the functions that
  build them (:func:`user_summary`, :func:`assemble_tables`) live here,
  next to the log they read.

Dtype policy is :mod:`repro.core.dtypes`: ids are ``int32`` (guarded by
``ensure_ids``), votes are ``float32`` (small integers — exact), and
times plus model-facing topic vectors stay ``float64`` so every value
the feature engine reads is bit-identical to the old object path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtypes import ID_DTYPE, TIME_DTYPE, VALUE_DTYPE, ensure_ids

__all__ = [
    "EventStore",
    "AnswerLog",
    "UserHistory",
    "UserSummary",
    "BatchTables",
    "user_summary",
    "assemble_tables",
    "thread_activity",
]


class EventStore:
    """Append-only columnar store with segment-based growth.

    ``schema`` maps column name to either a dtype (1-D column) or a
    ``(dtype, width)`` pair (2-D column of ``width`` floats per row).
    Rows are appended in blocks and addressed by a stable integer row
    id; a block append writes each column with one (or, across a
    segment boundary, two) array-slice assignments.
    """

    def __init__(self, schema: dict, segment_rows: int = 1 << 16):
        if segment_rows <= 0:
            raise ValueError("segment_rows must be positive")
        self._schema: dict[str, tuple[np.dtype, int]] = {}
        for name, spec in schema.items():
            if isinstance(spec, tuple):
                dtype, width = spec
                self._schema[name] = (np.dtype(dtype), int(width))
            else:
                self._schema[name] = (np.dtype(spec), 0)
        self._segment_rows = int(segment_rows)
        self._segments: list[dict[str, np.ndarray]] = []
        self._n = 0
        self._column_cache: dict[str, tuple[int, np.ndarray]] = {}

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._schema)

    @property
    def nbytes(self) -> int:
        """Bytes actually backing the store (allocated segments)."""
        return sum(
            arr.nbytes for seg in self._segments for arr in seg.values()
        )

    def _new_segment(self) -> dict[str, np.ndarray]:
        seg = {}
        for name, (dtype, width) in self._schema.items():
            shape = (
                (self._segment_rows,)
                if width == 0
                else (self._segment_rows, width)
            )
            seg[name] = np.empty(shape, dtype=dtype)
        self._segments.append(seg)
        return seg

    # -- writing ------------------------------------------------------------

    def append(self, **columns: np.ndarray) -> tuple[int, int]:
        """Append one block of rows; returns its ``(start, stop)`` range.

        Every schema column must be supplied with the same leading
        length.  Scalars broadcast over the block (handy for per-thread
        constants such as the thread id or the question's topic row).
        """
        if set(columns) != set(self._schema):
            missing = set(self._schema) - set(columns)
            extra = set(columns) - set(self._schema)
            raise ValueError(
                f"column mismatch (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        length = None
        block: dict[str, np.ndarray] = {}
        for name, (dtype, width) in self._schema.items():
            arr = np.asarray(columns[name], dtype=dtype)
            if width == 0:
                if arr.ndim == 0:
                    block[name] = arr  # broadcast scalar
                    continue
                if arr.ndim != 1:
                    raise ValueError(f"column {name!r} must be 1-D")
            else:
                if arr.ndim == 1:
                    if arr.shape != (width,):
                        raise ValueError(
                            f"column {name!r} row has width {arr.shape}, "
                            f"expected {width}"
                        )
                    block[name] = arr  # broadcast row
                    continue
                if arr.ndim != 2 or arr.shape[1] != width:
                    raise ValueError(
                        f"column {name!r} has shape {arr.shape}, "
                        f"expected (*, {width})"
                    )
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise ValueError("columns have mismatched lengths")
            block[name] = arr
        if length is None:
            raise ValueError("at least one column must be an array of rows")
        start = self._n
        written = 0
        while written < length:
            seg_index, offset = divmod(self._n, self._segment_rows)
            if seg_index == len(self._segments):
                self._new_segment()
            seg = self._segments[seg_index]
            take = min(length - written, self._segment_rows - offset)
            lo, hi = offset, offset + take
            for name, arr in block.items():
                if arr.ndim < max(1, 1 + (self._schema[name][1] > 0)):
                    seg[name][lo:hi] = arr  # broadcast
                else:
                    seg[name][lo:hi] = arr[written : written + take]
            self._n += take
            written += take
        self._column_cache.clear()
        return start, self._n

    # -- reading ------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` over all rows.

        While the store fits in one segment this is a zero-copy view;
        past that, a concatenation cached until the next append.
        """
        dtype, width = self._schema[name]
        if not self._segments:
            shape = (0,) if width == 0 else (0, width)
            return np.empty(shape, dtype=dtype)
        if len(self._segments) == 1:
            return self._segments[0][name][: self._n]
        cached = self._column_cache.get(name)
        if cached is not None and cached[0] == self._n:
            return cached[1]
        parts = []
        remaining = self._n
        for seg in self._segments:
            take = min(remaining, self._segment_rows)
            parts.append(seg[name][:take])
            remaining -= take
        out = np.concatenate(parts)
        self._column_cache[name] = (self._n, out)
        return out

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of column ``name`` (always a fresh array)."""
        rows = np.asarray(rows)
        if len(self._segments) == 1:
            return self._segments[0][name][rows]
        return self.column(name)[rows]


class AnswerLog:
    """The answer-event columns behind :class:`ForumState`.

    One row per answer, in arrival (chronological) order::

        user           int32    answer author
        thread_id      int32    thread answered
        votes          float32  answer votes (small integers — exact)
        timestamp      float64  answer timestamp (hours)
        response_time  float64  timestamp - thread.created_at
        q_topics       (K,)     question topic mixture
        a_topics       (K,)     answer topic mixture

    Topic columns default to ``float64`` (bit-identity with the object
    path); the scale path passes ``topic_dtype=np.float32`` to halve
    the footprint where no float64 pipeline reads the rows.
    """

    def __init__(
        self,
        n_topics: int,
        *,
        topic_dtype=np.float64,
        segment_rows: int = 1 << 16,
    ):
        self.n_topics = int(n_topics)
        self.topic_dtype = np.dtype(topic_dtype)
        self._store = EventStore(
            {
                "user": ID_DTYPE,
                "thread_id": ID_DTYPE,
                "votes": VALUE_DTYPE,
                "timestamp": TIME_DTYPE,
                "response_time": TIME_DTYPE,
                "q_topics": (self.topic_dtype, self.n_topics),
                "a_topics": (self.topic_dtype, self.n_topics),
            },
            segment_rows=segment_rows,
        )

    def __len__(self) -> int:
        return len(self._store)

    @property
    def n_rows(self) -> int:
        return self._store.n_rows

    @property
    def n_segments(self) -> int:
        return self._store.n_segments

    @property
    def nbytes(self) -> int:
        return self._store.nbytes

    @property
    def columns(self) -> tuple[str, ...]:
        return self._store.columns

    def column(self, name: str) -> np.ndarray:
        return self._store.column(name)

    def gather(self, name: str, rows: np.ndarray) -> np.ndarray:
        return self._store.gather(name, rows)

    def append_thread(
        self,
        users,
        thread_id: int,
        votes,
        timestamps,
        response_times,
        question_topics,
        answer_topics,
    ) -> int:
        """Append one thread's answers; returns the first row id."""
        users = ensure_ids(users, "user id")
        start, _ = self._store.append(
            user=users,
            thread_id=np.asarray(
                ensure_ids([thread_id], "thread id")[0]
            ),
            votes=votes,
            timestamp=timestamps,
            response_time=response_times,
            q_topics=np.asarray(question_topics, dtype=self.topic_dtype),
            a_topics=answer_topics,
        )
        return start

    def append_block(
        self,
        users,
        thread_ids,
        votes,
        timestamps,
        response_times,
        question_topics,
        answer_topics,
    ) -> tuple[int, int]:
        """Append many answers across many threads in one call.

        The streaming ingest path: a whole generation chunk (rows in
        chronological thread order) lands with one array write per
        column instead of one call per thread.
        """
        return self._store.append(
            user=ensure_ids(users, "user id"),
            thread_id=ensure_ids(thread_ids, "thread id"),
            votes=votes,
            timestamp=timestamps,
            response_time=response_times,
            q_topics=np.asarray(question_topics, dtype=self.topic_dtype),
            a_topics=answer_topics,
        )

    def compact(self, live_rows: np.ndarray) -> "AnswerLog":
        """A new log holding only ``live_rows`` (ascending), same order.

        Eviction leaves dead rows behind; once they outnumber live ones
        the state engine gathers the survivors into a fresh store and
        remaps its row lists (row id = position in ``live_rows``).
        """
        fresh = AnswerLog(
            self.n_topics,
            topic_dtype=self.topic_dtype,
            segment_rows=self._store._segment_rows,
        )
        if len(live_rows):
            fresh._store.append(
                **{
                    name: self._store.gather(name, live_rows)
                    for name in self._store.columns
                }
            )
        return fresh


# -- per-user freeze artifacts ---------------------------------------------


@dataclass
class UserHistory:
    """A user's answering history inside the feature window."""

    answered_thread_ids: np.ndarray  # (n_i,)
    answered_question_topics: np.ndarray  # (n_i, K)
    answer_votes: np.ndarray  # (n_i,)
    response_times: np.ndarray  # (n_i,)
    answer_topic_vectors: np.ndarray  # (n_i, K) topics of the answers


@dataclass
class UserSummary:
    """Cached per-user freeze artifacts; valid until the rows change."""

    history: UserHistory
    votes_sum: float
    median_rt: float
    d_u: np.ndarray
    topic_sum: np.ndarray
    times_sorted: np.ndarray
    time_rank: np.ndarray
    tid_rows: list[tuple[int, int]] | None  # (tid, local row); None if dup


@dataclass
class BatchTables:
    """Flat per-user aggregate tables backing the batch feature engine.

    Histories are concatenated row-wise (``seg_start`` delimits each
    user's block) so whole pair batches reduce with one segmented sum
    instead of per-user Python.  ``times_sorted``/``time_rank`` hold
    each user's response times sorted within its block, which turns the
    leave-one-row-out median into index arithmetic.  Users listed in
    ``dup_users`` answered some thread more than once (pre-preprocessing
    data) and take the masked fallback path instead of ``row_of``.
    """

    user_index: dict[int, int]  # user id -> row in the per-user tables
    n: np.ndarray  # (U,) history lengths
    votes_sum: np.ndarray  # (U,)
    median_rt: np.ndarray  # (U,)
    d_u: np.ndarray  # (U, K) answer_topic_vectors.mean(axis=0)
    topic_sum: np.ndarray  # (U, K) answer_topic_vectors.sum(axis=0)
    seg_start: np.ndarray  # (U,) offsets into the concatenated rows
    hist_topics: np.ndarray  # (N, K) answered_question_topics, concatenated
    hist_votes: np.ndarray  # (N,) float32 — exact small integers
    hist_answer_topics: np.ndarray  # (N, K)
    times_sorted: np.ndarray  # (N,) response times, sorted per user block
    time_rank: np.ndarray  # (N,) history row -> rank within its block
    row_of: dict[tuple[int, int], int]  # (user, tid) -> concatenated row
    dup_users: set[int]


def user_summary(log: AnswerLog, rows) -> UserSummary:
    """One user's freeze artifacts gathered from its log rows.

    ``rows`` are the user's row ids in arrival order — the same order
    the old per-object path kept its ``_AnswerRow`` list in, so every
    derived array is element-for-element identical.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.size
    history = UserHistory(
        answered_thread_ids=log.gather("thread_id", rows),
        answered_question_topics=np.asarray(
            log.gather("q_topics", rows), dtype=np.float64
        ).reshape(n, log.n_topics),
        answer_votes=log.gather("votes", rows),
        response_times=log.gather("response_time", rows),
        answer_topic_vectors=np.asarray(
            log.gather("a_topics", rows), dtype=np.float64
        ).reshape(n, log.n_topics),
    )
    order = np.argsort(history.response_times, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    tids = history.answered_thread_ids.tolist()
    tid_rows: list[tuple[int, int]] | None
    if len(set(tids)) != len(tids):
        tid_rows = None
    else:
        tid_rows = list(zip(tids, range(n)))
    return UserSummary(
        history=history,
        votes_sum=float(history.answer_votes.sum()),
        median_rt=float(np.median(history.response_times)),
        d_u=history.answer_topic_vectors.mean(axis=0),
        topic_sum=history.answer_topic_vectors.sum(axis=0),
        times_sorted=history.response_times[order],
        time_rank=rank,
        tid_rows=tid_rows,
    )


def assemble_tables(
    summaries: dict[int, UserSummary], users: list[int], k: int
) -> BatchTables:
    """Flat batch tables over ``users`` (must be sorted ascending).

    The canonical (sorted) user layout makes the tables identical
    however the window was reached.
    """
    u_count = len(users)
    counts = np.array(
        [summaries[u].history.response_times.size for u in users],
        dtype=np.int64,
    )
    total = int(counts.sum())
    seg_start = np.zeros(u_count, dtype=np.int64)
    if u_count > 1:
        np.cumsum(counts[:-1], out=seg_start[1:])
    votes_sum = np.empty(u_count)
    median_rt = np.empty(u_count)
    d_u = np.empty((u_count, k))
    topic_sum = np.empty((u_count, k))
    hist_topics = np.empty((total, k))
    hist_votes = np.empty(total, dtype=VALUE_DTYPE)
    hist_answer_topics = np.empty((total, k))
    times_sorted = np.empty(total)
    time_rank = np.empty(total, dtype=np.int64)
    row_of: dict[tuple[int, int], int] = {}
    dup_users: set[int] = set()
    for ui, user in enumerate(users):
        s = summaries[user]
        lo = int(seg_start[ui])
        hi = lo + int(counts[ui])
        votes_sum[ui] = s.votes_sum
        median_rt[ui] = s.median_rt
        d_u[ui] = s.d_u
        topic_sum[ui] = s.topic_sum
        h = s.history
        hist_topics[lo:hi] = h.answered_question_topics
        hist_votes[lo:hi] = h.answer_votes
        hist_answer_topics[lo:hi] = h.answer_topic_vectors
        times_sorted[lo:hi] = s.times_sorted
        time_rank[lo:hi] = s.time_rank
        if s.tid_rows is None:
            dup_users.add(user)
        else:
            for tid, row in s.tid_rows:
                row_of[(user, tid)] = lo + row
    return BatchTables(
        user_index={u: ui for ui, u in enumerate(users)},
        n=counts,
        votes_sum=votes_sum,
        median_rt=median_rt,
        d_u=d_u,
        topic_sum=topic_sum,
        seg_start=seg_start,
        hist_topics=hist_topics,
        hist_votes=hist_votes,
        hist_answer_topics=hist_answer_topics,
        times_sorted=times_sorted,
        time_rank=time_rank,
        row_of=row_of,
        dup_users=dup_users,
    )


def thread_activity(
    users: np.ndarray, thread_ids: np.ndarray, timestamps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per ``(user, thread)`` event count and latest timestamp.

    One vectorized group-by over raw event columns — the columnar
    replacement for replaying ``observe`` calls post by post.  Returns
    ``(users, thread_ids, counts, latest)`` grouped arrays, ordered by
    ``(user, thread)`` ascending.
    """
    users = np.asarray(users)
    thread_ids = np.asarray(thread_ids)
    timestamps = np.asarray(timestamps)
    if users.size == 0:
        return (
            users[:0],
            thread_ids[:0],
            np.empty(0, dtype=np.int64),
            timestamps[:0],
        )
    order = np.lexsort((timestamps, thread_ids, users))
    u = users[order]
    t = thread_ids[order]
    ts = timestamps[order]
    new_group = np.empty(u.size, dtype=bool)
    new_group[0] = True
    np.logical_or(u[1:] != u[:-1], t[1:] != t[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    ends = np.append(starts[1:], u.size)
    counts = (ends - starts).astype(np.int64)
    # Sorted by timestamp within each group, so the last row is the max.
    latest = ts[ends - 1]
    return u[starts], t[starts], counts, latest
