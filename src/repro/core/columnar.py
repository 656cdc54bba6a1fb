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
* A freeze reads the log's live rows as flat columns and compiles
  them in :mod:`repro.core.window`; nothing per user is kept here.

Dtype policy is :mod:`repro.core.dtypes`: ids are ``int32`` (guarded by
``ensure_ids``), votes are ``float32`` (small integers — exact), and
times plus model-facing topic vectors stay ``float64`` so every value
the feature engine reads is bit-identical to the old object path.
"""

from __future__ import annotations

import numpy as np

from .dtypes import ID_DTYPE, TIME_DTYPE, VALUE_DTYPE, ensure_ids

__all__ = [
    "EventStore",
    "AnswerLog",
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
        the state engine gathers the survivors into a fresh store
        (row id = position in ``live_rows``).
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
