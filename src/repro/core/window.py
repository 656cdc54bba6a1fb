"""The compiled feature window: one build, from columns, for every freeze.

The paper computes every feature of ``x_uq`` over one window ``F(q)``
(Sec. II-B).  :func:`build_frozen` lays that window out once, straight
from flat columns (:class:`WindowColumns`), as the gather tables the
block featurizer reads (:class:`FrozenState`):

* the window's users in ascending id order, one *user row* each, plus a
  sentinel row that every unknown user maps to;
* the row table: per user row, the user features (i)-(v), ``d_u`` and
  the four centralities in ``FEATURE_ORDER`` layout, with the
  no-evidence defaults on rows without evidence;
* the history segments (:class:`BatchTables`): each answering user's
  rows, concatenated in ascending user order and arrival order within
  a user, with the per-user sums, medians and a thread id per row;
* the thread inverse: one sorted entry per (thread, user row) with a
  history row, a discussed-topic contribution or a place in the
  thread's participants, and participation in CSR form both ways;
* the question columns, keyed by sorted thread id, with a pad row that
  a lookup past the last id lands on;
* the two SLN graphs ``G_QA`` and ``G_D`` (Sec. II-B) in CSR form over
  user rows, built from the participation columns: a thread's
  participants are its asker and answerers, ``G_QA`` links each of them
  to the thread's asker and ``G_D`` links every pair of them.  Their
  closeness and betweenness fill four row-table columns.

Both freezes feed it: :meth:`ForumState.freeze
<repro.core.state.ForumState.freeze>` passes its live answer rows, held
questions, discussed-topic entries and participation;
:meth:`WindowColumns.from_stores` passes a streamed forum's columnar
stores, which carry no post bodies or post lists, so its discussed
topics and participation, and with them the graphs, are empty and the
social features take their no-evidence defaults.

Determinism: every table entry is a gather, an integer count, a sort or
a float sum that adds a user's rows one at a time in arrival order (the
order ``ndarray.sum(axis=0)`` over the user's rows uses); the graphs'
nodes are in ascending id order and each node's neighbours ascending.
So a window reached by any append/evict history gives bit-identical
tables.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .. import perf
from ..graphs.centrality import _betweenness, _closeness, csr_adjacency
from .dtypes import VALUE_DTYPE
from .featurespec import FeatureSpec

__all__ = ["BatchTables", "FrozenState", "WindowColumns", "build_frozen"]

# The answer-log columns a freeze reads.
ANSWER_COLUMNS = (
    "user",
    "thread_id",
    "votes",
    "response_time",
    "q_topics",
    "a_topics",
)

# Pads the sorted user ids so a lookup past the last id lands on the
# sentinel row; no real user id reaches it.
_ID_PAD = np.iinfo(np.int64).max


def id_array(ids: Iterable, count: int) -> np.ndarray:
    return np.fromiter(ids, dtype=np.int64, count=count)


def unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  Sort-based: ``np.unique`` takes a hash
    path that is an order of magnitude slower at these sizes."""
    values = np.sort(values)
    if values.size:
        values = values[np.r_[True, values[1:] != values[:-1]]]
    return values


def user_rows(user_ids: np.ndarray, users: np.ndarray) -> np.ndarray:
    """User row per user id; the sentinel row for unknown users."""
    pos = np.searchsorted(user_ids, users)
    return np.where(user_ids[pos] == users, pos, user_ids.size - 1)


def segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[i], starts[i] + lengths[i])``,
    concatenated in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )


def _runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of each run of equal values."""
    starts = np.flatnonzero(
        np.r_[True, sorted_values[1:] != sorted_values[:-1]]
    ) if sorted_values.size else np.empty(0, dtype=np.int64)
    return starts, np.diff(np.append(starts, sorted_values.size))


def _sequential_sums(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-run sums of ``values`` rows, each run added one row at a time
    in order: bit-identical to ``values[s:s + c].sum(axis=0)``, which
    ``np.add.reduceat`` (pairwise within a run) is not.  One vectorized
    step per row position, over the runs that long."""
    out = values[starts]
    by_count = np.argsort(-counts, kind="stable")
    longest_first = counts[by_count]
    for j in range(1, int(longest_first[0]) if counts.size else 0):
        live = by_count[: np.searchsorted(-longest_first, -j)]
        out[live] += values[starts[live] + j]
    return out


@dataclass(frozen=True, eq=False)
class WindowColumns:
    """What one freeze reads, as flat columns.

    Answer rows are the window's live answers in arrival order.  A
    discussed-topic entry sums the topic mixtures of one user's posts in
    one thread and counts them; each user's entries are in thread
    arrival order.  Participation lists (user, thread) pairs where the
    user asked or answered; repeats are allowed, and each thread there
    is a held question whose asker takes part in it.
    """

    n_topics: int
    user: np.ndarray
    thread_id: np.ndarray
    votes: np.ndarray
    response_time: np.ndarray
    q_topics: np.ndarray  # (N, K) topics of the answered question
    a_topics: np.ndarray  # (N, K) topics of the answer
    question_tid: np.ndarray
    question_asker: np.ndarray
    question_scalars: np.ndarray  # (Q, 3) votes, word and code length
    question_topics: np.ndarray  # (Q, K)
    disc_user: np.ndarray
    disc_tid: np.ndarray
    disc_sum: np.ndarray  # (E, K)
    disc_count: np.ndarray
    member_user: np.ndarray
    member_tid: np.ndarray
    duration_hours: float
    n_threads: int
    fingerprint: str
    betweenness_sample_size: int | None
    seed: int

    @classmethod
    def from_stores(cls, log, questions) -> "WindowColumns":
        """The columns of a streamed forum
        (:func:`~repro.forum.streaming.ingest_stream`): every row of its
        answer log and question store.  It has no post bodies or post
        lists, so discussed topics and participation are empty."""
        k = log.n_topics
        timestamps = log.column("timestamp")
        created = questions.column("created_at")
        empty = np.empty(0, dtype=np.int64)
        return cls(
            n_topics=k,
            **{name: log.column(name) for name in ANSWER_COLUMNS},
            question_tid=questions.column("thread_id"),
            question_asker=questions.column("asker"),
            question_scalars=np.column_stack(
                [
                    questions.column(name)
                    for name in ("votes", "word_chars", "code_chars")
                ]
            ),
            question_topics=questions.column("topics"),
            disc_user=empty,
            disc_tid=empty,
            disc_sum=np.empty((0, k)),
            disc_count=empty,
            member_user=empty,
            member_tid=empty,
            duration_hours=max(
                float(timestamps.max()) if timestamps.size else 0.0,
                float(created.max()) if created.size else 0.0,
            ),
            n_threads=len(questions),
            fingerprint=f"columnar:{len(questions)}q:{len(log)}a",
            betweenness_sample_size=None,
            seed=0,
        )


@dataclass(frozen=True, eq=False)
class BatchTables:
    """The answer histories: one segment of rows per answering user.

    Users are ascending; each segment holds the user's rows in arrival
    order (``seg_start`` delimits it).  ``times_sorted``/``time_rank``
    hold each segment's response times sorted within it, which turns
    the leave-one-row-out median into index arithmetic.  Users marked
    ``dup`` answered some thread more than once (pre-preprocessing
    data); the thread inverse holds no history row for them.
    """

    users: np.ndarray  # (H,) ascending ids
    n: np.ndarray  # (H,) history lengths
    votes_sum: np.ndarray  # (H,)
    median_rt: np.ndarray  # (H,)
    d_u: np.ndarray  # (H, K) mean answer topics
    topic_sum: np.ndarray  # (H, K) summed answer topics
    seg_start: np.ndarray  # (H,) offsets into the concatenated rows
    dup: np.ndarray  # (H,) bool
    hist_tid: np.ndarray  # (N,) answered thread ids
    hist_topics: np.ndarray  # (N, K) answered question topics
    hist_votes: np.ndarray  # (N,) float32 — exact small integers
    hist_answer_topics: np.ndarray  # (N, K)
    times_sorted: np.ndarray  # (N,) response times, sorted per segment
    time_rank: np.ndarray  # (N,) row -> rank within its segment


@dataclass(frozen=True, eq=False)
class FrozenState:
    """The compiled window one extractor binds; read-only.

    Every field is a fresh array or a scalar, so later
    ``append``/``evict`` calls on the owning state never leak into an
    extractor already serving predictions.
    """

    user_ids: np.ndarray  # (U + 1,) ascending, then the sentinel's pad
    row_table: np.ndarray  # (U + 1, n_features)
    asked: np.ndarray  # (U + 1,) questions asked
    disc: np.ndarray  # (U + 1, K) topics discussed, no thread left out
    tbl_row: np.ndarray  # (U + 1,) history segment, -1 if none
    dup_rows: np.ndarray  # user rows of the ``dup`` users
    batch_tables: BatchTables
    thread_key: np.ndarray  # sorted ``tid * (U + 1) + row``
    thread_hrow: np.ndarray  # history row of the entry, -1 if none
    thread_disc: np.ndarray  # topics discussed, the thread left out
    thread_member: np.ndarray  # whether the user took part
    thread_ptr: np.ndarray  # participation CSR: thread -> member rows
    thread_members: np.ndarray
    user_ptr: np.ndarray  # participation CSR: user row -> threads
    user_threads: np.ndarray
    question_tids: np.ndarray  # (Q + 1,) ascending, then the pad
    question_scalars: np.ndarray  # (Q + 1, 3) votes, word, code length
    question_topics: np.ndarray  # (Q + 1, K)
    qa_indptr: np.ndarray  # G_QA as CSR: user row -> neighbour rows
    qa_indices: np.ndarray
    dense_indptr: np.ndarray  # G_D as CSR: user row -> neighbour rows
    dense_indices: np.ndarray
    global_median_response: float
    duration_hours: float
    n_threads: int
    fingerprint: str
    betweenness_sample_size: int | None
    seed: int


def _histories(cols: WindowColumns) -> BatchTables:
    """History segments from one stable sort of the rows by user and one
    by (user, response time)."""
    k = cols.n_topics
    order = np.argsort(cols.user, kind="stable")
    users = np.asarray(cols.user, dtype=np.int64)[order]
    starts, counts = _runs(users)
    group = np.repeat(np.arange(starts.size), counts)
    response_time = cols.response_time[order]
    by_time = np.lexsort((response_time, group))
    time_rank = np.empty(order.size, dtype=np.int64)
    time_rank[by_time] = np.arange(order.size) - np.repeat(starts, counts)
    times_sorted = response_time[by_time]
    hist_tid = np.asarray(cols.thread_id, dtype=np.int64)[order]
    pair = np.lexsort((hist_tid, group))
    repeat = (np.diff(group[pair]) == 0) & (np.diff(hist_tid[pair]) == 0)
    dup = np.zeros(starts.size, dtype=bool)
    dup[group[pair][1:][repeat]] = True
    hist_votes = np.asarray(cols.votes, dtype=VALUE_DTYPE)[order]
    hist_answer_topics = np.asarray(cols.a_topics, dtype=np.float64).reshape(
        -1, k
    )[order]
    topic_sum = _sequential_sums(hist_answer_topics, starts, counts)
    # Middle element, or the mean of the middle two, as np.median.
    lo = starts + (counts - 1) // 2
    hi = starts + counts // 2
    return BatchTables(
        users=users[starts],
        n=counts,
        votes_sum=np.add.reduceat(hist_votes, starts).astype(np.float64),
        median_rt=(times_sorted[lo] + times_sorted[hi]) / 2.0,
        d_u=topic_sum / counts[:, None],
        topic_sum=topic_sum,
        seg_start=starts,
        dup=dup,
        hist_tid=hist_tid,
        hist_topics=np.asarray(cols.q_topics, dtype=np.float64).reshape(
            -1, k
        )[order],
        hist_votes=hist_votes,
        hist_answer_topics=hist_answer_topics,
        times_sorted=times_sorted,
        time_rank=time_rank,
    )


def build_frozen(cols: WindowColumns) -> FrozenState:
    """Compile one window's gather tables from its columns."""
    k = cols.n_topics
    uniform = np.full(k, 1.0 / k)
    tbl = _histories(cols)
    askers, asked_counts = np.unique(
        np.asarray(cols.question_asker, dtype=np.int64), return_counts=True
    )
    ids = unique(
        np.concatenate(
            [
                tbl.users,
                askers,
                np.asarray(cols.disc_user, dtype=np.int64),
                np.asarray(cols.member_user, dtype=np.int64),
            ]
        )
    )
    user_ids = np.append(ids, _ID_PAD)
    n_rows = user_ids.size

    # The row table: user features (i)-(v), d_u and the four
    # centralities; the kernel writes every other column.
    tbl_rows = user_rows(user_ids, tbl.users)
    tbl_row = np.full(n_rows, -1, dtype=np.int64)
    tbl_row[tbl_rows] = np.arange(tbl_rows.size)
    asked = np.zeros(n_rows)
    asked[user_rows(user_ids, askers)] = asked_counts
    rt = cols.response_time
    global_median = float(np.median(rt)) if len(rt) else 1.0
    n_features = FeatureSpec(k).n_features
    c_social = n_features - 6
    table = np.zeros((n_rows, n_features))
    table[:, 3] = global_median
    table[tbl_rows, 0] = tbl.n.astype(float)
    table[tbl_rows, 1] = tbl.n / (1.0 + asked[tbl_rows])
    table[tbl_rows, 2] = tbl.votes_sum
    table[tbl_rows, 3] = tbl.median_rt
    table[:, 4 : 4 + k] = uniform
    table[tbl_rows, 4 : 4 + k] = tbl.d_u

    # Topics discussed: per user, the entries summed in arrival order;
    # per entry, the user's topics with that thread left out.
    order = np.argsort(cols.disc_user, kind="stable")
    disc_user = np.asarray(cols.disc_user, dtype=np.int64)[order]
    starts, lengths = _runs(disc_user)
    owner = np.repeat(np.arange(starts.size), lengths)
    entry_sum = np.asarray(cols.disc_sum, dtype=np.float64).reshape(-1, k)[
        order
    ]
    entry_count = np.asarray(cols.disc_count, dtype=np.int64)[order]
    total = _sequential_sums(entry_sum, starts, lengths)
    count = np.add.reduceat(entry_count, starts)
    disc_rows = user_rows(user_ids, disc_user[starts])
    disc = np.tile(uniform, (n_rows, 1))
    disc[disc_rows] = total / count[:, None]
    remaining = count[owner] - entry_count
    left_out = np.tile(uniform, (owner.size, 1))
    ok = remaining > 0
    left_out[ok] = (total[owner[ok]] - entry_sum[ok]) / remaining[ok, None]

    # The thread inverse, keyed ``tid * n_rows + row``; thread ids are
    # non-negative and fit int32, so keys fit int64.
    owner_of_row = np.repeat(np.arange(tbl.users.size), tbl.n)
    hist_rows = np.flatnonzero(~tbl.dup[owner_of_row])
    hist_keys = (
        tbl.hist_tid[hist_rows] * n_rows + tbl_rows[owner_of_row[hist_rows]]
    )
    disc_keys = (
        np.asarray(cols.disc_tid, dtype=np.int64)[order] * n_rows
        + disc_rows[owner]
    )
    member_keys = unique(
        np.asarray(cols.member_tid, dtype=np.int64) * n_rows
        + user_rows(user_ids, np.asarray(cols.member_user, dtype=np.int64))
    )
    keys = unique(np.concatenate([hist_keys, disc_keys, member_keys]))
    thread_hrow = np.full(keys.size, -1, dtype=np.int64)
    thread_hrow[np.searchsorted(keys, hist_keys)] = hist_rows
    thread_disc = disc[keys % n_rows]
    thread_disc[np.searchsorted(keys, disc_keys)] = left_out
    thread_member = np.zeros(keys.size, dtype=bool)
    thread_member[np.searchsorted(keys, member_keys)] = True
    # Participation in CSR form both ways, for the asker memo.
    member_rows = member_keys % n_rows
    first = np.diff(member_keys // n_rows, prepend=-1) != 0
    thread_index = np.cumsum(first) - 1
    user_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(member_rows, minlength=n_rows), out=user_ptr[1:])
    thread_ptr = np.append(np.flatnonzero(first), member_keys.size)

    by_tid = np.argsort(cols.question_tid, kind="stable")
    question_tids = np.append(
        np.asarray(cols.question_tid, dtype=np.int64)[by_tid], _ID_PAD
    )
    # The SLN graphs over the participants: per thread, each participant
    # to the asker (from the question columns) and to every other one.
    sizes = np.diff(thread_ptr)
    thread_tids = member_keys[thread_ptr[:-1]] // n_rows
    asker = np.asarray(cols.question_asker, dtype=np.int64)[by_tid][
        question_tids.searchsorted(thread_tids)
    ]
    per_entry = np.repeat(sizes, sizes)
    partner = member_rows[segments(np.repeat(thread_ptr[:-1], sizes), per_entry)]
    qa_indptr, qa_indices = csr_adjacency(
        n_rows, np.repeat(user_rows(user_ids, asker), sizes), member_rows
    )
    dense_indptr, dense_indices = csr_adjacency(
        n_rows, np.repeat(member_rows, per_entry), partner
    )
    # Social features (xv), (xvi), (xviii), (xix), on the participants
    # alone, in ascending id order; the two RAI columns are filled from
    # the extractor's asker memo.
    nodes = np.flatnonzero(np.diff(user_ptr))
    rank = np.cumsum(np.diff(user_ptr) > 0) - 1
    with perf.timer("state.centrality"):
        for col, indptr, indices in (
            (0, qa_indptr, qa_indices),
            (3, dense_indptr, dense_indices),
        ):
            node_ptr = np.append(indptr[nodes], indptr[-1])
            node_indices = rank[indices]
            table[nodes, c_social + col] = _closeness(node_ptr, node_indices)
            table[nodes, c_social + col + 1] = _betweenness(
                node_ptr,
                node_indices,
                False,
                cols.betweenness_sample_size,
                cols.seed,
            )

    question_scalars = np.asarray(cols.question_scalars, dtype=np.float64)
    question_topics = np.asarray(cols.question_topics, dtype=np.float64)
    return FrozenState(
        user_ids=user_ids,
        row_table=table,
        asked=asked,
        disc=disc,
        tbl_row=tbl_row,
        dup_rows=tbl_rows[tbl.dup],
        batch_tables=tbl,
        thread_key=keys,
        thread_hrow=thread_hrow,
        thread_disc=thread_disc,
        thread_member=thread_member,
        thread_ptr=thread_ptr,
        thread_members=member_rows,
        user_ptr=user_ptr,
        user_threads=thread_index[np.argsort(member_rows, kind="stable")],
        question_tids=question_tids,
        question_scalars=np.vstack(
            [question_scalars.reshape(-1, 3)[by_tid], np.zeros((1, 3))]
        ),
        question_topics=np.vstack(
            [question_topics.reshape(-1, k)[by_tid], np.zeros((1, k))]
        ),
        qa_indptr=qa_indptr,
        qa_indices=qa_indices,
        dense_indptr=dense_indptr,
        dense_indices=dense_indices,
        global_median_response=global_median,
        duration_hours=float(cols.duration_hours),
        n_threads=int(cols.n_threads),
        fingerprint=cols.fingerprint,
        betweenness_sample_size=cols.betweenness_sample_size,
        seed=cols.seed,
    )
