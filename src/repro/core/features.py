"""The paper's 20 user/question/user-question/social features (Sec. II-B).

A :class:`FeatureExtractor` is built once over a *feature window* — the
question set ``F(q)`` the paper computes features on — and then produces
the vector ``x_uq`` for any (user, question) pair.  All window-wide
precomputation (per-question info, per-user histories, discussed-topic
aggregates, SLN graphs and centralities) lives in
:class:`repro.core.state.ForumState`; the extractor binds one frozen
snapshot of it.  Batch callers construct from a dataset (which builds a
throwaway state) or, on the streaming path, from a long-lived state via
:meth:`FeatureExtractor.from_state` — the freeze then reuses every
per-user block and centrality table that did not change since the last
refit.

Binding compiles the snapshot once per refit epoch into gather tables
indexed by one *user row* per window user, plus a sentinel row holding
the no-evidence defaults for every user the window does not know, and
into one sorted *thread inverse* over (thread, user row) entries that
carries the leakage guard's history rows, the discussed topics with
that thread left out, and thread participation.
:meth:`FeatureExtractor.feature_matrix` groups pairs into one block per
question and fills every column with array gathers by user row and
block.  The one lazily grown structure is the *asker memo*: per asker,
the sparse shared-thread counts and resource-allocation indices over
its co-participants and two-hop neighbourhood; every other user's
values are exactly zero.

Leakage guard: when the target thread itself lies inside the window,
all user-side aggregates (answer counts, votes, response times, topic
histories, thread co-occurrence) exclude that thread's contributions.
Without this, the "answers provided" feature would directly encode the
a_uq label being predicted.  The paper's ``F(q) = {q' <= q}`` is
ambiguous on this point; excluding the target thread is the sound
reading.  Graph centralities are computed once over the whole window
(a single thread's edges have negligible effect on global centrality).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from ..graphs import UndirectedGraph, resource_allocation_indices
from .featurespec import FeatureSpec
from .state import (
    ForumState,
    FrozenState,
    QuestionInfo,
    question_info_from_thread,
)
from .topic_context import TopicModelContext

__all__ = ["FeatureExtractor", "QuestionInfo"]

# Pads the sorted user ids so a lookup past the last id lands on the
# sentinel row; no real user id reaches it.
_ID_PAD = np.iinfo(np.int64).max


def _id_array(ids: Iterable, count: int) -> np.ndarray:
    return np.fromiter(ids, dtype=np.int64, count=count)


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.  Sort-based: ``np.unique`` takes a hash
    path that is an order of magnitude slower at these sizes."""
    values = np.sort(values)
    if values.size:
        values = values[np.r_[True, values[1:] != values[:-1]]]
    return values


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[i], starts[i] + lengths[i])``,
    concatenated in order."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - lengths), lengths
    )


class FeatureExtractor:
    """Computes x_uq vectors over a fixed feature window."""

    # Out-of-window threads seen at prediction time keep their info in a
    # small LRU; the window's own threads are cached permanently.
    _OUT_OF_WINDOW_CACHE_SIZE = 512

    # Memory cap (in float64 elements) for one block's pair x history
    # similarity matrix.
    _SIM_CHUNK_ELEMENTS = 4_000_000

    def __init__(
        self,
        window: ForumDataset,
        topics: TopicModelContext,
        *,
        betweenness_sample_size: int | None = None,
        seed: int = 0,
    ):
        with perf.timer("features.build"):
            state = ForumState.from_dataset(window, topics)
            frozen = state.freeze(
                betweenness_sample_size=betweenness_sample_size, seed=seed
            )
        self._bind(frozen, topics, window)

    @classmethod
    def from_state(
        cls,
        state: ForumState,
        *,
        betweenness_sample_size: int | None = None,
        seed: int = 0,
    ) -> "FeatureExtractor":
        """Extractor over a live :class:`ForumState`'s current window.

        This is the streaming path: the state's freeze reuses every
        cached per-user block and centrality table that is still valid,
        and the returned extractor holds an immutable snapshot — later
        ``append``/``evict`` calls on the state do not affect it.
        """
        self = cls.__new__(cls)
        with perf.timer("features.build"):
            frozen = state.freeze(
                betweenness_sample_size=betweenness_sample_size, seed=seed
            )
        self._bind(frozen, state.topics, state.to_dataset())
        return self

    def _bind(
        self,
        frozen: FrozenState,
        topics: TopicModelContext,
        window: ForumDataset,
    ) -> None:
        self.window = window
        self.topics = topics
        self.spec = FeatureSpec(topics.n_topics)
        self._uniform = np.full(topics.n_topics, 1.0 / topics.n_topics)
        self.frozen = frozen
        self._question_info = frozen.question_info
        self._extra_question_info: OrderedDict[int, QuestionInfo] = OrderedDict()
        self.qa_graph: UndirectedGraph = frozen.qa_graph
        self.dense_graph: UndirectedGraph = frozen.dense_graph
        self._compile(frozen)
        # The asker memo (see _extend_memo): sorted keys
        # ``asker_row * n_rows + row`` with their (n, 3) social values,
        # and which asker rows it holds.
        self._memo_key = np.empty(0, dtype=np.int64)
        self._memo_values = np.empty((0, 3))
        self._memoized = np.zeros(self._user_ids.size, dtype=bool)

    @property
    def window_fingerprint(self) -> str:
        """Digest of the bound window; persisted to guard reloads."""
        return self.frozen.fingerprint

    # -- compiled tables ------------------------------------------------------

    def _compile(self, frozen: FrozenState) -> None:
        """Gather tables over one row per window user, once per epoch.

        The last row is the sentinel every unknown user maps to; it
        holds the no-evidence defaults (zero activity, uniform topics,
        the global median response time, zero centralities).
        """
        tbl = frozen.batch_tables
        users_of = [
            frozen.questions_asked,
            tbl.user_index,
            frozen.discussed_sum,
            frozen.thread_sets,
            frozen.qa_closeness,
            frozen.qa_betweenness,
            frozen.dense_closeness,
            frozen.dense_betweenness,
        ]
        ids = _unique(
            np.concatenate(
                [_id_array(d, len(d)) for d in users_of]
                + [
                    _id_array(g.nodes(), len(g))
                    for g in (frozen.qa_graph, frozen.dense_graph)
                ]
            )
        )
        n_rows = ids.size + 1
        self._user_ids = np.append(ids, _ID_PAD)

        # User features (i)-(v) — answer count, answer ratio, votes,
        # median response time — and d_u; rows without a history keep
        # the defaults.  ``user_index`` lists users in table order.
        tbl_rows = self._rows(_id_array(tbl.user_index, len(tbl.user_index)))
        self._tbl_row = np.full(n_rows, -1, dtype=np.int64)
        self._tbl_row[tbl_rows] = np.arange(tbl_rows.size)
        asked = frozen.questions_asked
        self._asked = np.zeros(n_rows)
        self._asked[self._rows(_id_array(asked, len(asked)))] = np.fromiter(
            asked.values(), dtype=float, count=len(asked)
        )
        user = np.zeros((n_rows, 4))
        user[:, 3] = frozen.global_median_response
        user[tbl_rows, 0] = tbl.n.astype(float)
        user[tbl_rows, 1] = tbl.n / (1.0 + self._asked[tbl_rows])
        user[tbl_rows, 2] = tbl.votes_sum
        user[tbl_rows, 3] = tbl.median_rt
        self._user_cols = user
        self._d_u = np.tile(self._uniform, (n_rows, 1))
        self._d_u[tbl_rows] = tbl.d_u
        self._dup_rows = self._rows(
            _id_array(tbl.dup_users, len(tbl.dup_users))
        )

        # Topics discussed, with no thread left out.
        self._disc = np.tile(self._uniform, (n_rows, 1))
        disc_users = list(frozen.discussed_sum)
        disc_sum = np.array(list(frozen.discussed_sum.values())).reshape(
            -1, self.topics.n_topics
        )
        disc_count = np.array(
            [frozen.discussed_count[u] for u in disc_users], dtype=np.int64
        )
        has_posts = disc_count > 0
        self._disc[self._rows(_id_array(disc_users, len(disc_users)))[
            has_posts
        ]] = disc_sum[has_posts] / disc_count[has_posts, None]
        self._compile_threads(frozen, disc_users, disc_sum, disc_count)

        # Social features (xv)-(xx); the two RAI columns stay zero here
        # and are filled from the asker memo.
        social = np.zeros((n_rows, 6))
        for col, table in (
            (0, frozen.qa_closeness),
            (1, frozen.qa_betweenness),
            (3, frozen.dense_closeness),
            (4, frozen.dense_betweenness),
        ):
            social[self._rows(_id_array(table, len(table))), col] = (
                np.fromiter(table.values(), dtype=float, count=len(table))
            )
        self._social = social

    def _compile_threads(
        self,
        frozen: FrozenState,
        disc_users: list[int],
        disc_sum: np.ndarray,
        disc_count: np.ndarray,
    ) -> None:
        """The thread inverse: one entry per (thread, user row) with a
        history row, a discussed-topic contribution or a place in the
        thread's participant set, keyed ``tid * n_rows + row`` and
        sorted.  An entry holds the history row for the thread (-1 if
        none), the user's discussed topics with the thread left out, and
        whether the user took part in the thread.  Thread ids are
        non-negative and fit ``ID_DTYPE`` (int32), so keys fit int64."""
        n_rows = self._user_ids.size
        k = self.topics.n_topics
        row_of = frozen.batch_tables.row_of
        user_tid = np.array(list(row_of), dtype=np.int64).reshape(-1, 2)
        hist_keys = user_tid[:, 1] * n_rows + self._rows(user_tid[:, 0])

        per_user = [frozen.discussed_by_thread.get(u, {}) for u in disc_users]
        owner = np.repeat(
            np.arange(len(disc_users)), [len(p) for p in per_user]
        )
        tids = [tid for p in per_user for tid in p]
        contribs = [c for p in per_user for c in p.values()]
        disc_rows = self._rows(_id_array(disc_users, len(disc_users)))
        disc_keys = _id_array(tids, len(tids)) * n_rows + disc_rows[owner]
        remaining = disc_count[owner] - np.array(
            [n for _, n in contribs], dtype=np.int64
        )
        left_out = np.tile(self._uniform, (owner.size, 1))
        ok = remaining > 0
        left_out[ok] = (
            disc_sum[owner[ok]]
            - np.array([v for v, _ in contribs]).reshape(-1, k)[ok]
        ) / remaining[ok, None]

        thread_sets = frozen.thread_sets
        member_keys = _id_array(
            (tid for s in thread_sets.values() for tid in s),
            sum(len(s) for s in thread_sets.values()),
        ) * n_rows + np.repeat(
            self._rows(_id_array(thread_sets, len(thread_sets))),
            [len(s) for s in thread_sets.values()],
        )

        keys = _unique(np.concatenate([hist_keys, disc_keys, member_keys]))
        self._thread_key = keys
        self._thread_hrow = np.full(keys.size, -1, dtype=np.int64)
        self._thread_hrow[np.searchsorted(keys, hist_keys)] = np.fromiter(
            row_of.values(), dtype=np.int64, count=len(row_of)
        )
        self._thread_disc = self._disc[keys % n_rows]
        self._thread_disc[np.searchsorted(keys, disc_keys)] = left_out
        self._thread_member = np.zeros(keys.size, dtype=bool)
        self._thread_member[np.searchsorted(keys, member_keys)] = True
        # Participation in CSR form both ways, for the asker memo:
        # thread -> member rows and user row -> thread indices.
        member_keys = np.sort(member_keys)
        member_rows = member_keys % n_rows
        first = np.diff(member_keys // n_rows, prepend=-1) != 0
        self._thread_ptr = np.append(np.flatnonzero(first), member_keys.size)
        self._thread_members = member_rows
        thread_index = np.cumsum(first) - 1
        self._user_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(member_rows, minlength=n_rows), out=self._user_ptr[1:]
        )
        self._user_threads = thread_index[
            np.argsort(member_rows, kind="stable")
        ]

    def _rows(self, users: np.ndarray) -> np.ndarray:
        """User row per user id; the sentinel row for unknown users."""
        ids = self._user_ids
        pos = np.searchsorted(ids, users)
        return np.where(ids[pos] == users, pos, ids.size - 1)

    @staticmethod
    def _lookup(
        keys: np.ndarray, table: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(positions in ``keys`` found in the sorted ``table``, and
        where each was found)."""
        if not table.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        pos = np.minimum(np.searchsorted(table, keys), table.size - 1)
        hit = np.flatnonzero(table[pos] == keys)
        return hit, pos[hit]

    def _extend_memo(self, askers: np.ndarray) -> None:
        """Add the memo entries of ``askers`` (window user rows).

        Per asker, the entries cover its co-participants and its
        two-hop neighbourhood in either graph and hold three values:
        the shared-thread count ``|S_u & S_a|`` and the RAI on the QA
        and dense graphs.  Every user outside the entries has all three
        exactly zero, and so has the RAI of a co-participant outside the
        two-hop neighbourhood.  The other RAI values start as NaN and
        are filled on first use by :meth:`_fill_rai`.
        """
        n_rows = self._user_ids.size
        lengths = np.diff(self._user_ptr)[askers]
        threads = self._user_threads[
            _segments(self._user_ptr[askers], lengths)
        ]
        owner = np.repeat(askers, lengths)
        lengths = np.diff(self._thread_ptr)[threads]
        members = self._thread_members[
            _segments(self._thread_ptr[threads], lengths)
        ]
        shared_keys, shared = np.unique(
            np.repeat(owner, lengths) * n_rows + members, return_counts=True
        )
        two_hop_users: list[int] = []
        owners: list[int] = []
        for a_row, asker in zip(
            askers.tolist(), self._user_ids[askers].tolist()
        ):
            two_hop: set[int] = set()
            for graph in (self.qa_graph, self.dense_graph):
                if asker in graph:
                    for nbr in graph.neighbors(asker):
                        two_hop |= graph.neighbors(nbr)
            two_hop_users.extend(two_hop)
            owners.extend([a_row] * len(two_hop))
        two_hop_keys = np.asarray(owners, dtype=np.int64) * n_rows
        two_hop_keys += self._rows(np.asarray(two_hop_users, dtype=np.int64))
        keys = _unique(np.concatenate([shared_keys, two_hop_keys]))
        values = np.zeros((keys.size, 3))
        values[np.searchsorted(keys, shared_keys), 0] = shared
        values[np.searchsorted(keys, two_hop_keys), 1:] = np.nan
        keys = np.concatenate([self._memo_key, keys])
        order = np.argsort(keys, kind="stable")
        self._memo_key = keys[order]
        self._memo_values = np.concatenate([self._memo_values, values])[order]
        self._memoized[askers] = True

    def _fill_rai(self, entries: np.ndarray) -> None:
        """Compute the memo's pending RAI values at ``entries`` from the
        same ``(user, asker)`` tuples a per-pair call would use, so each
        keeps its summation order."""
        n_rows = self._user_ids.size
        keys = self._memo_key[entries]
        pairs = list(
            zip(
                self._user_ids[keys % n_rows].tolist(),
                self._user_ids[keys // n_rows].tolist(),
            )
        )
        self._memo_values[entries, 1] = resource_allocation_indices(
            self.qa_graph, pairs
        )
        self._memo_values[entries, 2] = resource_allocation_indices(
            self.dense_graph, pairs
        )

    # -- question info ----------------------------------------------------------

    def _question_info_for(self, thread: Thread) -> QuestionInfo:
        tid = thread.thread_id
        info = self._question_info.get(tid)
        if info is not None:
            return info
        # Out-of-window thread: keep its info in a bounded LRU so a
        # streaming caller (the online simulator routes every incoming
        # question through here) cannot grow memory without bound.
        extra = self._extra_question_info
        info = extra.get(tid)
        if info is not None:
            extra.move_to_end(tid)
            return info
        info = question_info_from_thread(thread, self.topics)
        extra[tid] = info
        if len(extra) > self._OUT_OF_WINDOW_CACHE_SIZE:
            extra.popitem(last=False)
        return info

    # -- public API ----------------------------------------------------------------

    def feature_matrix(
        self, pairs: Sequence[tuple[int, Thread]]
    ) -> np.ndarray:
        """Stacked x_uq vectors for (user, thread) pairs, in input order."""
        pairs = list(pairs)
        n = len(pairs)
        if n == 0:
            return np.empty((0, self.spec.n_features))
        with perf.timer("features.batch"):
            x = self._featurize(pairs)
        perf.incr("features.pairs_batched", n)
        return x

    # -- block kernel ---------------------------------------------------------

    def _featurize(self, pairs: list[tuple[int, Thread]]) -> np.ndarray:
        """The block kernel: pairs grouped into one block per question,
        every column gathered from the compiled tables by user row and
        block index."""
        k = self.topics.n_topics
        n = len(pairs)
        n_rows = self._user_ids.size
        tbl = self.frozen.batch_tables

        # Column offsets of the canonical FEATURE_ORDER layout (18 + 2K).
        c_du = slice(4, 4 + k)
        c_question = slice(4 + k, 7 + k)
        c_dq = slice(7 + k, 7 + 2 * k)
        c_suq, c_guq, c_euq, c_suv, c_huv, c_social = range(
            7 + 2 * k, 13 + 2 * k
        )
        assert c_social + 6 == self.spec.n_features

        # Blocks: one per distinct (thread, asker), in first-seen order.
        block_of: dict[tuple[int, int], int] = {}
        threads: list[Thread] = []
        block_list: list[int] = []
        prev, b = None, -1
        for _, thread in pairs:
            if thread is not prev:
                prev = thread
                key = (thread.thread_id, thread.asker)
                b = block_of.get(key, -1)
                if b < 0:
                    b = block_of[key] = len(threads)
                    threads.append(thread)
            block_list.append(b)
        block = np.asarray(block_list, dtype=np.int64)
        r = self._rows(_id_array((u for u, _ in pairs), n))

        # Question features (vi)-(ix), resolved once per block.
        infos = [self._question_info_for(t) for t in threads]
        q_scalars = np.asarray(
            [(i.votes, i.word_length, i.code_length) for i in infos]
        )
        q_topics = np.asarray([i.topics for i in infos]).reshape(
            len(infos), k
        )
        q_tid = _id_array((t.thread_id for t in threads), len(threads))
        q_asker = self._rows(
            _id_array((t.asker for t in threads), len(threads))
        )
        x = np.empty((n, self.spec.n_features))
        x[:, c_question] = q_scalars[block]
        dq_all = q_topics[block]
        x[:, c_dq] = dq_all

        # User aggregates, gathered by row before the leakage guard.
        x[:, :4] = self._user_cols[r]
        d_u = self._d_u[r]
        t_user = self._disc[r]
        g = np.zeros(n)
        e = np.zeros(n)

        # g_uq / e_uq: one flat TV-similarity pass over every (pair,
        # history-row) combination; segment i covers pair kidx[i]'s
        # history block.
        ui = self._tbl_row[r]
        kidx = np.flatnonzero(ui >= 0)
        pair_seg = np.zeros(n, dtype=np.int64)
        sims_flat = np.empty(0)
        if kidx.size:
            kui = ui[kidx]
            counts = tbl.n[kui]
            seg = np.zeros(kidx.size + 1, dtype=np.int64)
            np.cumsum(counts, out=seg[1:])
            pair_seg[kidx] = seg[:-1]
            total = int(seg[-1])
            flat_pair = np.repeat(kidx, counts)
            flat_rows = _segments(tbl.seg_start[kui], counts)
            sims_flat = np.empty(total)
            chunk = max(1, self._SIM_CHUNK_ELEMENTS // max(1, k))
            for s in range(0, total, chunk):
                sl = slice(s, s + chunk)
                sims_flat[sl] = 1.0 - 0.5 * np.abs(
                    tbl.hist_topics[flat_rows[sl]] - dq_all[flat_pair[sl]]
                ).sum(axis=1)
            g[kidx] = np.add.reduceat(sims_flat, seg[:-1])
            e[kidx] = np.add.reduceat(
                sims_flat * tbl.hist_votes[flat_rows], seg[:-1]
            )

        # Leakage guard, applied only to pairs with an entry in their
        # thread's inverse: discussed topics with the thread left out and
        # leave-one-row-out user aggregates.
        hit, entry = self._lookup(q_tid[block] * n_rows + r, self._thread_key)
        t_user[hit] = self._thread_disc[entry]
        member = np.zeros(n, dtype=bool)
        member[hit] = self._thread_member[entry]
        hrow = self._thread_hrow[entry]
        has_row = hrow >= 0
        if has_row.any():
            self._apply_exclusions(
                hit[has_row], hrow[has_row], r, pair_seg, sims_flat,
                d_u, g, e, x,
            )
        if self._dup_rows.size:
            for i in np.flatnonzero(np.isin(r, self._dup_rows)).tolist():
                self._slow_exclusion(
                    int(pairs[i][0]), int(q_tid[block[i]]),
                    float(self._asked[r[i]]),
                    sims_flat[pair_seg[i] : pair_seg[i] + tbl.n[ui[i]]],
                    i, d_u, g, e, x,
                )
        t_asker = self._disc[q_asker]
        asker_member = np.zeros(len(threads), dtype=bool)
        a_hit, a_entry = self._lookup(
            q_tid * n_rows + q_asker, self._thread_key
        )
        t_asker[a_hit] = self._thread_disc[a_entry]
        asker_member[a_hit] = self._thread_member[a_entry]

        x[:, c_du] = d_u
        x[:, c_suq] = 1.0 - 0.5 * np.abs(d_u - dq_all).sum(axis=1)
        x[:, c_guq] = g
        x[:, c_euq] = e
        x[:, c_suv] = 1.0 - 0.5 * np.abs(t_user - t_asker[block]).sum(axis=1)

        # h_uv, centralities and resource-allocation indices, gathered
        # from the asker memo; askers new to it are added first.
        askers = _unique(q_asker[q_asker < n_rows - 1])
        missing = askers[~self._memoized[askers]]
        if missing.size:
            self._extend_memo(missing)
        hit, entry = self._lookup(q_asker[block] * n_rows + r, self._memo_key)
        pending = _unique(entry[np.isnan(self._memo_values[entry, 1])])
        if pending.size:
            self._fill_rai(pending)
        values = self._memo_values[entry]
        shared = np.zeros(n)
        shared[hit] = values[:, 0]
        social = self._social[r]
        social[hit, 2] = values[:, 1]
        social[hit, 5] = values[:, 2]
        # The target thread itself does not count as shared.
        x[:, c_huv] = shared - (member & asker_member[block])
        x[:, c_social:] = social
        return x

    def _apply_exclusions(
        self,
        ei: np.ndarray,
        excl_row: np.ndarray,
        r: np.ndarray,
        pair_seg: np.ndarray,
        sims_flat: np.ndarray,
        d_u: np.ndarray,
        g: np.ndarray,
        e: np.ndarray,
        x: np.ndarray,
    ) -> None:
        """Leave-one-row-out adjustment for the pairs ``ei`` whose target
        thread sits in the user's history, at concatenated rows
        ``excl_row``; ``r`` holds the block's user rows and ``pair_seg``
        locates each pair's block in ``sims_flat``."""
        tbl = self.frozen.batch_tables
        c_n_answers, c_ratio, c_votes, c_median = 0, 1, 2, 3
        eui = self._tbl_row[r[ei]]
        m = tbl.n[eui] - 1
        delta = sims_flat[pair_seg[ei] + (excl_row - tbl.seg_start[eui])]
        d_votes = tbl.hist_votes[excl_row]
        nz = m > 0
        inz, mm = ei[nz], m[nz]
        if inz.size:
            x[inz, c_n_answers] = mm.astype(float)
            x[inz, c_ratio] = mm / (1.0 + self._asked[r[inz]])
            x[inz, c_votes] = tbl.votes_sum[eui[nz]] - d_votes[nz]
            # Leave-one-out median by index arithmetic on the sorted
            # times: removing sorted position p shifts indices >= p
            # down by one.
            st = tbl.times_sorted
            off = tbl.seg_start[eui[nz]]
            p = tbl.time_rank[excl_row[nz]]
            med = np.empty(inz.size)
            odd = (mm % 2).astype(bool)
            if odd.any():
                mid = (mm[odd] - 1) // 2
                med[odd] = st[off[odd] + mid + (mid >= p[odd])]
            even = ~odd
            if even.any():
                lo = mm[even] // 2 - 1
                hi = mm[even] // 2
                med[even] = (
                    st[off[even] + lo + (lo >= p[even])]
                    + st[off[even] + hi + (hi >= p[even])]
                ) / 2.0
            x[inz, c_median] = med
            d_u[inz] = (
                tbl.topic_sum[eui[nz]] - tbl.hist_answer_topics[excl_row[nz]]
            ) / mm[:, None]
            g[inz] -= delta[nz]
            e[inz] -= delta[nz] * d_votes[nz]
        # m == 0: the lone history row is the target thread itself —
        # the empty-history defaults.
        iz = ei[~nz]
        if iz.size:
            x[iz, c_n_answers] = 0.0
            x[iz, c_ratio] = 0.0
            x[iz, c_votes] = 0.0
            x[iz, c_median] = self.frozen.global_median_response
            d_u[iz] = self._uniform
            g[iz] = 0.0
            e[iz] = 0.0

    def _slow_exclusion(
        self,
        user: int,
        tid: int,
        asked: float,
        row_sims: np.ndarray,
        i: int,
        d_u: np.ndarray,
        g: np.ndarray,
        e: np.ndarray,
        x: np.ndarray,
    ) -> None:
        """Masked fallback for pair ``i``, whose user answered some
        thread more than once (pre-preprocessing data); ``row_sims`` are
        the pair's per-history-row similarities."""
        c_n_answers, c_ratio, c_votes, c_median = 0, 1, 2, 3
        history = self.frozen.histories[user]
        mask = history.answered_thread_ids != tid
        if mask.all():
            return  # target thread not in history: base values stand
        if mask.any():
            votes_v = history.answer_votes
            row_sims = row_sims[mask]
            x[i, c_n_answers] = float(mask.sum())
            x[i, c_ratio] = float(mask.sum()) / (1.0 + asked)
            x[i, c_votes] = float(votes_v[mask].sum())
            x[i, c_median] = float(np.median(history.response_times[mask]))
            d_u[i] = history.answer_topic_vectors[mask].mean(axis=0)
            g[i] = float(row_sims.sum())
            e[i] = float((row_sims * votes_v[mask]).sum())
        else:
            x[i, c_n_answers] = 0.0
            x[i, c_ratio] = 0.0
            x[i, c_votes] = 0.0
            x[i, c_median] = self.frozen.global_median_response
            d_u[i] = self._uniform
            g[i] = 0.0
            e[i] = 0.0
