"""The paper's 20 user/question/user-question/social features (Sec. II-B).

A :class:`FeatureExtractor` is built once over a *feature window* — the
question set ``F(q)`` the paper computes features on — and then produces
the vector ``x_uq`` for any (user, question) pair.  The window lives in
:class:`repro.core.state.ForumState`, and its freeze compiles it once
per refit epoch into gather tables (:class:`repro.core.window.FrozenState`):
one *user row* per window user plus a sentinel row holding the
no-evidence defaults for every user the window does not know, and one
sorted *thread inverse* over (thread, user row) entries that carries
the leakage guard's history rows, the discussed topics with that thread
left out, and thread participation, and the two SLN graphs in CSR form.
The extractor binds one such snapshot.  Batch callers construct from a
dataset (which builds a throwaway state) or, on the streaming path,
from a long-lived state via :meth:`FeatureExtractor.from_state`.

:meth:`FeatureExtractor.feature_matrix` groups pairs into one block per
question and fills every column with array gathers by user row and
block.  The one lazily grown structure is the *asker memo*: per asker,
the sparse shared-thread counts and resource-allocation indices over
its co-participants and two-hop neighbourhood, gathered from the
participation and graph CSRs; every other user's values are exactly
zero.

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
from dataclasses import dataclass

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from .featurespec import FeatureSpec
from .state import ForumState, QuestionInfo, question_info_from_thread
from .topic_context import TopicModelContext
from .window import FrozenState, id_array, segments, unique, user_rows

__all__ = ["FeatureExtractor", "PairBlocks", "QuestionInfo"]


@dataclass(frozen=True, eq=False)
class PairBlocks:
    """(user, thread) pairs as runs: ``sizes[j]`` consecutive ``users``
    (int64 ids) are paired with ``threads[j]``.  ``len()`` is the pair
    count."""

    users: np.ndarray
    threads: Sequence[Thread]
    sizes: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, Thread]]) -> "PairBlocks":
        """One run per maximal stretch of pairs sharing a thread object."""
        users: list[int] = []
        threads: list[Thread] = []
        sizes: list[int] = []
        for user, thread in pairs:
            users.append(user)
            if threads and thread is threads[-1]:
                sizes[-1] += 1
            else:
                threads.append(thread)
                sizes.append(1)
        return cls(
            id_array(users, len(users)),
            threads,
            np.asarray(sizes, dtype=np.int64),
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

        This is the streaming path: the state compiles its window in one
        freeze (or returns the snapshot of an unmutated window), and the
        returned extractor holds that immutable snapshot — later
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
        self._extra_question_info: OrderedDict[int, QuestionInfo] = OrderedDict()
        # The asker memo (see _extend_memo): sorted keys
        # ``asker_row * n_rows + row`` with their (n, 3) social values,
        # and which asker rows it holds.
        self._memo_key = np.empty(0, dtype=np.int64)
        self._memo_values = np.empty((0, 3))
        self._memoized = np.zeros(frozen.user_ids.size, dtype=bool)

    @property
    def window_fingerprint(self) -> str:
        """Digest of the bound window; persisted to guard reloads."""
        return self.frozen.fingerprint

    def _rows(self, users: np.ndarray) -> np.ndarray:
        """User row per user id; the sentinel row for unknown users."""
        return user_rows(self.frozen.user_ids, users)

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
        two-hop neighbourhood.
        """
        f = self.frozen
        n_rows = f.user_ids.size
        lengths = np.diff(f.user_ptr)[askers]
        threads = f.user_threads[segments(f.user_ptr[askers], lengths)]
        owner = np.repeat(askers, lengths)
        lengths = np.diff(f.thread_ptr)[threads]
        members = f.thread_members[segments(f.thread_ptr[threads], lengths)]
        shared_keys, shared = np.unique(
            np.repeat(owner, lengths) * n_rows + members, return_counts=True
        )
        # The two-hop walks asker -> w -> user; the user's RAI adds
        # 1 / |Gamma_w| per walk, in ascending w.
        walks = []
        for indptr, indices in (
            (f.qa_indptr, f.qa_indices),
            (f.dense_indptr, f.dense_indices),
        ):
            degree = np.diff(indptr)
            lengths = degree[askers]
            mid = indices[segments(indptr[askers], lengths)]
            owner = np.repeat(askers, lengths)
            lengths = degree[mid]
            ends = indices[segments(indptr[mid], lengths)]
            walks.append(
                (
                    np.repeat(owner, lengths) * n_rows + ends,
                    np.repeat(1.0 / degree[mid], lengths),
                )
            )
        keys = unique(np.concatenate([shared_keys, *(k for k, _ in walks)]))
        values = np.zeros((keys.size, 3))
        values[np.searchsorted(keys, shared_keys), 0] = shared
        for col, (walk_keys, weights) in enumerate(walks, start=1):
            values[:, col] = np.bincount(
                np.searchsorted(keys, walk_keys), weights, minlength=keys.size
            )
        keys = np.concatenate([self._memo_key, keys])
        order = np.argsort(keys, kind="stable")
        self._memo_key = keys[order]
        self._memo_values = np.concatenate([self._memo_values, values])[order]
        self._memoized[askers] = True

    # -- question info ----------------------------------------------------------

    def _question_info_for(self, thread: Thread) -> QuestionInfo:
        f = self.frozen
        i = f.question_tids.searchsorted(thread.thread_id)
        if f.question_tids[i] != thread.thread_id:
            return self._outside_info(thread)
        votes, word_length, code_length = f.question_scalars[i].tolist()
        return QuestionInfo(
            votes=votes,
            word_length=word_length,
            code_length=code_length,
            topics=f.question_topics[i],
        )

    def _outside_info(self, thread: Thread) -> QuestionInfo:
        """Info of an out-of-window thread, kept in a bounded LRU so a
        streaming caller (the online simulator routes every incoming
        question through here) cannot grow memory without bound."""
        tid = thread.thread_id
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
        self, pairs: Sequence[tuple[int, Thread]] | PairBlocks
    ) -> np.ndarray:
        """Stacked x_uq vectors, in input order, for (user, thread)
        pairs given as a sequence or as :class:`PairBlocks`."""
        if not isinstance(pairs, PairBlocks):
            pairs = PairBlocks.from_pairs(pairs)
        n = len(pairs)
        if n == 0:
            return np.empty((0, self.spec.n_features))
        with perf.timer("features.batch"):
            x = self._featurize(pairs)
        perf.incr("features.pairs_batched", n)
        return x

    # -- block kernel ---------------------------------------------------------

    def _featurize(self, pairs: PairBlocks) -> np.ndarray:
        """The block kernel: pairs grouped into one block per question,
        every column gathered from the compiled tables by user row and
        block index."""
        k = self.topics.n_topics
        n = len(pairs)
        f = self.frozen
        n_rows = f.user_ids.size
        tbl = f.batch_tables

        # Column offsets of the canonical FEATURE_ORDER layout (18 + 2K).
        c_du = slice(4, 4 + k)
        c_question = slice(4 + k, 7 + k)
        c_dq = slice(7 + k, 7 + 2 * k)
        c_suq, c_guq, c_euq, c_suv, c_huv, c_social = range(
            7 + 2 * k, 13 + 2 * k
        )
        assert c_social + 6 == self.spec.n_features

        # Blocks: one per distinct (thread, asker), in first-seen order;
        # empty runs open none.
        block_of: dict[tuple[int, int], int] = {}
        threads: list[Thread] = []
        run_block: list[int] = []
        for thread, size in zip(pairs.threads, pairs.sizes.tolist()):
            key = (thread.thread_id, thread.asker)
            b = block_of.get(key, -1)
            if b < 0 and size:
                b = block_of[key] = len(threads)
                threads.append(thread)
            run_block.append(b)
        block = np.repeat(np.asarray(run_block, dtype=np.int64), pairs.sizes)
        r = self._rows(pairs.users)

        # Question features (vi)-(ix), resolved once per block: window
        # questions from the question columns, the rest through the LRU;
        # the questions with no info yet get their d(q) in one inference
        # pass.
        q_tid = id_array((t.thread_id for t in threads), len(threads))
        q_pos = f.question_tids.searchsorted(q_tid)
        q_scalars = f.question_scalars[q_pos]
        q_topics = f.question_topics[q_pos]
        outside = np.flatnonzero(f.question_tids[q_pos] != q_tid).tolist()
        unseen = [
            threads[b].question
            for b in outside
            if threads[b].thread_id not in self._extra_question_info
        ]
        if unseen:
            self.topics.post_topics_many(unseen)
        for b in outside:
            info = self._outside_info(threads[b])
            q_scalars[b] = (info.votes, info.word_length, info.code_length)
            q_topics[b] = info.topics
        q_asker = self._rows(
            id_array((t.asker for t in threads), len(threads))
        )
        # User aggregates, d_u and centralities, gathered by row before
        # the leakage guard, which then adjusts them in place.
        x = f.row_table.take(r, axis=0)
        d_u = x[:, c_du]
        x[:, c_question] = q_scalars[block]
        dq_all = q_topics[block]
        x[:, c_dq] = dq_all
        t_user = f.disc[r]
        g = np.zeros(n)
        e = np.zeros(n)

        # g_uq / e_uq: one flat TV-similarity pass over every (pair,
        # history-row) combination; segment i covers pair kidx[i]'s
        # history block.
        ui = f.tbl_row[r]
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
            flat_rows = segments(tbl.seg_start[kui], counts)
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
        hit, entry = self._lookup(q_tid[block] * n_rows + r, f.thread_key)
        t_user[hit] = f.thread_disc[entry]
        member = np.zeros(n, dtype=bool)
        member[hit] = f.thread_member[entry]
        hrow = f.thread_hrow[entry]
        has_row = hrow >= 0
        if has_row.any():
            self._apply_exclusions(
                hit[has_row], hrow[has_row], r, pair_seg, sims_flat,
                d_u, g, e, x,
            )
        if f.dup_rows.size:
            for i in np.flatnonzero(np.isin(r, f.dup_rows)).tolist():
                self._slow_exclusion(
                    int(ui[i]), int(q_tid[block[i]]), float(f.asked[r[i]]),
                    sims_flat[pair_seg[i] : pair_seg[i] + tbl.n[ui[i]]],
                    i, d_u, g, e, x,
                )
        t_asker = f.disc[q_asker]
        asker_member = np.zeros(len(threads), dtype=bool)
        a_hit, a_entry = self._lookup(q_tid * n_rows + q_asker, f.thread_key)
        t_asker[a_hit] = f.thread_disc[a_entry]
        asker_member[a_hit] = f.thread_member[a_entry]

        x[:, c_suq] = 1.0 - 0.5 * np.abs(d_u - dq_all).sum(axis=1)
        x[:, c_guq] = g
        x[:, c_euq] = e
        x[:, c_suv] = 1.0 - 0.5 * np.abs(t_user - t_asker[block]).sum(axis=1)

        # h_uv, centralities and resource-allocation indices, gathered
        # from the asker memo; askers new to it are added first.
        askers = unique(q_asker[q_asker < n_rows - 1])
        missing = askers[~self._memoized[askers]]
        if missing.size:
            self._extend_memo(missing)
        hit, entry = self._lookup(q_asker[block] * n_rows + r, self._memo_key)
        values = self._memo_values[entry]
        shared = np.zeros(n)
        shared[hit] = values[:, 0]
        x[hit, c_social + 2] = values[:, 1]
        x[hit, c_social + 5] = values[:, 2]
        # The target thread itself does not count as shared.
        x[:, c_huv] = shared - (member & asker_member[block])
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
        eui = self.frozen.tbl_row[r[ei]]
        m = tbl.n[eui] - 1
        delta = sims_flat[pair_seg[ei] + (excl_row - tbl.seg_start[eui])]
        d_votes = tbl.hist_votes[excl_row]
        nz = m > 0
        inz, mm = ei[nz], m[nz]
        if inz.size:
            x[inz, c_n_answers] = mm.astype(float)
            x[inz, c_ratio] = mm / (1.0 + self.frozen.asked[r[inz]])
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
        ui: int,
        tid: int,
        asked: float,
        row_sims: np.ndarray,
        i: int,
        d_u: np.ndarray,
        g: np.ndarray,
        e: np.ndarray,
        x: np.ndarray,
    ) -> None:
        """Masked fallback for pair ``i``, whose user (history segment
        ``ui``) answered some thread more than once (pre-preprocessing
        data); ``row_sims`` are the pair's per-history-row similarities."""
        c_n_answers, c_ratio, c_votes, c_median = 0, 1, 2, 3
        tbl = self.frozen.batch_tables
        lo = tbl.seg_start[ui]
        rows = slice(lo, lo + tbl.n[ui])
        mask = tbl.hist_tid[rows] != tid
        if mask.all():
            return  # target thread not in history: base values stand
        if mask.any():
            votes_v = tbl.hist_votes[rows]
            response_times = tbl.times_sorted[lo + tbl.time_rank[rows]]
            row_sims = row_sims[mask]
            x[i, c_n_answers] = float(mask.sum())
            x[i, c_ratio] = float(mask.sum()) / (1.0 + asked)
            x[i, c_votes] = float(votes_v[mask].sum())
            x[i, c_median] = float(np.median(response_times[mask]))
            d_u[i] = tbl.hist_answer_topics[rows][mask].mean(axis=0)
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
