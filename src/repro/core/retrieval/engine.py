"""Candidate pool assembly: generators, rank fusion, maintenance.

:class:`CandidateRetriever` owns the three generator indices, merges
their nominations with reciprocal-rank fusion into a bounded pool, and
keeps the indices current as the window moves:

* registered as a :class:`~repro.core.state.ForumState` listener, it
  folds every ``append``/``evict`` event into the recency index the
  moment it happens;
* at refit time :meth:`refresh` diffs the new frozen tables against the
  previous ones and rewrites only the changed topic rows, and the MF
  index warm-starts from the previous factors — refits update indices
  instead of rebuilding them.

The pool it returns is always *sorted ascending by user id*: fusion
decides membership, never scoring order, so handing the pool to the
dense scorer keeps the LP's stable tie-breaking identical to a dense
run over the same users.  With every budget unbounded the pool is
exactly the candidate set and two-stage routing is bit-identical to the
dense path.
"""

from __future__ import annotations

import numpy as np

from ... import perf
from ...forum.dataset import ForumDataset
from ...forum.models import Thread
from ..columnar import thread_activity
from ..state import ForumState, FrozenState
from ..topic_context import TopicModelContext
from .config import RetrievalConfig
from .indices import MFEmbeddingIndex, RecencyIndex, TopicInvertedIndex

__all__ = ["CandidateRetriever", "reciprocal_rank_fusion", "candidate_recall"]


def reciprocal_rank_fusion(
    ranked_lists: list[np.ndarray],
    *,
    rrf_k: float = 60.0,
    pool_size: int | None = None,
) -> np.ndarray:
    """Union of ranked candidate lists under reciprocal-rank fusion.

    ``fused(u) = sum_g 1 / (rrf_k + rank_g(u))`` over the generators
    that nominated ``u``; membership in the returned pool is the top
    ``pool_size`` by ``(-fused, user_id)``.  The pool itself is
    returned sorted ascending by user id (see module docstring).
    """
    lists = [np.asarray(r, dtype=np.int64) for r in ranked_lists if len(r)]
    if not lists:
        return np.empty(0, dtype=np.int64)
    nominees = np.concatenate(lists)
    # One stable sort groups the nominees into the ascending-id axis.
    by_id = np.argsort(nominees, kind="stable")
    grouped = nominees[by_id]
    first = np.ones(grouped.size, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    user_ids = grouped[first]
    if pool_size is None or pool_size >= user_ids.size:
        return user_ids
    inverse = np.empty(nominees.size, dtype=np.int64)
    inverse[by_id] = np.cumsum(first) - 1
    contributions = np.concatenate(
        [1.0 / (rrf_k + np.arange(1, r.size + 1)) for r in lists]
    )
    # ``bincount`` adds each user's weights in input (concatenation)
    # order, i.e. the same float-addition order as summing generator
    # by generator.
    scores = np.bincount(inverse, weights=contributions)
    order = np.lexsort((user_ids, -scores))
    return np.sort(user_ids[order][:pool_size])


def _sorted_member(values: np.ndarray, sorted_table: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in an ascending unique table.

    ``np.isin`` re-sorts both sides on every call; one ``searchsorted``
    against the already-sorted table is what the per-question pool
    assembly can afford.
    """
    if sorted_table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = np.searchsorted(sorted_table, values)
    pos[pos == sorted_table.size] = sorted_table.size - 1
    return sorted_table[pos] == values


def candidate_recall(pool: np.ndarray, eligible: np.ndarray) -> float:
    """|pool ∩ eligible| / |eligible|; 1.0 when nothing is eligible."""
    eligible = np.asarray(eligible)
    if eligible.size == 0:
        return 1.0
    return float(np.isin(eligible, pool).mean())


class CandidateRetriever:
    """Builds, maintains and queries the candidate-generation indices."""

    def __init__(self, config: RetrievalConfig, topics: TopicModelContext):
        self.config = config
        self.topics = topics
        self._topic_index: TopicInvertedIndex | None = None
        self._recency = RecencyIndex()
        self._mf = (
            MFEmbeddingIndex(
                n_factors=config.mf_factors,
                n_iter=config.mf_iters,
                l2=config.mf_l2,
                learning_rate=config.mf_learning_rate,
                seed=config.seed,
            )
            if config.use_mf
            else None
        )
        self._attached: ForumState | None = None

    # -- state-listener protocol (incremental recency maintenance) ----------

    def on_append(self, thread: Thread) -> None:
        """ForumState hook: fold one appended thread's answer events."""
        for answer in thread.answers:
            self._recency.observe(
                answer.author, thread.thread_id, answer.timestamp
            )

    def on_evict(self, thread: Thread) -> None:
        """ForumState hook: drop one evicted thread's answer events."""
        for user in thread.answerers:
            self._recency.forget(user, thread.thread_id)

    def attach(self, state: ForumState) -> None:
        """Follow a live state: rebuild recency once, then ride events.

        The one-time rebuild reads the state's columnar answer log —
        one vectorized group-by over raw event columns instead of
        materializing every thread as Python objects.
        """
        if self._attached is state:
            return
        if self._attached is not None:
            self._attached.remove_listener(self)
        self._recency.clear()
        users, thread_ids, timestamps = state.answer_events()
        self._recency.observe_block(
            *thread_activity(users, thread_ids, timestamps)
        )
        state.add_listener(self)
        self._attached = state

    def detach(self) -> None:
        if self._attached is not None:
            self._attached.remove_listener(self)
            self._attached = None

    # -- building / refreshing ---------------------------------------------

    @property
    def indexed_users(self) -> np.ndarray:
        """Ascending ids of every user the topic index knows."""
        if self._topic_index is None:
            return np.empty(0, dtype=np.int64)
        return self._topic_index.user_ids

    def build(self, frozen: FrozenState, window: ForumDataset) -> None:
        """(Re)build every index from one frozen window snapshot.

        Subsequent refits should go through :meth:`refresh`, which
        diffs against the tables bound here.
        """
        with perf.timer("retrieval.build"):
            tables = frozen.batch_tables
            self._topic_index = TopicInvertedIndex(
                tables.users, tables.d_u.copy()
            )
            self._topic_index.build_postings(self.config.n_jobs)
            if self._attached is None:
                with perf.timer("retrieval.build_recency"):
                    self._recency.clear()
                    for thread in window:
                        self.on_append(thread)
            self._fit_mf(frozen, window)
        perf.incr("retrieval.index_builds")

    def refresh(self, frozen: FrozenState, window: ForumDataset) -> None:
        """Bring the indices up to date with a newly frozen window.

        The topic index is updated row-wise: only users whose ``d_u``
        aggregate actually changed are rewritten (plus additions and
        removals); the MF index refits warm from the previous factors;
        the recency index needs nothing when attached to a live state.
        """
        if self._topic_index is None:
            self.build(frozen, window)
            return
        with perf.timer("retrieval.refresh"):
            tables = frozen.batch_tables
            new_ids = tables.users
            old_ids = self._topic_index.user_ids
            if new_ids.size == old_ids.size and np.array_equal(
                new_ids, old_ids
            ):
                changed = np.flatnonzero(
                    np.any(
                        self._topic_index.user_topics != tables.d_u, axis=1
                    )
                )
                self._topic_index.update_users(
                    new_ids[changed], tables.d_u[changed]
                )
            else:
                # Membership changed: new canonical axis, but unchanged
                # rows still skip the postings rebuild bookkeeping.
                self._topic_index = TopicInvertedIndex(
                    new_ids, tables.d_u.copy()
                )
            if self._attached is None:
                with perf.timer("retrieval.build_recency"):
                    self._recency.clear()
                    for thread in window:
                        self.on_append(thread)
            self._fit_mf(frozen, window)
        perf.incr("retrieval.index_refreshes")

    def _fit_mf(self, frozen: FrozenState, window: ForumDataset) -> None:
        if self._mf is None:
            return
        records = window.answer_records()
        if not records:
            return
        users = np.array([r.user for r in records], dtype=np.int64)
        threads = np.array([r.thread_id for r in records], dtype=np.int64)
        votes = np.array([r.votes for r in records], dtype=float)
        question_topics = dict(
            zip(frozen.question_tids[:-1].tolist(), frozen.question_topics)
        )
        self._mf.fit(users, threads, votes, question_topics)

    # -- querying -----------------------------------------------------------

    def pool(
        self,
        thread: Thread,
        candidates: np.ndarray | list[int],
    ) -> np.ndarray:
        """The fused candidate pool for one question, ascending ids.

        ``candidates`` is the caller's full universe; the pool is its
        subset.  Candidates unknown to every index (no window history)
        are kept unconditionally — retrieval prunes among users it has
        evidence about, it never silently drops the rest.  The pool is
        one boolean mask over the ascending, distinct candidates (what
        the serving path passes; anything else is normalised once).
        """
        cfg = self.config
        candidates = np.asarray(candidates, dtype=np.int64)
        n_candidates = candidates.size
        if not np.all(candidates[1:] > candidates[:-1]):
            candidates = np.unique(candidates)
        if self._topic_index is None:
            raise RuntimeError("retriever is not built")
        with perf.timer("retrieval.query"):
            theta = self.topics.post_topics(thread.question)
            ranked = [
                self._topic_index.query(
                    theta,
                    cfg.topic_top_k,
                    query_topics=cfg.query_topics,
                ),
                self._recency.query(cfg.recency_top_k),
            ]
            if self._mf is not None and self._mf.fitted:
                ranked.append(self._mf.query(theta, cfg.mf_top_k))
            fused = reciprocal_rank_fusion(
                ranked, rrf_k=cfg.rrf_k, pool_size=cfg.pool_size
            )
            in_fused = _sorted_member(candidates, fused)
            in_indexed = _sorted_member(candidates, self.indexed_users)
            in_recency = _sorted_member(candidates, self._recency.users)
            pool = candidates[in_fused | ~(in_indexed | in_recency)]
        perf.incr("retrieval.queries")
        perf.incr("retrieval.pool_users", int(pool.size))
        perf.incr("retrieval.candidate_users", n_candidates)
        return pool
