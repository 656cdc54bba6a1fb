"""Seeded, deterministic candidate generators for two-stage routing.

Three cheap indices nominate answerer candidates before the exact
Sec.-V LP sees anyone:

* :class:`TopicInvertedIndex` — topic -> users postings over per-user
  mean answer-topic distributions (the ``d_u`` rows of the state's
  batch tables), queried with a question's LDA topic mixture;
* :class:`RecencyIndex` — most-recently-active answerers, maintained
  incrementally from :class:`~repro.core.state.ForumState`
  append/evict events;
* :class:`MFEmbeddingIndex` — the Koren-style MF baseline
  (:mod:`repro.baselines.mf`) reused as an embedding model: user latent
  factors are scored against a projection of the question's topic
  mixture into the latent space with one vectorized dot product and an
  ``argpartition`` top-K over a preallocated score buffer.

Every generator is a pure function of the (canonical) window tables
plus its config, orders ties by ascending user id, and is therefore
deterministic under seed and independent of the append/evict history
that produced the window.
"""

from __future__ import annotations

import numpy as np

from ... import perf
from ...baselines.mf import MatrixFactorization
from ..dtypes import ID_DTYPE, ensure_ids
from ..parallel import parallel_map

__all__ = [
    "top_k_by_score",
    "TopicInvertedIndex",
    "RecencyIndex",
    "MFEmbeddingIndex",
]


def top_k_by_score(
    user_ids: np.ndarray, scores: np.ndarray, k: int | None
) -> np.ndarray:
    """Top-``k`` user ids by ``(-score, user_id)`` without a full sort.

    Equivalent to ``user_ids[np.lexsort((user_ids, -scores))][:k]`` but
    uses ``argpartition`` plus an explicit boundary-tie rule so only the
    selected block is ever sorted.  ``user_ids`` must be ascending (the
    canonical index layout), which makes tie handling positional.
    """
    n = scores.size
    if k is None or k >= n:
        order = np.lexsort((user_ids, -scores))
        return user_ids[order]
    if k <= 0 or n == 0:
        return user_ids[:0]
    part = np.argpartition(-scores, k - 1)
    threshold = scores[part[k - 1]]
    above = np.flatnonzero(scores > threshold)
    order = np.lexsort((user_ids[above], -scores[above]))
    ranked = user_ids[above][order]
    need = k - ranked.size
    if need > 0:
        # Boundary ties resolve by ascending user id; flatnonzero over
        # an ascending id axis is already in that order.
        ties = np.flatnonzero(scores == threshold)[:need]
        ranked = np.concatenate([ranked, user_ids[ties]])
    return ranked


def _topic_postings_task(task):
    """Sorted postings of one topic column; module-level so it pickles."""
    topic, column, user_ids = task
    with perf.timer("retrieval.topic_postings"):
        order = np.lexsort((user_ids, -column))
    perf.incr("retrieval.topic_postings_rebuilt")
    return topic, order


class TopicInvertedIndex:
    """Postings lists topic -> users ordered by per-user topic mass.

    Backed by a dense ``(U, K)`` matrix of per-user mean answer-topic
    distributions over a canonical ascending-user-id axis.  Postings
    are materialized lazily per topic and invalidated when any user row
    changes, so steady-state refits that touch few users only re-sort
    the columns a query actually expands.
    """

    def __init__(
        self, user_ids: np.ndarray, user_topics: np.ndarray
    ):
        # int32 postings axis: the columnar store guarantees id range,
        # and halving the id width halves what every lexsort touches.
        user_ids = ensure_ids(user_ids, "user id")
        user_topics = np.asarray(user_topics, dtype=float)
        if user_topics.ndim != 2 or user_ids.size != user_topics.shape[0]:
            raise ValueError("user_topics must be (len(user_ids), K)")
        if user_ids.size > 1 and not np.all(np.diff(user_ids) > 0):
            raise ValueError("user_ids must be strictly ascending")
        self.user_ids = user_ids
        self.user_topics = user_topics
        self.n_topics = user_topics.shape[1] if user_topics.size else 0
        self._postings: dict[int, np.ndarray] = {}

    def build_postings(self, n_jobs: int | None = None) -> None:
        """Materialize every postings list eagerly.

        Per-topic sorts are independent, so they dispatch through
        :func:`~repro.core.parallel.parallel_map` (``REPRO_N_JOBS``
        aware, perf snapshots merged) and stay bit-identical to a
        serial build.
        """
        stale = [t for t in range(self.n_topics) if t not in self._postings]
        if not stale:
            return
        tasks = [
            (t, self.user_topics[:, t], self.user_ids) for t in stale
        ]
        with perf.timer("retrieval.build_topic"):
            for topic, order in parallel_map(
                _topic_postings_task, tasks, n_jobs, merge_perf=True
            ):
                self._postings[topic] = order

    def update_users(
        self, user_ids: np.ndarray, user_topics: np.ndarray
    ) -> int:
        """Replace the rows of existing users; invalidates postings.

        Returns the number of rows actually rewritten.  Callers pass
        only users whose aggregates changed since the last refresh, so
        steady-state maintenance is proportional to the delta, not the
        user population.
        """
        if len(user_ids) == 0:
            return 0
        rows = np.searchsorted(self.user_ids, user_ids)
        if np.any(rows >= self.user_ids.size) or np.any(
            self.user_ids[rows] != user_ids
        ):
            raise KeyError("unknown user id in update_users")
        self.user_topics[rows] = user_topics
        self._postings.clear()
        perf.incr("retrieval.topic_users_updated", len(user_ids))
        return len(user_ids)

    def query(
        self,
        question_topics: np.ndarray,
        top_k: int | None,
        *,
        query_topics: int = 4,
        per_topic: int | None = None,
    ) -> np.ndarray:
        """Users ranked by ``theta . d_u`` over expanded postings.

        The question's ``query_topics`` strongest topics are expanded
        (``per_topic`` users each, default the final ``top_k``); the
        union is then scored exactly against the full mixture and cut
        to ``top_k`` by ``(-score, user_id)``.
        """
        if self.user_ids.size == 0:
            return self.user_ids[:0]
        theta = np.asarray(question_topics, dtype=float)
        if top_k is None or top_k >= self.user_ids.size:
            scores = self.user_topics @ theta
            return top_k_by_score(self.user_ids, scores, top_k)
        budget = per_topic if per_topic is not None else top_k
        strongest = np.argsort(-theta, kind="stable")[:query_topics]
        # One mark per index row: flatnonzero yields the postings' union
        # ascending and distinct, the axis top_k_by_score expects.
        expanded = np.zeros(self.user_ids.size, dtype=bool)
        for topic in strongest:
            if theta[topic] <= 0.0:
                continue
            postings = self._postings.get(int(topic))
            if postings is None:
                postings = np.lexsort(
                    (self.user_ids, -self.user_topics[:, topic])
                )
                self._postings[int(topic)] = postings
                perf.incr("retrieval.topic_postings_rebuilt")
            expanded[postings[:budget]] = True
        subset = np.flatnonzero(expanded)
        scores = self.user_topics[subset] @ theta
        return top_k_by_score(self.user_ids[subset], scores, top_k)


class RecencyIndex:
    """Active-answerer index: who answers most in the window, how recently.

    Holds one ``{thread_id: (latest_ts, n_answers)}`` map per user so
    eviction of any thread (the window slides by *question* creation
    time, not answer time) restores the exact remaining aggregate.
    ``observe``/``forget`` are the hooks the state listener drives.
    Each hook also keeps the user's ``(latest_ts, n_answers)`` total
    current, so the query tables never walk every user's map.
    """

    def __init__(self):
        self._per_user: dict[int, dict[int, tuple[float, int]]] = {}
        self._totals: dict[int, tuple[float, int]] = {}
        self._version = 0
        self._cache: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._ranked: tuple[int, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._per_user)

    def observe(self, user: int, thread_id: int, timestamp: float) -> None:
        """Fold one answer event (from append or a fresh build)."""
        timestamp = float(timestamp)
        per_user = self._per_user.setdefault(user, {})
        latest, count = per_user.get(thread_id, (-np.inf, 0))
        per_user[thread_id] = (max(latest, timestamp), count + 1)
        latest, count = self._totals.get(user, (-np.inf, 0))
        self._totals[user] = (max(latest, timestamp), count + 1)
        self._version += 1

    def forget(self, user: int, thread_id: int) -> None:
        """Drop a user's contribution from one evicted thread."""
        per_user = self._per_user.get(user)
        if per_user is None:
            return
        per_user.pop(thread_id, None)
        if per_user:
            latest, counts = zip(*per_user.values())
            self._totals[user] = (max(latest), sum(counts))
        else:
            del self._per_user[user]
            del self._totals[user]
        self._version += 1

    def observe_block(
        self,
        users: np.ndarray,
        thread_ids: np.ndarray,
        counts: np.ndarray,
        latest: np.ndarray,
    ) -> None:
        """Fold pre-grouped ``(user, thread)`` aggregates in one pass.

        The columnar rebuild path: :func:`repro.core.columnar.thread_activity`
        group-bys the raw event columns, and this folds the grouped rows
        without a per-post ``observe`` call each.  Equivalent to calling
        :meth:`observe` once per underlying event.
        """
        per_user_map, totals = self._per_user, self._totals
        for user, tid, count, ts in zip(
            users.tolist(), thread_ids.tolist(), counts.tolist(), latest.tolist()
        ):
            per_user = per_user_map.setdefault(user, {})
            prev_latest, prev_count = per_user.get(tid, (-np.inf, 0))
            per_user[tid] = (max(prev_latest, ts), prev_count + count)
            prev_latest, prev_count = totals.get(user, (-np.inf, 0))
            totals[user] = (max(prev_latest, ts), prev_count + count)
        self._version += 1

    def clear(self) -> None:
        self._per_user.clear()
        self._totals.clear()
        self._cache = None
        self._ranked = None
        self._version += 1

    @property
    def users(self) -> np.ndarray:
        """Ascending ids of every user with window activity (membership
        only — no rank sort, unlike :meth:`query`)."""
        return self._tables()[0]

    def _tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical (user_ids, latest_ts, counts) arrays, cached."""
        if self._cache is not None and self._cache[0] == self._version:
            return self._cache[1], self._cache[2], self._cache[3]
        n = len(self._totals)
        users = np.fromiter(self._totals, dtype=np.int64, count=n)
        totals = np.fromiter(
            self._totals.values(),
            dtype=[("latest", float), ("count", np.int64)],
            count=n,
        )
        order = np.argsort(users)
        user_ids = ensure_ids(users[order], "user id")
        latest, counts = totals["latest"][order], totals["count"][order]
        self._cache = (self._version, user_ids, latest, counts)
        return user_ids, latest, counts

    def query(self, top_k: int | None) -> np.ndarray:
        """Users ranked by (answer count desc, latest answer desc, id asc).

        Volume-first ordering: the answer model's eligible set is
        dominated by how much a user answers inside the window, with
        recency only breaking ties — ranking by latest activity first
        measurably halves eligible-set recall at a fixed budget (see
        ``BENCH_retrieval.json``).
        """
        user_ids, latest, counts = self._tables()
        if user_ids.size == 0:
            return user_ids
        if self._ranked is not None and self._ranked[0] == self._version:
            ranked = self._ranked[1]
        else:
            order = np.lexsort((user_ids, -latest, -counts))
            ranked = user_ids[order]
            self._ranked = (self._version, ranked)
        if top_k is None:
            return ranked
        return ranked[:top_k]


class MFEmbeddingIndex:
    """MF latent factors as retrieval embeddings with top-K dot products.

    Fits the vote-baseline :class:`MatrixFactorization` over the
    window's (user, thread, votes) triples, then learns a ridge-free
    least-squares projection from question topic mixtures onto the
    fitted *thread* factors.  A new question maps through the
    projection and is scored against every user embedding with one
    matrix-vector product into a preallocated buffer; refits warm-start
    from the previous factors matched by id.
    """

    def __init__(
        self,
        *,
        n_factors: int = 5,
        n_iter: int = 120,
        l2: float = 0.05,
        learning_rate: float = 0.05,
        seed: int = 0,
    ):
        self.n_factors = n_factors
        self.n_iter = n_iter
        self.l2 = l2
        self.learning_rate = learning_rate
        self.seed = seed
        self.user_ids: np.ndarray = np.empty(0, dtype=ID_DTYPE)
        self._user_bias: np.ndarray | None = None
        self._user_factors: np.ndarray | None = None
        self._thread_ids: np.ndarray = np.empty(0, dtype=ID_DTYPE)
        self._thread_bias: np.ndarray | None = None
        self._thread_factors: np.ndarray | None = None
        self._projection: np.ndarray | None = None
        self._score_buf: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self._projection is not None

    def _warm_init(
        self,
        ids: np.ndarray,
        prev_ids: np.ndarray,
        prev_bias: np.ndarray | None,
        prev_factors: np.ndarray | None,
    ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
        """Bias/factor inits carried over from the previous fit by id."""
        if prev_bias is None or prev_factors is None:
            return None, None, 0
        if prev_factors.shape[1] != self.n_factors:
            return None, None, 0
        pos = np.searchsorted(prev_ids, ids)
        pos_safe = np.minimum(pos, max(prev_ids.size - 1, 0))
        hit = (pos < prev_ids.size) & (prev_ids[pos_safe] == ids)
        if not hit.any():
            return None, None, 0
        bias = np.zeros(ids.size)
        factors = np.zeros((ids.size, self.n_factors))
        bias[hit] = prev_bias[pos_safe[hit]]
        factors[hit] = prev_factors[pos_safe[hit]]
        return bias, factors, int(hit.sum())

    def fit(
        self,
        users: np.ndarray,
        threads: np.ndarray,
        votes: np.ndarray,
        question_topics: dict[int, np.ndarray],
    ) -> "MFEmbeddingIndex":
        """Fit factors on the window's triples and the topic projection.

        ``question_topics`` maps thread id -> LDA mixture; threads
        without a mixture are still factorized but excluded from the
        projection fit.
        """
        users = np.asarray(users, dtype=np.int64)
        threads = np.asarray(threads, dtype=np.int64)
        votes = np.asarray(votes, dtype=float)
        if users.size == 0:
            raise ValueError("need at least one (user, thread, vote) triple")
        user_ids = ensure_ids(np.unique(users), "user id")
        thread_ids = ensure_ids(np.unique(threads), "thread id")
        rows = np.searchsorted(user_ids, users)
        cols = np.searchsorted(thread_ids, threads)
        row_bias, row_factors, warm_users = self._warm_init(
            user_ids, self.user_ids, self._user_bias, self._user_factors
        )
        col_bias, col_factors, _ = self._warm_init(
            thread_ids,
            self._thread_ids,
            self._thread_bias,
            self._thread_factors,
        )
        if warm_users:
            perf.incr("retrieval.mf_warm_users", warm_users)
        with perf.timer("retrieval.build_mf"):
            model = MatrixFactorization(
                user_ids.size,
                thread_ids.size,
                n_factors=self.n_factors,
                l2=self.l2,
                learning_rate=self.learning_rate,
                n_iter=self.n_iter,
                seed=self.seed,
            )
            model.fit(
                rows,
                cols,
                votes,
                row_bias_init=row_bias,
                col_bias_init=col_bias,
                row_factors_init=row_factors,
                col_factors_init=col_factors,
            )
            self.user_ids = user_ids
            self._user_bias = model.row_bias_
            self._user_factors = model.row_factors_
            self._thread_ids = thread_ids
            self._thread_bias = model.col_bias_
            self._thread_factors = model.col_factors_
            self._score_buf = np.empty(user_ids.size)
            # Least-squares map from topic space to the latent space,
            # fit on the observed (mixture, thread factor) pairs.
            known = [
                (i, question_topics[tid])
                for i, tid in enumerate(thread_ids.tolist())
                if tid in question_topics
            ]
            if known:
                idx = np.array([i for i, _ in known], dtype=np.int64)
                theta = np.array([t for _, t in known], dtype=float)
                target = self._thread_factors[idx]
                self._projection, *_ = np.linalg.lstsq(
                    theta, target, rcond=None
                )
            else:
                self._projection = None
        return self

    def query(
        self, question_topics: np.ndarray, top_k: int | None
    ) -> np.ndarray:
        """Users ranked by embedding affinity to the projected question."""
        if not self.fitted or self.user_ids.size == 0:
            return self.user_ids[:0]
        theta = np.asarray(question_topics, dtype=float)
        latent = theta @ self._projection
        scores = self._score_buf
        np.dot(self._user_factors, latent, out=scores)
        scores += self._user_bias
        return top_k_by_score(self.user_ids, scores, top_k)
