"""Set-algebra reference versions of the two-stage retrieval pool.

The test oracle for :func:`~repro.core.retrieval.reciprocal_rank_fusion`,
:meth:`TopicInvertedIndex.query`, :meth:`CandidateRetriever.pool` and the
tables of :class:`RecencyIndex`.  Each is the straightforward version the
fast path replaced: ``np.unique``/``np.union1d`` over concatenated
arrays, ``np.add.at`` score accumulation, and a from-scratch walk over
every user's per-thread recency map.  The fast paths must match them bit
for bit.
"""

from __future__ import annotations

import numpy as np


def rrf_oracle(
    ranked_lists: list[np.ndarray],
    *,
    rrf_k: float = 60.0,
    pool_size: int | None = None,
) -> np.ndarray:
    """Reciprocal-rank fusion by ``np.unique`` and ``np.add.at``."""
    lists = [np.asarray(r, dtype=np.int64) for r in ranked_lists if len(r)]
    if not lists:
        return np.empty(0, dtype=np.int64)
    nominees = np.concatenate(lists)
    contributions = np.concatenate(
        [1.0 / (rrf_k + np.arange(1, r.size + 1)) for r in lists]
    )
    user_ids, inverse = np.unique(nominees, return_inverse=True)
    if pool_size is None or pool_size >= user_ids.size:
        return user_ids
    scores = np.zeros(user_ids.size)
    np.add.at(scores, inverse, contributions)
    order = np.lexsort((user_ids, -scores))
    return np.sort(user_ids[order][:pool_size])


def topic_query_oracle(
    index,
    question_topics: np.ndarray,
    top_k: int | None,
    *,
    query_topics: int = 4,
    per_topic: int | None = None,
) -> np.ndarray:
    """Topic-index query expanding postings by concatenate-and-unique.

    Sorts each expanded postings list afresh, so it shares neither the
    index's postings cache nor its expansion code.
    """
    user_ids, user_topics = index.user_ids, index.user_topics
    if user_ids.size == 0:
        return user_ids[:0]
    theta = np.asarray(question_topics, dtype=float)
    if top_k is None or top_k >= user_ids.size:
        scores = user_topics @ theta
        return user_ids[np.lexsort((user_ids, -scores))][:top_k]
    budget = per_topic if per_topic is not None else top_k
    strongest = np.argsort(-theta, kind="stable")[:query_topics]
    rows = [
        np.lexsort((user_ids, -user_topics[:, topic]))[:budget]
        for topic in strongest
        if theta[topic] > 0.0
    ]
    if not rows:
        return user_ids[:0]
    subset = np.unique(np.concatenate(rows))
    scores = user_topics[subset] @ theta
    return user_ids[subset][np.lexsort((user_ids[subset], -scores))][:top_k]


def recency_tables_oracle(
    per_user: dict[int, dict[int, tuple[float, int]]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(user_ids, latest_ts, counts) rebuilt from per-thread maps.

    ``per_user`` maps user -> {thread_id: (latest_ts, n_answers)}, the
    layout of ``RecencyIndex._per_user``.
    """
    users = sorted(per_user)
    latest = np.array(
        [max(ts for ts, _ in per_user[u].values()) for u in users],
        dtype=float,
    )
    counts = np.array(
        [sum(n for _, n in per_user[u].values()) for u in users],
        dtype=np.int64,
    )
    return np.array(users, dtype=np.int64), latest, counts


def recency_query_oracle(per_user, top_k: int | None) -> np.ndarray:
    """Recency ranking over :func:`recency_tables_oracle`."""
    user_ids, latest, counts = recency_tables_oracle(per_user)
    return user_ids[np.lexsort((user_ids, -latest, -counts))][:top_k]


def pool_oracle(retriever, thread, candidates) -> np.ndarray:
    """Candidate pool by ``np.union1d`` over the oracle generators."""
    cfg = retriever.config
    candidates = np.asarray(candidates, dtype=np.int64)
    theta = retriever.topics.post_topics(thread.question)
    ranked = [
        topic_query_oracle(
            retriever._topic_index,
            theta,
            cfg.topic_top_k,
            query_topics=cfg.query_topics,
        ),
        recency_query_oracle(retriever._recency._per_user, cfg.recency_top_k),
    ]
    if retriever._mf is not None and retriever._mf.fitted:
        ranked.append(retriever._mf.query(theta, cfg.mf_top_k))
    fused = rrf_oracle(ranked, rrf_k=cfg.rrf_k, pool_size=cfg.pool_size)
    known = np.union1d(
        retriever.indexed_users,
        recency_tables_oracle(retriever._recency._per_user)[0],
    )
    return np.union1d(
        candidates[np.isin(candidates, fused)],
        candidates[~np.isin(candidates, known)],
    )
