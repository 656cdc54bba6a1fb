"""Scalar reference featurizer: one (user, question) pair at a time.

The test oracle for :meth:`FeatureExtractor.feature_matrix`.  It reads
the extractor's :class:`~repro.core.state.FrozenState` dictionaries
directly and follows the paper's feature definitions (Sec. II-B) with
no precomputed tables, so it shares no code with the block kernel it
checks.  The two agree element-wise to floating-point roundoff
(``atol=1e-12``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs import resource_allocation_index


def _tv_similarity(p: np.ndarray, q: np.ndarray) -> float:
    return float(1.0 - 0.5 * np.abs(p - q).sum())


def _topics_discussed(frozen, uniform, user: int, exclude_thread: int):
    total = frozen.discussed_sum.get(user)
    if total is None:
        return uniform
    count = frozen.discussed_count[user]
    excl = frozen.discussed_by_thread.get(user, {}).get(exclude_thread)
    if excl is not None:
        total = total - excl[0]
        count -= excl[1]
    if count <= 0:
        return uniform
    return total / count


def scalar_features(extractor, user: int, thread) -> np.ndarray:
    """The full x_uq vector for one (user, question) pair."""
    frozen = extractor.frozen
    k = extractor.topics.n_topics
    uniform = np.full(k, 1.0 / k)
    tid = thread.thread_id
    info = extractor._question_info_for(thread)

    # Leakage guard: the target thread's rows leave the user's history.
    history = frozen.histories.get(user)
    mask = None if history is None else history.answered_thread_ids != tid
    known = history is not None and mask.any()

    # User features (i)-(v).
    if known:
        n_answers = float(mask.sum())
        votes_sum = float(history.answer_votes[mask].sum())
        median_rt = float(np.median(history.response_times[mask]))
        d_u = history.answer_topic_vectors[mask].mean(axis=0)
    else:
        n_answers = 0.0
        votes_sum = 0.0
        median_rt = frozen.global_median_response
        d_u = uniform
    asked = frozen.questions_asked.get(user, 0)
    answer_ratio = n_answers / (1.0 + asked)

    # Question features (vi)-(ix).
    d_q = info.topics

    # User-question features (x)-(xii).
    s_uq = _tv_similarity(d_u, d_q)
    if known:
        sims = 1.0 - 0.5 * np.abs(
            history.answered_question_topics[mask] - d_q[None, :]
        ).sum(axis=1)
        g_uq = float(sims.sum())
        e_uq = float((sims * history.answer_votes[mask]).sum())
    else:
        g_uq = 0.0
        e_uq = 0.0

    # Social features (xiii)-(xx).
    asker = thread.asker
    s_uv = _tv_similarity(
        _topics_discussed(frozen, uniform, user, tid),
        _topics_discussed(frozen, uniform, asker, tid),
    )
    shared = frozen.thread_sets.get(user, set()) & frozen.thread_sets.get(
        asker, set()
    )
    h_uv = float(len(shared - {tid}))
    return np.concatenate(
        [
            [n_answers, answer_ratio, votes_sum, median_rt],
            d_u,
            [info.votes, info.word_length, info.code_length],
            d_q,
            [
                s_uq,
                g_uq,
                e_uq,
                s_uv,
                h_uv,
                frozen.qa_closeness.get(user, 0.0),
                frozen.qa_betweenness.get(user, 0.0),
                resource_allocation_index(frozen.qa_graph, user, asker),
                frozen.dense_closeness.get(user, 0.0),
                frozen.dense_betweenness.get(user, 0.0),
                resource_allocation_index(frozen.dense_graph, user, asker),
            ],
        ]
    ).astype(float)


def scalar_matrix(extractor, pairs) -> np.ndarray:
    """Oracle rows for many pairs, stacked in input order."""
    return np.stack([scalar_features(extractor, u, t) for u, t in pairs])
