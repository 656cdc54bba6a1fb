"""Batch question routing under shared user capacity.

Sec. V routes at fixed time indices; all questions arriving in one
interval compete for the same answerer capacity.  The joint problem is
a transportation LP:

    maximize   sum_q sum_u s_qu * p_qu
    subject to sum_u p_qu = 1                 for every question q
               sum_q p_qu <= c_u              for every user u
               p_qu >= 0, p_qu = 0 when u not eligible for q

solved exactly with ``scipy.optimize.linprog`` (HiGHS).  A greedy
fallback (questions routed one at a time, capacity decremented) is
provided for comparison — the LP's advantage over greedy is exactly the
value of coordinating the batch.

When the router carries a two-stage
:class:`~repro.core.retrieval.CandidateRetriever`, the shared candidate
axis shrinks to the union of the per-question retrieval pools before
the score matrix is built — the LP cost is quadratic in that axis, so
the pool bound pays off twice.  An infeasible pooled batch retries
against the full candidate set when the config's ``dense_fallback``
is set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .. import perf
from ..forum.models import Thread
from .features import PairBlocks
from .routing import QuestionRouter, solve_routing_lp

__all__ = ["BatchAssignment", "route_batch", "route_batch_greedy"]


@dataclass(frozen=True)
class BatchAssignment:
    """Joint routing of one batch of questions."""

    question_ids: tuple[int, ...]
    users: tuple[int, ...]  # the shared candidate axis
    probabilities: np.ndarray  # (n_questions, n_users), rows sum to 1
    objective: float  # total expected score

    def distribution_for(self, question_id: int) -> dict[int, float]:
        """Non-zero routing probabilities of one question."""
        q = self.question_ids.index(question_id)
        row = self.probabilities[q]
        return {
            int(self.users[u]): float(row[u])
            for u in np.flatnonzero(row > 1e-12)
        }


def _score_matrix(
    router: QuestionRouter,
    threads: list[Thread],
    candidates: list[int],
    tradeoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(scores, eligibility) over questions x candidates."""
    n_q, n_u = len(threads), len(candidates)
    scores = np.full((n_q, n_u), -np.inf)
    eligible = np.zeros((n_q, n_u), dtype=bool)
    users = np.asarray(candidates, dtype=np.int64)
    for qi, thread in enumerate(threads):
        preds = router.predictor.predict_batch(
            PairBlocks(users, [thread], np.array([n_u]))
        )
        ok = (preds["answer"] >= router.epsilon) & (users != thread.asker)
        eligible[qi] = ok
        scores[qi, ok] = (
            preds["votes"][ok] - tradeoff * preds["response_time"][ok]
        )
    return scores, eligible


def _pooled_axis(
    router: QuestionRouter, threads: list[Thread], candidates: list[int]
) -> list[int]:
    """Union of the per-question retrieval pools, ascending user ids."""
    union: np.ndarray | None = None
    for thread in threads:
        pool = router.candidate_pool(thread, candidates)
        union = pool if union is None else np.union1d(union, pool)
    return [int(u) for u in union] if union is not None else []


def _two_stage(router: QuestionRouter) -> bool:
    return (
        router.retriever is not None
        and router.retriever.config.mode == "two_stage"
    )


def route_batch(
    router: QuestionRouter,
    threads: list[Thread],
    candidates: list[int],
    *,
    tradeoff: float = 0.1,
    capacities: dict[int, float] | None = None,
) -> BatchAssignment | None:
    """Exact joint routing of a batch via the transportation LP.

    Returns ``None`` when the joint problem is infeasible (some question
    has no eligible user, or total capacity cannot cover the batch).
    """
    if not threads or not candidates:
        raise ValueError("need non-empty threads and candidates")
    if _two_stage(router):
        pooled = _pooled_axis(router, threads, candidates)
        result = (
            _route_batch_dense(
                router, threads, pooled, tradeoff, capacities
            )
            if pooled
            else None
        )
        if result is not None or not router.retriever.config.dense_fallback:
            return result
        if len(pooled) == len(candidates):
            return None
        perf.incr("retrieval.dense_fallbacks")
    return _route_batch_dense(router, threads, candidates, tradeoff, capacities)


def _route_batch_dense(
    router: QuestionRouter,
    threads: list[Thread],
    candidates: list[int],
    tradeoff: float,
    capacities: dict[int, float] | None,
) -> BatchAssignment | None:
    capacities = capacities or {}
    caps = np.array(
        [capacities.get(int(u), router.default_capacity) for u in candidates]
    )
    scores, eligible = _score_matrix(router, threads, candidates, tradeoff)
    if not eligible.any(axis=1).all():
        return None
    n_q, n_u = scores.shape
    # Variables: p_qu flattened row-major; ineligible cells pinned to 0.
    c = np.where(eligible, -scores, 0.0).ravel()  # linprog minimizes
    bounds = [
        (0.0, 1.0 if eligible[q, u] else 0.0)
        for q in range(n_q)
        for u in range(n_u)
    ]
    a_eq = np.zeros((n_q, n_q * n_u))
    for q in range(n_q):
        a_eq[q, q * n_u : (q + 1) * n_u] = 1.0
    a_ub = np.zeros((n_u, n_q * n_u))
    for u in range(n_u):
        a_ub[u, u::n_u] = 1.0
    result = linprog(
        c,
        A_eq=a_eq,
        b_eq=np.ones(n_q),
        A_ub=a_ub,
        b_ub=caps,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return None
    probabilities = result.x.reshape(n_q, n_u)
    objective = float(np.sum(np.where(eligible, scores, 0.0) * probabilities))
    return BatchAssignment(
        question_ids=tuple(t.thread_id for t in threads),
        users=tuple(int(u) for u in candidates),
        probabilities=probabilities,
        objective=objective,
    )


def route_batch_greedy(
    router: QuestionRouter,
    threads: list[Thread],
    candidates: list[int],
    *,
    tradeoff: float = 0.1,
    capacities: dict[int, float] | None = None,
) -> BatchAssignment | None:
    """Myopic baseline: route questions one at a time, spending capacity.

    Each question solves its own single-question LP against the
    *remaining* capacity; earlier questions can starve later ones, which
    is exactly the coordination gap ``route_batch`` closes.
    """
    if not threads or not candidates:
        raise ValueError("need non-empty threads and candidates")
    if _two_stage(router):
        pooled = _pooled_axis(router, threads, candidates)
        result = (
            _route_batch_greedy_dense(
                router, threads, pooled, tradeoff, capacities
            )
            if pooled
            else None
        )
        if result is not None or not router.retriever.config.dense_fallback:
            return result
        if len(pooled) == len(candidates):
            return None
        perf.incr("retrieval.dense_fallbacks")
    return _route_batch_greedy_dense(
        router, threads, candidates, tradeoff, capacities
    )


def _route_batch_greedy_dense(
    router: QuestionRouter,
    threads: list[Thread],
    candidates: list[int],
    tradeoff: float,
    capacities: dict[int, float] | None,
) -> BatchAssignment | None:
    capacities = capacities or {}
    remaining = {
        int(u): capacities.get(int(u), router.default_capacity)
        for u in candidates
    }
    scores, eligible = _score_matrix(router, threads, candidates, tradeoff)
    n_q, n_u = scores.shape
    probabilities = np.zeros((n_q, n_u))
    objective = 0.0
    for q in range(n_q):
        ok = eligible[q]
        caps_q = np.array(
            [remaining[int(u)] if ok[i] else 0.0 for i, u in enumerate(candidates)]
        )
        if caps_q.sum() < 1.0 - 1e-12:
            return None
        p = solve_routing_lp(np.where(ok, scores[q], -np.inf), caps_q)
        probabilities[q] = p
        objective += float(np.sum(np.where(ok, scores[q], 0.0) * p))
        for i, u in enumerate(candidates):
            remaining[int(u)] -= p[i]
    return BatchAssignment(
        question_ids=tuple(t.thread_id for t in threads),
        users=tuple(int(u) for u in candidates),
        probabilities=probabilities,
        objective=objective,
    )
