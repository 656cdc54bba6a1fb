"""Question recommendation by joint quality/timing optimization (Sec. V).

For a new question q', the recommender:

1. computes predictions (a_hat, v_hat, r_hat) for every candidate user;
2. keeps the eligible set ``U = {u : a_hat >= epsilon}``;
3. solves the linear program

   maximize   sum_u (v_hat_u - lambda * r_hat_u) p_u
   subject to 0 <= p_u <= c_u - (answers by u in the recent window),
              sum_u p_u = 1,

   whose solution is a probability distribution over recommended
   answerers.

The LP has a box + single simplex constraint, so the exact optimum is a
greedy fill: sort users by score and assign as much probability as each
user's remaining capacity allows until the unit mass is spent.  The fill
visits users blockwise via ``argpartition`` — with generous capacities
the unit mass is spent after a handful of users, so the full
``argsort`` is never paid — while remaining bit-identical to the stable
full sort (boundary ties are pulled into the block).  Tests cross-check
against ``scipy.optimize.linprog``.

Step 1 is the dense hot path: O(users) full-predictor scores per
question.  Construct the router with a
:class:`~repro.core.retrieval.CandidateRetriever` (and a
``two_stage`` :class:`~repro.core.retrieval.RetrievalConfig`) to route
against a fused candidate pool instead; an infeasible or empty pool
falls back to the dense path when ``dense_fallback`` is set.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace

import numpy as np

from .. import perf
from ..forum.dataset import ForumDataset
from ..forum.models import Thread
from .features import PairBlocks
from .pipeline import ForumPredictor

__all__ = [
    "solve_routing_lp",
    "finish_recommendation",
    "RoutingResult",
    "QuestionRouter",
    "UserLoadTracker",
]

# Below this many eligible users the blockwise fill just sorts once.
_LP_BLOCK = 64


def _greedy_fill(
    p: np.ndarray,
    order: np.ndarray,
    capacities: np.ndarray,
    remaining: float,
) -> float:
    """Assign capacity along ``order`` until the unit mass is spent."""
    for u in order:
        take = min(capacities[u], remaining)
        p[u] = take
        remaining -= take
        if remaining <= 1e-15:
            break
    return remaining


def solve_routing_lp(
    scores: np.ndarray, capacities: np.ndarray
) -> np.ndarray:
    """Exact solution of the box+simplex LP by greedy capacity filling.

    ``scores[u]`` is the objective coefficient of user u and
    ``capacities[u]`` the upper bound on ``p_u``.  Raises ``ValueError``
    when total capacity cannot absorb the unit mass (infeasible).

    Large instances are filled blockwise: ``argpartition`` selects the
    current top block (plus every boundary tie, so the stable tie order
    of a full ``argsort`` is preserved exactly), only that block is
    sorted, and the fill stops as soon as the mass is spent — typically
    after the first block when capacities are not pathological.
    """
    scores = np.asarray(scores, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if scores.shape != capacities.shape or scores.ndim != 1:
        raise ValueError("scores and capacities must be matching 1-D arrays")
    capacities = np.clip(capacities, 0.0, None)
    if capacities.sum() < 1.0 - 1e-12:
        raise ValueError("infeasible: total capacity below 1")
    p = np.zeros_like(scores)
    remaining = 1.0
    n = scores.size
    if n <= _LP_BLOCK:
        _greedy_fill(
            p, np.argsort(-scores, kind="stable"), capacities, remaining
        )
        return p
    # ``active`` stays ascending under boolean masking, so the stable
    # within-block sort reproduces the global stable order exactly.
    active = np.arange(n)
    while remaining > 1e-15 and active.size:
        if active.size <= _LP_BLOCK:
            block, active = active, active[:0]
        else:
            part = np.argpartition(-scores[active], _LP_BLOCK - 1)
            threshold = scores[active[part[_LP_BLOCK - 1]]]
            in_block = scores[active] >= threshold
            block, active = active[in_block], active[~in_block]
        order = block[np.argsort(-scores[block], kind="stable")]
        remaining = _greedy_fill(p, order, capacities, remaining)
    return p


def _gather_from_dict(
    users: np.ndarray,
    mapping: dict[int, float],
    default: float,
) -> np.ndarray:
    """Vectorized ``[mapping.get(u, default) for u in users]``.

    The dict's keys are staged into one sorted id array and matched
    against ``users`` with ``searchsorted`` — no per-user Python.
    """
    out = np.full(users.shape, float(default))
    if not mapping:
        return out
    keys = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
    values = np.fromiter(
        (float(v) for v in mapping.values()), dtype=float, count=len(mapping)
    )
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    pos = np.searchsorted(keys, users)
    pos_safe = np.minimum(pos, keys.size - 1)
    hit = (pos < keys.size) & (keys[pos_safe] == users)
    out[hit] = values[pos_safe[hit]]
    return out


class UserLoadTracker:
    """Incremental per-user answer-load counter over a sliding window.

    Replaces rescanning every answer record per routing call: answer
    events enter a min-heap keyed by timestamp (threads fold in whole,
    so answer times are not globally ordered), activate once the query
    clock passes them, and expire once they fall behind the window —
    O(log n) per event instead of O(all answers) per call.  ``counts``
    matches :meth:`QuestionRouter.recent_load` exactly: events with
    ``now - window <= t <= now``.  Query times must be non-decreasing,
    which the chronological replay guarantees.
    """

    def __init__(self, window_hours: float = 24.0):
        if window_hours <= 0:
            raise ValueError("window_hours must be positive")
        self.window_hours = window_hours
        self._future: list[tuple[float, int]] = []  # not yet happened
        self._active: list[tuple[float, int]] = []  # inside the window
        self._counts: dict[int, int] = {}

    def observe(self, user: int, timestamp: float) -> None:
        """Record one answer event (any insertion order)."""
        heapq.heappush(self._future, (float(timestamp), int(user)))

    def observe_thread(self, thread: Thread) -> None:
        """Fold every answer of one thread."""
        for answer in thread.answers:
            self.observe(answer.author, answer.timestamp)

    def counts(self, now_hours: float) -> dict[int, int]:
        """Per-user loads within ``[now - window, now]``; the live dict.

        Callers must treat the result as read-only; it is the tracker's
        own table after activating due events and expiring stale ones.
        """
        start = now_hours - self.window_hours
        future, active, counts = self._future, self._active, self._counts
        while future and future[0][0] <= now_hours:
            event = heapq.heappop(future)
            heapq.heappush(active, event)
            user = event[1]
            counts[user] = counts.get(user, 0) + 1
        while active and active[0][0] < start:
            _, user = heapq.heappop(active)
            left = counts[user] - 1
            if left:
                counts[user] = left
            else:
                del counts[user]
        return counts

    def __len__(self) -> int:
        return len(self._future) + len(self._active)


@dataclass(frozen=True)
class RoutingResult:
    """Recommendation output for one question."""

    question_id: int
    users: np.ndarray  # candidate user ids (the eligible set)
    probabilities: np.ndarray  # p over the eligible set, sums to 1
    scores: np.ndarray  # v_hat - lambda * r_hat per eligible user
    predictions: dict[str, np.ndarray]  # raw a/v/r predictions per user
    pool_size: int | None = None  # two-stage pool handed to the scorer
    dense_fallback: bool = False  # pool failed; dense path produced this

    def ranked_users(self) -> list[tuple[int, float]]:
        """(user, probability) pairs sorted by assigned probability."""
        order = np.argsort(-self.probabilities, kind="stable")
        return [
            (int(self.users[i]), float(self.probabilities[i]))
            for i in order
            if self.probabilities[i] > 0
        ]

    def draw(self, rng: np.random.Generator) -> int:
        """Sample one recommended answerer from the distribution."""
        idx = rng.choice(len(self.users), p=self.probabilities)
        return int(self.users[idx])


class QuestionRouter:
    """Routes new questions to answerers using a fitted predictor."""

    def __init__(
        self,
        predictor: ForumPredictor,
        *,
        epsilon: float = 0.5,
        default_capacity: float = 1.0,
        load_window_hours: float = 24.0,
        retriever=None,
        load_tracker: UserLoadTracker | None = None,
    ):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if default_capacity <= 0:
            raise ValueError("default_capacity must be positive")
        self.predictor = predictor
        self.epsilon = epsilon
        self.default_capacity = default_capacity
        self.load_window_hours = load_window_hours
        # Optional CandidateRetriever with a two-stage RetrievalConfig;
        # None keeps the original dense scoring path.
        self.retriever = retriever
        # Optional incremental load counter consulted when a call does
        # not pass ``recent_load`` explicitly.
        self.load_tracker = load_tracker
        # Seconds the last :meth:`recommend` took, clocked inside it.
        self.last_recommend_s = 0.0

    def recent_load(
        self, dataset: ForumDataset, now_hours: float
    ) -> dict[int, int]:
        """Answers posted by each user within the recent load window.

        One full scan of ``dataset`` — the offline/batch entry point.
        Streaming callers should maintain a :class:`UserLoadTracker`
        instead, which keeps the same counts incrementally.
        """
        start = now_hours - self.load_window_hours
        load: dict[int, int] = {}
        for record in dataset.answer_records():
            if start <= record.timestamp <= now_hours:
                load[record.user] = load.get(record.user, 0) + 1
        return load

    def _two_stage(self) -> bool:
        return (
            self.retriever is not None
            and self.retriever.config.mode == "two_stage"
        )

    def candidate_pool(
        self, thread: Thread, candidates: list[int] | np.ndarray
    ) -> np.ndarray:
        """Candidates this router would score for ``thread``, ascending.

        The fused retrieval pool under a two-stage config; otherwise
        the given candidates sorted (the dense scoring order).
        """
        if self._two_stage():
            return self.retriever.pool(thread, candidates)
        candidates = np.asarray(candidates, dtype=np.int64)
        ordered = np.all(candidates[:-1] <= candidates[1:])
        return candidates if ordered else np.sort(candidates)

    def recommend(
        self,
        thread: Thread,
        candidates: list[int] | np.ndarray,
        *,
        tradeoff: float = 0.1,
        recent_load: dict[int, int] | None = None,
        capacities: dict[int, float] | None = None,
        pool: np.ndarray | None = None,
        predictions: dict[str, np.ndarray] | None = None,
    ) -> RoutingResult | None:
        """Solve the Sec.-V LP for one question.

        ``tradeoff`` is the paper's lambda_q' (importance of timing vs.
        quality, possibly set by the asker).  Returns ``None`` when no
        candidate clears the eligibility threshold or capacity is
        exhausted.

        With a two-stage retriever bound, only the fused candidate pool
        (or the precomputed ``pool``, if the caller already queried it)
        is scored; when that pool yields no feasible recommendation and
        the config allows it, the call falls back to the dense path
        over the full candidate set.

        ``predictions`` lets a caller that already batch-scored the
        exact set this call would score (the nonempty ``pool`` under a
        two-stage config, ``candidates`` otherwise) pass those model
        outputs in instead of recomputing them; prediction is pure, so
        reuse is bit-identical.  The dense *retry* after an infeasible
        nonempty pool scores a different set and always recomputes.
        """
        start = time.perf_counter()
        try:
            if len(candidates) == 0:
                return None
            if recent_load is None and self.load_tracker is not None:
                recent_load = self.load_tracker.counts(thread.created_at)
            two_stage = self._two_stage()
            if two_stage:
                if pool is None:
                    pool = self.candidate_pool(thread, candidates)
                result = (
                    self._recommend_dense(
                        thread,
                        pool,
                        tradeoff=tradeoff,
                        recent_load=recent_load,
                        capacities=capacities,
                        pool_size=int(pool.size),
                        predictions=predictions,
                    )
                    if pool.size
                    else None
                )
                if result is not None:
                    return result
                if (
                    not self.retriever.config.dense_fallback
                    or pool.size == len(candidates)
                ):
                    return None
                perf.incr("retrieval.dense_fallbacks")
                result = self._recommend_dense(
                    thread,
                    candidates,
                    tradeoff=tradeoff,
                    recent_load=recent_load,
                    capacities=capacities,
                    pool_size=int(pool.size),
                    # An empty pool never got scored, so caller predictions
                    # align with ``candidates`` and survive the fallback; a
                    # nonempty pool's predictions do not.
                    predictions=predictions if pool.size == 0 else None,
                )
                if result is not None:
                    result = replace(result, dense_fallback=True)
                return result
            return self._recommend_dense(
                thread,
                candidates,
                tradeoff=tradeoff,
                recent_load=recent_load,
                capacities=capacities,
                predictions=predictions,
            )
        finally:
            self.last_recommend_s = time.perf_counter() - start

    def _recommend_dense(
        self,
        thread: Thread,
        candidates: list[int] | np.ndarray,
        *,
        tradeoff: float,
        recent_load: dict[int, int] | None,
        capacities: dict[int, float] | None,
        pool_size: int | None = None,
        predictions: dict[str, np.ndarray] | None = None,
    ) -> RoutingResult | None:
        candidates = np.asarray(candidates, dtype=np.int64)
        preds = (
            predictions
            if predictions is not None
            else self.predictor.predict_batch(
                PairBlocks(candidates, [thread], np.array([candidates.size]))
            )
        )
        eligible = np.flatnonzero(preds["answer"] >= self.epsilon)
        if eligible.size == 0:
            return None
        return finish_recommendation(
            thread.thread_id,
            candidates[eligible],
            preds["answer"][eligible],
            preds["votes"][eligible],
            preds["response_time"][eligible],
            tradeoff=tradeoff,
            recent_load=recent_load,
            capacities=capacities,
            default_capacity=self.default_capacity,
            pool_size=pool_size,
        )


def finish_recommendation(
    question_id: int,
    users: np.ndarray,
    answer: np.ndarray,
    votes: np.ndarray,
    times: np.ndarray,
    *,
    tradeoff: float,
    recent_load: dict[int, int] | None,
    capacities: dict[int, float] | None,
    default_capacity: float,
    pool_size: int | None = None,
) -> RoutingResult | None:
    """Capacity gathering + exact LP over an already-eligible user set.

    The tail of :meth:`QuestionRouter.recommend`, called with its
    threshold-filtered predictions.  ``users`` must be aligned with the
    prediction arrays; returns ``None`` when nobody is eligible or
    capacity cannot absorb the unit mass.
    """
    recent_load = recent_load or {}
    capacities = capacities or {}
    if users.size == 0:
        return None
    scores = votes - tradeoff * times
    caps = _gather_from_dict(users, capacities, default_capacity)
    if recent_load:
        caps -= _gather_from_dict(users, recent_load, 0.0)
    np.clip(caps, 0.0, None, out=caps)
    if caps.sum() < 1.0 - 1e-12:
        return None
    probabilities = solve_routing_lp(scores, caps)
    return RoutingResult(
        question_id=question_id,
        users=users,
        probabilities=probabilities,
        scores=scores,
        predictions={
            "answer": answer,
            "votes": votes,
            "response_time": times,
        },
        pool_size=pool_size,
    )
