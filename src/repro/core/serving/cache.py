"""Refit-epoch-keyed prediction cache for the serving hot path.

Between two refits the frozen state is immutable, so a (user, thread)
pair's feature row — and therefore the three model-head outputs — is a
pure function of the pair.  Repeat queries against the same epoch can
skip featurization and the heads entirely; only the LP tail (which
reads the *live* load tracker) must always rerun.  The serving core
clears the cache on every refit, so staleness is structurally
impossible rather than TTL-managed.

Entries hold what the scoring path computed, including rows it did not
score: the vote and timing heads run only where ``answer >= epsilon``,
so an ineligible row is cached with NaN votes and response time.  A hit
never hands the LP an unscored row, because eligibility is recomputed
from the cached answer against the same epsilon — epsilon is fixed per
router, and a refit (the only thing that rebinds the router) clears the
cache.

Bounded LRU over pairs: one entry is one (user, thread) triple, so the
memory envelope is ``max_pairs * 3`` floats plus key overhead.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["PredictionCache"]


class PredictionCache:
    """LRU ``(user, thread_id) -> (answer, votes, response_time)``.

    ``max_pairs <= 0`` disables the cache entirely (every lookup
    misses, nothing is stored) so callers can keep one code path.
    """

    def __init__(self, max_pairs: int = 0):
        self.max_pairs = int(max_pairs)
        self._store: OrderedDict[
            tuple[int, int], tuple[float, float, float]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, user: int, thread_id: int):
        """The cached triple, or ``None`` (counts a hit or a miss)."""
        if self.max_pairs <= 0:
            self.misses += 1
            return None
        value = self._store.get((user, thread_id))
        if value is None:
            self.misses += 1
            return None
        self._store.move_to_end((user, thread_id))
        self.hits += 1
        return value

    def put(
        self, user: int, thread_id: int, answer: float, votes: float,
        response_time: float,
    ) -> None:
        if self.max_pairs <= 0:
            return
        key = (user, thread_id)
        self._store[key] = (answer, votes, response_time)
        self._store.move_to_end(key)
        while len(self._store) > self.max_pairs:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (refit boundary); counters keep running."""
        self._store.clear()

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._store),
            "max_pairs": self.max_pairs,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
