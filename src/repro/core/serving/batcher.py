"""Micro-batching scheduler for concurrent question queries.

Routing cost is dominated by per-call overhead (feature staging, model
head dispatch) that amortizes almost perfectly over a batch: scoring 8
questions in one fused ``predict_batch`` costs far less than 8 single
calls.  The :class:`MicroBatcher` buys that amortization with a bounded
latency tax: the first query of a batch opens a collection window, and
the batch is dispatched when either ``max_batch`` queries have
coalesced or ``max_wait_s`` of (virtual or real) time has passed —
whichever comes first.  Under light load every query ships alone after
at most ``max_wait_s``; under a burst the batch fills instantly and the
wait never triggers.

The handler is a synchronous callable ``list[payload] -> list[result]``
— typically :meth:`ServingCore.process_query_batch` fusing retrieval +
ranking + LP across the batch against the bound
:class:`~repro.core.routing.QuestionRouter`.  Fusing does not change
the output: batched equals sequential, bit for bit.  Every model head
runs its products on fixed 64-row tiles, so a row's scores do not
depend on the rows of other questions stacked with it.  An optional
``cost`` function charges a simulated service time per batch before
dispatch, which is what makes queueing dynamics deterministic under
the virtual clock.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable

from ... import perf

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy: dispatch at ``max_batch`` or ``max_wait_s``."""

    max_batch: int = 8
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")


class MicroBatcher:
    """Coalesces queued submissions into bounded batches.

    Feed it either through :meth:`submit` (owns an internal queue) or
    by passing the ``queue`` a gate already fills with
    ``(payload, future)`` pairs.  One worker task (:meth:`run`, or
    :meth:`start`/:meth:`stop`) collects batches and resolves each
    future with the handler's matching result; a handler exception
    fails every future of its batch.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        handler: Callable[[list], list],
        *,
        queue: asyncio.Queue | None = None,
        cost: Callable[[int], float] | None = None,
        on_dispatch: Callable[[list], Awaitable[None]] | None = None,
    ):
        self.policy = policy
        self.handler = handler
        self.queue = queue if queue is not None else asyncio.Queue()
        self.cost = cost
        self.on_dispatch = on_dispatch
        self.n_batches = 0
        self.n_items = 0
        self._task: asyncio.Task | None = None

    async def submit(self, payload):
        """Enqueue one payload; resolves with the handler's result."""
        future = asyncio.get_running_loop().create_future()
        await self.queue.put((payload, future))
        return await future

    def start(self) -> asyncio.Task:
        self._task = asyncio.get_running_loop().create_task(self.run())
        return self._task

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def run(self) -> None:
        """Worker loop: collect a batch, dispatch, resolve futures."""
        while True:
            batch = [await self.queue.get()]
            batch = await self._fill(batch)
            await self._dispatch(batch)

    async def _fill(self, batch: list) -> list:
        """Collect up to ``max_batch`` items within the wait window."""
        policy = self.policy
        if policy.max_batch == 1:
            return batch
        # Items already queued coalesce for free, before any waiting.
        while len(batch) < policy.max_batch and not self.queue.empty():
            batch.append(self.queue.get_nowait())
        if policy.max_wait_s <= 0:
            return batch
        loop = asyncio.get_running_loop()
        deadline = loop.time() + policy.max_wait_s
        while len(batch) < policy.max_batch:
            timeout = deadline - loop.time()
            if timeout <= 0:
                break
            try:
                batch.append(
                    await asyncio.wait_for(self.queue.get(), timeout)
                )
            except asyncio.TimeoutError:
                break
        return batch

    async def _dispatch(self, batch: list) -> None:
        self.n_batches += 1
        self.n_items += len(batch)
        perf.incr("serving.query_batches")
        perf.gauge_max("serving.peak_batch_size", len(batch))
        if self.cost is not None:
            seconds = self.cost(len(batch))
            if seconds > 0:
                await asyncio.sleep(seconds)
        if self.on_dispatch is not None:
            await self.on_dispatch(batch)
        payloads = [payload for payload, _ in batch]
        try:
            results = self.handler(payloads)
        except Exception as exc:  # noqa: BLE001 — propagate to submitters
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)

    @property
    def mean_batch_size(self) -> float:
        return self.n_items / self.n_batches if self.n_batches else 0.0
