"""Bounded worker pool with admission control.

Compilation and execution are CPU-bound, so they must not run on the
event loop: jobs dispatch to a thread pool (whose threads are the
calling threads of ``parallel`` runs and share its one stripe pool).  The pool is *bounded twice*: ``workers``
threads execute concurrently, and at most ``max_pending`` jobs may be
admitted (running + queued).  Beyond that the service sheds load —
:class:`PoolBusy` maps to HTTP 429 with a ``Retry-After`` estimated
from an EWMA of recent job durations and the queue depth, so clients
back off for roughly as long as the backlog needs to drain instead of
hammering a saturated server.

Admission state (``_pending``, the EWMA) is touched only from the
event-loop thread — ``submit`` is a coroutine — so it needs no lock.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

#: EWMA smoothing factor for job durations (weight of the newest job).
EWMA_ALPHA = 0.2


class PoolBusy(Exception):
    """Admission control rejected a job; maps to HTTP 429."""

    def __init__(self, pending: int, limit: int,
                 retry_after: int) -> None:
        super().__init__(
            f"worker pool saturated ({pending} jobs pending, "
            f"limit {limit}); retry in ~{retry_after}s")
        self.retry_after = retry_after


class WorkerPool:
    """A bounded :class:`ThreadPoolExecutor` front for blocking jobs."""

    def __init__(self, workers: "int | None" = None,
                 max_pending: "int | None" = None) -> None:
        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        if max_pending is None:
            max_pending = workers * 4
        if max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {max_pending}")
        self.workers = workers
        self.max_pending = max_pending
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service")
        self._pending = 0
        # seeded with a small plausible duration so the very first
        # rejection still produces a sane Retry-After
        self._ewma_seconds = 0.1

    @property
    def pending(self) -> int:
        """Jobs admitted and not yet finished (running + queued)."""
        return self._pending

    def retry_after(self) -> int:
        """Whole seconds a rejected client should wait: the time for
        the backlog beyond the worker count to drain, at the recent
        per-job rate, floored at 1."""
        backlog = max(0, self._pending - self.workers)
        per_slot = backlog / self.workers + 1
        return max(1, math.ceil(self._ewma_seconds * per_slot))

    async def submit(self, fn):
        """Run ``fn()`` on a pool thread; raises :class:`PoolBusy` when
        the pending cap is reached."""
        if self._pending >= self.max_pending:
            raise PoolBusy(self._pending, self.max_pending,
                           self.retry_after())
        self._pending += 1
        start = time.perf_counter()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, fn)
        finally:
            self._pending -= 1
            elapsed = time.perf_counter() - start
            self._ewma_seconds += EWMA_ALPHA * (
                elapsed - self._ewma_seconds)

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True, cancel_futures=True)
