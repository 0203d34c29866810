"""In-flight request coalescing: one compilation per cache key.

A burst of identical ``/compile`` (or ``/run``) requests — the same
source, bindings, and compiler options, hence the same plan-cache key —
must cost one compilation, not N.  The plan cache alone can't give
that: every request of the burst misses before the first one finishes,
so all N compile.  The coalescer closes the gap for the in-flight
window: the first request for a key becomes the *leader* and runs the
factory; every request arriving while the leader is still working
becomes a *follower* and awaits the leader's future.  All N requests
receive the same result object (plans are shared, not copied — the
same contract as the plan cache), and the cache's counters record
exactly one miss and one put for the burst.

Failures propagate to the whole cohort: the leader's exception is
stored in the shared future (as a value, so no follower-less failure
trips asyncio's unretrieved-exception warning) and re-raised in every
waiter.  Failed keys are removed immediately — the next request for
the key starts a fresh leader rather than replaying a stale error.

Single-event-loop only: the inflight map is touched exclusively from
coroutines on one loop, so no lock is needed (the await points are all
after the map mutation).
"""

from __future__ import annotations

import asyncio


class Coalescer:
    """Deduplicates concurrent async work by key."""

    def __init__(self) -> None:
        self._inflight: "dict[str, asyncio.Future]" = {}
        #: Requests that did not piggyback / piggybacked on one.
        self.leaders = 0
        self.followers = 0

    def __len__(self) -> int:
        return len(self._inflight)

    async def run(self, key: str, factory,
                  ready=None) -> "tuple[object, bool]":
        """Run ``factory()`` once per concurrently-requested ``key``.

        A leader's ``ready()``, if not ``None``, is the answer instead.
        Returns ``(result, coalesced)`` where ``coalesced`` is True for
        followers that piggybacked on another request's work.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.followers += 1
            status, payload = await existing
            if status == "error":
                raise payload
            return payload, True
        self.leaders += 1
        if ready is not None and (value := ready()) is not None:
            return value, False
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            try:
                value = await factory()
            except BaseException as exc:
                future.set_result(("error", exc))
                raise
            future.set_result(("ok", value))
            return value, False
        finally:
            self._inflight.pop(key, None)
