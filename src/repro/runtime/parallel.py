"""Row stripes on a persistent thread pool: what ``parallel`` adds.

``parallel`` is the slab storage of :mod:`repro.runtime.vectorized`
with its whole-space nest evaluator cut into at most
``workers`` contiguous dim-1 row stripes: stripe 0 runs on the calling
thread, the rest on one process-wide pool that every run, every
``iterations=k`` and the service's job threads share.  This module
holds only the pool, the stripe cut and the join (the evaluator and
what a run reports are ``VectorizedExec``'s); op dispatch, shifts,
reductions, control flow and every charge are the inherited skeleton
running once, in one process, so the backend contract holds by
construction.

Why threads suffice: a nest is one ``ctypes`` foreign call
(:mod:`repro.runtime.native`) or a few ufunc inner loops, and both drop
the GIL.  Why stripes are bitwise: they are concurrent strips — the
tape's ``strip_ok`` rule (no array assigned in the nest is read at a
nonzero dim-1 offset) makes rows independent, and an elementwise
instruction computes each point the same however the box is cut.
Reduction tapes never stripe: the per-PE partials and their rank-order
fold stay on the calling thread.
"""

from __future__ import annotations

import os
import threading
from contextvars import copy_context
from math import prod
from queue import SimpleQueue
from time import perf_counter

from repro.runtime.backends import check_workers

#: Points a stripe must cover before a nest is handed off.  Measured
#: here: a join of two no-op stripes is 16 us (p90 25 us), but a real
#: second stripe starts 85-120 us after dispatch (thread wake-up, then
#: the GIL behind the caller's own bind), and a native 9-point nest
#: runs ~0.6 ns per point — so a stripe under ~2**17 points is over
#: before its neighbour has begun.  Twice that keeps the start delay
#: under half a stripe: ``exec_bulk``'s 4 M-point nests sit above it,
#: ``jacobi``/``cg``'s 65 k-point nests below.
MIN_STRIPE_POINTS = 1 << 18

_POOL: "_Pool | None" = None
_POOL_LOCK = threading.Lock()


class _Pool:
    """Daemon threads serving one queue of ``(context, task, out, i,
    done)``: run ``task`` in ``context``, file its outcome, signal."""

    def __init__(self, size: int) -> None:
        self.tasks: SimpleQueue = SimpleQueue()
        self.threads = [threading.Thread(
            target=self._serve, name=f"repro-stripe-{i}", daemon=True)
            for i in range(size)]
        for thread in self.threads:
            thread.start()

    def _serve(self) -> None:
        while True:
            context, task, out, i, done = self.tasks.get()
            out[i] = context.run(_outcome, task)
            done.release()


def _pool() -> _Pool:
    """The process's pool, created by its first striped nest: one thread
    per core beyond the caller's.  More stripes than threads queue."""
    global _POOL
    if _POOL is None:
        with _POOL_LOCK:
            if _POOL is None:
                _POOL = _Pool(max(1, (os.cpu_count() or 1) - 1))
    return _POOL


def _forget_pool() -> None:
    """A forked child inherits no thread: it starts without a pool (and
    with a lock nobody holds) and creates its own on first use."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _outcome(task) -> tuple:
    """``(start, end, error)`` of one call; never raises."""
    start = perf_counter()
    try:
        task()
        return start, perf_counter(), None
    except BaseException as exc:  # noqa: BLE001 — re-raised by the join
        return start, perf_counter(), exc


def join(tasks: list) -> tuple[list, float]:
    """Run ``tasks[0]`` here and the others on the pool; every task's
    ``(start, end, error)`` and the seconds this thread then
    waited, once *all* have ended — no thread is still writing a slab
    when the caller sees an error and frees it."""
    if len(tasks) == 1:     # a whole nest: no pool, nothing to wait for
        return [_outcome(tasks[0])], 0.0
    out: list = [None] * len(tasks)
    done = threading.Semaphore(0)
    put = _pool().tasks.put
    for i in range(1, len(tasks)):
        put((copy_context(), tasks[i], out, i, done))
    out[0] = _outcome(tasks[0])
    start = perf_counter()
    for _ in range(1, len(tasks)):
        done.acquire()
    return out, perf_counter() - start


def worker_count(plan, workers: "int | None") -> int:
    """The run's workers (worker 0 is the calling thread): ``workers``
    or the core count, silently capped by the tallest array's rows."""
    check_workers(workers)
    rows = max((decl.shape[0] for decl in plan.arrays.values()), default=1)
    return max(1, min(workers or os.cpu_count() or 1, rows))


def cut(workers: int, tape, space) -> "tuple[tuple[int, int], ...] | str":
    """``space``'s dim-1 extent as at most ``workers`` contiguous row
    stripes, or why the nest runs whole: ``order`` (rows of different
    stripes are not independent), ``workers`` or ``rows`` (fewer than
    two) or ``small`` (not a constant's worth of points for two)."""
    lo, hi = space[0]
    rows = hi - lo + 1
    n = min(workers, rows,
            prod(h - l + 1 for l, h in space) // MIN_STRIPE_POINTS)
    for reason, holds in (("order", not tape.strip_ok),
                          ("workers", workers < 2), ("rows", rows < 2),
                          ("small", n < 2)):
        if holds:
            return reason
    base, extra = divmod(rows, n)
    bounds = [lo + i * base + min(i, extra) for i in range(n + 1)]
    return tuple((a, b - 1) for a, b in zip(bounds, bounds[1:]))
