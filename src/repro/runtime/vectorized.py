"""Vectorized execution backend: the skeleton over the slab storage.

The per-PE executor (:mod:`repro.runtime.executor`) keeps a cell per PE
in each array's arena and evaluates a nest box by box.  This backend
executes the *same plans* through the *same skeleton* with each arena
laid out on a one-PE grid — one cell, the global padded array (see
:class:`~repro.runtime.darray.DArray`) — so a nest is evaluated once over
its whole iteration space and a shift's moves touch only the global
edge planes.  A native segment's nest step is the nest's one slab row
here, one row per PE box under ``perpe``: either storage, traced or
not, hands each segment of ops to the plan's native driver as one
call.

Cost accounting is not this module's business: what an op costs, and in
which rank order it is charged, lives once per op in ``overlap.py``,
``cshift.py``, ``executor.py`` and ``darray.py`` and never reads array
data — so cost reports, message logs and peak memory are identical
between storages by construction.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from time import perf_counter

from repro.errors import ExecutionError
from repro.plan import LoopNestOp
from repro.runtime.executor import _Exec
from repro.runtime.parallel import cut, join, worker_count


class _WorkerLog:
    """What each worker of one ``parallel`` run did; worker 0 is the
    calling thread.  Plain numbers while the run lasts, published once
    when it ends."""

    def __init__(self, workers: int) -> None:
        self.start = perf_counter()
        self.blocked = 0.0              # worker 0, waiting at joins
        self.busy = [0.0] * workers     # seconds running nests
        #: per worker: (op span, start, end), seconds since ``start``;
        #: profiled runs
        self.events: list[list] = [[] for _ in range(workers)]
        self.nests: Counter = Counter()     # (mode, reason) -> nests

    def file(self, outcomes: list, blocked: float, span) -> None:
        """One nest's ``(start, end, ...)`` per worker, as
        :func:`repro.runtime.parallel.join` returns them, under the
        open op span ``span`` of a profiled run."""
        self.blocked += blocked
        for w, (start, end, *_) in enumerate(outcomes):
            self.busy[w] += end - start
            if span is not None:
                self.events[w].append(
                    (span, start - self.start, end - self.start))

    def publish(self) -> list[dict]:
        """The run's series on the installed registry; returns one
        measured track per worker."""
        from repro.obs.metrics import get_registry
        wall = perf_counter() - self.start
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "repro_parallel_workers",
                help="Worker threads of the last parallel run (the "
                     "calling thread is worker 0).").set(len(self.busy))
            idle = registry.gauge(
                "repro_parallel_barrier_wait_seconds",
                help="Seconds worker w had no stripe to run during the "
                     "run: worker 0's time blocked at joins; a worker "
                     "never handed a stripe idles for the whole run.")
            idle.set(self.blocked, worker="0")
            for w, busy in enumerate(self.busy[1:], start=1):
                idle.set(max(0.0, wall - busy), worker=str(w))
            nests = registry.counter(
                "repro_parallel_nests_total",
                help="Nest evaluations of parallel runs: cut into row "
                     "stripes, or run whole and why.")
            for (mode, reason), n in sorted(self.nests.items(), key=str):
                nests.inc(n, mode=mode,
                          **({} if reason is None else {"reason": reason}))
        return [{"worker": w, "wall_s": busy, "events": events}
                for w, (busy, events) in enumerate(zip(self.busy,
                                                       self.events))]


class VectorizedExec(_Exec):
    """The per-PE skeleton over the slab storage.

    Everything is inherited — op dispatch, shifts, the reductions (a
    native operand's one call over every PE's block included), their
    partials and fold, every charge walk — except how a nest or a tape
    reduction operand is evaluated: once over the whole space instead of
    once per PE box, a nest as the regions of its slab table — at most
    ``stripes`` row stripes, each one task of a join on the thread pool
    of :mod:`repro.runtime.parallel`.  That count is 1 under
    ``vectorized``; ``striped=True`` is the ``parallel`` backend, where
    it is the run's worker count.
    """

    backend_label = "vectorized"
    slab = True

    def __init__(self, plan, machine, scalars, hpf_overhead, tracer=None,
                 workers=None, *, striped: bool = False) -> None:
        super().__init__(plan, machine, scalars, hpf_overhead,
                         tracer=tracer, workers=workers)
        self.stripes = 1
        if striped:
            self.backend_label = "parallel"
            self.stripes = worker_count(plan, workers)
            self._log = _WorkerLog(self.stripes)
        #: a register dict per stripe, the calling thread's ``_bound``
        #: first (two stripes of equal shape must never share an
        #: ``out=`` target)
        self._registers = [self._bound] + [
            {} for _ in range(1, self.stripes)]

    def close(self) -> "list[dict] | None":
        return None if self._log is None else self._log.publish()

    def _nest_tape(self, op: LoopNestOp):
        """Whole-space execution requires that no statement read, at a
        nonzero offset, an array assigned earlier in the same nest — the
        per-PE executor would see stale overlap data there while the
        global array sees fresh values.  The compiler's fusion legality
        and the coverage verifier guarantee this for pipeline output;
        hand-built plans that violate it are rejected."""
        tape = super()._nest_tape(op)
        if tape.stale_read is not None:
            raise ExecutionError(
                f"{self.backend_label} backend: nest reads "
                f"{tape.stale_read} after assigning "
                f"{tape.stale_read.name} in the same nest; run with "
                f"backend='perpe'")
        return tape

    def _reduce(self, expr) -> float:
        self._file(["reduction"])
        return super()._reduce(expr)

    def _blocks(self, sched, tape, arrays, scalars) -> list:
        """The operand evaluated once over the whole array, and each
        PE's owned block sliced from its value."""
        whole = ((0, tuple((1, n) for n in arrays[0].layout.shape)),)
        (_, slices), = self._bindings(sched, tape, whole)
        value = tape.run(self._views(arrays, 0, slices), scalars,
                         self._bound)[tape.result]
        return [value[tuple(slice(lo - 1, hi) for lo, hi in box)]
                for _, box in sched.regions]

    def _eval_nest(self, op: LoopNestOp, space, sched) -> None:
        """The nest's regions joined, one task each: its row of the
        region table, else its stripe on the tape in its own
        registers."""
        tape = self._nest_tape(op)  # legality, whichever evaluator runs it
        if any(lo > hi for lo, hi in space):
            return
        cut = self._cut(tape, space)
        self._file([cut])
        regions = ((0, space),) if cut.__class__ is str else tuple(
            (0, (rows, *space[1:])) for rows in cut)
        bindings, arrays, scalars, call = self._rows(tape, sched, regions)
        if call is not None:
            tasks = [partial(tape.kernel.run_table, call[0], arrays,
                             call[1], i, i + 1) for i in range(len(bindings))]
        else:
            tasks = [partial(tape.run, self._views(arrays, 0, slices),
                             scalars, registers)
                     for (_, slices), registers in zip(bindings,
                                                       self._registers)]
        outcomes, blocked = join(tasks)
        if self._log is not None:
            # a profiled run files the nest on the measured tracks
            profiled = self.machine.network.observer is not None
            self._log.file(outcomes, blocked,
                           self.tracer.current if profiled else None)
        for *_, error in outcomes:      # the first, in stripe order
            if error is not None:
                raise error

    def _cut(self, tape, space) -> "tuple | str":
        """The row stripes ``parallel`` cuts a nest into, or why this run
        evaluates it whole (a segment's nests must be)."""
        return super()._cut(tape, space) if self._log is None else \
            cut(self.stripes, tape, space)

    def _file(self, cuts: list) -> None:
        """Nests evaluated, one :meth:`_cut` each — the stripes or why it
        ran whole: ``parallel`` counts them."""
        if self._log is not None:
            for how in cuts:
                self._log.nests[("whole", how) if how.__class__ is str
                                else ("striped", None)] += 1
