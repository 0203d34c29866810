"""Vectorized execution backend: whole-array NumPy slab operations.

The per-PE executor (:mod:`repro.runtime.executor`) keeps one padded
block per PE and moves data between them in a Python loop over PEs.
That is the faithful SPMD picture, but the Python-level looping
dominates wall-clock time on large grids.  This backend executes the
*same plans* through the *same skeleton* over a different placement: a
single global padded array per distributed array (:class:`VArray`), so
each op's data motion — halo exchange, offset-reference read, loop nest
— is one batch of NumPy slab operations regardless of the PE count.

Why this is exact: in every plan the compiler emits (and the coverage
verifier admits), each offset reference is dominated by the
``OVERLAP_SHIFT`` calls that fill the overlap cells it reads, with no
intervening redefinition of the base array.  At the moment of the read,
a PE's interior-block-boundary overlap cells therefore equal the
neighboring PE's *current* interior values — which is exactly what a
read through a single global array sees.  Only the overlap cells beyond
the global edges carry distinct data (wrapped or boundary-filled), so
the global representation keeps halo planes only there.

Cost accounting is not this module's business: what an op costs, and in
which rank order it is charged, lives once per op in ``overlap.py``,
``cshift.py``, ``executor.py`` and ``darray.py`` and never reads array
data — so cost reports, message logs and peak memory are identical
between placements by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

from repro.errors import ExecutionError, MachineError
from repro.machine.machine import Machine
from repro.plan import LoopNestOp
from repro.runtime.darray import Halo, allocate_distributed
from repro.runtime.distribution import Layout
from repro.runtime.executor import _Exec


@dataclass
class VArray:
    """A distributed array held as one global padded ndarray.

    Global index ``g`` (1-based) along dim ``d`` maps to
    ``halo[d][0] + (g - 1)``.  Halo planes exist only past the global
    edges; interior block boundaries need none (see module docstring).
    Memory is charged per PE with exactly the padded-block sizes the
    per-PE representation would allocate.
    """

    name: str
    layout: Layout
    dtype: np.dtype
    halo: Halo
    data: np.ndarray
    #: what the executor keys this buffer's schedules on
    key: object = field(default=None, repr=False, compare=False)

    @staticmethod
    def create(machine: Machine, name: str, layout: Layout,
               dtype: np.dtype, halo: Halo | None = None) -> "VArray":
        dtype, halo, _ = allocate_distributed(machine, name, layout,
                                              dtype, halo)
        shape = tuple(n + lo + hi
                      for n, (lo, hi) in zip(layout.shape, halo))
        return VArray(name, layout, dtype, halo,
                      np.zeros(shape, dtype=dtype))

    def free(self, machine: Machine) -> None:
        machine.memory.free_all(self.name)
        self.data = np.zeros(0, dtype=self.dtype)

    # -- views ---------------------------------------------------------------
    def padded(self, pe: int) -> np.ndarray:
        """The global padded array; every "PE" sees the same storage."""
        return self.data

    def origin(self, pe: int) -> tuple[int, ...]:
        """Global index of the first interior cell: 1 in every dim."""
        return (1,) * len(self.halo)

    def interior_slices(self) -> tuple[slice, ...]:
        return tuple(slice(lo, lo + n)
                     for (lo, _), n in zip(self.halo, self.layout.shape))

    @property
    def interior(self) -> np.ndarray:
        return self.data[self.interior_slices()]

    def scatter(self, global_array: np.ndarray) -> None:
        if tuple(global_array.shape) != self.layout.shape:
            raise MachineError(
                f"{self.name}: scatter shape {global_array.shape} != "
                f"declared {self.layout.shape}")
        self.interior[...] = global_array

    def gather(self) -> np.ndarray:
        """The global array.  Without halo planes this hands over the
        buffer itself instead of a copy: gathering is the executor's last
        read before :meth:`free`, which only drops the reference."""
        if not any(lo or hi for lo, hi in self.halo):
            return self.data
        return self.interior.copy()

    def owned_box(self, pe: int) -> tuple[tuple[int, int], ...]:
        return self.layout.owned_box(pe)

    @property
    def rank(self) -> int:
        return len(self.layout.shape)

    # -- data motion ---------------------------------------------------------
    def fill_overlap(self, shift) -> None:
        """The data half of an ``OverlapShift`` on the global slab: fill
        the ``sign``-side global-edge halo planes of dim ``d`` — block
        boundaries inside the array need nothing."""
        d, s, ext = shift.d, shift.s, shift.ext
        halo_lo = self.halo[d][0]
        n = self.layout.shape[d]
        dst = [slice(lo - ext_lo, lo + nk + ext_hi)
               for (lo, _), nk, (ext_lo, ext_hi) in zip(
                   self.halo, self.layout.shape, ext)]
        src = list(dst)
        if shift.sign > 0:
            dst[d] = slice(halo_lo + n, halo_lo + n + s)
            src[d] = slice(halo_lo, halo_lo + s)
        else:
            dst[d] = slice(halo_lo - s, halo_lo)
            src[d] = slice(halo_lo + n - s, halo_lo + n)
        if shift.boundary is not None:
            # every global-edge halo cell is past the domain end
            self.data[tuple(dst)] = shift.boundary
        else:
            # circular wrap from the opposite edge; the orthogonal
            # extension reads through already-filled halo planes — the
            # corner pickup
            self.data[tuple(dst)] = self.data[tuple(src)]

    def assign_interior(self, other: "VArray", shift: int, d: int) -> None:
        """``self(i) = other(i + shift)`` along dim ``d`` over the whole
        interior (a nonzero shift reads into ``other``'s halo planes)."""
        src = list(other.interior_slices())
        src[d] = slice(src[d].start + shift, src[d].stop + shift)
        self.interior[...] = other.data[tuple(src)]


class _WorkerLog:
    """What each worker of one ``parallel`` run did; worker 0 is the
    calling thread.  Plain numbers while the run lasts, published once
    when it ends."""

    def __init__(self, workers: int) -> None:
        self.start = perf_counter()
        self.blocked = 0.0              # worker 0, waiting at joins
        self.busy = [0.0] * workers     # seconds running nests
        #: per worker: (op index, name, depth, start, end); profiled runs
        self.events: list[list] = [[] for _ in range(workers)]
        self.nests: Counter = Counter()     # (mode, reason) -> nests

    def file(self, outcomes: list, blocked: float, op) -> None:
        """One nest's ``(start, end, ...)`` per worker, as
        :func:`repro.runtime.parallel.join` returns them, under the
        profiler's open sample ``op``."""
        self.blocked += blocked
        for w, (start, end, *_) in enumerate(outcomes):
            self.busy[w] += end - start
            if op is not None:
                self.events[w].append(
                    (op.index, op.name, op.depth, start, end))

    def publish(self, profiler) -> None:
        """The run's series on the installed registry and, when a
        profiler is attached, one measured track per worker."""
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
        if profiler is not None:
            origin = profiler.wall_start or self.start
            profiler.worker_tracks = [
                {"worker": w, "wall_s": self.busy[w],
                 "events": [{"op": op, "name": name, "depth": depth,
                             "t0": t0 - origin, "t1": t1 - origin}
                            for op, name, depth, t0, t1 in events]}
                for w, events in enumerate(self.events)]


class VectorizedExec(_Exec):
    """The per-PE skeleton over the global-slab placement.

    Everything is inherited — op dispatch, shifts, reductions (which
    keep the per-PE partial fold order bit-for-bit), every charge walk —
    except how a nest is evaluated: once over the whole iteration space
    instead of once per PE box, in ``stripes`` row stripes.  That count
    is 1 under ``vectorized``; ``striped=True`` is the ``parallel``
    backend, where it is the run's worker count and the stripes of a
    nest run concurrently on the thread pool of
    :mod:`repro.runtime.parallel` (imported by the first such run).
    """

    backend_label = "vectorized"
    array_type = VArray

    def __init__(self, plan, machine, scalars, hpf_overhead, tracer=None,
                 workers=None, *, striped: bool = False) -> None:
        super().__init__(plan, machine, scalars, hpf_overhead,
                         tracer=tracer, workers=workers)
        self.stripes = 1
        #: ``parallel`` only: what the workers did, and a register dict
        #: per stripe beyond the calling thread's ``_bound`` (two
        #: stripes of equal shape must never share an ``out=`` target)
        self._log: _WorkerLog | None = None
        if striped:
            from repro.runtime.parallel import worker_count
            self.backend_label = "parallel"
            self.stripes = worker_count(plan, workers)
            self._log = _WorkerLog(self.stripes)
            self._registers = [self._bound] + [
                {} for _ in range(1, self.stripes)]

    def close(self) -> None:
        if self._log is not None:
            self._log.publish(self.profiler)

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
        if self._log is not None:
            self._log.nests["whole", "reduction"] += 1
        return super()._reduce(expr)

    def _eval_nest(self, op: LoopNestOp, space, sched) -> None:
        tape = self._nest_tape(op)  # legality, whichever evaluator runs it
        if any(lo > hi for lo, hi in space):
            return
        # once, here: a stripe only binds its views and runs them
        scalars = [self.scalar(ref) for ref in tape.scalars]
        (_, slices), = self._bindings(sched, tape, [(0, list(space))])
        whole = partial(tape.run, self._views(
            self._ref_arrays(tape), 0, slices), scalars, self._bound)
        log = self._log
        if log is None:
            return whole()
        from repro.runtime.parallel import cut, join
        stripes = cut(self.stripes, tape, space)
        if isinstance(stripes, str):    # the reason it runs whole
            log.nests["whole", stripes] += 1
            if self.profiler is None:
                return whole()
            # a profiled run files it on worker 0's measured track
            tasks = [whole]
        else:
            log.nests["striped", None] += 1
            tasks = [partial(self._run_stripe, tape, scalars, i,
                             [rows, *space[1:]])
                     for i, rows in enumerate(stripes)]
        outcomes, blocked = join(tasks)
        log.file(outcomes, blocked, self.profiler.current
                 if self.profiler is not None else None)
        for *_, error in outcomes:      # the first, in stripe order
            if error is not None:
                raise error

    def _run_stripe(self, tape, scalars: list, i: int, box: list):
        return tape.run(self._views(self._ref_arrays(tape), 0,
                                    self._slices(tape, 0, box)),
                        scalars, self._registers[i])
