"""Process-parallel execution backend over shared-memory blocks.

One OS process per worker, ``W = min(workers, npes)`` workers (default
``os.cpu_count()``), PEs mapped round-robin: worker ``w`` *owns* PEs
``{pe : pe % W == w}``.  Every (array, PE) padded local block lives in a
:mod:`multiprocessing.shared_memory` segment, so an ``OVERLAP_SHIFT``
halo exchange is a cross-block slab copy performed concurrently by the
receiving PE's owner, synchronized by per-plan-op barriers.

**Ownership execution.**  Each worker executes, charges, and logs only
the PEs it owns — true owner-computes SPMD, no replicated walk.  The
executor's :meth:`~repro.runtime.executor._Exec.compute_ranks` hook
restricts data movement and loop charging to owned PEs, and
:meth:`Machine.set_ownership` gates the machine/network charge paths so
the shared ``overlap_shift``/``full_cshift`` code runs unchanged.  The
values a replicated walk would recompute everywhere are instead
*communicated* through the :class:`CollectiveChannel`, a tiny
allreduce/broadcast primitive layered over the barrier on one shared
float64 scratch segment: reduction partials combine via
:meth:`CollectiveChannel.allreduce` (folded in PE-rank order, so the
result is bitwise identical to the serial fold), and every scalar
assignment, ``IF`` condition, and ``DO WHILE`` guard passes through
:meth:`CollectiveChannel.bcast_check`, which verifies all workers
computed the bit-identical value — control flow can never silently
diverge, and a corrupted payload aborts the run naming the divergent
worker.

**Equivalence contract.**  The backend must produce bitwise-identical
arrays/scalars and an identical *modelled* :class:`CostReport`, message
log, and comm profile to ``perpe``/``vectorized``.  The merged report
takes each PE's per-PE rows (times and the float memory/flop
aggregates) from that PE's owner and sums the order-free integer
counters across workers; worker message logs carry global sequence
stamps (the network's sequence counter ticks even for skipped records)
and splice back into the exact serial order, verified gap- and
duplicate-free.  A worker charging a PE it does not own is detected at
merge time and reported as desynchronization.

**Synchronization.**  Writes are owner-local by construction (a worker
only ever writes blocks of PEs it owns); the races are reads of a
neighbor's block.  Barriers therefore bracket exactly the cross-block
phases: around each ``OVERLAP_SHIFT``, at the three phase boundaries of
a buffered full shift (after copy-in, after the exchange, before the
scratch buffer dies), inside every collective (reduction combines and
scalar broadcasts), after mid-plan allocations (all blocks must exist
before any worker touches them), and before frees (no
attach-after-unlink).  Communicated control flow guarantees every
worker reaches the same barrier points in the same order; a timeout
(:data:`BARRIER_TIMEOUT_S`, overridable via
``REPRO_PARALLEL_BARRIER_TIMEOUT``) plus ``Barrier.abort()`` on worker
error turns a hang into a diagnosable failure instead of a deadlock,
and the coordinator polls worker liveness so a dead worker aborts its
peers within a fraction of a second, naming the dead worker and the
PEs it owned.

**Shared-memory lifecycle.**  Segment names are
``{run_id}-{array}-g{gen}-p{pe}`` — where ``run_id`` is
``repro-{pid}-{hex}``, embedding the coordinator's pid so a later
process can tell an orphaned run from a live one — and ``gen`` is a
per-array-name
generation counter every process advances identically (entry arrays in
``plan.entry_arrays`` order, then plan allocations in execution order),
so free-then-reallocate never aliases a stale segment.  The parent
creates entry-array blocks; workers create blocks for the PEs they own
on mid-plan allocations and attach lazily to everything else.  Unlink
responsibility is disjoint (each worker unlinks its owned PEs' blocks,
the parent unlinks arrays that survive to the end), double-unlink is
tolerated, and every attach is unregistered from the
``resource_tracker`` so lifetimes stay fully manual.

**Measured time.**  Besides the modelled report, each worker measures
real wall-clock per op (including barrier waits).  The coordinator
installs worker 0's samples into the parent profiler — so
``repro profile --backend parallel`` emits a modelled-vs-*measured*
validation table — and attaches one wall-clock track per worker
(``CommProfile.worker_tracks``) that the Chrome-trace exporter renders
as a real concurrency timeline.
"""

from __future__ import annotations

import glob as _glob
import multiprocessing as mp
import os
import pickle
import queue
import time
import traceback
import uuid
from math import prod
from threading import BrokenBarrierError
from typing import Mapping

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from repro.errors import ExecutionError
from repro.machine.cost_model import CostReport
from repro.machine.machine import Machine
from repro.plan import FullShiftOp, OverlapShiftOp, Plan
from repro.runtime.backends import check_workers, register_backend
from repro.runtime.cshift import full_cshift, full_eoshift
from repro.runtime.darray import DArray, Halo, allocate_distributed
from repro.runtime.distribution import Layout, cached_layout
from repro.runtime.executor import _Exec
from repro.runtime.nest_tape import compiler_runs
from repro.runtime.overlap import overlap_shift

#: Safety net for hung barriers (a worker died without aborting): waits
#: raise BrokenBarrierError after this instead of deadlocking the run.
#: Overridable per run via the ``REPRO_PARALLEL_BARRIER_TIMEOUT``
#: environment variable (seconds; the failure-injection tests shrink it
#: so a forced stall is detected in milliseconds, not minutes).
BARRIER_TIMEOUT_S = 120.0

#: How long the coordinator waits for one worker reply before declaring
#: the pool wedged (longer than the barrier timeout so worker-side
#: timeouts surface as worker errors, not coordinator timeouts).
REPLY_TIMEOUT_S = BARRIER_TIMEOUT_S + 60.0

#: Liveness-poll period of the coordinator's reply loop: how often it
#: checks worker processes are still alive while waiting for replies.
POLL_INTERVAL_S = 0.25

#: After the first worker error reply, how long the coordinator keeps
#: draining further replies before terminating the pool.
ERROR_GRACE_S = 5.0

#: Fault-injection hook for the failure tests:
#: ``REPRO_PARALLEL_INJECT="<mode>:<wid>"`` with mode one of ``die``
#: (hard ``os._exit`` at the first barrier), ``stall`` (sleep through
#: the first barrier so peers hit the barrier timeout), or ``corrupt``
#: (scribble on the worker's first collective payload so peers detect
#: the divergence).  Parsed in the worker; never set in production.
INJECT_ENV = "REPRO_PARALLEL_INJECT"
BARRIER_TIMEOUT_ENV = "REPRO_PARALLEL_BARRIER_TIMEOUT"


def _barrier_timeout() -> float:
    try:
        return float(os.environ[BARRIER_TIMEOUT_ENV])
    except (KeyError, ValueError):
        return BARRIER_TIMEOUT_S


def _owned_pes(wid: int, nworkers: int, npes: int) -> list[int]:
    """The PEs worker ``wid`` owns under the round-robin map."""
    return list(range(wid, npes, nworkers))


try:  # POSIX only; the fallback path covers other platforms
    import _posixshmem
except ImportError:  # pragma: no cover
    _posixshmem = None


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Remove ``seg`` from this process's resource tracker.

    ``SharedMemory`` registers segments on *attach* as well as create
    (fixed only in newer CPythons via ``track=False``), so without this
    every attaching process would try to unlink the segment at exit.
    Lifetimes here are fully manual: creators/owners unlink explicitly
    and double-unlinks are tolerated.
    """
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass


#: Directory POSIX shared memory surfaces in on Linux; tests point this
#: elsewhere to exercise the reclamation scan without real segments.
SHM_DIR = "/dev/shm"

#: Minimum seconds between throttled reclamation scans (see
#: :func:`reclaim_stale_segments`).
RECLAIM_INTERVAL_S = 30.0

_last_reclaim = 0.0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover
        return True
    return True


def reclaim_stale_segments(shm_dir: str | None = None, *,
                           throttle: bool = False) -> list[str]:
    """Unlink shm segments left behind by dead coordinators.

    A coordinator killed with SIGKILL never runs :meth:`ParallelExec.
    close`, so its ``repro-{pid}-...`` segments leak in ``/dev/shm``
    until reboot.  Every new :class:`ParallelExec` (and the service's
    worker pool) calls this sweep: any segment whose embedded creator
    pid no longer names a live process is unlinked.  Segments from live
    pids — including our own — and names that don't parse (other
    software, or pre-pid-format runs) are left strictly alone, so a
    concurrently running coordinator is never raced.

    With ``throttle=True`` the scan is skipped unless
    :data:`RECLAIM_INTERVAL_S` seconds have passed since the last one,
    bounding the directory-scan cost on hot paths.  Returns the
    basenames of the segments reclaimed.
    """
    global _last_reclaim
    if throttle:
        now = time.monotonic()
        if now - _last_reclaim < RECLAIM_INTERVAL_S:
            return []
        _last_reclaim = now
    directory = shm_dir if shm_dir is not None else SHM_DIR
    reclaimed: list[str] = []
    own_pid = os.getpid()
    dead: dict[int, bool] = {}
    for path in _glob.glob(os.path.join(directory, "repro-*-*")):
        name = os.path.basename(path)
        try:
            pid = int(name.split("-")[1])
        except (IndexError, ValueError):
            continue  # pre-pid name format or foreign file: hands off
        if pid == own_pid:
            continue
        if pid not in dead:
            dead[pid] = not _pid_alive(pid)
        if not dead[pid]:
            continue
        try:
            if directory == SHM_DIR:
                _unlink_segment(name)
            else:  # test harness: plain files standing in for segments
                os.unlink(path)
            reclaimed.append(name)
        except (FileNotFoundError, OSError):
            pass  # raced with another reclaimer
    return reclaimed


def _unlink_segment(name: str) -> None:
    """Destroy one named segment without touching the resource tracker.

    ``SharedMemory.unlink`` unconditionally unregisters the name, which
    errors in the (process-shared) tracker because :func:`_untrack`
    already removed it — so go straight to ``shm_unlink``.  Raises
    ``FileNotFoundError`` if the segment is already gone.
    """
    if _posixshmem is not None:
        _posixshmem.shm_unlink("/" + name)
        return
    seg = shared_memory.SharedMemory(name=name)  # pragma: no cover
    try:
        resource_tracker.register(seg._name, "shared_memory")
    except Exception:
        pass
    seg.unlink()
    seg.close()


class ShmDArray(DArray):
    """A :class:`DArray` whose per-PE padded blocks live in shared memory.

    ``owned_pes`` is the set of PEs whose segments this *instance* is
    responsible for destroying (workers: their round-robin share; the
    parent: every PE).  Blocks are attached lazily on first
    :meth:`padded` access, so a worker maps only the blocks it actually
    reads or writes.
    """

    def __init__(self, name: str, layout: Layout, dtype: np.dtype,
                 halo: Halo, *, run_id: str, gen: int,
                 shapes: list[tuple[int, ...]],
                 owned_pes: frozenset[int]) -> None:
        DArray.__init__(self, name, layout, np.dtype(dtype), halo, [])
        self.run_id = run_id
        self.gen = gen
        self.owned_pes = frozenset(owned_pes)
        self._shapes = shapes
        self._segs: dict[int, shared_memory.SharedMemory] = {}
        self._views: dict[int, np.ndarray] = {}

    # -- construction ------------------------------------------------------
    @staticmethod
    def build(machine: Machine, name: str, layout: Layout,
              dtype: np.dtype, halo: Halo | None, *, run_id: str,
              gen: int, create_pes, owned_pes,
              charge: bool) -> "ShmDArray":
        """:func:`allocate_distributed`, then create segments for
        ``create_pes``.

        Workers pass ``charge=True`` (they replicate the reference
        allocation charges); the parent passes ``charge=False`` (its
        memory accounting comes from the merged worker peaks).
        """
        dtype, halo, shapes = allocate_distributed(
            machine, name, layout, dtype, halo, charge=charge)
        da = ShmDArray(name, layout, dtype, halo, run_id=run_id, gen=gen,
                       shapes=shapes, owned_pes=frozenset(owned_pes))
        for pe in create_pes:
            da._attach(pe, create=True)
        return da

    def seg_name(self, pe: int) -> str:
        return f"{self.run_id}-{self.name}-g{self.gen}-p{pe}"

    def _attach(self, pe: int, create: bool = False) -> np.ndarray:
        shape = self._shapes[pe]
        if create:
            nbytes = prod(shape) * self.dtype.itemsize
            seg = shared_memory.SharedMemory(name=self.seg_name(pe),
                                             create=True, size=nbytes)
        else:
            seg = shared_memory.SharedMemory(name=self.seg_name(pe))
        _untrack(seg)
        view = np.ndarray(shape, dtype=self.dtype, buffer=seg.buf)
        if create:
            view.fill(0)
        self._segs[pe] = seg
        self._views[pe] = view
        return view

    # -- views -------------------------------------------------------------
    def padded(self, pe: int) -> np.ndarray:
        view = self._views.get(pe)
        if view is None:
            view = self._attach(pe)
        return view

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mappings (segments stay alive)."""
        self._views.clear()
        segs, self._segs = self._segs, {}
        for seg in segs.values():
            try:
                seg.close()
            except BufferError:
                pass  # a live external view pins the mapping; leave it

    def unlink_owned(self) -> None:
        """Destroy the segments this instance is responsible for.

        ``FileNotFoundError`` is swallowed: on Linux unlink-while-mapped
        is safe and another responsible party may legitimately have
        unlinked first (the parent's error-path sweep).
        """
        for pe in self.owned_pes:
            try:
                _unlink_segment(self.seg_name(pe))
            except FileNotFoundError:
                pass

    def free(self, machine: Machine) -> None:
        machine.memory.free_all(self.name)
        self.unlink_owned()
        self.close()


# ---------------------------------------------------------------------------
# collective channel
# ---------------------------------------------------------------------------

class CollectiveChannel:
    """Allreduce/broadcast primitive layered over the worker barrier.

    One shared segment (``{run_id}-coll``) holds three arrays:

    * ``vals[npes]`` — float64 slots where each worker publishes the
      per-PE reduction partials of the PEs it owns;
    * ``out[nworkers]`` — each worker's computed result of the current
      collective, compared *bitwise* (as int64 bit patterns, so NaNs
      compare honestly) to catch divergence and corruption;
    * ``stamps[nworkers]`` — each worker's current collective id, so a
      worker arriving at the wrong collective is named instead of
      silently exchanging garbage.

    Every phase transition is a barrier wait: writes happen before the
    barrier that publishes them and reads happen before the barrier
    that allows the next collective's writes, so no worker can race a
    slow peer's verification.  ``allreduce`` needs three barriers
    (publish partials / publish folded result / release ``out``);
    ``bcast_check`` needs two (publish value / release ``out``).
    """

    def __init__(self, run_id: str, npes: int, nworkers: int, *,
                 create: bool) -> None:
        self.run_id = run_id
        self.npes = npes
        self.nworkers = nworkers
        nbytes = 8 * (npes + 2 * nworkers)
        if create:
            seg = shared_memory.SharedMemory(name=self.seg_name(run_id),
                                             create=True, size=nbytes)
        else:
            seg = shared_memory.SharedMemory(name=self.seg_name(run_id))
        _untrack(seg)
        self._seg = seg
        self.vals = np.ndarray((npes,), np.float64, seg.buf)
        self.out = np.ndarray((nworkers,), np.float64, seg.buf,
                              8 * npes)
        self.out_bits = np.ndarray((nworkers,), np.int64, seg.buf,
                                   8 * npes)
        self.stamps = np.ndarray((nworkers,), np.int64, seg.buf,
                                 8 * (npes + nworkers))
        if create:
            self.vals.fill(0.0)
            self.out.fill(0.0)
            self.stamps.fill(-1)
        # worker-side state, set by bind(); the parent only creates,
        # unlinks, and never participates in collectives
        self.wid = -1
        self._barrier = None
        self._timeout = BARRIER_TIMEOUT_S
        self._cid = 0
        self._corrupt_next = False
        # plain-int observability counters: always on (cheap), shipped
        # to the coordinator in each shard and published as metrics
        # there — worker processes run with the Null registry
        self.wait_count = 0
        self.wait_seconds = 0.0
        self.allreduce_rounds = 0
        self.bcast_checks = 0

    @staticmethod
    def seg_name(run_id: str) -> str:
        return f"{run_id}-coll"

    def bind(self, wid: int, barrier, timeout: float) -> None:
        self.wid = wid
        self._barrier = barrier
        self._timeout = timeout

    def inject_corruption(self) -> None:
        """Arm a one-shot payload corruption (failure-injection tests)."""
        self._corrupt_next = True

    # -- protocol ----------------------------------------------------------
    def _wait(self, what: str) -> None:
        self.wait_count += 1
        t0 = time.perf_counter()
        try:
            self._barrier.wait(self._timeout)
            self.wait_seconds += time.perf_counter() - t0
        except BrokenBarrierError:
            raise ExecutionError(
                f"parallel worker {self.wid}: barrier broken during "
                f"{what} — a peer worker died, stalled past the "
                f"{self._timeout:g}s barrier timeout, or aborted"
            ) from None

    def _peer_pes(self, wid: int) -> list[int]:
        return _owned_pes(wid, self.nworkers, self.npes)

    def _check_stamps(self, cid: int, what: str) -> None:
        lagging = [w for w in range(self.nworkers)
                   if int(self.stamps[w]) != cid]
        if lagging:
            w = lagging[0]
            raise ExecutionError(
                f"parallel workers desynchronized at collective #{cid} "
                f"({what}): worker {w} (owns PEs {self._peer_pes(w)}) "
                f"is at collective #{int(self.stamps[w])}")

    def _check_agreement(self, what: str) -> None:
        mine = int(self.out_bits[self.wid])
        bad = [w for w in range(self.nworkers)
               if int(self.out_bits[w]) != mine]
        if bad:
            w = bad[0]
            raise ExecutionError(
                f"parallel workers diverged on {what}: worker {w} "
                f"(owns PEs {self._peer_pes(w)}) published "
                f"{float(self.out[w])!r} but worker {self.wid} "
                f"(owns PEs {self._peer_pes(self.wid)}) computed "
                f"{float(self.out[self.wid])!r} — corrupted collective "
                f"payload or desynchronized control flow")

    def allreduce(self, partials: dict[int, float], fold,
                  what: str) -> float:
        """Combine per-PE partials across workers, folding in PE-rank
        order so the result is bitwise identical to the serial fold."""
        self.allreduce_rounds += 1
        cid = self._cid
        self._cid += 1
        for pe, v in partials.items():
            self.vals[pe] = v
        self.stamps[self.wid] = cid
        self._wait(f"allreduce publish ({what})")
        self._check_stamps(cid, what)
        total = float(self.vals[0])
        for pe in range(1, self.npes):
            total = float(fold(total, float(self.vals[pe])))
        self.out[self.wid] = total
        if self._corrupt_next:
            self._corrupt_next = False
            self.out_bits[self.wid] = ~int(self.out_bits[self.wid])
            total = float(self.out[self.wid])
        self._wait(f"allreduce combine ({what})")
        self._check_agreement(what)
        self._wait(f"allreduce release ({what})")
        return total

    def bcast_check(self, value: float, what: str) -> float:
        """Verify all workers computed the bit-identical scalar.

        Scalar expressions are deterministic given agreed inputs, so
        every worker computes the value locally; this collective is the
        proof they actually agree — the parallel analogue of a
        broadcast, with the broadcast replaced by an equality check
        that catches corruption and divergence instead of masking it.
        """
        self.bcast_checks += 1
        cid = self._cid
        self._cid += 1
        self.out[self.wid] = value
        if self._corrupt_next:
            self._corrupt_next = False
            self.out_bits[self.wid] = ~int(self.out_bits[self.wid])
            value = float(self.out[self.wid])
        self.stamps[self.wid] = cid
        self._wait(f"scalar broadcast ({what})")
        self._check_stamps(cid, what)
        self._check_agreement(what)
        self._wait(f"scalar release ({what})")
        return value

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.vals = self.out = self.out_bits = self.stamps = None
        seg, self._seg = self._seg, None
        if seg is not None:
            try:
                seg.close()
            except BufferError:  # pragma: no cover
                pass

    def unlink(self) -> None:
        try:
            _unlink_segment(self.seg_name(self.run_id))
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

class _WorkerExec(_Exec):
    """The executor a worker process runs: ownership execution.

    Computes, charges, and logs only the PEs it owns; everything the
    old replicated walk recomputed everywhere (scalars, reduction
    results, loop conditions) goes through the collective channel.
    """

    def __init__(self, plan: Plan, machine: Machine,
                 scalars: Mapping[str, float] | None, hpf_overhead: bool,
                 *, wid: int, nworkers: int, run_id: str,
                 barrier, channel: CollectiveChannel,
                 inject: str | None = None) -> None:
        super().__init__(plan, machine, scalars, hpf_overhead)
        self.wid = wid
        self.nworkers = nworkers
        self.run_id = run_id
        self.barrier = barrier
        self.owned = frozenset(range(wid, machine.npes, nworkers))
        self._ranks = sorted(self.owned)
        self._move = self.owned.__contains__
        machine.set_ownership(self._move)
        self._timeout = _barrier_timeout()
        self.channel = channel
        channel.bind(wid, barrier, self._timeout)
        self._inject = inject  # "die" | "stall" | None, one-shot
        if inject == "corrupt":
            channel.inject_corruption()
            self._inject = None
        self._gen: dict[str, int] = {}
        self.bwaits = 0
        self.bwait_seconds = 0.0

    def _next_gen(self, name: str) -> int:
        gen = self._gen.get(name, 0) + 1
        self._gen[name] = gen
        return gen

    def _bwait(self) -> None:
        if self._inject is not None:
            mode, self._inject = self._inject, None
            if mode == "die":
                os._exit(3)
            elif mode == "stall":
                # sleep through the barrier so peers hit the timeout;
                # terminated by the coordinator long before this expires
                time.sleep(max(60.0, self._timeout * 10.0))
        self.bwaits += 1
        t0 = time.perf_counter()
        try:
            self.barrier.wait(self._timeout)
            self.bwait_seconds += time.perf_counter() - t0
        except BrokenBarrierError:
            raise ExecutionError(
                f"parallel worker {self.wid}: barrier broken — a peer "
                f"worker died, stalled past the {self._timeout:g}s "
                f"barrier timeout, or aborted") from None

    # -- ownership hooks ---------------------------------------------------
    def compute_ranks(self):
        return self._ranks

    def communicate(self, value: float, what: str) -> float:
        return self.channel.bcast_check(value, what)

    def _combine_partials(self, partials: dict[int, float], fold,
                          what: str) -> float:
        return self.channel.allreduce(partials, fold, what)

    # -- array lifecycle ---------------------------------------------------
    def setup_entry_arrays(self) -> None:
        """Attach the parent-created entry arrays, replicating the
        reference executor's allocation charges in ``entry_arrays``
        order (the order ``execute`` materializes them)."""
        for name in self.plan.entry_arrays:
            decl = self.plan.arrays[name]
            layout = cached_layout(decl.shape, decl.distribution,
                                   self.machine.topology)
            da = ShmDArray.build(
                self.machine, name, layout, decl.dtype, decl.halo,
                run_id=self.run_id, gen=self._next_gen(name),
                create_pes=(), owned_pes=self.owned, charge=True)
            self.darrays[name] = da

    def materialize(self, name: str,
                    initial: np.ndarray | None = None) -> None:
        if initial is not None:
            raise ExecutionError(
                "parallel worker cannot seed arrays mid-plan")
        decl = self.plan.arrays[name]
        layout = cached_layout(decl.shape, decl.distribution,
                               self.machine.topology)
        da = ShmDArray.build(
            self.machine, name, layout, decl.dtype, decl.halo,
            run_id=self.run_id, gen=self._next_gen(name),
            create_pes=self.owned, owned_pes=self.owned, charge=True)
        self._bwait()  # every PE's block exists before anyone touches it
        self.darrays[name] = da

    def release(self, name: str) -> None:
        # everyone must be past their last read before segments die
        self._bwait()
        super().release(name)  # ShmDArray.free unlinks this worker's PEs

    def _scratch_factory(self, machine: Machine, name: str,
                         layout: Layout, dtype: np.dtype,
                         halo: Halo) -> DArray:
        da = ShmDArray.build(
            machine, name, layout, dtype, halo,
            run_id=self.run_id, gen=self._next_gen(name),
            create_pes=self.owned, owned_pes=self.owned, charge=True)
        self._bwait()
        return da

    # -- cross-block ops ---------------------------------------------------
    def do_overlap_shift(self, op: OverlapShiftOp) -> None:
        self._bwait()  # senders' interiors fully written
        overlap_shift(self.machine, self.darray(op.array),
                      op.shift, op.dim, rsd=op.rsd,
                      base_offsets=op.base_offsets,
                      boundary=op.boundary, move=self._move)
        self._bwait()  # slab reads done before owners overwrite sources

    def do_full_shift(self, op: FullShiftOp) -> None:
        dst, src = self.darray(op.dst), self.darray(op.src)
        if op.boundary is None:
            full_cshift(self.machine, dst, src, op.shift, op.dim,
                        scratch_factory=self._scratch_factory,
                        move=self._move, sync=self._bwait)
        else:
            full_eoshift(self.machine, dst, src, op.shift, op.dim,
                         op.boundary,
                         scratch_factory=self._scratch_factory,
                         move=self._move, sync=self._bwait)

    # reductions need no extra barriers: each worker reads only its own
    # owned blocks for the partials, and the collective channel's
    # allreduce synchronizes the combine — _reduce and _exec_nest_box
    # run the base owner-computes code paths unchanged

    # -- shard reporting ---------------------------------------------------
    def shard(self) -> dict:
        """Cumulative replica state shipped to the coordinator after
        every run command."""
        prof = None
        if self.profiler is not None:
            prof = {"samples": self.profiler.samples,
                    "wall_total": self.profiler.wall_total}
        return {
            "report": self.machine.report,
            "log": list(self.machine.network.log),
            "peaks": [self.machine.memory.peak(pe)
                      for pe in range(self.machine.npes)],
            "scalars": dict(self.scalars),
            "live": sorted((n, da.name, da.gen)
                           for n, da in self.darrays.items()),
            "prof": prof,
            "metrics": {
                "barrier_waits":
                    self.bwaits + self.channel.wait_count,
                "barrier_wait_seconds":
                    self.bwait_seconds + self.channel.wait_seconds,
                "allreduce_rounds": self.channel.allreduce_rounds,
                "bcast_checks": self.channel.bcast_checks,
                "compiler_runs": compiler_runs(),
            },
        }

    def close_attachments(self) -> None:
        for da in self.darrays.values():
            da.close()


def _parse_inject(wid: int) -> str | None:
    """This worker's fault-injection mode from :data:`INJECT_ENV`."""
    spec = os.environ.get(INJECT_ENV, "")
    if not spec:
        return None
    mode, _, target = spec.partition(":")
    try:
        if int(target) != wid:
            return None
    except ValueError:
        return None
    return mode if mode in ("die", "stall", "corrupt") else None


def _worker_main(wid: int, nworkers: int, plan: Plan,
                 machine_cfg: dict, scalars, hpf_overhead: bool,
                 run_id: str, profile: bool, barrier, cmd_q,
                 result_q) -> None:
    ex = None
    channel = None
    try:
        machine = Machine(**machine_cfg)
        channel = CollectiveChannel(run_id, machine.npes, nworkers,
                                    create=False)
        ex = _WorkerExec(plan, machine, scalars, hpf_overhead,
                         wid=wid, nworkers=nworkers, run_id=run_id,
                         barrier=barrier, channel=channel,
                         inject=_parse_inject(wid))
        if profile:
            from repro.obs.profile import ProfileCollector
            ex.profiler = ProfileCollector(machine)
        ex.setup_entry_arrays()
        while True:
            cmd = cmd_q.get()
            if cmd[0] == "stop":
                break
            ex.run_ops(plan.ops)
            result_q.put(("done", wid, pickle.dumps(ex.shard())))
    except BaseException as exc:  # noqa: BLE001 — must reach the parent
        try:
            barrier.abort()
        except Exception:
            pass
        payload = None
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)
        except Exception:
            payload = None
        try:
            result_q.put(("error", wid, pickle.dumps(
                {"exc": payload, "tb": traceback.format_exc()})))
        except Exception:
            pass
    finally:
        if ex is not None:
            ex.close_attachments()
        if channel is not None:
            channel.close()


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------

class ParallelExec(_Exec):
    """Coordinator executor registered as the ``parallel`` backend.

    Runs in the parent process: materializes entry arrays in shared
    memory, drives the worker pool (started lazily at the first
    ``run_ops`` so profiler assignment is known), and after every
    iteration splices the workers' ownership-partial shards — per-PE
    report rows from each PE's owner, seq-ordered message logs, per-op
    profile samples — into the parent machine, so ``execute``'s
    gather/result code works unchanged.  Worker liveness is polled
    while waiting for replies: a dead or stalled worker aborts the
    whole pool within :data:`POLL_INTERVAL_S` with an error naming the
    worker and the PEs it owned.
    """

    backend_label = "parallel"

    def __init__(self, plan: Plan, machine: Machine,
                 scalars: Mapping[str, float] | None,
                 hpf_overhead: bool, tracer=None,
                 workers: int | None = None) -> None:
        # before any machine or shared-memory state is touched
        check_workers(workers)
        super().__init__(plan, machine, scalars, hpf_overhead,
                         tracer=tracer, workers=workers)
        requested = workers or (os.cpu_count() or 1)
        self.nworkers = max(1, min(requested, machine.npes))
        self.owner_of = [pe % self.nworkers
                         for pe in range(machine.npes)]
        self._init_scalars = dict(scalars or {})
        self._hpf_overhead = bool(hpf_overhead)
        # Pid-stamped so reclaim_stale_segments can tell an orphaned
        # run's segments from a live coordinator's.
        self.run_id = f"repro-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        reclaim_stale_segments(throttle=True)
        self._gen: dict[str, int] = {}
        self._procs: list = []
        self._cmd_qs: list = []
        self._result_q = None
        self._liveness_polls = 0
        # created up front so workers can attach immediately on spawn;
        # the parent never participates in collectives, only unlinks
        self._channel = CollectiveChannel(self.run_id, machine.npes,
                                          self.nworkers, create=True)

    def _next_gen(self, name: str) -> int:
        gen = self._gen.get(name, 0) + 1
        self._gen[name] = gen
        return gen

    # -- array lifecycle (parent: real blocks, no charges) -----------------
    def materialize(self, name: str,
                    initial: np.ndarray | None = None) -> None:
        decl = self.plan.arrays[name]
        layout = cached_layout(decl.shape, decl.distribution,
                               self.machine.topology)
        pes = list(layout.grid.ranks())
        da = ShmDArray.build(
            self.machine, name, layout, decl.dtype, decl.halo,
            run_id=self.run_id, gen=self._next_gen(name),
            create_pes=pes, owned_pes=pes, charge=False)
        if initial is not None:
            da.scatter(np.asarray(initial))
        self.darrays[name] = da

    # release() is inherited: ShmDArray.free unlinks every PE's segment
    # (free_all on the parent's never-charged heaps is a no-op).

    # -- pool --------------------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._procs:
            return
        method = ("fork" if "fork" in mp.get_all_start_methods()
                  else "spawn")
        ctx = mp.get_context(method)
        self._barrier = ctx.Barrier(self.nworkers)
        self._result_q = ctx.Queue()
        self._cmd_qs = [ctx.SimpleQueue() for _ in range(self.nworkers)]
        machine_cfg = dict(
            grid=tuple(self.machine.grid),
            cost_model=self.machine.cost_model,
            memory_per_pe=self.machine.memory_per_pe,
            keep_message_log=self.machine.keep_message_log)
        profile = self.profiler is not None
        for wid in range(self.nworkers):
            p = ctx.Process(
                target=_worker_main,
                args=(wid, self.nworkers, self.plan, machine_cfg,
                      self._init_scalars, self._hpf_overhead,
                      self.run_id, profile, self._barrier,
                      self._cmd_qs[wid], self._result_q),
                daemon=True,
                name=f"repro-parallel-w{wid}")
            p.start()
            self._procs.append(p)

    def _abort_barrier(self) -> None:
        barrier = getattr(self, "_barrier", None)
        if barrier is not None:
            try:
                barrier.abort()
            except Exception:
                pass

    def run_ops(self, ops) -> None:
        self._ensure_pool()
        for q in self._cmd_qs:
            q.put(("run",))
        shards: dict[int, dict] = {}
        errors: dict[int, dict] = {}
        pending = set(range(self.nworkers))
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        grace_deadline: float | None = None
        while pending:
            now = time.monotonic()
            if errors and grace_deadline is None:
                # peers of a failed worker abort fast via the broken
                # barrier; give them a moment to report, then move on
                grace_deadline = now + ERROR_GRACE_S
            if grace_deadline is not None and now > grace_deadline:
                break
            if now > deadline:
                self._abort_barrier()
                self._terminate()
                raise ExecutionError(
                    "parallel backend: worker reply timed out "
                    f"(waited {REPLY_TIMEOUT_S:.0f}s; "
                    f"got {len(shards) + len(errors)}"
                    f"/{self.nworkers} replies)") from None
            try:
                kind, wid, payload = self._result_q.get(
                    timeout=POLL_INTERVAL_S)
            except queue.Empty:
                self._liveness_polls += 1
                dead = [w for w in sorted(pending)
                        if not self._procs[w].is_alive()]
                if dead:
                    # a worker died without reporting (killed, OOM,
                    # os._exit): break its peers out of their barrier
                    # waits immediately and name the corpse
                    self._abort_barrier()
                    w = dead[0]
                    code = self._procs[w].exitcode
                    self._terminate()
                    raise ExecutionError(
                        f"parallel worker {w} (owns PEs "
                        f"{_owned_pes(w, self.nworkers, self.machine.npes)}) "
                        f"died mid-run (exit code {code}); peer workers "
                        f"were aborted") from None
                continue
            data = pickle.loads(payload)
            pending.discard(wid)
            if kind == "done":
                shards[wid] = data
            else:
                errors[wid] = data
        if errors or pending:
            self._abort_barrier()
            self._terminate()
            if pending:
                # a worker neither replied nor died: stalled/deadlocked.
                # Its peers' barrier-timeout errors confirm it; name the
                # non-responsive worker, not the peers that noticed.
                w = min(pending)
                raise ExecutionError(
                    f"parallel worker {w} (owns PEs "
                    f"{_owned_pes(w, self.nworkers, self.machine.npes)}) "
                    f"stopped responding — stalled or deadlocked; "
                    f"{len(errors)} peer worker(s) hit the barrier "
                    f"timeout and aborted") from None
            # a worker with a specific diagnosis (payload divergence,
            # desynchronization, a simulated fault) beats peers that
            # only saw the barrier break when it aborted: abort() can
            # race a peer out of an already-tripped barrier wait, so
            # which workers report "barrier broken" is timing-dependent
            specific = [w for w in sorted(errors)
                        if "barrier broken" not in errors[w]["tb"]]
            wid = specific[0] if specific else min(errors)
            exc_payload = errors[wid]["exc"]
            if exc_payload is not None:
                raise pickle.loads(exc_payload)
            raise ExecutionError(
                f"parallel worker {wid} failed:\n{errors[wid]['tb']}")
        self._merge([shards[wid] for wid in range(self.nworkers)])

    # -- merge -------------------------------------------------------------
    def _merge(self, shards: list[dict]) -> None:
        merged = CostReport.merge_worker_reports(
            [s["report"] for s in shards], self.owner_of)
        self.machine.report.adopt(merged)
        self.machine.network.install_worker_logs(
            [s["log"] for s in shards])

        def bits(scalars: dict) -> tuple:
            # replicas agree bit for bit, and NaN != NaN
            return list(scalars), np.array(
                list(scalars.values()), dtype=np.float64).tobytes()

        peaks0 = shards[0]["peaks"]
        scalars0 = shards[0]["scalars"]
        live0 = shards[0]["live"]
        for w, s in enumerate(shards[1:], start=1):
            if s["peaks"] != peaks0:
                raise ExecutionError(
                    f"worker {w} memory peaks diverged from worker 0")
            if bits(s["scalars"]) != bits(scalars0):
                raise ExecutionError(
                    f"worker {w} scalars diverged from worker 0: "
                    f"{s['scalars']} vs {scalars0}")
            if s["live"] != live0:
                raise ExecutionError(
                    f"worker {w} live arrays diverged from worker 0: "
                    f"{s['live']} vs {live0}")
        self.machine.memory.adopt_peaks(peaks0)
        self.scalars = dict(scalars0)
        self._sync_darrays(live0)
        self._publish_metrics(shards)
        if self.profiler is not None:
            self._install_profiles(shards)

    def _publish_metrics(self, shards: list[dict]) -> None:
        """Publish the workers' shard counters as coordinator metrics.

        Shard counters are cumulative across the run (workers persist
        between ``run_ops`` calls), so they become gauges, not
        counters.  Counts of collective rounds are deterministic — the
        op sequence fixes them — but per-worker, not backend-invariant;
        wait seconds and liveness polls are wall-clock/timing-sensitive
        and tagged non-deterministic.
        """
        from repro.obs import metrics as _metrics
        registry = _metrics.get_registry()
        if not registry.enabled:
            return
        waits = registry.gauge(
            "repro_parallel_barrier_waits",
            help="Cumulative barrier waits per worker process.")
        wait_s = registry.gauge(
            "repro_parallel_barrier_wait_seconds",
            help="Cumulative seconds each worker spent in barrier "
                 "waits.", deterministic=False)
        rounds = registry.gauge(
            "repro_parallel_allreduce_rounds",
            help="Cumulative allreduce collectives per worker.")
        checks = registry.gauge(
            "repro_parallel_bcast_checks",
            help="Cumulative broadcast-agreement checks per worker.")
        compiles = registry.gauge(
            "repro_parallel_compiler_runs",
            help="C compiler invocations per worker process (kernels "
                 "are prepared before the pool forks: always 0).")
        for wid, s in enumerate(shards):
            m = s.get("metrics") or {}
            w = str(wid)
            compiles.set(m.get("compiler_runs", 0), worker=w)
            waits.set(m.get("barrier_waits", 0), worker=w)
            wait_s.set(m.get("barrier_wait_seconds", 0.0), worker=w)
            rounds.set(m.get("allreduce_rounds", 0), worker=w)
            checks.set(m.get("bcast_checks", 0), worker=w)
        registry.gauge(
            "repro_parallel_workers",
            help="Worker processes in the parallel pool.",
        ).set(self.nworkers)
        registry.gauge(
            "repro_parallel_liveness_polls",
            help="Coordinator reply-queue poll timeouts spent checking "
                 "worker liveness.", deterministic=False,
        ).set(self._liveness_polls)

    def _sync_darrays(self, live: list[tuple[str, str, int]]) -> None:
        """Mirror the workers' live-array set: attach plan-allocated
        arrays that appeared, drop arrays the plan freed (the workers
        already unlinked their segments).

        Each entry is ``(logical, birth, gen)``: ``logical`` is the
        plan-level binding, ``birth`` the buffer's allocation name.
        They differ after a ``SwapOp`` exchanged two bindings — shared
        segment names derive from the *birth* name, so the parent must
        attach ``birth``'s segments under the ``logical`` key."""
        for name, birth, gen in live:
            cur = self.darrays.get(name)
            if cur is not None and cur.name == birth and cur.gen == gen:
                continue
            if cur is not None:
                cur.close()
            decl = self.plan.arrays[birth]
            layout = cached_layout(decl.shape, decl.distribution,
                                   self.machine.topology)
            pes = list(layout.grid.ranks())
            self.darrays[name] = ShmDArray.build(
                self.machine, birth, layout, decl.dtype, decl.halo,
                run_id=self.run_id, gen=gen, create_pes=(),
                owned_pes=pes, charge=False)
            self._gen[birth] = max(self._gen.get(birth, 0), gen)
        live_names = {name for name, _, _ in live}
        for name in [n for n in self.darrays if n not in live_names]:
            self.darrays.pop(name).close()

    def _install_profiles(self, shards: list[dict]) -> None:
        """Ownership merge of the workers' per-op samples.

        Every worker dispatches the same op sequence, so sample streams
        align index-for-index; each sample's per-PE modelled-time
        columns come from that PE's owning worker and its message/byte
        counts sum across workers (each counted only what it charged).
        Wall-clock numbers are worker 0's real measurement, barrier
        waits included.  Every worker keeps one wall-clock track keyed
        by *worker id* carrying all of its samples — a worker owning
        several round-robin PEs contributes every sample exactly once,
        never one-per-PE (which used to drop samples when two PEs
        mapped onto one worker).
        """
        from repro.obs.profile import OpSample
        collector = self.profiler
        npes = self.machine.npes
        profs = [s["prof"] for s in shards]
        base = profs[0]["samples"]
        for wid, prof in enumerate(profs[1:], start=1):
            if len(prof["samples"]) != len(base):
                raise ExecutionError(
                    f"worker {wid} profiled {len(prof['samples'])} ops "
                    f"vs worker 0's {len(base)} — op dispatch "
                    f"desynchronized")

        def col(samples, attr, pe):
            row = getattr(samples, attr)
            return row[pe] if pe < len(row) else 0.0

        merged = []
        for i, smp in enumerate(base):
            shard_smps = [p["samples"][i] for p in profs]
            for wid, other in enumerate(shard_smps[1:], start=1):
                if (other.name, other.parent, other.depth) != \
                        (smp.name, smp.parent, smp.depth):
                    raise ExecutionError(
                        f"worker {wid} profiled op #{i} as "
                        f"{other.name!r} vs worker 0's {smp.name!r} — "
                        f"op dispatch desynchronized")
            owner_smp = [shard_smps[self.owner_of[pe]]
                         for pe in range(npes)]
            merged.append(OpSample(
                index=smp.index, parent=smp.parent, depth=smp.depth,
                name=smp.name, detail=smp.detail,
                wall_incl=smp.wall_incl, wall_self=smp.wall_self,
                t_start=smp.t_start,
                pe_time=[col(owner_smp[pe], "pe_time", pe)
                         for pe in range(npes)],
                pe_comm=[col(owner_smp[pe], "pe_comm", pe)
                         for pe in range(npes)],
                pe_copy=[col(owner_smp[pe], "pe_copy", pe)
                         for pe in range(npes)],
                messages=sum(s.messages for s in shard_smps),
                msg_bytes=sum(s.msg_bytes for s in shard_smps),
                finish_order=smp.finish_order))
        collector.samples = merged
        collector.wall_start = 0.0
        collector.wall_end = profs[0]["wall_total"]
        tracks = []
        for wid, prof in enumerate(profs):
            events = [{"op": smp.index, "name": smp.name,
                       "depth": smp.depth, "t0": smp.t_start,
                       "t1": smp.t_start + smp.wall_incl}
                      for smp in prof["samples"]]
            tracks.append({
                "worker": wid,
                "pes": _owned_pes(wid, self.nworkers,
                                  self.machine.npes),
                "wall_s": prof["wall_total"],
                "events": events,
            })
        collector.worker_tracks = tracks

    # -- shutdown ----------------------------------------------------------
    def _terminate(self) -> None:
        procs, self._procs = self._procs, []
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5.0)
        self._cmd_qs = []

    def close(self) -> None:
        procs = self._procs
        if procs:
            for q in self._cmd_qs:
                try:
                    q.put(("stop",))
                except Exception:
                    pass
            for p in procs:
                p.join(timeout=10.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
            self._procs = []
            self._cmd_qs = []
        # error paths can leave arrays behind (execute's release loop
        # never ran); destroy their segments rather than leak /dev/shm
        for name in list(self.darrays):
            da = self.darrays.pop(name)
            try:
                da.free(self.machine)
            except Exception:
                pass
        channel = getattr(self, "_channel", None)
        if channel is not None:
            self._channel = None
            channel.close()
            channel.unlink()
        # belt-and-braces: a worker killed mid-allocation can leave
        # segments only it knew about (scratch buffers, mid-plan
        # arrays); sweep everything carrying this run's id
        for path in _glob.glob(f"/dev/shm/{self.run_id}-*"):
            try:
                _unlink_segment(os.path.basename(path))
            except (FileNotFoundError, OSError):
                pass


# self-registration, mirroring the other backends
register_backend("parallel", ParallelExec)
