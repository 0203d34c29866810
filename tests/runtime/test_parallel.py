"""Differential tests: the ``parallel`` backend — row stripes on threads.

The backend's contract is the same strict equivalence the vectorized
backend promises — bitwise-equal arrays and scalars AND an identical
*modelled* cost report and tagged message log on every valid plan —
plus measured wall-clock per worker.  These tests enforce the contract
over the named paper kernels and random programs at every optimization
level (``backend_equivalence_check`` forces every legal nest to stripe,
since a test-sized nest sits far below ``MIN_STRIPE_POINTS``), and
cover what the backend adds to ``vectorized``: the stripe cut (which
nests stripe and why not, counted in ``repro_parallel_nests_total``),
the join (an error surfaces only after every stripe ended), the
process-wide pool (persistent, shared, fresh after a fork) and the
per-worker measured profile tracks.
"""

import os
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import OptLevel, compile_hpf
from repro.errors import ExecutionError, SimulatedOutOfMemoryError
from repro.kernels import KERNELS, run_kernel
from repro.machine import Machine
from repro.obs import MetricsRegistry, use_registry
from repro.runtime import parallel
from repro.runtime.backends import get_backend
from repro.testing import (
    GeneratedProgram, backend_equivalence_check, forced_stripes,
    random_inputs, random_program,
)

DEFAULT = OptLevel.DEFAULT.name

SMALL_N = {"five_point": 12, "nine_point_cshift": 12, "nine_point": 12,
           "purdue9": 12, "twentyfive_point": 16, "seven_point_3d": 8,
           "box27_3d": 8, "jacobi": 12, "red_black": 12, "cg": 12}


def _kernel_program(name: str) -> tuple[GeneratedProgram, dict]:
    """Wrap a registry kernel as a GeneratedProgram with seeded inputs,
    so the named kernels run through ``backend_equivalence_check``."""
    spec = KERNELS[name]
    prog = GeneratedProgram(source=spec.source,
                            arrays=sorted(spec.outputs),
                            scalars=dict(spec.default_scalars),
                            bindings={**spec.default_bindings,
                                      "N": SMALL_N[name]})
    compiled = compile_hpf(spec.source, bindings=prog.bindings,
                           level="O0", outputs=set(spec.outputs))
    rng = np.random.default_rng(7)
    inputs = {
        arr: rng.standard_normal(decl.shape).astype(decl.dtype)
        for arr, decl in compiled.plan.arrays.items()
        if arr in compiled.plan.entry_arrays}
    return prog, inputs


def _run(name, *, workers, level="O2", grid=(2, 2), **kw):
    """One ``parallel`` run of a registry kernel, every legal nest
    striped."""
    machine = Machine(grid=grid, keep_message_log=True)
    with forced_stripes():
        res = run_kernel(name, bindings={"N": SMALL_N[name]}, level=level,
                         backend="parallel", machine=machine,
                         workers=workers, **kw)
    return res, machine


def _nests(registry) -> dict:
    """``repro_parallel_nests_total`` as ``{(mode, reason): count}``."""
    return {(dict(key)["mode"], dict(key).get("reason")): int(value)
            for key, value in
            registry.get("repro_parallel_nests_total").samples()}


def _check_program(source, inputs, *, n, workers=2, grid=(2, 2),
                   forced=True, outputs=None):
    """Compile ``source``, run it on ``perpe`` and ``parallel``, demand
    bitwise arrays/scalars and an equal cost report; returns the
    parallel run's nest counts."""
    compiled = compile_hpf(source, bindings={"N": n},
                           outputs=outputs or set(inputs))
    ref = compiled.run(Machine(grid=grid), inputs=inputs)
    registry = MetricsRegistry()
    with (forced_stripes() if forced else nullcontext()), \
            use_registry(registry):
        res = compiled.run(Machine(grid=grid), inputs=inputs,
                           backend="parallel", workers=workers)
    for name in ref.arrays:
        assert ref.arrays[name].tobytes() == res.arrays[name].tobytes(), name
    assert {k: np.float64(v).tobytes() for k, v in ref.scalars.items()} \
        == {k: np.float64(v).tobytes() for k, v in res.scalars.items()}
    assert ref.report == res.report
    assert ref.peak_memory_per_pe == res.peak_memory_per_pe
    return _nests(registry)


class TestNamedKernels:
    """Acceptance: the three-backend equivalence check passes for every
    named kernel at every optimization level."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_equivalence_all_levels(self, name):
        prog, inputs = _kernel_program(name)
        backend_equivalence_check(
            prog, inputs, levels=("O0", "O1", "O2", "O3", DEFAULT))

    @pytest.mark.parametrize("grid", [(4, 1), (1, 4), (3, 2)])
    def test_asymmetric_grids(self, grid):
        prog, inputs = _kernel_program("nine_point")
        backend_equivalence_check(prog, inputs, levels=(DEFAULT,),
                                  grids=(grid,))

    def test_multi_iteration(self):
        prog, inputs = _kernel_program("purdue9")
        backend_equivalence_check(prog, inputs, levels=(DEFAULT,),
                                  iterations=3)


class TestRandomPrograms:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_default_generator(self, seed):
        prog = random_program(seed)
        backend_equivalence_check(prog, random_inputs(seed, prog),
                                  levels=("O0", DEFAULT))


class TestWorkerMapping:
    """``workers`` is a thread count: how many stripes a nest may be cut
    into.  The result must not depend on it."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8, None])
    def test_any_worker_count_is_equivalent(self, workers):
        ref = run_kernel("nine_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        res, _ = _run("nine_point", workers=workers)
        np.testing.assert_array_equal(ref.arrays["DST"],
                                      res.arrays["DST"])
        assert ref.report.summary() == res.report.summary()
        assert ref.report.pe_times == res.report.pe_times

    def test_worker_cap_at_row_count(self):
        """A run never has more workers than its tallest array has
        rows, and a nest never more stripes than it has rows."""
        compiled = compile_hpf(KERNELS["five_point"].source,
                               bindings={"N": 12}, level="O2",
                               outputs={"DST"})
        ex = get_backend("parallel")(compiled.plan, Machine(grid=(2, 2)),
                                     None, False, workers=64)
        assert ex.stripes == 12
        assert len(ex._registers) == 12 and ex._registers[0] is ex._bound

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ExecutionError, match="worker"):
            _run("five_point", workers=0)

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_invalid_worker_counts_raise_usage_error(self, bad):
        """Regression: ``workers=0`` (and negatives) used to slip past
        validation and die deep in the backend; it rejects them at
        entry with a named error, before any machine state is
        touched."""
        from repro.errors import UsageError
        with pytest.raises(UsageError, match=">= 1 worker"):
            _run("five_point", workers=bad)

    @pytest.mark.parametrize("bad", [2.0, "2", True])
    def test_non_int_worker_counts_raise_usage_error(self, bad):
        from repro.errors import UsageError
        with pytest.raises(UsageError, match="must be an int"):
            _run("five_point", workers=bad)

    def test_huge_worker_count_is_capped_not_fatal(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            res, _ = _run("five_point", workers=10_000)
        ref = run_kernel("five_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        np.testing.assert_array_equal(ref.arrays["DST"],
                                      res.arrays["DST"])
        assert ref.report.summary() == res.report.summary()
        assert registry.get("repro_parallel_workers").value() == 12.0


def _decls(rank: int, names: str = "A, B") -> str:
    dims = ",".join("N" * rank)
    dist = ",".join(["BLOCK", "BLOCK", "*"][:rank])
    first, *rest = names.split(", ")
    return (f"      REAL, DIMENSION({dims}) :: {names}\n"
            f"!HPF$ DISTRIBUTE {first}({dist})\n"
            + "".join(f"!HPF$ ALIGN {n} WITH {first}\n" for n in rest))


def _inputs(rank: int, n: int, names=("A", "B")) -> dict:
    rng = np.random.default_rng(3)
    return {name: rng.uniform(0.1, 1.0, (n,) * rank) for name in names}


class TestStripeCut:
    """Which nests stripe, into what, and why the others run whole —
    decided from the tape and the iteration space, never an option."""

    AXPY = "      B = 0.5 * A + B\n"

    def _cut(self, workers, space, strip_ok=True):
        from types import SimpleNamespace
        return parallel.cut(workers, SimpleNamespace(strip_ok=strip_ok),
                            space)

    def test_rows_fewer_than_workers(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_STRIPE_POINTS", 1)
        assert self._cut(8, ((1, 3), (1, 100))) == (
            (1, 1), (2, 2), (3, 3))

    def test_uneven_rows_are_contiguous_and_cover_the_space(
            self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_STRIPE_POINTS", 1)
        assert self._cut(3, ((2, 12), (1, 5))) == (
            (2, 5), (6, 9), (10, 12))
        stripes = self._cut(5, ((1, 12),))
        assert [hi - lo + 1 for lo, hi in stripes] == [3, 3, 2, 2, 2]
        assert stripes[0][0] == 1 and stripes[-1][1] == 12
        assert all(a[1] + 1 == b[0] for a, b in zip(stripes, stripes[1:]))

    def test_reasons_at_the_default_constant(self):
        big = parallel.MIN_STRIPE_POINTS
        # one constant's worth per stripe: 2x stripes, just under doesn't
        assert self._cut(2, ((1, 2), (1, big))) == ((1, 1), (2, 2))
        assert self._cut(2, ((1, 2), (1, big - 1))) == "small"
        # the point budget, not the worker count, bounds the stripes
        assert len(self._cut(8, ((1, 64), (1, big // 16)))) == 4
        assert self._cut(2, ((1, 1), (1, 4 * big))) == "rows"
        assert self._cut(2, ((1, 4), (1, big)), strip_ok=False) == "order"
        assert self._cut(2, ((1, 1), (1, 9)), strip_ok=False) == "order"
        assert self._cut(1, ((1, 4), (1, big))) == "workers"

    def test_rank_1_and_rank_3(self):
        for rank, n, grid in ((1, 12, (4,)), (3, 6, (2, 2))):
            nests = _check_program(_decls(rank) + self.AXPY,
                                   _inputs(rank, n), n=n, workers=3,
                                   grid=grid)
            assert nests == {("striped", None): 1}, rank

    def test_nest_that_breaks_strip_ok_runs_whole(self):
        """``C`` is read a row up and a row down, then assigned, in one
        nest (the compiler keeps the two statements apart; a hand-fused
        plan is legal statement-at-a-time): rows of different stripes
        are not independent, so the nest runs whole."""
        from dataclasses import replace
        from repro.plan import LoopNestOp
        source = (_decls(2, "A, C, D") +
                  "      D = CSHIFT(C,SHIFT=1,DIM=1) + "
                  "CSHIFT(C,SHIFT=-1,DIM=1)\n"
                  "      C = A\n")
        compiled = compile_hpf(source, bindings={"N": 12},
                               outputs={"C", "D"})
        *shifts, first, second = compiled.plan.ops
        assert isinstance(first, LoopNestOp) and \
            isinstance(second, LoopNestOp) and first.space == second.space
        compiled.plan.ops = shifts + [replace(
            first, statements=first.statements + second.statements)]
        inputs = _inputs(2, 12, ("A", "C", "D"))
        ref = compiled.run(Machine(grid=(2, 2)), inputs=inputs)
        registry = MetricsRegistry()
        with forced_stripes(), use_registry(registry):
            res = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                               backend="parallel", workers=2)
        for name in ("C", "D"):
            assert ref.arrays[name].tobytes() == res.arrays[name].tobytes()
        assert ref.report == res.report
        assert _nests(registry) == {("whole", "order"): 1}

    def test_masked_nest_stripes(self):
        source = _decls(2) + "      WHERE (A > 0.5) B = 2.0 * A\n"
        assert _check_program(source, _inputs(2, 12), n=12) == {
            ("striped", None): 1}

    def test_nest_below_the_constant_runs_whole(self):
        nests = _check_program(_decls(2) + self.AXPY, _inputs(2, 12),
                               n=12, forced=False)
        assert nests == {("whole", "small"): 1}

    def test_nest_above_the_constant_stripes_unforced(self):
        """2 x 2**18 points, the default constant, ufunc tape or native
        kernel as the host decides: striped, and still ``perpe``."""
        n = 1024
        assert n * n >= 2 * parallel.MIN_STRIPE_POINTS
        inputs = {k: v.astype(np.float32)
                  for k, v in _inputs(2, n).items()}
        nests = _check_program(_decls(2) + self.AXPY, inputs, n=n,
                               forced=False)
        assert nests == {("striped", None): 1}

    def test_reduction_tapes_stay_on_the_calling_thread(self):
        source = (_decls(2) + "      S = SUM(A * B)\n"
                  "      B = B + S\n")
        nests = _check_program(source, _inputs(2, 12), n=12)
        assert nests == {("whole", "reduction"): 1, ("striped", None): 1}

    def test_overlapped_op_stripes(self):
        """An ``OverlappedOp``'s nest goes through the same evaluator
        (its interior/boundary split only prices the overlap)."""
        from repro.plan import OverlappedOp
        spec = KERNELS["five_point"]
        compiled = compile_hpf(spec.source, bindings={"N": 12},
                               outputs=set(spec.outputs),
                               overlap_comm=True)
        assert compiled.plan.count_ops(OverlappedOp) == 1
        rng = np.random.default_rng(5)
        inputs = {"SRC": rng.standard_normal((12, 12)).astype(np.float32)}
        ref = compiled.run(Machine(grid=(2, 2)), inputs=inputs)
        registry = MetricsRegistry()
        with forced_stripes(), use_registry(registry):
            res = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                               backend="parallel", workers=2)
        assert ref.arrays["DST"].tobytes() == res.arrays["DST"].tobytes()
        assert ref.report == res.report
        assert _nests(registry) == {("striped", None): 1}

    def test_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            registry = MetricsRegistry()
            with use_registry(registry):
                _run("cg", workers=2, level=DEFAULT)
            counts.append(_nests(registry))
        assert counts[0] == counts[1]
        assert ("whole", "reduction") in counts[0]
        assert ("striped", None) in counts[0]


class TestMeasuredProfile:
    def test_worker_tracks_attached(self):
        res, _ = _run("nine_point", workers=2, profile=True)
        tracks = res.profile.worker_tracks
        assert tracks is not None and len(tracks) == 2
        assert [t["worker"] for t in tracks] == [0, 1]
        for t in tracks:
            assert "pes" not in t       # workers are threads, not owners
            assert t["wall_s"] >= 0.0
            assert t["events"], "worker track has no measured events"
            for ev in t["events"]:
                assert ev["t1"] >= ev["t0"] >= 0.0
                assert ev["name"] == "loop_nest"

    def test_single_worker_track_keeps_all_samples(self):
        """Tracks are keyed by *worker*.  One worker runs every nest
        whole on the calling thread: its single track carries every
        nest op exactly once — as many events as worker 0's track of a
        two-worker run, which holds stripe 0 of each."""
        res, _ = _run("nine_point", workers=1, profile=True)
        tracks = res.profile.worker_tracks
        assert len(tracks) == 1
        track = tracks[0]
        assert track["worker"] == 0
        ops = [ev["op"] for ev in track["events"]]
        assert ops and ops == sorted(set(ops)), \
            "samples dropped or duplicated"
        two, _ = _run("nine_point", workers=2, profile=True)
        assert len(ops) == len(two.profile.worker_tracks[0]["events"])

    def test_modelled_profile_matches_perpe(self):
        machine = Machine(grid=(2, 2), keep_message_log=True)
        ref = run_kernel("nine_point", bindings={"N": 12}, level="O2",
                         machine=machine, profile=True)
        res, _ = _run("nine_point", workers=2, profile=True)
        assert ref.profile.matrix == res.profile.matrix
        assert ref.profile.totals["messages_by_class"] == \
            res.profile.totals["messages_by_class"]
        assert ref.profile.worker_tracks is None  # perpe has no workers

    def test_chrome_trace_gets_worker_track(self):
        from repro.obs.export import chrome_trace
        res, _ = _run("nine_point", workers=2, profile=True)
        events = chrome_trace(res.profile)["traceEvents"]
        worker_events = [e for e in events
                         if e.get("cat") == "worker-wall"]
        assert {e["tid"] for e in worker_events} == {0, 1}
        assert all(e["pid"] == 2 for e in worker_events)

    def test_profile_dict_roundtrip_keeps_tracks(self):
        from repro.obs.profile import CommProfile
        res, _ = _run("nine_point", workers=2, profile=True)
        revived = CommProfile.from_dict(res.profile.to_dict())
        assert revived.worker_tracks == res.profile.worker_tracks
        # perpe profiles must serialize exactly as before (no new key)
        ref = run_kernel("nine_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2),
                                         keep_message_log=True),
                         profile=True)
        assert "worker_tracks" not in ref.profile.to_dict()


def _children() -> set[str]:
    """Pids of this process's children, whichever thread started them."""
    kids: set[str] = set()
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children") as f:
            kids.update(f.read().split())
    return kids


class TestLifecycle:
    """One process, one pool: nothing to clean up, and the counts say
    so."""

    def test_multi_iteration_run_cleans_up(self):
        """Second-and-later runs create no thread, no run creates a
        process or a ``/dev/shm`` segment."""
        import glob
        _run("purdue9", workers=2, iterations=2)        # pool exists now
        pool = parallel._pool()
        threads, children = threading.active_count(), _children()
        for _ in range(3):
            _run("purdue9", workers=2, iterations=2)
        assert parallel._pool() is pool
        assert threading.active_count() == threads
        assert all(t.is_alive() for t in pool.threads)
        assert _children() == children
        assert not glob.glob("/dev/shm/repro-*")

    def test_worker_error_propagates_and_cleans_up(self):
        """The modelled OOM reaches the caller as itself — there is no
        worker process to wrap it — and the next run is unaffected."""
        machine = Machine(grid=(2, 2), memory_per_pe=64)
        with pytest.raises(SimulatedOutOfMemoryError):
            run_kernel("five_point", bindings={"N": 12},
                       backend="parallel", workers=2, machine=machine)
        ref = run_kernel("five_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        res, _ = _run("five_point", workers=2)
        assert ref.arrays["DST"].tobytes() == res.arrays["DST"].tobytes()

    def test_scalars_and_reductions_agree(self):
        prog = random_program(4242)  # generator mixes in reductions
        backend_equivalence_check(prog, random_inputs(4242, prog),
                                  levels=(DEFAULT,))

    @pytest.mark.parametrize("failing", [0, 1])
    def test_stripe_error_waits_for_every_stripe(self, monkeypatch,
                                                 failing):
        """A stripe that raises mid-nest surfaces only after all
        stripes ended (nobody is still writing the slabs), whichever
        thread it ran on; the pool survives and the next run on it is
        correct."""
        from repro.runtime.nest_tape import NestTape
        real = NestTape.run
        ended = []

        def run(tape, views, scalars, bound):
            on_pool = threading.current_thread().name.startswith(
                "repro-stripe")
            if on_pool == bool(failing):
                raise RuntimeError("boom in stripe")
            time.sleep(0.2)         # the healthy stripe is still busy
            out = real(tape, views, scalars, bound)
            ended.append(time.perf_counter())
            return out

        pool = parallel._pool()
        monkeypatch.setattr(NestTape, "run", run)
        with pytest.raises(RuntimeError, match="boom in stripe"):
            _run("five_point", workers=2)
        surfaced = time.perf_counter()
        assert len(ended) == 1 and ended[0] <= surfaced
        monkeypatch.undo()
        assert parallel._pool() is pool
        assert all(t.is_alive() for t in pool.threads)
        ref = run_kernel("five_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        res, _ = _run("five_point", workers=2)
        assert ref.arrays["DST"].tobytes() == res.arrays["DST"].tobytes()
        assert ref.report == res.report

    def test_concurrent_runs_of_one_cached_program(self):
        """Two threads run one ``CompiledProgram`` on ``parallel`` at
        once, three stripes each — more workers than cores, on one
        plan, one set of tapes, one pool: registers are per stripe per
        executor, so both agree with ``perpe`` (a shared ``out=``
        target would show as a wrong array)."""
        spec = KERNELS["purdue9"]
        compiled = compile_hpf(spec.source, bindings={"N": 24},
                               outputs=set(spec.outputs))
        rng = np.random.default_rng(9)
        inputs = [{name: rng.standard_normal(decl.shape).astype(decl.dtype)
                   for name, decl in compiled.plan.arrays.items()
                   if name in compiled.plan.entry_arrays}
                  for _ in range(2)]
        refs = [compiled.run(Machine(grid=(2, 2)), inputs=given,
                             iterations=3) for given in inputs]
        got: dict = {}

        def job(i: int) -> None:
            try:
                for _ in range(20):
                    got[i] = compiled.run(
                        Machine(grid=(2, 2)), inputs=inputs[i],
                        iterations=3, backend="parallel", workers=3)
            except BaseException as exc:  # noqa: BLE001
                got[i] = exc

        import sys
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # many more thread switches
        try:
            with forced_stripes():
                threads = [threading.Thread(target=job, args=(i,))
                           for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for i, ref in enumerate(refs):
            assert not isinstance(got[i], BaseException), got[i]
            for name in ref.arrays:
                assert ref.arrays[name].tobytes() == \
                    got[i].arrays[name].tobytes(), (i, name)
            assert ref.report == got[i].report

    def test_forked_child_gets_a_fresh_pool(self):
        """The pool is never inherited: a child forked from a process
        that has one starts without it and builds its own."""
        _run("five_point", workers=2)
        parent = parallel._pool()
        ref = run_kernel("five_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                inherited = parallel._POOL
                res, _ = _run("five_point", workers=2)
                fresh = parallel._pool()
                ok = (inherited is None and fresh is not parent
                      and all(t.is_alive() for t in fresh.threads)
                      and ref.arrays["DST"].tobytes()
                      == res.arrays["DST"].tobytes())
                code = 0 if ok else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert parallel._pool() is parent


class TestScalarCommunication:
    """Scalars, IF conditions and DO WHILE guards are computed once, by
    the one walk on the calling thread, from rank-ordered reductions —
    bit for bit what ``perpe`` computes."""

    DOWHILE = ("      REAL, DIMENSION(N,N) :: A, B\n"
               "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
               "!HPF$ ALIGN B WITH A\n"
               "      S = SUM(A)\n"
               "      DO WHILE (S > 1.0)\n"
               "        A = 0.5 * A + 0.1 * CSHIFT(B, SHIFT=1, DIM=1)\n"
               "        S = S * 0.25\n"
               "      ENDDO\n"
               "      B = A + S\n")

    def test_do_while_loop_agrees_across_backends(self):
        prog = GeneratedProgram(source=self.DOWHILE, arrays=["A", "B"],
                                bindings={"N": 12})
        rng_ = np.random.default_rng(11)
        inputs = {"A": rng_.uniform(0.1, 1.0, (12, 12)),
                  "B": rng_.uniform(0.1, 1.0, (12, 12))}
        backend_equivalence_check(prog, inputs,
                                  levels=("O0", "O2", DEFAULT))

    def test_nan_valued_scalar_is_not_a_divergence(self):
        """``S = SUM(A)`` over +inf and -inf is NaN (``SUM(A)/SUM(B)``
        with both zero would be, did Python not raise
        ``ZeroDivisionError`` on every backend); the striped nest that
        consumes it must keep the NaN, bit for bit, as ``perpe``
        does."""
        source = ("      REAL, DIMENSION(N,N) :: A, B\n"
                  "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
                  "!HPF$ ALIGN B WITH A\n"
                  "      S = SUM(A)\n"
                  "      B = A + S\n")
        compiled = compile_hpf(source, bindings={"N": 8},
                               outputs={"A", "B"})
        a = np.ones((8, 8))
        a[0, 0], a[7, 7] = np.inf, -np.inf      # on two different PEs
        runs = {}
        for backend in ("perpe", "parallel"):
            with np.errstate(invalid="ignore"), forced_stripes():
                runs[backend] = compiled.run(
                    Machine(grid=(2, 2)), inputs={"A": a}, backend=backend,
                    workers=2)
        assert np.isnan(runs["perpe"].scalars["S"])
        for observable in ("scalars", "arrays"):
            perpe, par = (
                {k: np.asarray(v).tobytes()
                 for k, v in getattr(runs[backend], observable).items()}
                for backend in ("perpe", "parallel"))
            assert perpe == par
