"""Differential tests: the process-parallel backend.

The ``parallel`` backend's contract is the same strict equivalence the
vectorized backend promises — bitwise-equal arrays and scalars AND an
identical *modelled* cost report and tagged message log on every valid
plan — plus real measured wall-clock per worker.  These tests enforce
the contract over the named paper kernels and random programs at every
optimization level, and cover the parallel-specific machinery: worker
mapping (round-robin, oversubscription, the PE-count cap), shared-memory
segment cleanup (the autouse ``no_shm_leaks`` fixture audits every test
here), worker error propagation, failure injection (dead, stalled, and
corrupting workers), and the per-worker measured profile tracks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import OptLevel, compile_hpf
from repro.errors import ExecutionError
from repro.kernels import KERNELS, run_kernel
from repro.machine import Machine
from repro.runtime.backends import get_backend
from repro.runtime.parallel import BARRIER_TIMEOUT_ENV, INJECT_ENV
from repro.testing import (
    GeneratedProgram, backend_equivalence_check, random_inputs,
    random_program,
)

DEFAULT = OptLevel.DEFAULT.name

pytestmark = pytest.mark.parallel

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
    machine = Machine(grid=grid, keep_message_log=True)
    res = run_kernel(name, bindings={"N": SMALL_N[name]}, level=level,
                     backend="parallel", machine=machine,
                     workers=workers, **kw)
    return res, machine


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
    """The PE-to-worker map is round-robin ``pe % W`` with ``W`` capped
    at the PE count; the result must not depend on the mapping."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8, None])
    def test_any_worker_count_is_equivalent(self, workers):
        ref = run_kernel("nine_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        res, _ = _run("nine_point", workers=workers)
        np.testing.assert_array_equal(ref.arrays["DST"],
                                      res.arrays["DST"])
        assert ref.report.summary() == res.report.summary()
        assert ref.report.pe_times == res.report.pe_times

    def test_worker_cap_at_pe_count(self):
        cls = get_backend("parallel")
        compiled = compile_hpf(KERNELS["five_point"].source,
                               bindings={"N": 12}, level="O2",
                               outputs={"DST"})
        ex = cls(compiled.plan, Machine(grid=(2, 2)), None, False,
                 workers=64)
        try:
            assert ex.nworkers == 4  # capped at npes
            assert ex.owner_of == [0, 1, 2, 3]
        finally:
            ex.close()

    def test_round_robin_when_fewer_workers(self):
        cls = get_backend("parallel")
        compiled = compile_hpf(KERNELS["five_point"].source,
                               bindings={"N": 12}, level="O2",
                               outputs={"DST"})
        ex = cls(compiled.plan, Machine(grid=(3, 2)), None, False,
                 workers=4)
        try:
            assert ex.nworkers == 4
            assert ex.owner_of == [0, 1, 2, 3, 0, 1]
        finally:
            ex.close()

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ExecutionError, match="worker"):
            _run("five_point", workers=0)

    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_invalid_worker_counts_raise_usage_error(self, bad):
        """Regression: ``workers=0`` (and negatives) used to slip past
        validation and die deep in the pool machinery; now the backend
        rejects them at entry with a named error, before any worker
        process or shared-memory segment is created."""
        from repro.errors import UsageError
        with pytest.raises(UsageError, match=">= 1 worker"):
            _run("five_point", workers=bad)

    @pytest.mark.parametrize("bad", [2.0, "2", True])
    def test_non_int_worker_counts_raise_usage_error(self, bad):
        from repro.errors import UsageError
        with pytest.raises(UsageError, match="must be an int"):
            _run("five_point", workers=bad)

    def test_huge_worker_count_is_capped_not_fatal(self):
        res, _ = _run("five_point", workers=10_000)
        ref = run_kernel("five_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        np.testing.assert_array_equal(ref.arrays["DST"],
                                      res.arrays["DST"])
        assert ref.report.summary() == res.report.summary()


class TestMeasuredProfile:
    def test_worker_tracks_attached(self):
        res, _ = _run("nine_point", workers=2, profile=True)
        tracks = res.profile.worker_tracks
        assert tracks is not None and len(tracks) == 2
        covered = sorted(pe for t in tracks for pe in t["pes"])
        assert covered == [0, 1, 2, 3]
        for t in tracks:
            assert t["wall_s"] >= 0.0
            assert t["events"], "worker track has no measured events"
            for ev in t["events"]:
                assert ev["t1"] >= ev["t0"] >= 0.0

    def test_single_worker_track_keeps_all_samples(self):
        """Regression: tracks are keyed by *worker*, not by PE.  With
        one worker owning all four PEs of a 2x2 grid, the old keying
        collapsed round-robin PEs onto the same entry and dropped
        measured samples; the single track must carry every op exactly
        once."""
        res, _ = _run("nine_point", workers=1, profile=True)
        tracks = res.profile.worker_tracks
        assert len(tracks) == 1
        track = tracks[0]
        assert track["worker"] == 0
        assert track["pes"] == [0, 1, 2, 3]
        ops = [ev["op"] for ev in track["events"]]
        assert ops == sorted(set(ops)), "samples dropped or duplicated"
        # every worker dispatches the same op sequence, so the lone
        # track must hold as many events as any workers=2 track
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
        assert worker_events
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


class TestLifecycle:
    """Leak auditing itself lives in the autouse ``no_shm_leaks``
    fixture (tests/conftest.py); these tests exercise the paths that
    used to leak — multi-iteration runs and worker error unwinding."""

    def test_multi_iteration_run_cleans_up(self):
        _run("purdue9", workers=2, iterations=2)

    def test_worker_error_propagates_and_cleans_up(self):
        machine = Machine(grid=(2, 2), memory_per_pe=64)
        with pytest.raises(ExecutionError, match="worker") as exc:
            run_kernel("five_point", bindings={"N": 12},
                       backend="parallel", workers=2, machine=machine)
        # the modelled OOM raised inside the worker reaches the caller
        assert "SimulatedOutOfMemoryError" in str(exc.value)

    def test_scalars_and_reductions_agree(self):
        prog = random_program(4242)  # generator mixes in reductions
        backend_equivalence_check(prog, random_inputs(4242, prog),
                                  levels=(DEFAULT,))


class TestStaleSegmentReclamation:
    """A coordinator killed with SIGKILL never runs ``close()``, so its
    segments leak in /dev/shm until reboot.  Run ids embed the creator
    pid; ``reclaim_stale_segments`` unlinks segments whose creator is
    dead and leaves everything else — live runs, foreign names —
    strictly alone."""

    # Child: build a coordinator, materialize entry arrays (coll +
    # per-PE block segments appear in /dev/shm), report the run id,
    # then die without any cleanup.
    CHILD = """\
import os, signal
from repro.compiler import compile_hpf
from repro.kernels import KERNELS
from repro.machine import Machine
from repro.runtime.parallel import ParallelExec

spec = KERNELS["five_point"]
compiled = compile_hpf(spec.source, bindings={"N": 12}, level="O0",
                       outputs=set(spec.outputs))
ex = ParallelExec(compiled.plan, Machine(grid=(2, 2)), {}, False)
for name in compiled.plan.entry_arrays:
    ex.materialize(name)
print(ex.run_id, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""

    def test_run_id_embeds_creator_pid(self):
        import os
        spec = KERNELS["five_point"]
        compiled = compile_hpf(spec.source, bindings={"N": 12},
                               level="O0", outputs=set(spec.outputs))
        from repro.runtime.parallel import ParallelExec
        ex = ParallelExec(compiled.plan, Machine(grid=(2, 2)), {}, False)
        try:
            assert ex.run_id.split("-")[1] == str(os.getpid())
        finally:
            ex.close()

    def test_killed_coordinator_segments_reclaimed(self):
        import glob
        import subprocess
        import sys
        from repro.runtime.parallel import reclaim_stale_segments
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -9, proc.stderr
        run_id = proc.stdout.strip()
        assert run_id.startswith("repro-")
        leaked = glob.glob(f"/dev/shm/{run_id}-*")
        assert leaked, "child should have left segments behind"
        reclaimed = reclaim_stale_segments()
        assert set(f"/dev/shm/{n}" for n in reclaimed) >= set(leaked)
        assert not glob.glob(f"/dev/shm/{run_id}-*")

    def test_live_and_foreign_segments_untouched(self, tmp_path):
        import os
        import subprocess
        import sys
        from repro.runtime.parallel import reclaim_stale_segments
        live = subprocess.Popen([sys.executable, "-c",
                                 "import time; time.sleep(60)"])
        try:
            names = {
                "mine": f"repro-{os.getpid()}-aaa-x-g1-p0",
                "live": f"repro-{live.pid}-bbb-x-g1-p0",
                "dead": f"repro-{_dead_pid()}-ccc-x-g1-p0",
                "legacy": "repro-deadbeefcafe-x-g1-p0",
                "foreign": "repro-notapid-extra-thing",
            }
            for name in names.values():
                (tmp_path / name).write_text("")
            reclaimed = reclaim_stale_segments(str(tmp_path))
            assert reclaimed == [names["dead"]]
            survivors = sorted(p.name for p in tmp_path.iterdir())
            assert survivors == sorted(
                v for k, v in names.items() if k != "dead")
        finally:
            live.kill()
            live.wait()

    def test_throttled_scan_skips_within_interval(self, tmp_path,
                                                  monkeypatch):
        from repro.runtime import parallel
        pid = _dead_pid()
        (tmp_path / f"repro-{pid}-abc-x-g1-p0").write_text("")
        monkeypatch.setattr(parallel, "_last_reclaim", 0.0)
        assert parallel.reclaim_stale_segments(
            str(tmp_path), throttle=True)
        (tmp_path / f"repro-{pid}-def-x-g1-p0").write_text("")
        assert parallel.reclaim_stale_segments(
            str(tmp_path), throttle=True) == []
        assert parallel.reclaim_stale_segments(str(tmp_path))


def _dead_pid() -> int:
    """A pid guaranteed to name no live process: spawn a trivial child,
    reap it, return its (now free) pid."""
    import subprocess
    import sys
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


class TestFailureInjection:
    """A failing worker must surface fast, with a diagnostic naming the
    failed worker and its PEs — and leave /dev/shm clean (audited by
    the autouse fixture)."""

    def _run_injected(self, monkeypatch, spec, *, timeout="2.0"):
        monkeypatch.setenv(INJECT_ENV, spec)
        monkeypatch.setenv(BARRIER_TIMEOUT_ENV, timeout)
        machine = Machine(grid=(2, 2), keep_message_log=True)
        with pytest.raises(ExecutionError) as exc:
            run_kernel("nine_point", bindings={"N": 12}, level="O2",
                       backend="parallel", workers=2, machine=machine)
        return exc.value

    def test_dead_worker_named_with_pes(self, monkeypatch):
        err = str(self._run_injected(monkeypatch, "die:1"))
        assert "worker 1" in err
        assert "[1, 3]" in err  # the round-robin PEs worker 1 owned
        assert "died" in err and "exit code 3" in err

    def test_dead_worker_detected_quickly(self, monkeypatch):
        import time
        monkeypatch.setenv(INJECT_ENV, "die:0")
        machine = Machine(grid=(2, 2))
        t0 = time.monotonic()
        with pytest.raises(ExecutionError, match="worker 0"):
            run_kernel("nine_point", bindings={"N": 12}, level="O2",
                       backend="parallel", workers=2, machine=machine)
        # liveness polling, not the (default 120s) barrier timeout
        assert time.monotonic() - t0 < 30.0

    def test_stalled_worker_hits_barrier_timeout(self, monkeypatch):
        err = str(self._run_injected(monkeypatch, "stall:1",
                                     timeout="0.5"))
        assert "worker 1" in err
        assert "[1, 3]" in err

    def test_corrupted_collective_payload_detected(self, monkeypatch):
        # nine_point has no reductions; use a program with one so the
        # corruption lands on a collective payload
        monkeypatch.setenv(INJECT_ENV, "corrupt:1")
        machine = Machine(grid=(2, 2))
        source = ("      REAL, DIMENSION(N,N) :: A\n"
                  "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
                  "      S = SUM(A)\n"
                  "      A = A + S * 0.001\n")
        compiled = compile_hpf(source, bindings={"N": 12}, level="O2",
                               outputs={"A"})
        with pytest.raises(ExecutionError, match="diverged") as exc:
            compiled.run(machine, inputs={"A": np.ones((12, 12))},
                         backend="parallel", workers=2)
        err = str(exc.value)
        assert "worker 1" in err
        assert "PEs [1, 3]" in err

    def test_unset_env_is_inert(self, monkeypatch):
        monkeypatch.delenv(INJECT_ENV, raising=False)
        res, _ = _run("nine_point", workers=2)
        ref = run_kernel("nine_point", bindings={"N": 12}, level="O2",
                         machine=Machine(grid=(2, 2)))
        np.testing.assert_array_equal(ref.arrays["DST"],
                                      res.arrays["DST"])


class TestScalarCommunication:
    """Control-flow scalars are communicated, not recomputed on faith:
    every worker's value passes through the collective channel."""

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
        """``S = SUM(A)`` over +inf and -inf is NaN on every replica,
        bit for bit (``SUM(A)/SUM(B)`` with both zero would be, did
        Python not raise ``ZeroDivisionError`` on every backend); the
        coordinator's shard check must compare bit patterns (NaN != NaN)
        and keep the NaN, as ``perpe`` does."""
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
            with np.errstate(invalid="ignore"):
                runs[backend] = compiled.run(
                    Machine(grid=(2, 2)), inputs={"A": a}, backend=backend,
                    workers=2)
        assert np.isnan(runs["perpe"].scalars["S"])
        for observable in ("scalars", "arrays"):
            perpe, parallel = (
                {k: np.asarray(v).tobytes()
                 for k, v in getattr(runs[backend], observable).items()}
                for backend in ("perpe", "parallel"))
            assert perpe == parallel
