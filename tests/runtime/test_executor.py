"""Executor tests: plan-op behaviour, SPMD bounds, error handling."""

import numpy as np
import pytest

from repro import kernels
from repro.compiler import compile_hpf
from repro.errors import ExecutionError, SimulatedOutOfMemoryError
from repro.machine import Machine


def compiled_p9(level="O4", n=16):
    return compile_hpf(kernels.PURDUE_PROBLEM9, bindings={"N": n},
                       level=level, outputs={"T"})


class TestInputs:
    def test_case_insensitive_inputs(self):
        cp = compiled_p9()
        u = np.ones((16, 16), np.float32)
        res = cp.run(Machine(grid=(2, 2)), inputs={"u": u})
        assert res.arrays["T"][0, 0] == 9.0

    def test_missing_inputs_zeroed(self):
        cp = compiled_p9()
        res = cp.run(Machine(grid=(2, 2)))
        assert not res.arrays["T"].any()

    def test_wrong_shape_rejected(self):
        cp = compiled_p9()
        with pytest.raises(Exception):
            cp.run(Machine(grid=(2, 2)),
                   inputs={"U": np.zeros((4, 4), np.float32)})

    def test_scalars_resolved(self):
        cp = compile_hpf(kernels.FIVE_POINT_ARRAY_SYNTAX,
                         bindings={"N": 16}, level="O4", outputs={"DST"})
        u = np.ones((16, 16), np.float32)
        res = cp.run(Machine(grid=(2, 2)), inputs={"SRC": u},
                     scalars={"c1": 1, "C2": 1, "C3": 1, "C4": 1, "C5": 1})
        assert res.arrays["DST"][5, 5] == 5.0

    def test_unset_scalars_default_zero(self):
        cp = compile_hpf(kernels.FIVE_POINT_ARRAY_SYNTAX,
                         bindings={"N": 16}, level="O4", outputs={"DST"})
        res = cp.run(Machine(grid=(2, 2)),
                     inputs={"SRC": np.ones((16, 16), np.float32)})
        assert not res.arrays["DST"].any()


class TestCostAccounting:
    def test_report_messages(self):
        cp = compiled_p9(level="O3")
        res = cp.run(Machine(grid=(2, 2)))
        assert res.report.messages == 16
        assert res.report.copies == 0

    def test_o0_copies_charged(self):
        cp = compiled_p9(level="O0")
        res = cp.run(Machine(grid=(2, 2)))
        # 8 full shifts x 4 PEs x (buffer-in + shifted-out) copies
        assert res.report.copies == 64
        assert res.report.copy_elements == 64 * 64

    def test_loop_points_counted(self):
        cp = compiled_p9(level="O4")
        res = cp.run(Machine(grid=(2, 2)))
        assert res.report.loop_points == 16 * 16

    def test_iterations_scale_costs(self):
        cp = compiled_p9(level="O4")
        r1 = cp.run(Machine(grid=(2, 2)), iterations=1)
        r3 = cp.run(Machine(grid=(2, 2)), iterations=3)
        assert r3.report.messages == 3 * r1.report.messages
        assert r3.modelled_time == pytest.approx(3 * r1.modelled_time)

    def test_pe_times_balanced_even_blocks(self):
        cp = compiled_p9(level="O4")
        res = cp.run(Machine(grid=(2, 2)))
        times = res.report.pe_times
        assert max(times) == pytest.approx(min(times))

    def test_modelled_time_monotone_in_level(self):
        times = []
        for level in ("O0", "O1", "O2", "O3", "O4"):
            res = compiled_p9(level=level, n=64).run(Machine(grid=(2, 2)))
            times.append(res.modelled_time)
        assert times == sorted(times, reverse=True)


class TestMemoryBehaviour:
    def test_oom_propagates(self):
        cp = compiled_p9(level="O0", n=64)
        with pytest.raises(SimulatedOutOfMemoryError):
            cp.run(Machine(grid=(2, 2), memory_per_pe=8 * 1024))

    def test_peak_memory_reported(self):
        cp = compiled_p9(level="O4", n=16)
        res = cp.run(Machine(grid=(2, 2)))
        # U with halo (10x10) + T (8x8) per PE, float32
        assert res.peak_memory_per_pe == (10 * 10 + 8 * 8) * 4

    def test_all_memory_released_after_run(self):
        cp = compiled_p9(level="O0", n=16)
        machine = Machine(grid=(2, 2))
        cp.run(machine)
        assert machine.memory.live_blocks(0) == {}
        assert machine.memory.peak(0) > 0


class TestSPMDBounds:
    def test_interior_space_partial_pes(self):
        # with a 4x1 grid and space 2:15, the edge PEs compute 3 rows
        cp = compile_hpf(kernels.FIVE_POINT_ARRAY_SYNTAX,
                         bindings={"N": 16}, level="O4", outputs={"DST"})
        machine = Machine(grid=(4, 1))
        u = np.random.default_rng(0).standard_normal(
            (16, 16)).astype(np.float32)
        res = cp.run(machine, inputs={"SRC": u},
                     scalars={f"C{i}": 1.0 for i in range(1, 6)})
        assert res.report.loop_points == 14 * 14

    def test_empty_intersection_skipped(self):
        src = """
        REAL A(16,16)
        A(1:4,1:16) = 7
        """
        cp = compile_hpf(src, level="O4", outputs={"A"})
        res = cp.run(Machine(grid=(4, 1)))
        # only PE row 0 owns rows 1..4
        assert res.report.loop_points == 4 * 16
        assert (res.arrays["A"][:4] == 7).all()
        assert not res.arrays["A"][4:].any()


class TestReset:
    def test_machine_reset_between_runs(self):
        cp = compiled_p9()
        machine = Machine(grid=(2, 2))
        cp.run(machine)
        first = machine.report.messages
        cp.run(machine)
        assert machine.report.messages == first  # reset, not accumulated
