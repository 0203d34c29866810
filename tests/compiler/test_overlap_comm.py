"""Communication/computation overlap tests (``overlap_comm=True``).

The executor splits each nest into the interior (whose stencil reads
touch no overlap cell) and boundary strips, and credits each PE with
``min(comm, interior)`` — the time hidden behind the messages.
Correctness must be bit-identical; only the modelled timeline changes.
"""

import numpy as np
import pytest

from repro import kernels
from repro.compiler import compile_hpf
from repro.plan import OverlappedOp
from repro.frontend import parse_program
from repro.machine import Machine
from repro.runtime.reference import evaluate


def compiled(overlap, n=64, level="O4", src=None, outputs=None):
    return compile_hpf(src or kernels.PURDUE_PROBLEM9,
                       bindings={"N": n}, level=level,
                       outputs=outputs or {"T"}, overlap_comm=overlap)


class TestPlanStructure:
    def test_overlapped_op_created(self):
        cp = compiled(True)
        assert cp.plan.count_ops(OverlappedOp) == 1
        ovl = next(op for op in cp.plan.ops
                   if isinstance(op, OverlappedOp))
        assert len(ovl.comm_ops) == 4
        assert len(ovl.nest.statements) == 7

    def test_off_by_default(self):
        cp = compiled(False)
        assert cp.plan.count_ops(OverlappedOp) == 0

    def test_overlap_comm_is_the_last_plan_pass(self):
        from repro.compiler import HpfCompiler
        from repro.plan import default_plan_passes

        def names(level, **options):
            return [p.name for p in HpfCompiler.at_level(
                level, **options).build_plan_passes()]

        default = [p.name for p in default_plan_passes()]
        assert names("O5", overlap_comm=True) == default + ["overlap-comm"]
        assert names("O4", overlap_comm=True) == ["overlap-comm"]
        assert names("O5") == default
        assert names("O4") == []

    def test_describe_plan_renders(self):
        from repro.analysis.report import describe_plan
        text = describe_plan(compiled(True).plan)
        assert "overlap communication with interior computation" in text

    def test_fortran_emission(self):
        text = compiled(True).emit_fortran()
        assert "CALL OVERLAP_SHIFT_START(" in text
        assert "CALL OVERLAP_SHIFT_WAIT()" in text


class TestCorrectness:
    def test_identical_results(self):
        u = np.random.default_rng(0).standard_normal(
            (64, 64)).astype(np.float32)
        base = compiled(False).run(Machine(grid=(2, 2)),
                                   inputs={"U": u})
        over = compiled(True).run(Machine(grid=(2, 2)), inputs={"U": u})
        np.testing.assert_array_equal(base.arrays["T"], over.arrays["T"])

    @pytest.mark.parametrize("src,out,inp", [
        (kernels.FIVE_POINT_ARRAY_SYNTAX, "DST", "SRC"),
        (kernels.NINE_POINT_CSHIFT, "DST", "SRC"),
        (kernels.TWENTYFIVE_POINT_ARRAY_SYNTAX, "DST", "SRC"),
    ])
    def test_matches_reference(self, src, out, inp):
        n = 32
        u = np.random.default_rng(1).standard_normal(
            (n, n)).astype(np.float32)
        scalars = {f"C{i}": 1.0 for i in range(1, 10)}
        scalars.update({f"W{i}": 1.0 for i in range(1, 26)})
        ref = evaluate(parse_program(src, bindings={"N": n}),
                       inputs={inp: u}, scalars=scalars)[out]
        cp = compiled(True, n=n, src=src, outputs={out})
        res = cp.run(Machine(grid=(2, 2)), inputs={inp: u},
                     scalars=scalars)
        np.testing.assert_allclose(res.arrays[out], ref, rtol=1e-5)

    def test_small_blocks_all_boundary(self):
        # 8x8 on 2x2 with radius-2 reach: interior still exists (4x4
        # block minus 2 on each side would be empty -> all boundary)
        n = 8
        u = np.random.default_rng(2).standard_normal(
            (n, n)).astype(np.float32)
        w = {f"W{i}": 1.0 for i in range(1, 26)}
        ref = evaluate(parse_program(kernels.TWENTYFIVE_POINT_ARRAY_SYNTAX,
                                     bindings={"N": n}),
                       inputs={"SRC": u}, scalars=w)["DST"]
        cp = compiled(True, n=n, src=kernels.TWENTYFIVE_POINT_ARRAY_SYNTAX,
                      outputs={"DST"})
        res = cp.run(Machine(grid=(2, 2)), inputs={"SRC": u}, scalars=w)
        np.testing.assert_allclose(res.arrays["DST"], ref, rtol=1e-5)


class TestTimeline:
    def test_modelled_time_improves(self):
        times = {}
        for overlap in (False, True):
            res = compiled(overlap, n=256).run(
                Machine(grid=(2, 2), keep_message_log=False))
            times[overlap] = res.modelled_time
        assert times[True] < times[False]

    def test_saving_bounded_by_comm(self):
        base = compiled(False, n=256).run(
            Machine(grid=(2, 2), keep_message_log=False))
        over = compiled(True, n=256).run(
            Machine(grid=(2, 2), keep_message_log=False))
        saved = base.modelled_time - over.modelled_time
        comm = base.report.pe_comm_times[0]
        assert 0 < saved <= comm + 1e-12

    def test_messages_unchanged(self):
        base = compiled(False).run(Machine(grid=(2, 2)))
        over = compiled(True).run(Machine(grid=(2, 2)))
        assert base.report.messages == over.report.messages

    def test_loop_points_unchanged(self):
        # interior + strips must partition the compute box exactly
        base = compiled(False).run(Machine(grid=(2, 2)))
        over = compiled(True).run(Machine(grid=(2, 2)))
        assert base.report.loop_points == over.report.loop_points


class TestInsideTimeLoop:
    def test_jacobi_with_overlap(self):
        src = """
        REAL U(32,32), T(32,32)
        DO K = 1, 4
          T = 0.25 * (CSHIFT(U,1,1) + CSHIFT(U,-1,1)
     &              + CSHIFT(U,1,2) + CSHIFT(U,-1,2))
          U = T
        ENDDO
        """
        u = np.random.default_rng(3).standard_normal(
            (32, 32)).astype(np.float32)
        ref = evaluate(parse_program(src, bindings={"N": 32}),
                       inputs={"U": u})["U"]
        cp = compile_hpf(src, bindings={"N": 32}, level="O4",
                         outputs={"U"}, overlap_comm=True)
        assert cp.plan.count_ops(OverlappedOp) == 1  # inside the DO
        res = cp.run(Machine(grid=(2, 2)), inputs={"U": u})
        np.testing.assert_allclose(res.arrays["U"], ref, rtol=1e-5)


class TestSplitHazard:
    """Regression: a statement reading its own LHS at a nonzero offset
    has whole-RHS-snapshot semantics that iteration-space splitting
    would violate (found by the differential fuzzer)."""

    SELF_READ = """
    REAL A(16,16), B(16,16)
    A = 1.72 * CSHIFT(A,SHIFT=2,DIM=1) + B
    """

    def test_self_displaced_read_not_wrapped(self):
        cp = compile_hpf(self.SELF_READ, bindings={"N": 16}, level="O4",
                         outputs={"A"}, overlap_comm=True)
        assert cp.plan.count_ops(OverlappedOp) == 0

    def test_self_displaced_read_correct(self):
        a = np.random.default_rng(5).standard_normal(
            (16, 16)).astype(np.float32)
        b = np.random.default_rng(6).standard_normal(
            (16, 16)).astype(np.float32)
        ref = evaluate(parse_program(self.SELF_READ, bindings={"N": 16}),
                       inputs={"A": a, "B": b})["A"]
        cp = compile_hpf(self.SELF_READ, bindings={"N": 16}, level="O4",
                         outputs={"A"}, overlap_comm=True)
        res = cp.run(Machine(grid=(2, 2)), inputs={"A": a, "B": b})
        np.testing.assert_allclose(res.arrays["A"], ref, rtol=1e-6)

    def test_aligned_self_read_still_wrapped(self):
        src = """
        REAL A(16,16), B(16,16)
        A = A + CSHIFT(B,SHIFT=1,DIM=1)
        """
        cp = compile_hpf(src, bindings={"N": 16}, level="O4",
                         outputs={"A"}, overlap_comm=True)
        assert cp.plan.count_ops(OverlappedOp) == 1
