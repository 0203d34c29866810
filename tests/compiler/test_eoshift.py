"""EOSHIFT generalization tests (paper section 2.1: "the techniques
presented can be generalized to handle the EOSHIFT intrinsic as well").

EOSHIFT-derived offset arrays get boundary-filled overlap areas; fills
of different kinds never share an overlap region (the fill discipline),
and communication unioning unions CSHIFT- and EOSHIFT-derived
requirements separately.
"""

import numpy as np
import pytest

from repro.compiler import compile_hpf
from repro.plan import FullShiftOp, OverlapShiftOp
from repro.frontend import parse_program
from repro.machine import Machine
from repro.passes.normalize import NormalizePass
from repro.passes.offset_arrays import OffsetArrayPass
from repro.runtime.reference import evaluate

#: a 5-point stencil with zero-flux-style boundaries via EOSHIFT
EOS_FIVE_POINT = """
      REAL, DIMENSION(N,N) :: T, U
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
!HPF$ ALIGN U WITH T
      T = U + EOSHIFT(U,SHIFT=+1,DIM=1) + EOSHIFT(U,SHIFT=-1,DIM=1)
      T = T + EOSHIFT(U,SHIFT=+1,DIM=2)
      T = T + EOSHIFT(U,SHIFT=-1,DIM=2)
"""

#: corner-using EOSHIFT stencil (multi-offset chains, same boundary).
#: note Fortran's EOSHIFT argument order: (ARRAY, SHIFT, BOUNDARY, DIM),
#: so DIM must be passed by keyword
EOS_NINE_POINT = """
      REAL, DIMENSION(N,N) :: T, U
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
!HPF$ ALIGN U WITH T
      T = U + EOSHIFT(U,+1,DIM=1) + EOSHIFT(U,-1,DIM=1)
      T = T + EOSHIFT(U,+1,DIM=2) + EOSHIFT(U,-1,DIM=2)
      T = T + EOSHIFT(EOSHIFT(U,+1,DIM=1),+1,DIM=2)
      T = T + EOSHIFT(EOSHIFT(U,+1,DIM=1),-1,DIM=2)
      T = T + EOSHIFT(EOSHIFT(U,-1,DIM=1),+1,DIM=2)
      T = T + EOSHIFT(EOSHIFT(U,-1,DIM=1),-1,DIM=2)
"""


def grid(n, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n, n)).astype(np.float32)


def check_levels(src, n=16, seed=0):
    u = grid(n, seed)
    ref = evaluate(parse_program(src, bindings={"N": n}),
                   inputs={"U": u})["T"]
    for level in ("O0", "O1", "O2", "O3", "O4"):
        cp = compile_hpf(src, bindings={"N": n}, level=level,
                         outputs={"T"})
        res = cp.run(Machine(grid=(2, 2)), inputs={"U": u})
        np.testing.assert_allclose(res.arrays["T"], ref, rtol=1e-5,
                                   err_msg=level)
        yield level, cp, res


class TestEOShiftPipeline:
    def test_five_point_all_levels_correct(self):
        list(check_levels(EOS_FIVE_POINT))

    def test_nine_point_corners_correct(self):
        list(check_levels(EOS_NINE_POINT, seed=3))

    def test_shifts_converted_to_overlap(self):
        for level, cp, _ in check_levels(EOS_FIVE_POINT):
            if level == "O4":
                assert cp.plan.count_ops(FullShiftOp) == 0
                assert cp.plan.count_ops(OverlapShiftOp) == 4

    def test_unioning_minimal_messages(self):
        for level, cp, res in check_levels(EOS_NINE_POINT, seed=4):
            if level == "O3":
                assert cp.plan.count_ops(OverlapShiftOp) == 4

    def test_boundary_on_plan_ops(self):
        cp = compile_hpf(EOS_FIVE_POINT, bindings={"N": 16}, level="O4",
                         outputs={"T"})
        shifts = [op for op in cp.plan.walk_ops()
                  if isinstance(op, OverlapShiftOp)]
        assert all(op.boundary == 0.0 for op in shifts)

    def test_edge_pes_send_fewer_messages(self):
        cp = compile_hpf(EOS_FIVE_POINT, bindings={"N": 16}, level="O4",
                         outputs={"T"})
        res = cp.run(Machine(grid=(2, 2)), inputs={"U": grid(16)})
        # circular would send 16; edge PEs fill with boundary instead
        assert res.report.messages == 8

    def test_convert_eoshift_off(self):
        p = parse_program(EOS_FIVE_POINT, bindings={"N": 16})
        NormalizePass().run(p)
        pass_ = OffsetArrayPass(outputs={"T"}, convert_eoshift=False)
        pass_.run(p)
        assert pass_.stats.shifts_converted == 0


#: the same corner stencil with the chains written *descending* (dim 2
#: inner, dim 1 outer).  The runtime's corner pickup carries the
#: sender's overlap data in either dimension order, but the coverage
#: verifier used to credit only ascending-order chains and rejected
#: these programs at O1/O2 with "corner cells not carried".
EOS_NINE_POINT_DESC = """
      REAL, DIMENSION(N,N) :: T, U
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
!HPF$ ALIGN U WITH T
      T = U + EOSHIFT(U,+1,DIM=1) + EOSHIFT(U,-1,DIM=1)
      T = T + EOSHIFT(U,+1,DIM=2) + EOSHIFT(U,-1,DIM=2)
      T = T + EOSHIFT(EOSHIFT(U,+1,DIM=2),+1,DIM=1)
      T = T + EOSHIFT(EOSHIFT(U,+1,DIM=2),-1,DIM=1)
      T = T + EOSHIFT(EOSHIFT(U,-1,DIM=2),+1,DIM=1)
      T = T + EOSHIFT(EOSHIFT(U,-1,DIM=2),-1,DIM=1)
"""

CSHIFT_CORNER_DESC = """
      REAL, DIMENSION(N,N) :: T, U
!HPF$ DISTRIBUTE T(BLOCK,BLOCK)
!HPF$ ALIGN U WITH T
      T = CSHIFT(CSHIFT(U,SHIFT=1,DIM=2),SHIFT=1,DIM=1)
     &  + CSHIFT(CSHIFT(U,SHIFT=-1,DIM=2),SHIFT=1,DIM=1)
"""


class TestDescendingChains:
    """Descending-dimension shift chains vs. the reference interpreter
    (regression: these failed to compile at O1/O2 before the verifier
    accepted order-independent corner pickup)."""

    def test_eoshift_descending_all_levels(self):
        list(check_levels(EOS_NINE_POINT_DESC, seed=8))

    def test_cshift_descending_all_levels(self):
        list(check_levels(CSHIFT_CORNER_DESC, n=12, seed=9))

    def test_descending_matches_ascending_plan_traffic(self):
        for n in (12, 16):
            u = grid(n, seed=n)
            ref = evaluate(parse_program(EOS_NINE_POINT_DESC,
                                         bindings={"N": n}),
                           inputs={"U": u})["T"]
            for level in ("O1", "O2"):
                cp = compile_hpf(EOS_NINE_POINT_DESC, bindings={"N": n},
                                 level=level, outputs={"T"})
                for g in ((2, 2), (4, 1), (1, 4)):
                    res = cp.run(Machine(grid=g), inputs={"U": u})
                    np.testing.assert_allclose(res.arrays["T"], ref,
                                               rtol=1e-5,
                                               err_msg=f"{level} {g}")


class TestFillDiscipline:
    MIXED = """
    REAL A(16,16), B(16,16), C(16,16), U(16,16)
    A = CSHIFT(U,SHIFT=1,DIM=1)
    B = EOSHIFT(U,SHIFT=1,DIM=1)
    C = A + B
    """

    def test_conflicting_fills_not_both_converted(self):
        p = parse_program(self.MIXED)
        NormalizePass().run(p)
        pass_ = OffsetArrayPass(outputs={"C"})
        pass_.run(p)
        assert pass_.stats.shifts_converted == 1
        assert pass_.stats.shifts_kept == 1
        assert pass_.stats.fill_conflicts == 1

    def test_mixed_fills_correct_everywhere(self):
        u = grid(16, 5)
        ref = evaluate(parse_program(self.MIXED), inputs={"U": u})["C"]
        for level in ("O0", "O4"):
            cp = compile_hpf(self.MIXED, level=level, outputs={"C"})
            res = cp.run(Machine(grid=(2, 2)), inputs={"U": u})
            np.testing.assert_allclose(res.arrays["C"], ref, rtol=1e-5)

    def test_different_regions_no_conflict(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16), U(16,16)
        A = CSHIFT(U,SHIFT=1,DIM=1)
        B = EOSHIFT(U,SHIFT=-1,DIM=1)
        C = A + B
        """
        p = parse_program(src)
        NormalizePass().run(p)
        pass_ = OffsetArrayPass(outputs={"C"})
        pass_.run(p)
        assert pass_.stats.shifts_converted == 2
        assert pass_.stats.fill_conflicts == 0

    def test_different_boundary_values_conflict(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16), U(16,16)
        A = EOSHIFT(U,SHIFT=1,DIM=1,BOUNDARY=1.0)
        B = EOSHIFT(U,SHIFT=1,DIM=1,BOUNDARY=2.0)
        C = A + B
        """
        p = parse_program(src)
        NormalizePass().run(p)
        pass_ = OffsetArrayPass(outputs={"C"})
        pass_.run(p)
        assert pass_.stats.fill_conflicts == 1

    def test_different_boundaries_still_correct(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16), U(16,16)
        A = EOSHIFT(U,SHIFT=1,DIM=1,BOUNDARY=1.0)
        B = EOSHIFT(U,SHIFT=1,DIM=1,BOUNDARY=2.0)
        C = A + B
        """
        u = grid(16, 6)
        ref = evaluate(parse_program(src), inputs={"U": u})["C"]
        for level in ("O0", "O4"):
            cp = compile_hpf(src, level=level, outputs={"C"})
            res = cp.run(Machine(grid=(2, 2)), inputs={"U": u})
            np.testing.assert_allclose(res.arrays["C"], ref, rtol=1e-5)

    def test_homogeneous_chain_required(self):
        # CSHIFT of an EOSHIFT-offset array must not compose
        src = """
        REAL A(16,16), B(16,16), C(16,16), U(16,16)
        A = EOSHIFT(U,SHIFT=1,DIM=1)
        B = CSHIFT(A,SHIFT=1,DIM=2)
        C = B + 0
        """
        p = parse_program(src)
        NormalizePass().run(p)
        pass_ = OffsetArrayPass(outputs={"C"})
        pass_.run(p)
        assert pass_.stats.fill_conflicts >= 1

    def test_heterogeneous_chain_still_correct(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16), U(16,16)
        A = EOSHIFT(U,SHIFT=1,DIM=1)
        B = CSHIFT(A,SHIFT=1,DIM=2)
        C = B + 0
        """
        u = grid(16, 7)
        ref = evaluate(parse_program(src), inputs={"U": u})["C"]
        for level in ("O0", "O2", "O4"):
            cp = compile_hpf(src, level=level, outputs={"C"})
            res = cp.run(Machine(grid=(2, 2)), inputs={"U": u})
            np.testing.assert_allclose(res.arrays["C"], ref, rtol=1e-5)
