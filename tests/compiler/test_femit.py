"""Fortran77+MPI emission tests."""

import pytest

from repro import kernels
from repro.compiler import compile_hpf


def emit(src, level="O4", outputs=None, n=64, **opts):
    cp = compile_hpf(src, bindings={"N": n}, level=level,
                     outputs=outputs, **opts)
    return cp.emit_fortran()


class TestStructure:
    def test_subroutine_wrapper(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert text.startswith("      SUBROUTINE NODE_PROGRAM()")
        assert text.rstrip().endswith("END")
        assert "INCLUDE 'mpif.h'" in text

    def test_overlap_declarations(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert "REAL U(1-1:nl1+1, 1-1:nl2+1)" in text
        assert "REAL T(1:nl1, 1:nl2)" in text

    def test_four_overlap_shifts(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert text.count("CALL OVERLAP_SHIFT(") == 4
        assert "RSD=[0:n1+1,*]" in text

    def test_naive_emits_library_shifts(self):
        text = emit(kernels.PURDUE_PROBLEM9, level="O0", outputs={"T"})
        assert text.count("CALL LIB_CSHIFT(") == 8
        assert "CALL OVERLAP_SHIFT(" not in text

    def test_fused_nest_single_loop(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert "fused subgrid loop nest (7 statements)" in text

    def test_stencil_subscripts(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert "U(i+1,j-1)" in text
        assert "U(i-1,j+1)" in text


class TestUnrollAndJam:
    def test_unrolled_body(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"},
                    unroll_jam=2)
        assert "unroll-and-jam by 2" in text
        assert "T(i+1,j)" in text  # the jammed copy
        assert "remainder iterations" in text

    def test_no_unroll_below_o4(self):
        text = emit(kernels.PURDUE_PROBLEM9, level="O2", outputs={"T"})
        assert "unroll-and-jam" not in text

    def test_unroll_4_copies(self):
        text = emit(kernels.PURDUE_PROBLEM9, outputs={"T"},
                    unroll_jam=4)
        assert "T(i+3,j)" in text


class TestConstructs:
    def test_do_loop_wrapper(self):
        src = """
        REAL A(32,32)
        DO K = 1, 10
          A = A + 1.0
        ENDDO
        """
        text = emit(src, outputs={"A"}, n=32)
        assert "DO K = 1, 10" in text

    def test_if_condition(self):
        src = """
        REAL A(32,32)
        IF (X < 1) THEN
          A = 1.0
        ELSE
          A = 2.0
        ENDIF
        """
        text = emit(src, outputs={"A"}, n=32)
        assert "IF ((X .LT. 1)) THEN" in text
        assert "ELSE" in text

    def test_masked_statement(self):
        src = """
        REAL A(32,32), U(32,32)
        WHERE (U > 0) A = U
        """
        text = emit(src, outputs={"A"}, n=32)
        assert "LOGICAL MASK" in text
        assert "IF (MASK" in text

    def test_reduction_allreduce(self):
        src = """
        REAL A(32,32), OUT(32,32)
        S = SUM(A * A)
        OUT = OUT + S
        """
        text = emit(src, outputs={"OUT"}, n=32)
        assert "rpart1 = rpart1 + (A(i,j) * A(i,j))" in text
        assert "CALL MPI_ALLREDUCE(rpart1, rglob1" in text
        assert "MPI_SUM" in text
        assert "S = rglob1" in text

    def test_maxval_reduction(self):
        src = """
        REAL A(32,32), OUT(32,32)
        S = MAXVAL(A)
        OUT = OUT + S
        """
        text = emit(src, outputs={"OUT"}, n=32)
        assert "MPI_MAX" in text
        assert "-HUGE(1.0)" in text

    def test_eoshift_boundary(self):
        src = """
        REAL A(32,32), U(32,32)
        A = EOSHIFT(U,SHIFT=1,BOUNDARY=3.5,DIM=1)
        """
        text = emit(src, outputs={"A"}, n=32)
        assert "BOUNDARY=3.5" in text


class TestEmissionFuzz:
    """Emission must render any compilable subset program."""

    def test_random_programs_emit(self):
        from repro.testing import random_program
        from repro.compiler import compile_hpf
        for seed in range(25):
            prog = random_program(seed)
            for level in ("O0", "O4"):
                cp = compile_hpf(prog.source, bindings=prog.bindings,
                                 level=level, outputs=set(prog.arrays))
                text = cp.emit_fortran()
                assert text.startswith("      SUBROUTINE")
                assert text.rstrip().endswith("END")

    def test_extension_options_emit(self):
        from repro.testing import random_program
        from repro.compiler import compile_hpf
        prog = random_program(3)
        # default level: CSE'd shifts and the plan passes' ops, plus
        # the overlapped-communication regions of the ablation field
        cp = compile_hpf(prog.source, bindings=prog.bindings,
                         outputs=set(prog.arrays), overlap_comm=True)
        assert cp.emit_fortran()
