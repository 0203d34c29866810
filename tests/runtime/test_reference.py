"""Serial reference evaluator tests — the oracle must itself be right.

Cross-checked against hand-written NumPy for every construct.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.frontend import parse_program
from repro.runtime.reference import _eoshift, _roll, evaluate


def grid(n=8, seed=0):
    return np.random.default_rng(seed).standard_normal(
        (n, n)).astype(np.float32)


class TestShiftPrimitives:
    @given(shift=st.integers(-3, 3).filter(bool),
           dim=st.integers(1, 2), seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_roll_is_fortran_cshift(self, shift, dim, seed):
        a = np.random.default_rng(seed).standard_normal((6, 6))
        out = _roll(a, shift, dim)
        # Fortran: result(i) = a(1 + MODULO(i-1+shift, n)) along dim
        for i in range(6):
            for j in range(6):
                si = (i + shift) % 6 if dim == 1 else i
                sj = (j + shift) % 6 if dim == 2 else j
                assert out[i, j] == a[si, sj]

    @given(shift=st.integers(-7, 7).filter(bool), seed=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_eoshift_boundary_fill(self, shift, seed):
        a = np.random.default_rng(seed).standard_normal((6, 6))
        out = _eoshift(a, shift, 1, boundary=9.0)
        for i in range(6):
            src = i + shift
            if 0 <= src < 6:
                assert (out[i] == a[src]).all()
            else:
                assert (out[i] == 9.0).all()

    def test_eoshift_full_offshift(self):
        a = np.ones((4, 4))
        assert (_eoshift(a, 4, 1, 7.0) == 7.0).all()
        assert (_eoshift(a, -5, 2, 7.0) == 7.0).all()


class TestEvaluate:
    def test_inputs_case_insensitive(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B")
        b = grid()
        out = evaluate(p, inputs={"b": b})
        np.testing.assert_array_equal(out["A"], b)

    def test_missing_inputs_zeroed(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B + 1")
        assert (evaluate(p)["A"] == 1).all()

    def test_wrong_shape_input(self):
        p = parse_program("REAL A(8,8)\nA = A")
        with pytest.raises(ExecutionError):
            evaluate(p, inputs={"A": np.zeros((4, 4))})

    def test_dtype_conversion(self):
        p = parse_program("REAL A(4,4)\nA = A * 2.0")
        out = evaluate(p, inputs={"A": np.ones((4, 4), np.float64)})
        assert out["A"].dtype == np.float32

    def test_sections(self):
        p = parse_program("REAL A(8,8)\nA(2:7,3:6) = 5.0")
        a = evaluate(p)["A"]
        assert (a[1:7, 2:6] == 5).all()
        assert a.sum() == 5 * 6 * 4

    def test_section_offsets_semantics(self):
        p = parse_program("""
        REAL A(8,8), B(8,8)
        A(2:7,2:7) = B(1:6,2:7)
        """)
        b = grid()
        a = evaluate(p, inputs={"B": b})["A"]
        np.testing.assert_array_equal(a[1:7, 1:7], b[0:6, 1:7])

    def test_scalar_binding(self):
        p = parse_program("REAL A(4,4)\nA = A + C")
        out = evaluate(p, inputs={"A": np.ones((4, 4))},
                       scalars={"c": 2.5})
        assert (out["A"] == 3.5).all()

    def test_scalar_chain(self):
        p = parse_program("""
        REAL A(4,4)
        X = 2.0
        Y = X * 3.0
        A = A + Y
        """)
        assert (evaluate(p)["A"] == 6.0).all()

    def test_negative_scalar_base_to_a_fractional_power_is_nan(self):
        """Real arithmetic stays real: Python's ``float.__pow__`` would
        make ``(-2.0) ** 0.5`` a complex; NumPy's real ``power`` (and
        every backend) gives NaN."""
        p = parse_program("REAL A(4,4)\nA = A + S**T")
        out = evaluate(p, inputs={"A": np.ones((4, 4))},
                       scalars={"S": -2.0, "T": 0.5})
        assert out["A"].dtype == np.float32
        assert np.isnan(out["A"]).all()
        # every other value is what it was
        out = evaluate(p, inputs={"A": np.ones((4, 4))},
                       scalars={"S": 2.0, "T": 0.5})
        assert (out["A"] == np.float32(1.0 + 2.0 ** 0.5)).all()

    def test_that_power_agrees_on_every_backend(self):
        """The same case through the reference at every level and the
        three-backend bitwise contract; a scalar assignment of it goes
        through ``_Exec.scalar``."""
        import math
        from repro.compiler import compile_hpf
        from repro.machine import Machine
        from repro.testing import (
            GeneratedProgram, backend_equivalence_check,
            differential_check)
        src = ("      REAL, DIMENSION(8,8) :: A\n"
               "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
               "      A = A + S**T\n")
        prog = GeneratedProgram(src, ["A"], scalars={"S": -2.0, "T": 0.5})
        inputs = {"A": np.ones((8, 8), dtype=np.float32)}
        differential_check(prog, inputs, levels=("O0", "O4"))
        backend_equivalence_check(prog, inputs, levels=("O4",))
        compiled = compile_hpf(src + "      X = S**T\n", outputs={"A"})
        for backend in ("perpe", "vectorized"):
            result = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                                  scalars=prog.scalars, backend=backend)
            assert math.isnan(result.scalars["X"])

    def test_param_in_expression(self):
        p = parse_program("PARAMETER (N = 4)\nREAL A(N,N)\nA = A + N")
        assert (evaluate(p)["A"] == 4).all()


class TestControlFlowSemantics:
    def test_if_on_scalar(self):
        p = parse_program("""
        REAL A(4,4)
        X = 2.0
        IF (X > 1) THEN
          A = 1.0
        ELSE
          A = -1.0
        ENDIF
        """)
        assert (evaluate(p)["A"] == 1.0).all()

    def test_do_loop_accumulates(self):
        p = parse_program("""
        REAL A(4,4)
        DO K = 1, 5
          A = A + 1.0
        ENDDO
        """)
        assert (evaluate(p)["A"] == 5.0).all()

    def test_loop_variable_visible(self):
        p = parse_program("""
        REAL A(4,4)
        DO K = 1, 3
          A = A + K
        ENDDO
        """)
        assert (evaluate(p)["A"] == 6.0).all()  # 1+2+3

    def test_do_while(self):
        p = parse_program("""
        REAL A(4,4)
        S = 4.0
        DO WHILE (S > 1.0)
          A = A + 1.0
          S = S / 2.0
        ENDDO
        """)
        assert (evaluate(p)["A"] == 2.0).all()

    def test_symbolic_loop_bounds(self):
        p = parse_program("""
        REAL A(4,4)
        DO K = 1, M
          A = A + 1.0
        ENDDO
        """, bindings={"N": 4, "M": 7})
        assert (evaluate(p)["A"] == 7.0).all()


class TestAllocation:
    def test_allocate_zeroes(self):
        p = parse_program("""
        REAL A(4,4)
        REAL, ALLOCATABLE :: T(:,:)
        ALLOCATE(T(4,4))
        T = 3.0
        A = T
        DEALLOCATE(T)
        ALLOCATE(T(4,4))
        A = A + T
        DEALLOCATE(T)
        """)
        assert (evaluate(p)["A"] == 3.0).all()  # fresh T is zero


class TestTransformedPrograms:
    """The oracle must evaluate post-pass IR (OffsetRef, OverlapShift)."""

    def test_offset_ref_circular(self):
        from repro.passes.normalize import NormalizePass
        from repro.passes.offset_arrays import OffsetArrayPass
        src = """
        REAL A(8,8), B(8,8)
        A = CSHIFT(B,SHIFT=1,DIM=1)
        C = 0.0
        """
        p = parse_program(src)
        before = evaluate(p, inputs={"B": grid(seed=1)})["A"]
        p2 = parse_program(src)
        NormalizePass().run(p2)
        OffsetArrayPass(outputs={"A"}).run(p2)
        after = evaluate(p2, inputs={"B": grid(seed=1)})["A"]
        np.testing.assert_array_equal(before, after)

    def test_eoshift_offset_ref(self):
        from repro.ir.nodes import ArrayAssign, ArrayRef, OffsetRef
        p = parse_program("REAL A(8,8), B(8,8)\nA = B")
        p.body[0] = ArrayAssign(ArrayRef("A"),
                                OffsetRef("B", (1, 0), boundary=5.0))
        b = grid(seed=2)
        a = evaluate(p, inputs={"B": b})["A"]
        np.testing.assert_array_equal(a[:-1], b[1:])
        assert (a[-1] == 5.0).all()
