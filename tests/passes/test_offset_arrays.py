"""Offset-array pass tests (paper section 3.1)."""

import numpy as np
import pytest

from repro import kernels
from repro.frontend import parse_program
from repro.ir.nodes import ArrayAssign, OffsetRef, OverlapShift
from repro.ir.printer import format_program
from repro.passes.normalize import NormalizePass
from repro.passes.offset_arrays import OffsetArrayPass
from repro.runtime.reference import evaluate


def run_pass(src, outputs=None, max_offset=4, bindings=None):
    p = parse_program(src, bindings=bindings or {"N": 16})
    NormalizePass().run(p)
    pass_ = OffsetArrayPass(max_offset=max_offset, outputs=outputs)
    pass_.run(p)
    p.validate()
    return p, pass_.stats


def semantics_preserved(src, outputs, inputs, scalars=None, bindings=None):
    """The transformed program must compute the same values."""
    bindings = bindings or {"N": 16}
    before = parse_program(src, bindings=bindings)
    ref = evaluate(before, inputs=inputs, scalars=scalars)
    after, _ = run_pass(src, outputs=outputs, bindings=bindings)
    got = evaluate(after, inputs=inputs, scalars=scalars)
    for name in outputs:
        np.testing.assert_allclose(got[name], ref[name], rtol=1e-5)


class TestProblem9:
    def test_all_shifts_converted(self):
        _, stats = run_pass(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert stats.shifts_converted == 8
        assert stats.shifts_kept == 0

    def test_no_copies_needed(self):
        _, stats = run_pass(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert stats.copies_inserted == 0
        assert stats.copies_elided == 8

    def test_dead_temporaries_pruned(self):
        p, stats = run_pass(kernels.PURDUE_PROBLEM9, outputs={"T"})
        assert "TMP1" in stats.dead_arrays
        assert not any(s.is_temporary for s in p.symbols.arrays.values())

    def test_multi_offset_arrays_created(self):
        p, _ = run_pass(kernels.PURDUE_PROBLEM9, outputs={"T"})
        text = format_program(p)
        assert "U<+1,-1>" in text and "U<-1,+1>" in text

    def test_base_offsets_recorded(self):
        p, _ = run_pass(kernels.PURDUE_PROBLEM9, outputs={"T"})
        multi = [s for s in p.leaf_statements()
                 if isinstance(s, OverlapShift) and s.base_offsets]
        assert len(multi) == 4
        assert {s.base_offsets for s in multi} == {(1, 0), (-1, 0)}

    def test_semantics(self):
        u = np.random.default_rng(3).standard_normal((16, 16)).astype(
            np.float32)
        semantics_preserved(kernels.PURDUE_PROBLEM9, {"T"}, {"U": u})


class TestLiveOut:
    def test_live_out_intermediate_keeps_copy(self):
        # without an outputs set, RIP/RIN are live out -> copies stay
        p, stats = run_pass(kernels.PURDUE_PROBLEM9, outputs=None)
        assert stats.copies_inserted >= 2
        text = format_program(p)
        assert "RIP = U<+1,0>" in text

    def test_live_out_semantics(self):
        u = np.random.default_rng(4).standard_normal((16, 16)).astype(
            np.float32)
        semantics_preserved(kernels.PURDUE_PROBLEM9, {"T", "RIP", "RIN"},
                            {"U": u})


class TestCriteria:
    def test_large_shift_rejected(self):
        src = """
        REAL A(32,32), B(32,32)
        A = CSHIFT(B,SHIFT=8,DIM=1)
        """
        _, stats = run_pass(src, outputs={"A"}, max_offset=4,
                            bindings={"N": 32})
        assert stats.shifts_kept == 1
        assert stats.shifts_converted == 0

    def test_distribution_mismatch_rejected(self):
        src = """
        REAL A(16,16), B(16,16)
        !HPF$ DISTRIBUTE A(BLOCK,BLOCK)
        !HPF$ DISTRIBUTE B(BLOCK,*)
        A = CSHIFT(B,SHIFT=1,DIM=1)
        """
        _, stats = run_pass(src, outputs={"A"})
        assert stats.shifts_kept == 1

    def test_self_shift_rejected(self):
        src = """
        REAL A(16,16)
        A = CSHIFT(A,SHIFT=1,DIM=1)
        """
        _, stats = run_pass(src, outputs={"A"})
        assert stats.shifts_kept == 1

    def test_accumulated_offsets_bounded(self):
        # chains accumulate: 3 + 3 exceeds max_offset=4 on the second hop
        src = """
        REAL A(32,32), B(32,32), C(32,32), D(32,32)
        B = CSHIFT(A,SHIFT=3,DIM=1)
        C = CSHIFT(B,SHIFT=3,DIM=1)
        D = C + 0
        """
        _, stats = run_pass(src, outputs={"D"}, max_offset=4,
                            bindings={"N": 32})
        assert stats.shifts_converted == 1
        assert stats.shifts_kept == 1


class TestKills:
    def test_redefined_base_kills_relationship(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16), D(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        A = A + 1
        C = B + 0
        """
        p, stats = run_pass(src, outputs={"C"})
        # the use of B after A's redefinition must NOT be rewritten
        text = format_program(p)
        assert "C = B + 0" in text
        assert stats.copies_inserted == 1  # B must be materialised

    def test_kill_semantics(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        A = A + 1
        C = B + A
        """
        a = np.random.default_rng(5).standard_normal((16, 16)).astype(
            np.float32)
        semantics_preserved(src, {"C"}, {"A": a})

    def test_use_before_kill_still_rewritten(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16), D(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        C = B + 0
        A = A + 1
        D = A + 0
        """
        p, _ = run_pass(src, outputs={"C", "D"})
        text = format_program(p)
        assert "C = A<+1,0> + 0" in text


class TestControlFlow:
    def test_branch_join_conservative(self):
        # the relationship holds on one branch only -> meet drops it
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        IF (X < 1) THEN
          A = A + 1
        ENDIF
        C = B + 0
        """
        p, stats = run_pass(src, outputs={"C"})
        text = format_program(p)
        assert "C = B + 0" in text
        assert stats.copies_inserted == 1

    def test_branch_local_use_rewritten(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        IF (X < 1) THEN
          C = B + 0
        ENDIF
        """
        p, _ = run_pass(src, outputs={"C"})
        text = format_program(p)
        assert "C = A<+1,0> + 0" in text

    def test_loop_body_kill_invalidates_entry(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        DO K = 1, 3
          C = B + 0
          A = A + 1
        ENDDO
        """
        p, stats = run_pass(src, outputs={"C"})
        # A is killed inside the loop; the use of B in iteration 2 must
        # read the materialised copy
        text = format_program(p)
        assert "C = B + 0" in text
        assert stats.copies_inserted == 1

    def test_loop_semantics(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        DO K = 1, 3
          C = C + B
          A = A + 1
        ENDDO
        """
        a = np.random.default_rng(6).standard_normal((16, 16)).astype(
            np.float32)
        semantics_preserved(src, {"C"}, {"A": a})

    def test_shift_inside_loop(self):
        src = """
        REAL A(16,16), B(16,16)
        DO K = 1, 3
          B = CSHIFT(A,SHIFT=1,DIM=1)
          A = B + 1
        ENDDO
        """
        a = np.random.default_rng(7).standard_normal((16, 16)).astype(
            np.float32)
        semantics_preserved(src, {"A"}, {"A": a})


class TestArraySyntax:
    def test_five_point_fully_converted(self):
        p, stats = run_pass(kernels.FIVE_POINT_ARRAY_SYNTAX,
                            outputs={"DST"})
        assert stats.shifts_converted == 4
        ovls = [s for s in p.leaf_statements()
                if isinstance(s, OverlapShift)]
        assert {(s.shift, s.dim) for s in ovls} == {
            (-1, 1), (-1, 2), (1, 1), (1, 2)}

    def test_sectioned_use_rewritten_with_offsets(self):
        p, _ = run_pass(kernels.FIVE_POINT_ARRAY_SYNTAX, outputs={"DST"})
        compute = [s for s in p.leaf_statements()
                   if isinstance(s, ArrayAssign)][0]
        offs = {n.offsets for n in compute.rhs.walk()
                if isinstance(n, OffsetRef)}
        assert offs == {(-1, 0), (0, -1), (1, 0), (0, 1)}


_CF_HEAD = """\
      REAL, DIMENSION(N,N) :: A, T, U, V
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ ALIGN A WITH U
!HPF$ ALIGN T WITH U
!HPF$ ALIGN V WITH U
"""

# Each program once miscompiled at O1 and up: a relation made in a loop
# that may not run leaked past it, or a condition's read of a shifted
# array did not keep its compensating copy.
_CONTROL_FLOW_PROGRAMS = {
    "zero_trip_do_while": """\
      V = CSHIFT(U,1,1)
      T = 5.0
      S = 0.0
      DO WHILE (S < 0.0)
        T = CSHIFT(U,1,1)
        S = S + 1.0
      ENDDO
      A = T + V
""",
    "zero_trip_do": """\
      T = 5.0
      DO K = 1, M
        T = CSHIFT(U,1,1)
      ENDDO
      A = T + U
""",
    "if_condition_read": """\
      T = CSHIFT(U,1,1)
      IF (SUM(T) > 0.0) THEN
        A = U + 1.0
      ELSE
        A = U - 1.0
      ENDIF
""",
    "do_while_condition_read": """\
      A = U
      T = CSHIFT(U,1,1)
      DO WHILE (SUM(T) > SUM(A) + 0.5)
        A = A + 1.0
      ENDDO
""",
}


@pytest.mark.parametrize("backend", ["perpe", "vectorized"])
@pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4", "O5"])
@pytest.mark.parametrize("name", sorted(_CONTROL_FLOW_PROGRAMS))
def test_control_flow_matches_reference(name, level, backend):
    from repro.compiler import compile_hpf
    from repro.machine import Machine

    src = _CF_HEAD + _CONTROL_FLOW_PROGRAMS[name]
    bindings = {"N": 8, "M": 0}
    rng = np.random.default_rng(0)
    # positive U; a stale T (never written) flips the condition
    inputs = {"U": np.abs(rng.standard_normal((8, 8))) + 0.1,
              "V": rng.standard_normal((8, 8)),
              "A": rng.standard_normal((8, 8)),
              "T": np.full((8, 8), 10.0 if "do_while" in name else -1.0)}
    ref = evaluate(parse_program(src, bindings=bindings), inputs=inputs)
    compiled = compile_hpf(src, bindings=bindings, level=level,
                           outputs={"A"})
    got = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                       backend=backend)
    np.testing.assert_allclose(got.arrays["A"], ref["A"], rtol=1e-6,
                               atol=1e-12)


_CHAIN_HEAD = """\
      REAL, DIMENSION(N,N) :: T, U, A
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ ALIGN T WITH U
!HPF$ ALIGN A WITH U
"""

#: shift chains through a temporary along one dimension: the composed
#: offset, not the last hop, is the depth the overlap area needs
_CHAINS = {
    "same_sign": "      T = CSHIFT(U,-1,2)\n      A = CSHIFT(T,-1,2)\n",
    "cancelling": "      T = CSHIFT(U,1,2)\n      A = CSHIFT(T,-1,2) + T\n",
    "shortening": "      T = CSHIFT(U,2,1)\n      A = CSHIFT(T,-1,1) + T\n",
    "widened": "      T = CSHIFT(U,1,1)\n      T = CSHIFT(T,1,2)\n"
               "      A = CSHIFT(T,1,2)\n",
    "eoshift": "      T = EOSHIFT(U,-1,0.0,2)\n"
               "      A = EOSHIFT(T,-1,0.0,2)\n",
    "in_a_loop": "      DO K = 1, M\n        T = CSHIFT(U,-1,2)\n"
                 "        A = CSHIFT(T,-1,2)\n      ENDDO\n",
    "in_a_branch": "      IF (SUM(U) > 0.0) THEN\n        T = CSHIFT(U,-1,2)\n"
                   "        A = CSHIFT(T,-1,2)\n      ENDIF\n",
}


class TestShiftChains:
    def test_the_second_hop_fills_to_the_composed_depth(self):
        p, stats = run_pass(_CHAIN_HEAD + _CHAINS["same_sign"],
                            outputs={"A"}, bindings={"N": 8})
        shifts = [s for s in p.body if isinstance(s, OverlapShift)]
        assert [(s.shift, s.dim, s.base_offsets) for s in shifts] == \
            [(-1, 2, None), (-2, 2, None)]
        assert stats.shifts_converted == 2

    def test_a_chain_back_onto_the_base_sends_nothing(self):
        p, _ = run_pass(_CHAIN_HEAD + _CHAINS["cancelling"],
                        outputs={"A"}, bindings={"N": 8})
        assert [(s.shift, s.dim) for s in p.body
                if isinstance(s, OverlapShift)] == [(1, 2)]
        assert "U<0,0>" in format_program(p)

    @pytest.mark.parametrize("backend", ["perpe", "vectorized"])
    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4", "O5"])
    @pytest.mark.parametrize("name", sorted(_CHAINS))
    def test_chains_match_the_reference(self, name, level, backend):
        from repro.compiler import compile_hpf
        from repro.machine import Machine

        src = _CHAIN_HEAD + _CHAINS[name]
        for m in (0, 1):
            bindings = {"N": 8, "M": m}
            rng = np.random.default_rng(m)
            inputs = {n: rng.standard_normal((8, 8)) for n in "TUA"}
            ref = evaluate(parse_program(src, bindings=bindings),
                           inputs=inputs)
            compiled = compile_hpf(src, bindings=bindings, level=level,
                                   outputs={"A"})
            got = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                               backend=backend)
            np.testing.assert_allclose(got.arrays["A"], ref["A"],
                                       rtol=1e-6, atol=1e-12)
