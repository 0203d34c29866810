"""Loop-invariant communication motion, end to end.

The plan owns this optimization (``HoistInvariantShiftsPass``, part of
the default level); the AST ``comm-motion`` pass these cases were
written for is gone, and with it the two cases only it could pass —
speculative hoisting out of a ``DO WHILE`` and the ``hoist_comm``
switch being off by default.  What remains compares the default level
with the paper's ``O4``; ``tests/plan/test_passes.py`` runs the same
sources through the pass itself.
"""

import numpy as np
import pytest

from repro.compiler import compile_hpf
from repro.frontend import parse_program
from repro.machine import Machine
from repro.runtime.reference import evaluate

#: a variable-coefficient stencil: K never changes inside the time loop,
#: so its overlap fills can hoist; U changes every iteration and cannot
VARCOEFF = """
      REAL, DIMENSION(N,N) :: U, T, K1
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ ALIGN T WITH U
!HPF$ ALIGN K1 WITH U
      DO STEP = 1, NSTEPS
        T = U + 0.25 * ( CSHIFT(K1,1,1) * CSHIFT(U,1,1)
     &                 + CSHIFT(K1,-1,1) * CSHIFT(U,-1,1) )
        U = T
      ENDDO
"""


def compiled(hoist, n=16, nsteps=4, source=VARCOEFF):
    return compile_hpf(source, bindings={"N": n, "NSTEPS": nsteps},
                       outputs={"U"}, **({} if hoist else {"level": "O4"}))


def hoisted(cp) -> int:
    return cp.report.pass_stats["plan-passes"][
        "hoist-invariant-shifts"]["hoisted_shifts"]


class TestHoisting:
    def test_invariant_shifts_hoisted(self):
        # K1's two shifts leave the loop
        assert hoisted(compiled(hoist=True)) == 2

    def test_variant_shifts_stay(self):
        cp = compiled(hoist=True)
        from repro.plan import OverlapShiftOp, SeqLoopOp
        loop = next(op for op in cp.plan.ops
                    if isinstance(op, SeqLoopOp))
        inside = [op for op in loop.body
                  if isinstance(op, OverlapShiftOp)]
        assert {op.array for op in inside} == {"U"}
        outside = [op for op in cp.plan.ops
                   if isinstance(op, OverlapShiftOp)]
        assert {op.array for op in outside} == {"K1"}

    def test_message_reduction(self):
        nsteps = 8
        k1 = np.abs(np.random.default_rng(0).standard_normal(
            (16, 16))).astype(np.float32)
        u = np.random.default_rng(1).standard_normal(
            (16, 16)).astype(np.float32)
        msgs = {}
        for hoist in (False, True):
            cp = compiled(hoist, nsteps=nsteps)
            res = cp.run(Machine(grid=(2, 2)),
                         inputs={"U": u, "K1": k1})
            msgs[hoist] = res.report.messages
        # without hoisting: 4 shifts x 4 PEs x nsteps;
        # with: 2 x 4 x nsteps + 2 x 4 once
        assert msgs[False] == 4 * 4 * nsteps
        assert msgs[True] == 2 * 4 * nsteps + 2 * 4

    def test_semantics_preserved(self):
        k1 = np.abs(np.random.default_rng(2).standard_normal(
            (16, 16))).astype(np.float32)
        u = np.random.default_rng(3).standard_normal(
            (16, 16)).astype(np.float32)
        ref = evaluate(parse_program(VARCOEFF,
                                     bindings={"N": 16, "NSTEPS": 4}),
                       inputs={"U": u, "K1": k1})["U"]
        for hoist in (False, True):
            res = compiled(hoist).run(Machine(grid=(2, 2)),
                                      inputs={"U": u, "K1": k1})
            np.testing.assert_allclose(res.arrays["U"], ref, rtol=1e-5,
                                       err_msg=f"hoist={hoist}")

    def test_modelled_time_improves(self):
        times = {}
        for hoist in (False, True):
            res = compiled(hoist, nsteps=8).run(Machine(grid=(2, 2)))
            times[hoist] = res.modelled_time
        assert times[True] < times[False]


class TestSafety:
    def test_killed_base_not_hoisted(self):
        src = """
        REAL U(16,16), T(16,16)
        DO STEP = 1, 3
          T = CSHIFT(U,1,1) + U
          U = T
        ENDDO
        """
        assert hoisted(compiled(hoist=True, source=src)) == 0

    def test_nested_loops_hoist_all_the_way(self):
        src = """
        REAL U(16,16), T(16,16), K1(16,16)
        DO A = 1, 2
          DO B = 1, 2
            T = CSHIFT(K1,1,1) + U
            U = T
          ENDDO
        ENDDO
        """
        cp = compiled(hoist=True, source=src)
        from repro.plan import OverlapShiftOp
        top_level_shifts = [op for op in cp.plan.ops
                            if isinstance(op, OverlapShiftOp)]
        assert len(top_level_shifts) == 1  # hoisted through both loops
