"""Golden test: the paper's extended example (section 4, Figures 12-15).

Traces Problem 9 through the full pipeline and compares the IR after
each phase against the code the paper prints.  Names differ only where
the paper's figures are themselves schematic (the shared temporary is
``TMP`` in the paper, ``TMP1`` here).
"""

import pytest

from repro import kernels
from repro.compiler import HpfCompiler
from repro.compiler.options import CompilerOptions, OptLevel


@pytest.fixture(scope="module")
def trace():
    options = CompilerOptions.make(OptLevel.O4, outputs={"T"},
                                   keep_trace=True)
    compiled = HpfCompiler(options).compile(
        kernels.PURDUE_PROBLEM9, bindings={"N": 16})
    return compiled.trace


def lines(text):
    return [ln.strip() for ln in text.strip().splitlines()]


class TestFigure12Normalization:
    def test_normalized_form(self, trace):
        got = lines(trace.after("normalize"))
        assert got == [
            "ALLOCATE TMP1",
            "RIP = CSHIFT(U,SHIFT=+1,DIM=1)",
            "RIN = CSHIFT(U,SHIFT=-1,DIM=1)",
            "T = U + RIP + RIN",
            "TMP1 = CSHIFT(U,SHIFT=-1,DIM=2)",
            "T = T + TMP1",
            "TMP1 = CSHIFT(U,SHIFT=+1,DIM=2)",
            "T = T + TMP1",
            "TMP1 = CSHIFT(RIP,SHIFT=-1,DIM=2)",
            "T = T + TMP1",
            "TMP1 = CSHIFT(RIP,SHIFT=+1,DIM=2)",
            "T = T + TMP1",
            "TMP1 = CSHIFT(RIN,SHIFT=-1,DIM=2)",
            "T = T + TMP1",
            "TMP1 = CSHIFT(RIN,SHIFT=+1,DIM=2)",
            "T = T + TMP1",
            "DEALLOCATE TMP1",
        ]


class TestFigure13OffsetArrays:
    def test_offset_form(self, trace):
        got = lines(trace.after("offset-arrays"))
        assert got == [
            "CALL OVERLAP_SHIFT(U,SHIFT=+1,DIM=1)",
            "CALL OVERLAP_SHIFT(U,SHIFT=-1,DIM=1)",
            "T = U + U<+1,0> + U<-1,0>",
            "CALL OVERLAP_SHIFT(U,SHIFT=-1,DIM=2)",
            "T = T + U<0,-1>",
            "CALL OVERLAP_SHIFT(U,SHIFT=+1,DIM=2)",
            "T = T + U<0,+1>",
            "CALL OVERLAP_SHIFT(U<+1,0>,SHIFT=-1,DIM=2)",
            "T = T + U<+1,-1>",
            "CALL OVERLAP_SHIFT(U<+1,0>,SHIFT=+1,DIM=2)",
            "T = T + U<+1,+1>",
            "CALL OVERLAP_SHIFT(U<-1,0>,SHIFT=-1,DIM=2)",
            "T = T + U<-1,-1>",
            "CALL OVERLAP_SHIFT(U<-1,0>,SHIFT=+1,DIM=2)",
            "T = T + U<-1,+1>",
        ]


class TestFigure14ContextPartitioning:
    def test_partitioned_form(self, trace):
        got = lines(trace.after("context-partition"))
        assert got == [
            "CALL OVERLAP_SHIFT(U,SHIFT=+1,DIM=1)",
            "CALL OVERLAP_SHIFT(U,SHIFT=-1,DIM=1)",
            "CALL OVERLAP_SHIFT(U,SHIFT=-1,DIM=2)",
            "CALL OVERLAP_SHIFT(U,SHIFT=+1,DIM=2)",
            "CALL OVERLAP_SHIFT(U<+1,0>,SHIFT=-1,DIM=2)",
            "CALL OVERLAP_SHIFT(U<+1,0>,SHIFT=+1,DIM=2)",
            "CALL OVERLAP_SHIFT(U<-1,0>,SHIFT=-1,DIM=2)",
            "CALL OVERLAP_SHIFT(U<-1,0>,SHIFT=+1,DIM=2)",
            "T = U + U<+1,0> + U<-1,0>",
            "T = T + U<0,-1>",
            "T = T + U<0,+1>",
            "T = T + U<+1,-1>",
            "T = T + U<+1,+1>",
            "T = T + U<-1,-1>",
            "T = T + U<-1,+1>",
        ]


class TestFigure15CommunicationUnioning:
    def test_unioned_form(self, trace):
        got = lines(trace.after("comm-union"))
        assert got == [
            "CALL OVERLAP_SHIFT(U,SHIFT=-1,DIM=1)",
            "CALL OVERLAP_SHIFT(U,SHIFT=+1,DIM=1)",
            "CALL OVERLAP_SHIFT(U,SHIFT=-1,DIM=2,[0:n1+1,*])",
            "CALL OVERLAP_SHIFT(U,SHIFT=+1,DIM=2,[0:n1+1,*])",
            "T = U + U<+1,0> + U<-1,0>",
            "T = T + U<0,-1>",
            "T = T + U<0,+1>",
            "T = T + U<+1,-1>",
            "T = T + U<+1,+1>",
            "T = T + U<-1,-1>",
            "T = T + U<-1,+1>",
        ]


class TestFigure16Scalarization:
    """The final plan: four shifts plus one fused subgrid nest."""

    def test_plan_shape(self):
        from repro.compiler import compile_hpf
        from repro.plan import LoopNestOp, OverlapShiftOp
        compiled = compile_hpf(kernels.PURDUE_PROBLEM9,
                               bindings={"N": 16},
                               level="O4", outputs={"T"})
        ops = list(compiled.plan.walk_ops())
        shifts = [op for op in ops if isinstance(op, OverlapShiftOp)]
        nests = [op for op in ops if isinstance(op, LoopNestOp)]
        assert len(shifts) == 4
        assert len(nests) == 1
        assert len(nests[0].statements) == 7
        assert nests[0].fused
