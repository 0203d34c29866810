"""Codegen tests: plan structure, halo assignment, fusion control."""

import numpy as np
import pytest

from repro import kernels
from repro.compiler import compile_hpf
from repro.plan import (
    AllocOp, FreeOp, FullShiftOp, LoopNestOp, OverlapShiftOp,
)


def plan_of(src, level="O4", outputs=None, bindings=None, **opts):
    cp = compile_hpf(src, bindings=bindings or {"N": 16}, level=level,
                     outputs=outputs, **opts)
    return cp.plan, cp.report


class TestPlanStructure:
    def test_o0_uses_full_shifts(self):
        plan, report = plan_of(kernels.PURDUE_PROBLEM9, level="O0",
                               outputs={"T"})
        assert report.full_shifts == 8
        assert report.overlap_shifts == 0
        assert report.loop_nests == 7

    def test_o4_uses_overlap_shifts(self):
        plan, report = plan_of(kernels.PURDUE_PROBLEM9, level="O4",
                               outputs={"T"})
        assert report.full_shifts == 0
        assert report.overlap_shifts == 4
        assert report.loop_nests == 1

    def test_alloc_free_paired(self):
        plan, _ = plan_of(kernels.NINE_POINT_CSHIFT, level="O0",
                          outputs={"DST"})
        allocs = [op for op in plan.walk_ops() if isinstance(op, AllocOp)]
        frees = [op for op in plan.walk_ops() if isinstance(op, FreeOp)]
        assert len(allocs) == 1 and len(frees) == 1
        assert set(allocs[0].names) == set(frees[0].names)

    def test_entry_arrays_exclude_allocated(self):
        plan, _ = plan_of(kernels.NINE_POINT_CSHIFT, level="O0",
                          outputs={"DST"})
        allocated = {n for op in plan.walk_ops()
                     if isinstance(op, AllocOp) for n in op.names}
        assert allocated.isdisjoint(plan.entry_arrays)
        assert {"SRC", "DST"} <= set(plan.entry_arrays)

    def test_sectioned_space(self):
        plan, _ = plan_of(kernels.FIVE_POINT_ARRAY_SYNTAX, level="O4",
                          outputs={"DST"})
        nest = next(op for op in plan.walk_ops()
                    if isinstance(op, LoopNestOp))
        los = [str(lo) for lo, _ in nest.space]
        his = [str(hi) for _, hi in nest.space]
        assert los == ["2", "2"] and his == ["N-1", "N-1"]


class TestHaloAssignment:
    def test_offset_refs_drive_halo(self):
        plan, _ = plan_of(kernels.PURDUE_PROBLEM9, level="O4",
                          outputs={"T"})
        assert plan.arrays["U"].halo == ((1, 1), (1, 1))
        assert plan.arrays["T"].halo == ((0, 0), (0, 0))

    def test_radius2_halo(self):
        plan, _ = plan_of(kernels.TWENTYFIVE_POINT_ARRAY_SYNTAX,
                          level="O4", outputs={"DST"},
                          bindings={"N": 20})
        assert plan.arrays["SRC"].halo == ((2, 2), (2, 2))

    def test_o0_no_halo_needed(self):
        plan, _ = plan_of(kernels.PURDUE_PROBLEM9, level="O0",
                          outputs={"T"})
        # full shifts go through private buffers; no array needs an
        # overlap area before the offset-array optimization creates one
        assert plan.arrays["U"].halo == ((0, 0), (0, 0))

    def test_asymmetric_halo(self):
        src = """
        REAL A(16,16), B(16,16)
        A = CSHIFT(B,SHIFT=2,DIM=1) + CSHIFT(B,SHIFT=-1,DIM=2)
        """
        plan, _ = plan_of(src, level="O4", outputs={"A"})
        assert plan.arrays["B"].halo == ((0, 2), (1, 0))


class TestFusionControl:
    def test_fusion_limit(self):
        _, report = plan_of(kernels.PURDUE_PROBLEM9, level="O4",
                            outputs={"T"}, fusion_limit=3)
        assert report.loop_nests == 3  # 7 statements in groups of <=3

    def test_no_fusion_below_o2(self):
        _, report = plan_of(kernels.PURDUE_PROBLEM9, level="O1",
                            outputs={"T"})
        assert report.loop_nests == 7
        assert report.fused_statements == 0

    def test_incongruent_spaces_not_fused(self):
        src = """
        REAL A(16,16), B(16,16)
        A(2:15,2:15) = 1
        B = 2
        """
        _, report = plan_of(src, level="O4", outputs={"A", "B"})
        assert report.loop_nests == 2

    def test_fusion_preventing_dep_breaks_nest(self):
        # B reads A at a nonzero offset: cannot fuse with A's definition
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        A(2:15,2:15) = C(2:15,2:15) + 1
        B(2:15,2:15) = A(1:14,2:15)
        """
        _, report = plan_of(src, level="O4", outputs={"A", "B"})
        assert report.loop_nests == 2


class TestNestStats:
    def test_o4_nest_annotated(self):
        plan, _ = plan_of(kernels.PURDUE_PROBLEM9, level="O4",
                          outputs={"T"})
        nest = next(op for op in plan.walk_ops()
                    if isinstance(op, LoopNestOp))
        assert nest.memopt and nest.unroll_jam == 2
        assert nest.stats.mem_loads == 2.0
        assert nest.stats.stores == 1.0

    def test_o2_nest_unoptimized(self):
        plan, _ = plan_of(kernels.PURDUE_PROBLEM9, level="O2",
                          outputs={"T"})
        nest = next(op for op in plan.walk_ops()
                    if isinstance(op, LoopNestOp))
        assert not nest.memopt
        assert nest.stats.stores == 7.0


class TestRSDPropagation:
    def test_unioned_rsd_reaches_plan(self):
        plan, _ = plan_of(kernels.PURDUE_PROBLEM9, level="O3",
                          outputs={"T"})
        dim2 = [op for op in plan.walk_ops()
                if isinstance(op, OverlapShiftOp) and op.dim == 2]
        assert len(dim2) == 2
        assert all(op.rsd is not None for op in dim2)
