"""Memory-optimization analysis tests (paper section 3.4)."""

import pytest

from repro.plan import NestStmt
from repro.ir.nodes import BinOp, Const, OffsetRef, ScalarRef
from repro.passes.memopt import analyze_nest, profile_nest, scaled_to_points


def rank2(_name):
    return 2


def ref(name, dx, dy):
    return OffsetRef(name, (dx, dy))


def add(*exprs):
    out = exprs[0]
    for e in exprs[1:]:
        out = BinOp("+", out, e)
    return out


def nine_point_fused():
    """The Figure 16 nest: T accumulates 9 offsets of U."""
    stmts = [NestStmt("T", add(ref("U", 0, 0), ref("U", 1, 0),
                               ref("U", -1, 0)))]
    for dx, dy in [(0, -1), (0, 1), (1, -1), (1, 1), (-1, -1), (-1, 1)]:
        stmts.append(NestStmt("T", add(ref("T", 0, 0), ref("U", dx, dy))))
    return stmts


class TestProfile:
    def test_reads_and_writes(self):
        prof = profile_nest(nine_point_fused(), rank2)
        assert len(prof.reads) == 15  # 9 U refs + 6 T re-reads
        assert len(prof.writes) == 7
        assert prof.flops == 8  # 8 additions

    def test_scalar_and_const_free(self):
        stmts = [NestStmt("T", BinOp("*", ScalarRef("C1"),
                                     BinOp("+", ref("U", 0, 0),
                                           Const(2.0))))]
        prof = profile_nest(stmts, rank2)
        assert len(prof.reads) == 1
        assert prof.flops == 2


class TestBaselineCache:
    """Hardware-cache row model without explicit memory optimization."""

    def test_fused_nine_point_three_rows(self):
        stats = analyze_nest(nine_point_fused(), rank2, memopt=False)
        # rows -1, 0, +1 of U miss once each; T re-reads hit (written
        # earlier in the nest)
        assert stats.mem_loads == 3.0
        assert stats.cached_loads == 12.0
        assert stats.stores == 7.0

    def test_unfused_accumulation_statement(self):
        stmts = [NestStmt("T", add(ref("T", 0, 0), ref("U", 0, -1)))]
        stats = analyze_nest(stmts, rank2)
        # T not written earlier in THIS nest -> it misses too
        assert stats.mem_loads == 2.0
        assert stats.stores == 1.0

    def test_same_row_shares_line(self):
        stmts = [NestStmt("T", add(ref("U", 0, -1), ref("U", 0, 0),
                                   ref("U", 0, 1)))]
        stats = analyze_nest(stmts, rank2)
        assert stats.mem_loads == 1.0
        assert stats.cached_loads == 2.0


class TestMemopt:
    def test_nine_point_unroll2(self):
        stats = analyze_nest(nine_point_fused(), rank2, memopt=True,
                             unroll_jam=2)
        # 3 rows amortised over u=2 -> (3+1)/2 = 2 loads; one store for T
        assert stats.mem_loads == 2.0
        assert stats.stores == 1.0
        assert stats.cached_loads == 13.0

    def test_unroll_factors(self):
        for u, expect in [(1, 3.0), (2, 2.0), (3, 5 / 3), (4, 1.5)]:
            stats = analyze_nest(nine_point_fused(), rank2, memopt=True,
                                 unroll_jam=u)
            assert stats.mem_loads == pytest.approx(expect)

    def test_never_worse_than_baseline(self):
        base = analyze_nest(nine_point_fused(), rank2, memopt=False)
        opt = analyze_nest(nine_point_fused(), rank2, memopt=True,
                           unroll_jam=1)
        assert opt.mem_loads <= base.mem_loads
        assert opt.stores <= base.stores

    def test_two_target_nest_keeps_two_stores(self):
        stmts = [NestStmt("T", ref("U", 0, 0)),
                 NestStmt("V", ref("U", 0, 1))]
        stats = analyze_nest(stmts, rank2, memopt=True, unroll_jam=2)
        assert stats.stores == 2.0


class TestScaling:
    def test_scaled_to_points(self):
        stats = analyze_nest(nine_point_fused(), rank2)
        scaled = scaled_to_points(stats, 4096)
        assert scaled.points == 4096
        assert scaled.mem_loads == stats.mem_loads


class TestCostInteraction:
    def test_loop_time_monotone_in_level(self):
        from repro.machine.cost_model import SP2_COST_MODEL
        from repro.passes.memopt import scaled_to_points as sp
        base = sp(analyze_nest(nine_point_fused(), rank2), 10000)
        opt = sp(analyze_nest(nine_point_fused(), rank2, memopt=True,
                              unroll_jam=2), 10000)
        assert SP2_COST_MODEL.loop_time(opt) < \
            SP2_COST_MODEL.loop_time(base)

    def test_overhead_factor_scales(self):
        from repro.machine.cost_model import SP2_COST_MODEL
        stats = scaled_to_points(analyze_nest(nine_point_fused(), rank2),
                                 1000)
        t1 = SP2_COST_MODEL.loop_time(stats)
        t18 = SP2_COST_MODEL.loop_time(stats, overhead_factor=18.0)
        assert t18 == pytest.approx(18 * t1)
