"""Plan passes: scheduling, shift coalescing, dead-alloc elimination.

The safety contract under test: run over the plan of any named kernel
at any paper level (the default level runs them itself), the passes
never send more messages or bytes than the unoptimized plan (checked
against the executed cost accounting, not static op counts), results
stay bitwise identical, and the passes remove redundancy the AST-level
pipeline cannot see.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_hpf
from repro.errors import PlanVerificationError
from repro.job import CompileJob, MachineSpec, RunJob
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.plan import (
    AllocOp, CoalesceShiftsPass, CondOp, DeadAllocElimPass, FreeOp,
    HoistInvariantShiftsPass, OverlappedOp, OverlapShiftOp,
    PingPongElimPass, PlanPass, PlanPassManager, SchedulePass, SeqLoopOp,
    SwapOp, WhileOp, default_plan_passes, verify_plan, walk,
)

from tests.passes.test_licm import VARCOEFF
from tests.plan.helpers import (
    OffsetRef, copy_nest, decl, nest, scalar_true, simple_plan,
)


def shift(array: str = "U", s: int = 1, dim: int = 1, **kw):
    return OverlapShiftOp(array=array, shift=s, dim=dim, **kw)


def with_plan_passes(compiled):
    """``compiled`` (a paper-level compilation) with the default plan
    passes run over its plan."""
    plan, _ = PlanPassManager().run(compiled.plan)
    return dataclasses.replace(compiled, plan=plan)


# ---------------------------------------------------------------------------
# coalesce-shifts
# ---------------------------------------------------------------------------

def test_coalesces_duplicate_shift():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    new, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 1
    assert new.count_ops(OverlapShiftOp) == 1
    assert verify_plan(new) == []


def test_deeper_shift_subsumes_shallower():
    arrays = {"U": decl("U", halo=((2, 2), (2, 2))),
              "V": decl("V", halo=((2, 2), (2, 2)), temporary=True)}
    plan = simple_plan([AllocOp(names=("V",)), shift(s=2), shift(s=1),
                        copy_nest("V", "U", (2, 0)),
                        FreeOp(names=("V",))], arrays=arrays)
    new, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 1
    assert verify_plan(new) == []


def test_never_coalesces_across_a_write():
    # the intervening write to U invalidates its halo; the second shift
    # re-fills it and must survive
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        copy_nest("U", "U", (0, 0)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    new, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 0
    assert new.count_ops(OverlapShiftOp) == 2


def test_never_coalesces_opposite_directions_or_fills():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1), shift(s=-1),
                        shift(s=1, dim=2, boundary=0.0),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    new, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 0


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_hoists_comm_and_sinks_free():
    plan = simple_plan([
        AllocOp(names=("V",)),
        copy_nest("U", "U", (0, 0)),   # independent compute on U... but
                                       # writes U, so shifts of U depend
        shift(array="V", s=1),         # V-shift can hoist above U work
        copy_nest("V", "V", (1, 0)),
        FreeOp(names=("V",)),
    ])
    new, stats = SchedulePass().run(plan)
    kinds = [type(op).__name__ for op in new.ops]
    # the V overlap shift moved ahead of the U loop nest
    assert kinds.index("OverlapShiftOp") < kinds.index("LoopNestOp")
    assert verify_plan(new) == []


def test_schedule_respects_dependences():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    new, _ = SchedulePass().run(plan)
    kinds = [type(op).__name__ for op in new.ops]
    # the shift of U is independent of V's alloc and may hoist above
    # it, but the nest needs both and the free must stay last
    assert kinds.index("AllocOp") < kinds.index("LoopNestOp")
    assert kinds.index("OverlapShiftOp") < kinds.index("LoopNestOp")
    assert kinds[-1] == "FreeOp"


def test_schedule_is_deterministic():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        shift(s=1, dim=2),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    a, _ = SchedulePass().run(plan)
    b, _ = SchedulePass().run(plan)
    assert [str(type(o)) for o in a.ops] == \
        [str(type(o)) for o in b.ops]


# ---------------------------------------------------------------------------
# dead-alloc
# ---------------------------------------------------------------------------

def test_dead_alloc_removes_unused_temporary():
    arrays = {"U": decl("U"), "V": decl("V", temporary=True),
              "W": decl("W", temporary=True)}
    plan = simple_plan([AllocOp(names=("V", "W")), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V", "W"))], arrays=arrays)
    new, stats = DeadAllocElimPass().run(plan)
    assert stats["dead_allocs"] == 1
    assert stats["dead_decls"] == 1
    assert "W" not in new.arrays
    assert all("W" not in getattr(op, "names", ())
               for op in new.walk_ops())
    assert verify_plan(new) == []


def test_dead_alloc_keeps_entry_arrays():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    new, stats = DeadAllocElimPass().run(plan)
    assert "U" in new.arrays and "V" in new.arrays
    assert stats["dead_allocs"] == 0


# ---------------------------------------------------------------------------
# manager
# ---------------------------------------------------------------------------

def test_manager_verifies_after_each_pass():
    class Breaker(PlanPass):
        name = "breaker"

        def run(self, plan):
            import dataclasses
            ops = [op for op in plan.ops
                   if not isinstance(op, OverlapShiftOp)]
            return dataclasses.replace(plan, ops=ops), {}

    compiled = compile_kernel("purdue9", bindings={"N": 16})
    with pytest.raises(PlanVerificationError, match="breaker"):
        PlanPassManager(passes=[Breaker()]).run(compiled.plan)


def test_manager_reports_stats_into_compile_report():
    compiled = compile_kernel("purdue9", bindings={"N": 16})
    stats = compiled.report.pass_stats["plan-passes"]
    assert set(stats) == {"schedule", "hoist-invariant-shifts",
                          "pingpong-elim", "coalesce-shifts",
                          "dead-alloc"}
    paper = compile_kernel("purdue9", bindings={"N": 16}, level="O4")
    assert "plan-passes" not in paper.report.pass_stats


def test_manager_spans_carry_stats_and_plan_shape_delta():
    """The plan passes run under the same manager as the AST passes:
    one span per pass with the pass's stats and the IR-shape delta."""
    from repro.obs import Tracer
    tracer = Tracer()
    compile_kernel("jacobi", bindings={"N": 16, "NITER": 4},
                   tracer=tracer)
    span = tracer.find("plan-pass:hoist-invariant-shifts")
    assert span.kind == "plan-pass"
    assert span.attrs["hoisted_shifts"] == 4
    assert span.attrs["ir.overlap_shifts_delta"] == 0  # moved, kept
    assert tracer.find("plan-pass:pingpong-elim") \
        .attrs["ir.ops_delta"] == 1  # the preheader seed copy


# ---------------------------------------------------------------------------
# the end-to-end safety contract, profiler-verified
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("level", ["O0", "O2", "O4"])
def test_passes_never_increase_messages_or_bytes(kernel, level):
    job = RunJob(CompileJob.resolve(kernel=kernel, bindings={"N": 12},
                                    level=level), MachineSpec())
    compiled = job.compile.compile()
    optimized = with_plan_passes(compiled)
    base = job.execute(compiled, job.machine.build())
    opt = job.execute(optimized, job.machine.build())
    b, o = base.report.summary(), opt.report.summary()
    assert o["messages"] <= b["messages"], (kernel, level, b, o)
    assert o["message_bytes"] <= b["message_bytes"], (kernel, level)
    # a dead scratch consumed by a ping-pong swap holds unspecified
    # values afterwards; everything else must stay bitwise identical
    plan = optimized.plan
    swapped = {name for op in plan.walk_ops() if isinstance(op, SwapOp)
               for name in (op.a, op.b)} - set(plan.outputs or ())
    for name in set(base.arrays) - swapped:
        np.testing.assert_array_equal(base.arrays[name],
                                      opt.arrays[name])


@pytest.mark.parametrize("backend", ["perpe", "vectorized"])
def test_passes_preserve_results_on_both_backends(backend):
    job = RunJob(CompileJob.resolve(kernel="purdue9", bindings={"N": 16},
                                    level="O4"),
                 MachineSpec(), backend=backend)
    compiled = job.compile.compile()
    base = job.execute(compiled, job.machine.build())
    opt = job.execute(with_plan_passes(compiled), job.machine.build())
    for name in base.arrays:
        np.testing.assert_array_equal(base.arrays[name],
                                      opt.arrays[name])


def test_coalescing_removes_redundancy_comm_union_cannot_see():
    """At O2 the pipeline has fusion and context partitioning but no
    communication unioning (an O3 feature), so the AST never loses its
    redundant per-statement shifts — the plan is the only level left
    that can prove and remove them.  The nine-point stencil re-shifts
    SRC six times at O2; plan-level coalescing removes every one
    without touching results, and the executed message count drops."""
    base = compile_kernel("nine_point", bindings={"N": 16}, level="O2")
    plan, stats = PlanPassManager().run(base.plan)
    opt = dataclasses.replace(base, plan=plan)
    assert stats["coalesce-shifts"]["coalesced_shifts"] >= 1
    assert opt.plan.count_ops(OverlapShiftOp) < \
        base.plan.count_ops(OverlapShiftOp)
    # and the optimized plan actually communicates less
    rng = np.random.default_rng(0)
    inputs = {"SRC": rng.standard_normal((16, 16)).astype(np.float32)}
    rb = base.run(Machine(grid=(2, 2)), inputs=inputs)
    ro = opt.run(Machine(grid=(2, 2)), inputs=inputs)
    assert ro.report.summary()["messages"] < \
        rb.report.summary()["messages"]
    for name in rb.arrays:
        np.testing.assert_array_equal(rb.arrays[name], ro.arrays[name])


def test_dead_alloc_removes_what_comm_union_never_could():
    """Dead allocations only exist at the plan level (temporaries are
    named during codegen), so no AST pass — comm_union included — can
    even represent this redundancy.  A plan with an orphaned temporary
    pair loses it, and the verifier blesses the result."""
    arrays = {"U": decl("U"), "V": decl("V", temporary=True),
              "DEAD": decl("DEAD", temporary=True)}
    plan = simple_plan([AllocOp(names=("V",)),
                        AllocOp(names=("DEAD",)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("DEAD",)),
                        FreeOp(names=("V",))], arrays=arrays)
    new, stats = PlanPassManager().run(plan)
    assert stats["dead-alloc"]["dead_allocs"] == 1
    assert "DEAD" not in new.arrays


# ---------------------------------------------------------------------------
# loop-aware coalescing (regressions: the flat-block coalescer missed
# all of these — subsumption state never crossed a region boundary)
# ---------------------------------------------------------------------------

def _loop(body, var="K", lo=1, hi=3):
    from repro.ir.linexpr import LinExpr
    return SeqLoopOp(var=var, lo=LinExpr.of(lo), hi=LinExpr.of(hi),
                     body=body)


def test_coalesce_threads_preheader_state_into_loop_body():
    """A body shift of an array the loop never writes re-sends the
    halo the preheader shift already filled — per iteration."""
    plan = simple_plan([
        AllocOp(names=("V",)), shift(s=1),
        _loop([shift(s=1), copy_nest("V", "U", (1, 0))]),
        FreeOp(names=("V",)),
    ])
    new, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 1
    assert new.count_ops(OverlapShiftOp) == 1
    assert verify_plan(new) == []


def test_coalesce_keeps_body_shift_when_loop_writes_array():
    plan = simple_plan([
        AllocOp(names=("V",)), shift(s=1),
        _loop([shift(s=1), copy_nest("V", "U", (1, 0)),
               copy_nest("U", "V", (0, 0))]),
        shift(s=1),
        copy_nest("V", "U", (1, 0)),
        FreeOp(names=("V",)),
    ])
    new, stats = CoalesceShiftsPass().run(plan)
    # the body rewrites U's owned cells: neither the body shift nor the
    # post-loop shift may be removed
    assert stats["coalesced_shifts"] == 0
    assert new.count_ops(OverlapShiftOp) == 3


def _same_arrays_on_both_backends(*plans):
    """Every plan, run on ``perpe`` and ``vectorized``, leaves the same
    arrays."""
    from repro.runtime.executor import execute

    u = np.arange(64, dtype=np.float32).reshape(8, 8) + 1
    runs = [execute(plan, Machine(grid=(2, 2)), inputs={"U": u},
                    backend=backend).arrays
            for plan in plans for backend in ("perpe", "vectorized")]
    for arrays in runs[1:]:
        assert arrays.keys() == runs[0].keys()
        for name in arrays:
            np.testing.assert_array_equal(arrays[name], runs[0][name])


def test_coalesce_cond_arms_inherit_but_do_not_leak():
    plan = simple_plan([
        AllocOp(names=("V",)), shift(s=1),
        copy_nest("V", "U", (1, 0)),
        CondOp(cond=scalar_true(), then_ops=[shift(s=1)], else_ops=[]),
        shift(s=1),
        copy_nest("V", "U", (1, 0)),
        FreeOp(names=("V",)),
    ])
    new, stats = CoalesceShiftsPass().run(plan)
    # the arm's shift is subsumed by the preheader's; the preheader's
    # residency reaches the join on both paths, so the shift after the
    # conditional is redundant too
    assert stats["coalesced_shifts"] == 2
    assert new.count_ops(OverlapShiftOp) == 1
    assert verify_plan(new) == []
    _same_arrays_on_both_backends(plan, new)


def test_coalesce_keeps_a_shift_only_one_arm_made_redundant():
    # U<1,0> is read first inside the arm; only the arm fills its halo,
    # so the else path reaches the post-branch shift without it
    plan = simple_plan([
        AllocOp(names=("V",)),
        CondOp(cond=scalar_true(),
               then_ops=[shift(s=1), copy_nest("V", "U", (1, 0))],
               else_ops=[]),
        shift(s=1),
        copy_nest("V", "U", (1, 0)),
        FreeOp(names=("V",)),
    ])
    new, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 0
    assert new.count_ops(OverlapShiftOp) == 2
    assert verify_plan(new) == []
    _same_arrays_on_both_backends(plan, new)


def test_coalesce_keeps_the_shift_after_a_loop_that_may_not_run():
    plan = simple_plan([
        AllocOp(names=("V",)),
        _loop([shift(s=1), copy_nest("V", "U", (1, 0))], lo=1, hi=0),
        shift(s=1),
        copy_nest("V", "U", (1, 0)),
        FreeOp(names=("V",)),
    ])
    _, stats = CoalesceShiftsPass().run(plan)
    assert stats["coalesced_shifts"] == 0
    runs = dataclasses.replace(plan, ops=[
        _loop(op.body) if isinstance(op, SeqLoopOp) else op
        for op in plan.ops])
    new, stats = CoalesceShiftsPass().run(runs)
    assert stats["coalesced_shifts"] == 1
    assert verify_plan(new) == []
    _same_arrays_on_both_backends(runs, new)


# ---------------------------------------------------------------------------
# a hand-built OverlappedOp: every default pass leaves it alone
# ---------------------------------------------------------------------------

def _overlapped_plans():
    """Plans with ``OverlappedOp`` blocks that the passes would optimize
    were the shifts bare: a loop re-sending an invariant halo twice
    (hoist, coalesce) and a double-buffer loop (ping-pong)."""
    def overlapped(dst):
        return OverlappedOp(comm_ops=[shift(s=1)],
                            nest=copy_nest(dst, "U", (1, 0)))
    arrays = {"U": decl("U"), "V": decl("V", temporary=True),
              "W": decl("W", temporary=True)}
    invariant = simple_plan([
        AllocOp(names=("V", "W")),
        _loop([overlapped("V"), overlapped("W")]),
        FreeOp(names=("V", "W")),
    ], arrays=arrays)
    pingpong = dataclasses.replace(simple_plan([
        AllocOp(names=("V",)),
        _loop([overlapped("V"), copy_nest("U", "V")]),
        FreeOp(names=("V",)),
    ]), outputs=("U",))
    return invariant, pingpong


@pytest.mark.parametrize("plan_pass", [p.name for p in
                                       default_plan_passes()])
def test_default_passes_leave_overlapped_ops_alone(plan_pass):
    """The overlap pass runs last, so no default pass looks inside an
    ``OverlappedOp``: one built by hand keeps its communication block,
    and the plan stays valid and computes the same arrays."""
    run = next(p for p in default_plan_passes() if p.name == plan_pass)
    for plan in _overlapped_plans():
        new, _ = run.run(plan)
        assert [op.comm_ops for op in walk(new.ops)
                if isinstance(op, OverlappedOp)] == \
            [op.comm_ops for op in walk(plan.ops)
             if isinstance(op, OverlappedOp)]
        assert verify_plan(new) == []
        _same_arrays_on_both_backends(plan, new)


# ---------------------------------------------------------------------------
# hoist-invariant-shifts
# ---------------------------------------------------------------------------

def test_hoist_moves_invariant_shifts_to_preheader():
    plan = simple_plan([
        AllocOp(names=("V",)),
        _loop([shift(s=1), copy_nest("V", "U", (1, 0))]),
        FreeOp(names=("V",)),
    ])
    new, stats = HoistInvariantShiftsPass().run(plan)
    assert stats["hoisted_shifts"] == 1
    loop = next(op for op in new.ops if isinstance(op, SeqLoopOp))
    assert not any(isinstance(op, OverlapShiftOp) for op in loop.body)
    kinds = [type(op).__name__ for op in new.ops]
    assert kinds.index("OverlapShiftOp") < kinds.index("SeqLoopOp")
    assert verify_plan(new) == []


def test_hoist_skips_arrays_written_in_the_body():
    plan = simple_plan([
        AllocOp(names=("V",)),
        _loop([shift(s=1), copy_nest("V", "U", (1, 0)),
               copy_nest("U", "V", (0, 0))]),
        FreeOp(names=("V",)),
    ])
    new, stats = HoistInvariantShiftsPass().run(plan)
    assert stats["hoisted_shifts"] == 0


def test_hoist_skips_zero_and_unknown_trip_counts():
    from repro.ir.linexpr import LinExpr
    body = [shift(s=1), copy_nest("V", "U", (1, 0))]
    zero = simple_plan([AllocOp(names=("V",)),
                        _loop(list(body), lo=1, hi=0),
                        FreeOp(names=("V",))])
    _, stats = HoistInvariantShiftsPass().run(zero)
    assert stats["hoisted_shifts"] == 0
    unknown = simple_plan([
        AllocOp(names=("V",)),
        SeqLoopOp(var="K", lo=LinExpr(1), hi=LinExpr.of("M"),
                  body=list(body)),
        FreeOp(names=("V",))])
    _, stats = HoistInvariantShiftsPass().run(unknown)
    assert stats["hoisted_shifts"] == 0


def test_hoist_skips_while_bodies_and_conditional_arms():
    whi = simple_plan([
        AllocOp(names=("V",)),
        WhileOp(cond=scalar_true(),
                body=[shift(s=1), copy_nest("V", "U", (1, 0))]),
        FreeOp(names=("V",)),
    ])
    _, stats = HoistInvariantShiftsPass().run(whi)
    assert stats["hoisted_shifts"] == 0
    cond = simple_plan([
        AllocOp(names=("V",)),
        _loop([CondOp(cond=scalar_true(), then_ops=[shift(s=1)],
                      else_ops=[]),
               copy_nest("V", "U", (0, 0))]),
        FreeOp(names=("V",)),
    ])
    new, stats = HoistInvariantShiftsPass().run(cond)
    assert stats["hoisted_shifts"] == 0


def test_hoist_cascades_out_of_nested_loops_in_one_run():
    plan = simple_plan([
        AllocOp(names=("V",)),
        _loop([_loop([shift(s=1), copy_nest("V", "U", (1, 0))],
                     var="J")]),
        FreeOp(names=("V",)),
    ])
    new, stats = HoistInvariantShiftsPass().run(plan)
    assert stats["hoisted_shifts"] == 2
    assert isinstance(new.ops[1], OverlapShiftOp)
    assert verify_plan(new) == []


#: Compiled inputs for the hoist pass — the cases of the retired AST
#: ``comm-motion`` pass whose behaviour the plan pass reproduces
#: (``tests/passes/test_licm.py`` holds them end to end): (source,
#: bindings, arrays shifted above the loops, arrays shifted inside them).
COMPILED_LOOPS = {
    "invariant-coefficient": (VARCOEFF, {"N": 16, "NSTEPS": 4},
                              {"K1"}, {"U"}),
    "nested-loops": ("""
        REAL U(16,16), T(16,16), K1(16,16)
        DO A = 1, 2
          DO B = 1, 2
            T = CSHIFT(K1,1,1) + U
            U = T
          ENDDO
        ENDDO
        """, {"N": 16}, {"K1"}, set()),
    "killed-array": ("""
        REAL U(16,16), T(16,16)
        DO STEP = 1, 3
          T = CSHIFT(U,1,1) + U
          U = T
        ENDDO
        """, {"N": 16}, set(), {"U"}),
}


@pytest.mark.parametrize("case", sorted(COMPILED_LOOPS))
def test_hoist_on_compiled_loops(case):
    source, bindings, above, inside = COMPILED_LOOPS[case]
    paper = compile_hpf(source, bindings=bindings, level="O4",
                        outputs={"U"})
    new, stats = HoistInvariantShiftsPass().run(paper.plan)
    assert {op.array for op in new.ops
            if isinstance(op, OverlapShiftOp)} == above
    loop = next(op for op in new.ops if isinstance(op, SeqLoopOp))
    assert {op.array for op in walk([loop])
            if isinstance(op, OverlapShiftOp)} == inside
    assert (stats["hoisted_shifts"] > 0) == bool(above)
    assert verify_plan(new) == []


# ---------------------------------------------------------------------------
# pingpong-elim
# ---------------------------------------------------------------------------

def _pingpong_plan(outputs=("U",), arrays=None, copy=None,
                   producer=None):
    """DO-loop double-buffer idiom: produce V from U, copy V back."""
    from dataclasses import replace

    body = [shift(s=1),
            producer if producer is not None
            else nest("V", OffsetRef("U", (1, 0))),
            copy if copy is not None else copy_nest("U", "V", (0, 0))]
    plan = simple_plan([AllocOp(names=("V",)), _loop(body),
                        FreeOp(names=("V",))], arrays=arrays)
    return replace(plan, outputs=outputs)


def test_pingpong_rewrites_double_buffer_loop():
    new, stats = PingPongElimPass().run(_pingpong_plan())
    assert stats["pingpong_swaps"] == 1
    loop = next(op for op in new.ops if isinstance(op, SeqLoopOp))
    swaps = [op for op in loop.body if isinstance(op, SwapOp)]
    assert [(s.a, s.b) for s in swaps] == [("V", "U")]
    assert not any(isinstance(op, SwapOp) is False and
                   op.__class__.__name__ == "LoopNestOp" and
                   op.label == "pingpong-seed" for op in loop.body)
    seeds = [op for op in new.ops
             if getattr(op, "label", "") == "pingpong-seed"]
    assert len(seeds) == 1, "seed copy must land in the preheader"
    assert verify_plan(new) == []


def test_pingpong_requires_declared_outputs():
    new, stats = PingPongElimPass().run(_pingpong_plan(outputs=None))
    assert stats["pingpong_swaps"] == 0


def test_pingpong_never_swaps_an_observable_scratch():
    new, stats = PingPongElimPass().run(
        _pingpong_plan(outputs=("U", "V")))
    assert stats["pingpong_swaps"] == 0


def test_pingpong_requires_full_box_copy():
    from repro.ir.linexpr import LinExpr
    from repro.machine.cost_model import LoopStats
    from repro.plan import LoopNestOp, NestStmt

    interior = tuple((LinExpr(2), LinExpr(7)) for _ in range(2))
    partial = LoopNestOp(
        statements=[NestStmt(lhs="U", rhs=OffsetRef("V", (0, 0)))],
        space=interior, stats=LoopStats(points=36))
    new, stats = PingPongElimPass().run(_pingpong_plan(copy=partial))
    assert stats["pingpong_swaps"] == 0


def test_pingpong_requires_full_box_producer():
    from repro.ir.linexpr import LinExpr
    from repro.machine.cost_model import LoopStats
    from repro.plan import LoopNestOp, NestStmt

    interior = tuple((LinExpr(2), LinExpr(7)) for _ in range(2))
    partial = LoopNestOp(
        statements=[NestStmt(lhs="V", rhs=OffsetRef("U", (1, 0)))],
        space=interior, stats=LoopStats(points=36))
    new, stats = PingPongElimPass().run(
        _pingpong_plan(producer=partial))
    assert stats["pingpong_swaps"] == 0


def test_pingpong_merges_halo_depths_of_the_swapped_pair():
    arrays = {"U": decl("U"),
              "V": decl("V", halo=((0, 0), (0, 0)), temporary=True)}
    new, stats = PingPongElimPass().run(_pingpong_plan(arrays=arrays))
    assert stats["pingpong_swaps"] == 1
    assert new.arrays["U"].halo == ((1, 1), (1, 1))
    assert new.arrays["V"].halo == ((1, 1), (1, 1))
    assert verify_plan(new) == []
