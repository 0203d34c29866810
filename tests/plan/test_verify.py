"""The plan verifier: corrupted plans are rejected, real plans pass.

The acceptance bar: at least five *distinct* hand-corrupted plans are
rejected with actionable errors (missing overlap shift, undersized halo,
use-after-free, out-of-bounds RSD, alloc/free mismatch), and every named
kernel's plan at every optimization level verifies clean on both
backends' shared plan.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import PlanVerificationError
from repro.ir.linexpr import LinExpr
from repro.ir.rsd import RSD, RSDim
from repro.kernels import KERNELS, compile_kernel
from repro.plan import (
    AllocOp, FreeOp, OverlapShiftOp, SeqLoopOp, WhileOp,
    assert_plan_valid, verify_plan,
)

from tests.plan.helpers import (
    Compare, Const, OffsetRef, copy_nest, decl, simple_plan,
)


def shift(array: str = "U", s: int = 1, dim: int = 1, **kw):
    return OverlapShiftOp(array=array, shift=s, dim=dim, **kw)


def problems_of(plan):
    probs = verify_plan(plan)
    assert probs, "corrupted plan verified clean"
    return [str(p) for p in probs]


# ---------------------------------------------------------------------------
# the five corruption classes
# ---------------------------------------------------------------------------

def test_rejects_missing_overlap_shift():
    # V = U<+1,0> with no prior overlap_shift of U
    plan = simple_plan([AllocOp(names=("V",)),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[coverage]" in m and "no prior overlap_shift" in m
               for m in msgs), msgs


def test_rejects_undersized_halo_shift():
    # shift depth 2 into a halo declared 1 deep
    plan = simple_plan([AllocOp(names=("V",)), shift(s=2),
                        copy_nest("V", "U", (2, 0)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[halo]" in m and "exceeds declared halo" in m
               for m in msgs), msgs


def test_rejects_undersized_halo_read():
    # the read itself escapes the declared overlap area
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("V", "U", (2, 0)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[halo]" in m and "reads outside the declared halo" in m
               for m in msgs), msgs


def test_rejects_use_after_free():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",)),
                        copy_nest("U", "V", (0, 0))])
    msgs = problems_of(plan)
    assert any("[alloc]" in m and "used after free" in m
               for m in msgs), msgs


def test_rejects_out_of_bounds_rsd():
    # RSD extension 2 deep on dim 2 against a 1-deep declared halo
    bad_rsd = RSD(dims=(None, RSDim(2, 2)))
    plan = simple_plan([AllocOp(names=("V",)),
                        shift(s=1, rsd=bad_rsd),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[halo]" in m and "RSD extension" in m
               for m in msgs), msgs


def test_rejects_alloc_free_mismatch():
    # free of an array never allocated, and a double allocation
    plan = simple_plan([AllocOp(names=("V",)), AllocOp(names=("V",)),
                        shift(s=1), copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",)), FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[alloc]" in m and "already live" in m
               for m in msgs), msgs
    assert any("[alloc]" in m and "alloc/free mismatch" in m
               for m in msgs), msgs


# ---------------------------------------------------------------------------
# more corruption shapes the walker must see through
# ---------------------------------------------------------------------------

def test_rejects_fill_kind_mismatch():
    # circular read against an EOSHIFT-filled region
    plan = simple_plan([AllocOp(names=("V",)),
                        shift(s=1, boundary=0.0),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("fill kind mismatch" in m for m in msgs), msgs


def test_rejects_undeclared_array():
    plan = simple_plan([shift(array="W", s=1)])
    msgs = problems_of(plan)
    assert any("[structure]" in m and "undeclared array W" in m
               for m in msgs), msgs


def test_rejects_write_invalidating_residency():
    # writing U kills its halo residency; the later read is stale
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("U", "U", (0, 0)),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[coverage]" in m for m in msgs), msgs


def test_assert_plan_valid_raises_with_detail():
    plan = simple_plan([AllocOp(names=("V",)),
                        copy_nest("V", "U", (1, 0))])
    with pytest.raises(PlanVerificationError) as exc:
        assert_plan_valid(plan, phase="test")
    msg = str(exc.value)
    assert "invalid plan after test" in msg
    assert "no prior overlap_shift" in msg


def test_corner_counts_only_the_slab_the_runtime_sends():
    # the dim-2 shift carries an RSD *and* base offsets: the runtime
    # sends the RSD's plain slab, so the U<+1,+1> corner the base
    # offsets would have picked up is never delivered
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1, dim=1),
                        shift(s=1, dim=2, rsd=RSD.trivial(2, 1),
                              base_offsets=(1, 0)),
                        copy_nest("V", "U", (1, 1)),
                        FreeOp(names=("V",))])
    msgs = problems_of(plan)
    assert any("[coverage]" in m and "corner cells not carried" in m
               and "dim 2 fill extends ((0, 0), (0, 0))" in m
               for m in msgs), msgs
    # without the RSD the base offsets are the slab, and the corner
    # rides along
    carried = dataclasses.replace(plan, ops=[
        shift(s=1, dim=2, base_offsets=(1, 0)) if i == 2 else op
        for i, op in enumerate(plan.ops)])
    assert verify_plan(carried) == []


def test_valid_synthetic_plan_passes():
    plan = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        copy_nest("V", "U", (1, 0)),
                        FreeOp(names=("V",))])
    assert verify_plan(plan) == []


# ---------------------------------------------------------------------------
# every real kernel plan verifies clean (the verifier runs inside
# compile_kernel by default; this re-runs it explicitly and at every
# level)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4"])
def test_named_kernels_verify_clean(kernel, level):
    compiled = compile_kernel(kernel, bindings={"N": 16}, level=level)
    assert verify_plan(compiled.plan) == []


def test_verifier_rejects_corrupted_real_plan():
    # strip the first overlap shift out of a real compiled plan: the
    # verifier must notice the resulting coverage hole
    compiled = compile_kernel("purdue9", bindings={"N": 16}, level="O4")
    plan = compiled.plan
    ops = [op for op in plan.ops
           if not isinstance(op, OverlapShiftOp)] + \
          [op for op in plan.ops if isinstance(op, OverlapShiftOp)][1:]
    broken = dataclasses.replace(plan, ops=ops)
    assert any(p.check == "coverage" for p in verify_plan(broken))


def test_verifier_rejects_shrunk_halo_on_real_plan():
    compiled = compile_kernel("nine_point", bindings={"N": 16},
                              level="O4")
    plan = compiled.plan
    name, d = next((n, d) for n, d in plan.arrays.items()
                   if any(h != (0, 0) for h in d.halo))
    shrunk = dataclasses.replace(
        d, halo=tuple((0, 0) for _ in d.halo))
    broken = dataclasses.replace(
        plan, arrays={**plan.arrays, name: shrunk})
    assert any(p.check == "halo" for p in verify_plan(broken))


# ---------------------------------------------------------------------------
# buffer swaps (SwapOp): structural checks plus residency travel
# ---------------------------------------------------------------------------

def test_rejects_swap_with_itself():
    from repro.plan import SwapOp

    plan = simple_plan([SwapOp("U", "U")])
    msgs = problems_of(plan)
    assert any("[structure]" in m and "swap of an array with itself" in m
               for m in msgs), msgs


def test_rejects_swap_of_mismatched_declarations():
    from repro.plan import SwapOp

    arrays = {"U": decl("U"),
              "V": decl("V", halo=((0, 0), (0, 0)), temporary=True)}
    plan = simple_plan([AllocOp(names=("V",)), SwapOp("V", "U"),
                        FreeOp(names=("V",))], arrays=arrays)
    msgs = problems_of(plan)
    assert any("[structure]" in m and "must agree" in m
               for m in msgs), msgs


def test_swap_moves_halo_residency_with_the_buffer():
    from repro.plan import SwapOp

    # the shifted halo of U travels into the V binding across the swap,
    # so the deep read of V is covered...
    good = simple_plan([AllocOp(names=("V",)), shift(s=1),
                        SwapOp("U", "V"),
                        copy_nest("U", "V", (1, 0)),
                        FreeOp(names=("V",))])
    assert verify_plan(good) == []
    # ...while the same deep read of U is now stale: its residency left
    # with the buffer
    bad = simple_plan([AllocOp(names=("V",)), shift(s=1),
                       SwapOp("U", "V"),
                       copy_nest("V", "U", (1, 0)),
                       FreeOp(names=("V",))])
    msgs = problems_of(bad)
    assert any("[coverage]" in m for m in msgs), msgs


# ---------------------------------------------------------------------------
# loop exits and refills: what Coverage may claim
# ---------------------------------------------------------------------------

def _after_loop(make_loop):
    """``make_loop([shift U +1 dim 1])`` then ``V = U<+1,0>``."""
    return simple_plan([make_loop([shift(s=1)]),
                        copy_nest("V", "U", (1, 0))],
                       entry=("U", "V"), scalars=("K",))


def test_rejects_read_after_a_loop_that_may_not_run():
    # a DO K = 1, 0 never sends its shift: U's halo is not resident
    # after it (perpe and vectorized used to disagree on V's row 4)
    zero = _after_loop(lambda body: SeqLoopOp("K", LinExpr(1), LinExpr(0),
                                             body))
    msgs = problems_of(zero)
    assert any("[coverage]" in m and "no prior overlap_shift" in m
               for m in msgs), msgs
    never = _after_loop(lambda body: WhileOp(
        Compare(">", Const(0.0), Const(1.0)), body))
    assert any("[coverage]" in m for m in problems_of(never))


def test_loop_that_provably_runs_keeps_its_body_shifts():
    runs = _after_loop(lambda body: SeqLoopOp("K", LinExpr(1), LinExpr(2),
                                             body))
    assert verify_plan(runs) == []
    # what was resident before a loop that may not run stays resident
    # when the body does not redefine it
    before = simple_plan([shift(s=1),
                          SeqLoopOp("K", LinExpr(1), LinExpr.of("M"),
                                    [shift(s=1, dim=2)]),
                          copy_nest("V", "U", (1, 0))],
                         entry=("U", "V"), scalars=("K", "M"))
    assert verify_plan(before) == []


def _refills(*shifts):
    arrays = {"U": decl("U", halo=((2, 2), (1, 1))),
              "V": decl("V", halo=((2, 2), (1, 1)))}
    return simple_plan([*shifts, copy_nest("V", "U", (2, 1))],
                       arrays=arrays, entry=("U", "V"))


def test_refills_never_claim_a_corner_no_shift_carried():
    # the shallow refill carried the dim-2 corner, the deep one did
    # not: the +2,+1 corner is in neither, and only the deep refill is
    # listed (perpe and vectorized used to differ at V(4,4), V(4,8)
    # and V(8,4))
    plan = _refills(shift(s=1, dim=2),
                    shift(s=1, dim=1, rsd=RSD((None, RSDim(0, 1)))),
                    shift(s=2, dim=1))
    msgs = problems_of(plan)
    assert any("corner cells not carried" in m
               and "dim 1 fill extends ((0, 0), (0, 0)), dim 2" in m
               for m in msgs), msgs
    # one refill both deep enough and wide enough carries it
    assert verify_plan(_refills(
        shift(s=1, dim=2), shift(s=1, dim=1),
        shift(s=2, dim=1, rsd=RSD((None, RSDim(0, 1)))))) == []
