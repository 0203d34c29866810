"""Versioned JSON (de)serialization of plans and compiled programs.

The round-trip contract: ``plan_to_json`` output is a serialization
fixed point (revive + re-serialize is byte-identical), and a revived
program executes to bitwise-identical arrays and cost reports on both
backends — for every named kernel at every optimization level.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.kernels import KERNELS, compile_kernel
from repro.plan import (
    PLAN_SCHEMA_VERSION, plan_from_json, plan_to_json,
    program_from_json, program_to_json,
)
from repro.testing import plan_roundtrip_check

LEVELS = ["O0", "O1", "O2", "O3", "O4"]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("level", LEVELS)
def test_plan_json_is_a_fixed_point(kernel, level):
    compiled = compile_kernel(kernel, bindings={"N": 12}, level=level)
    doc = plan_to_json(compiled.plan)
    assert plan_to_json(plan_from_json(doc)) == doc


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_revived_programs_execute_identically(kernel):
    import numpy as np
    compiled = compile_kernel(kernel, bindings={"N": 12}, level="O4")
    rng = np.random.default_rng(0)
    inputs = {
        name: rng.standard_normal(d.shape).astype(d.dtype)
        for name, d in compiled.plan.arrays.items()
        if name in compiled.plan.entry_arrays}
    plan_roundtrip_check(compiled, inputs)


@pytest.mark.parametrize("level", LEVELS)
def test_every_level_round_trips_through_execution(level):
    import numpy as np
    compiled = compile_kernel("purdue9", bindings={"N": 12},
                              level=level)
    rng = np.random.default_rng(1)
    inputs = {
        name: rng.standard_normal(d.shape).astype(d.dtype)
        for name, d in compiled.plan.arrays.items()
        if name in compiled.plan.entry_arrays}
    plan_roundtrip_check(compiled, inputs)


def test_schema_version_is_stamped_and_checked():
    compiled = compile_kernel("five_point", bindings={"N": 8})
    doc = json.loads(plan_to_json(compiled.plan))
    assert doc["schema"] == PLAN_SCHEMA_VERSION
    doc["schema"] = PLAN_SCHEMA_VERSION + 1
    with pytest.raises(ReproError):
        plan_from_json(json.dumps(doc))


def test_program_document_carries_report_and_name():
    compiled = compile_kernel("purdue9", bindings={"N": 8})
    doc = program_to_json(compiled)
    revived = program_from_json(doc)
    assert revived.source_name == compiled.source_name
    assert revived.report.level == compiled.report.level
    assert revived.report.overlap_shifts == \
        compiled.report.overlap_shifts
    assert revived.report.pass_stats["plan-passes"] == \
        compiled.report.pass_stats["plan-passes"]
    assert program_to_json(revived) == doc


def test_garbage_rejected():
    with pytest.raises(ReproError):
        plan_from_json("{\"not\": \"a plan\"}")


# ---------------------------------------------------------------------------
# schema v2: loop containers, SwapOp, and the outputs field
# ---------------------------------------------------------------------------

def _swap_loop_plan(halo: int, trips: int, outputs):
    """A hand-built double-buffer loop already in post-pass form."""
    from dataclasses import replace

    from repro.ir.linexpr import LinExpr
    from repro.plan import AllocOp, FreeOp, SeqLoopOp, SwapOp

    from tests.plan.helpers import OffsetRef, decl, nest, simple_plan

    h = ((halo, halo), (halo, halo))
    arrays = {"U": decl("U", halo=h),
              "V": decl("V", halo=h, temporary=True)}
    body = [nest("V", OffsetRef("U", (0, 0))), SwapOp("V", "U")]
    plan = simple_plan(
        [AllocOp(names=("V",)),
         SeqLoopOp(var="K", lo=LinExpr(1), hi=LinExpr(trips),
                   body=body),
         FreeOp(names=("V",))], arrays=arrays)
    return replace(plan, outputs=outputs)


@settings(max_examples=25, deadline=None)
@given(halo=st.integers(0, 2), trips=st.integers(1, 4),
       outputs=st.sampled_from([None, ("U",), ("U", "V")]))
def test_swap_loop_plans_round_trip(halo, trips, outputs):
    from repro.plan import SwapOp, verify_plan

    plan = _swap_loop_plan(halo, trips, outputs)
    assert verify_plan(plan) == []
    doc = plan_to_json(plan)
    revived = plan_from_json(doc)
    assert plan_to_json(revived) == doc
    assert revived.outputs == outputs
    loop = revived.ops[1]
    assert [(op.a, op.b) for op in loop.body
            if isinstance(op, SwapOp)] == [("V", "U")]
