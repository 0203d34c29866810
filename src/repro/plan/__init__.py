"""The Plan IR package: typed ops, verifier, passes, printer, serializer.

The plan is the compiler's lowest-level IR — the executable SPMD
program.  This package gives it the infrastructure of a real IR:

- :mod:`repro.plan.ops` — the op dataclasses with a uniform
  ``children()``/``rebuild()`` walker (:func:`walk`, :func:`map_blocks`)
  and the one read/write query (:func:`effects`)
- :mod:`repro.plan.verify` — structural + paper-semantic invariants,
  run after codegen and after every plan pass
- :mod:`repro.plan.passes` — post-codegen optimizations (scheduling,
  shift coalescing, dead alloc elimination)
- :mod:`repro.plan.printer` — the stable textual format
- :mod:`repro.plan.serialize` — versioned JSON for golden tests and
  the persistent plan cache
"""

from repro.plan.ops import (
    AllocOp, ArrayDecl, Blocks, Box, CompiledProgram, CompileReport,
    CondOp, Effects, FreeOp, FullShiftOp, LoopNestOp, NestStmt,
    OverlappedOp, OverlapShiftOp, Plan, PlanOp, ScalarAssignOp, SeqLoopOp,
    SwapOp, WhileOp, effects, map_blocks, op_label, runs_at_least_once,
    walk,
)
from repro.plan.printer import format_op, plan_to_text
from repro.plan.passes import (
    CoalesceShiftsPass, DeadAllocElimPass, HoistInvariantShiftsPass,
    OverlapCommPass, PingPongElimPass, PlanPass, PlanPassManager,
    SchedulePass, default_plan_passes,
)
from repro.plan.serialize import (
    PLAN_SCHEMA_VERSION, plan_from_dict, plan_from_json, plan_to_dict,
    plan_to_json, program_from_dict, program_from_json, program_to_dict,
    program_to_json,
)
from repro.plan.verify import PlanProblem, assert_plan_valid, verify_plan

__all__ = [
    "AllocOp", "ArrayDecl", "Blocks", "Box", "CoalesceShiftsPass",
    "CompileReport", "CompiledProgram", "CondOp", "DeadAllocElimPass",
    "Effects", "FreeOp", "FullShiftOp", "HoistInvariantShiftsPass",
    "LoopNestOp", "NestStmt", "OverlapCommPass", "OverlappedOp",
    "OverlapShiftOp",
    "PLAN_SCHEMA_VERSION", "PingPongElimPass", "Plan", "PlanOp",
    "PlanPass", "PlanPassManager", "PlanProblem",
    "ScalarAssignOp", "SchedulePass", "SeqLoopOp", "SwapOp", "WhileOp",
    "assert_plan_valid", "default_plan_passes", "effects", "format_op",
    "map_blocks", "op_label", "plan_from_dict", "plan_from_json",
    "plan_to_dict", "plan_to_json", "plan_to_text", "program_from_dict",
    "program_from_json", "program_to_dict", "program_to_json",
    "runs_at_least_once", "verify_plan", "walk",
]
