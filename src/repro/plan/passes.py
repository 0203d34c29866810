"""Plan-level optimization passes.

These run *after* codegen, on the lowest-level IR — the layer the
AST-level pipeline (offset arrays, communication unioning, fusion)
cannot see.  Codegen can re-introduce redundancy the statement passes
already eliminated once (e.g. an ``OverlapShiftOp`` subsumed by an
earlier one in the same straight-line block after fusion regrouping),
and only the plan knows the final alloc/free placement and the loop
structure of iterative solvers.

Every rewrite is a :func:`repro.plan.ops.map_blocks` over the plan's
blocks (top level, ``DO`` and ``DO WHILE`` bodies, conditional arms),
so the same pass logic fires inside loop and conditional bodies as at
the top level; what an op reads and writes is
:func:`repro.plan.ops.effects`, and whether a loop provably runs is
:func:`repro.ir.program.runs_at_least_once`.

Five passes make the default level, run in this order by
:func:`default_plan_passes`; ``overlap-comm`` runs last when requested:

``schedule``
    Stable topological list scheduling within every block: hoists
    communication ops as early as their dependences allow (so later
    coalescing sees congruent comms adjacent) and sinks frees to their
    last legal position.  Dependences are computed from each op's
    read/write effect sets; ties preserve original order, so the
    schedule is deterministic.
``hoist-invariant-shifts``
    Loop-invariant communication motion: an ``OverlapShiftOp`` in a
    ``DO`` body whose array is never assigned inside the body is
    re-sending bitwise-identical halos every iteration.  When the trip
    count is provably at least one, all shifts of such arrays move (in
    order) to the loop preheader and execute once.  Applies bottom-up,
    so invariant shifts cascade out of nested loops in a single run.
``pingpong-elim``
    Double-buffer copy elimination: the solver idiom
    ``A = expr(B); B = A`` (a whole-array copy closing each iteration)
    becomes a :class:`~repro.plan.ops.SwapOp` exchanging the two array
    bindings, plus one whole-array copy in the preheader that seeds the
    scratch buffer.  Legal only when the scratch array is not in
    ``plan.outputs`` and is referenced nowhere outside the idiom; the
    two declarations get their halos max-merged so the buffers are
    structurally interchangeable.
``coalesce-shifts``
    Removes an ``OverlapShiftOp`` that makes nothing resident.  The pass
    walks the plan with the verifier's overlap-residency model,
    :class:`repro.plan.verify.Coverage`, and drops a shift exactly when
    applying it leaves the model unchanged: its cells are already
    resident, same fill, corners included.  Loops and branches follow
    the model's own rules, so a body shift already made by the
    preheader (e.g. one the hoist pass just moved) goes, and so does a
    shift after a branch whose every path made it redundant; what a loop
    body makes resident counts after the loop only when the loop
    provably runs.
``dead-alloc``
    Deletes alloc/free pairs (and the declarations) of arrays nothing
    reads or writes, a situation AST-level passes cannot create or see
    because temporaries are only named during codegen.
``overlap-comm``
    Wraps overlap shifts and the nest they feed into an
    :class:`~repro.plan.ops.OverlappedOp` (charged
    ``max(comm, interior) + boundary``); no other pass looks inside one.

Every pass is verified by :mod:`repro.plan.verify` after it runs (the
:class:`PlanPassManager` — the shared pass manager, configured for
plans — enforces this unconditionally), so a miscompiling pass fails
loudly at compile time instead of corrupting results.  The loop-aware
passes never change observable arrays (``plan.outputs``), scalars, or
the cross-backend equivalence contract — they only reduce modelled
communication and copying (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.ir.nodes import OffsetRef
from repro.plan.ops import (
    AllocOp, CondOp, FreeOp, LoopNestOp, NestStmt, OverlappedOp,
    OverlapShiftOp, Plan, PlanOp, SeqLoopOp, SwapOp, WhileOp, effects,
    map_blocks, runs_at_least_once, walk,
)
from repro.passes.pass_manager import Pass as PlanPass, PassManager
from repro.plan.verify import Coverage, assert_plan_valid


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

class SchedulePass(PlanPass):
    """Stable topological list scheduling of every block."""

    name = "schedule"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        moved = 0

        def rank(op: PlanOp) -> int:
            if isinstance(op, OverlapShiftOp):
                return 0
            if isinstance(op, FreeOp):
                return 2
            return 1

        def schedule(block: list[PlanOp]) -> list[PlanOp]:
            nonlocal moved
            n = len(block)
            if n < 2:
                return block
            effs = [effects(op) for op in block]
            succs: list[list[int]] = [[] for _ in range(n)]
            npreds = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if effs[i].conflicts(effs[j]):
                        succs[i].append(j)
                        npreds[j] += 1
            ready = sorted(i for i in range(n) if npreds[i] == 0)
            order: list[int] = []
            while ready:
                i = min(ready, key=lambda k: (rank(block[k]), k))
                ready.remove(i)
                order.append(i)
                for j in succs[i]:
                    npreds[j] -= 1
                    if npreds[j] == 0:
                        ready.append(j)
            moved += sum(1 for pos, i in enumerate(order) if pos != i)
            return [block[i] for i in order]

        new_ops = map_blocks(plan.ops, schedule)
        return replace(plan, ops=new_ops), {"moved_ops": moved}


# ---------------------------------------------------------------------------
# loop-invariant communication motion
# ---------------------------------------------------------------------------

class HoistInvariantShiftsPass(PlanPass):
    """Hoist loop-invariant overlap shifts out of ``DO`` bodies.

    An ``OverlapShiftOp`` whose array's owned cells are never assigned
    inside the loop body transports bitwise-identical data every
    iteration; executing it once in the preheader leaves every covered
    halo cell with exactly the values the in-loop sends produced, while
    the per-iteration message count drops by the number of hoisted
    shifts.  Hoisting preserves the relative order of a given array's
    shifts (orthogonal corner pickup depends on it) and moves *all*
    shifts of an invariant array together.

    Only ``DO`` loops with a trip count provably at least one (bounds
    evaluable over the plan's size parameters) are transformed; a
    zero-trip loop never communicates, so hoisting would add messages.
    ``DO WHILE`` bodies are skipped for the same reason.  Shifts nested
    inside conditional arms within the body stay put (they may not
    execute every iteration).  Bottom-up application cascades invariant
    shifts out of nested loop towers in one run.
    """

    name = "hoist-invariant-shifts"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        hoisted = 0

        def rewrite(block: list[PlanOp]) -> list[PlanOp]:
            nonlocal hoisted
            out: list[PlanOp] = []
            for op in block:
                if isinstance(op, SeqLoopOp) and \
                        runs_at_least_once(op, plan.params):
                    defined = effects(*op.body).defines
                    pre = [c for c in op.body if isinstance(c, OverlapShiftOp)
                           and c.array not in defined]
                    if pre:
                        hoisted += len(pre)
                        out.extend(pre)
                        op = op.rebuild([c for c in op.body if c not in pre])
                out.append(op)
            return out

        new_ops = map_blocks(plan.ops, rewrite)
        return replace(plan, ops=new_ops), {"hoisted_shifts": hoisted}


# ---------------------------------------------------------------------------
# ping-pong (double-buffer) copy elimination
# ---------------------------------------------------------------------------

def _is_copy_nest(op: PlanOp) -> tuple[str, str] | None:
    """``(dst, src)`` when ``op`` is a plain unmasked whole-statement
    copy nest ``dst = src<0,...,0>``, else ``None``."""
    if not isinstance(op, LoopNestOp) or len(op.statements) != 1:
        return None
    stmt = op.statements[0]
    if stmt.mask is not None:
        return None
    rhs = stmt.rhs
    if not isinstance(rhs, OffsetRef) or any(rhs.offsets) or \
            rhs.boundary is not None or rhs.name == stmt.lhs:
        return None
    return stmt.lhs, rhs.name


class PingPongElimPass(PlanPass):
    """Rewrite the double-buffer solver idiom into a pointer swap.

    A ``DO`` body computing ``A(full) = expr(B, ...)`` and closing the
    iteration with the whole-array copy ``B = A`` pays one owned-cell
    copy per point per iteration for data that a buffer exchange makes
    free.  The copy nest becomes a :class:`~repro.plan.ops.SwapOp`
    exchanging the two bindings, and a single whole-array copy
    ``A = B`` lands in the preheader so the scratch buffer's frame
    (boundary rows the loop never writes) carries ``B``'s values before
    the first exchange — keeping ``B`` bitwise identical at every
    iteration boundary, including after trip count zero.

    Legality (all checked; the pass is otherwise a no-op):

    * the plan declares an output set and the scratch ``A`` is not in
      it (``B``'s observable values never change, ``A``'s do);
    * outside the idiom, ``A`` is referenced by no op in the whole plan
      other than allocation/free;
    * inside the body, ``B``'s owned cells are written only by the
      eliminated copy, and the copy covers the full array box;
    * ``A`` and ``B`` agree on shape, dtype, and distribution, and
      neither is allocated or freed inside the body.

    The two declarations' halos are max-merged so the buffers are
    structurally interchangeable under every later shift.
    """

    name = "pingpong-elim"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        if plan.outputs is None:
            return plan, {"pingpong_swaps": 0}
        observable = set(plan.outputs)
        arrays = dict(plan.arrays)
        swaps = 0

        def full_box(nest: LoopNestOp, name: str) -> bool:
            decl = arrays.get(name)
            if decl is None or len(nest.space) != len(decl.shape):
                return False
            try:
                params = dict(plan.params)
                return all(lo.evaluate(params) == 1
                           and hi.evaluate(params) == extent
                           for (lo, hi), extent in zip(nest.space,
                                                       decl.shape))
            except Exception:
                return False

        def refs_outside_idiom(scratch: str, loop: SeqLoopOp,
                               copy_nest: LoopNestOp) -> bool:
            """Is ``scratch`` referenced anywhere but as a nest lhs
            inside ``loop``'s body, the copy rhs, or alloc/free?"""
            body_ids = {id(o) for o in walk(loop.body)}
            for op in walk(plan.ops):
                if op is copy_nest or isinstance(op, (AllocOp, FreeOp)):
                    continue  # the sanctioned read, or bookkeeping
                eff = effects(op, nested=False)
                if scratch in eff.reads or scratch in eff.writes and not (
                        isinstance(op, LoopNestOp) and id(op) in body_ids):
                    return True
            return False

        def alloc_in(ops: list[PlanOp], names: set[str]) -> bool:
            return any(isinstance(op, (AllocOp, FreeOp))
                       and names & set(op.names) for op in walk(ops))

        def try_rewrite(loop: SeqLoopOp) -> tuple[PlanOp, PlanOp] | None:
            """On match: (preheader copy nest, rewritten loop)."""
            for i, op in enumerate(loop.body):
                pair = _is_copy_nest(op)
                if pair is None:
                    continue
                dst, src = pair  # the idiom's  B = A
                scratch, kept = src, dst
                assert isinstance(op, LoopNestOp)
                if scratch in observable or kept == scratch:
                    continue
                da, db = arrays.get(scratch), arrays.get(kept)
                if da is None or db is None:
                    continue
                if da.shape != db.shape or da.dtype != db.dtype or \
                        da.distribution != db.distribution:
                    continue
                if not full_box(op, kept):
                    continue
                # B's owned cells written only by the eliminated copy
                others = [o for o in loop.body if o is not op]
                if kept in effects(*others).defines:
                    continue
                if alloc_in(loop.body, {scratch, kept}):
                    continue
                if refs_outside_idiom(scratch, loop, op):
                    continue
                # every iteration must refresh ALL of A's owned cells
                # before the copy — otherwise the copy transports stale
                # A values that the swapped-in buffer would not hold:
                # an unconditional unmasked full-box nest assigning A
                # must precede the copy at the body's top level
                def produces_fully(o: PlanOp) -> bool:
                    return (isinstance(o, LoopNestOp)
                            and full_box(o, scratch)
                            and any(s.lhs == scratch and s.mask is None
                                    for s in o.statements))
                if not any(produces_fully(o) for o in loop.body[:i]):
                    continue
                halo = tuple((max(a[0], b[0]), max(a[1], b[1]))
                             for a, b in zip(da.halo, db.halo))
                arrays[scratch] = replace(da, halo=halo)
                arrays[kept] = replace(db, halo=halo)
                seed = replace(
                    op,
                    statements=[NestStmt(
                        lhs=scratch,
                        rhs=OffsetRef(kept,
                                      (0,) * len(op.space), None))],
                    label="pingpong-seed")
                body = list(loop.body)
                body[i] = SwapOp(scratch, kept)
                return seed, loop.rebuild(body)
            return None

        def rewrite(block: list[PlanOp]) -> list[PlanOp]:
            nonlocal swaps
            out: list[PlanOp] = []
            for op in block:
                if isinstance(op, SeqLoopOp):
                    hit = try_rewrite(op)
                    if hit is not None:
                        seed, op = hit
                        out.append(seed)
                        swaps += 1
                out.append(op)
            return out

        new_ops = map_blocks(plan.ops, rewrite)
        return (replace(plan, ops=new_ops, arrays=arrays),
                {"pingpong_swaps": swaps})


# ---------------------------------------------------------------------------
# coalesce shifts
# ---------------------------------------------------------------------------

class CoalesceShiftsPass(PlanPass):
    """Remove overlap shifts that make nothing resident.

    The pass walks the plan with the verifier's
    :class:`~repro.plan.verify.Coverage` and drops a shift exactly when
    applying it adds nothing to what is already resident there, so every
    later residency (and every later verdict) is unchanged.  Loops and
    branches take Coverage's own rules: a body starts from the preheader
    state minus what it redefines (a preheader shift proves a body
    re-send redundant in every iteration), and a shift after a branch
    whose arms all made its cells resident goes too.
    """

    name = "coalesce-shifts"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        removed = 0

        def coalesce(block: list[PlanOp], cov: Coverage) -> list[PlanOp]:
            nonlocal removed
            out: list[PlanOp] = []
            for op in block:
                if isinstance(op, OverlapShiftOp):
                    if not cov.shift(op, len(plan.arrays[op.array].shape)):
                        removed += 1
                        continue
                elif isinstance(op, (SeqLoopOp, WhileOp)):
                    op = op.rebuild(cov.loop(
                        effects(*op.body).defines,
                        runs_at_least_once(op, plan.params),
                        lambda c: coalesce(op.body, c)))
                elif isinstance(op, CondOp):
                    op = op.rebuild(*cov.branch(
                        lambda c: coalesce(op.then_ops, c),
                        lambda c: coalesce(op.else_ops, c)))
                elif isinstance(op, SwapOp):
                    cov.swap(op.a, op.b)
                else:
                    cov.kill(*effects(op).defines)
                out.append(op)
            return out

        new_ops = coalesce(plan.ops, Coverage())
        return replace(plan, ops=new_ops), {"coalesced_shifts": removed}


# ---------------------------------------------------------------------------
# dead alloc elimination
# ---------------------------------------------------------------------------

class DeadAllocElimPass(PlanPass):
    """Delete alloc/free of arrays no op ever reads or writes."""

    name = "dead-alloc"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        eff = effects(*(op for op in plan.ops
                        if not isinstance(op, (AllocOp, FreeOp))))
        live = eff.reads | eff.writes | set(plan.entry_arrays) | \
            set(plan.outputs or ())
        removed_allocs = 0

        def prune(block: list[PlanOp]) -> list[PlanOp]:
            nonlocal removed_allocs
            out = []
            for op in block:
                if isinstance(op, (AllocOp, FreeOp)):
                    names = tuple(n for n in op.names if n in live)
                    if isinstance(op, AllocOp):
                        removed_allocs += len(op.names) - len(names)
                    if not names:
                        continue
                    if names != op.names:
                        op = replace(op, names=names)
                out.append(op)
            return out

        new_ops = map_blocks(plan.ops, prune)
        dead_decls = sorted(n for n in plan.arrays if n not in live)
        arrays = {n: d for n, d in plan.arrays.items() if n in live}
        return (replace(plan, ops=new_ops, arrays=arrays),
                {"dead_allocs": removed_allocs,
                 "dead_decls": len(dead_decls)})


# ---------------------------------------------------------------------------
# communication/computation overlap
# ---------------------------------------------------------------------------

class OverlapCommPass(PlanPass):
    """Wrap each run of overlap shifts and the nest right after it into
    an ``OverlappedOp`` when the nest reads every shifted array and
    reads no array it writes at a nonzero offset: Fortran evaluates the
    whole right-hand side before storing, so a boundary strip must not
    read what the interior strip already overwrote."""

    name = "overlap-comm"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        wrapped = 0

        def splittable(shifts: list[PlanOp], nest: LoopNestOp) -> bool:
            displaced = {node.name for stmt in nest.statements
                         for expr in (stmt.rhs, stmt.mask) if expr is not None
                         for node in expr.walk()
                         if isinstance(node, OffsetRef) and any(node.offsets)}
            eff = effects(nest)
            return not eff.defines & displaced and \
                all(s.array in eff.reads for s in shifts)

        def overlap(block: list[PlanOp]) -> list[PlanOp]:
            nonlocal wrapped
            out: list[PlanOp] = []
            pending: list[PlanOp] = []
            for op in block:
                if isinstance(op, OverlapShiftOp):
                    pending.append(op)
                    continue
                if pending and isinstance(op, LoopNestOp) and \
                        splittable(pending, op):
                    out.append(OverlappedOp(pending, op))
                    wrapped += 1
                else:
                    out.extend(pending)
                    out.append(op)
                pending = []
            return out + pending

        new_ops = map_blocks(plan.ops, overlap)
        return replace(plan, ops=new_ops), {"overlapped_nests": wrapped}


# ---------------------------------------------------------------------------
# manager
# ---------------------------------------------------------------------------

def default_plan_passes() -> list[PlanPass]:
    return [SchedulePass(), HoistInvariantShiftsPass(),
            PingPongElimPass(), CoalesceShiftsPass(),
            DeadAllocElimPass()]


def plan_shape(plan: Plan) -> dict[str, int]:
    """Coarse shape of a plan — the plan-level analogue of
    :func:`repro.passes.pass_manager.ir_stats`."""
    return {"ops": sum(1 for _ in plan.walk_ops()),
            "overlap_shifts": plan.count_ops(OverlapShiftOp),
            "arrays": len(plan.arrays)}


class PlanPassManager(PassManager):
    """The compiler's one :class:`~repro.passes.PassManager` configured
    for plans: the default pass list, the plan verifier after every
    pass, ``plan-pass:<name>`` spans with :func:`plan_shape` deltas."""

    def __init__(self, passes: list[PlanPass] | None = None,
                 tracer=None) -> None:
        super().__init__(
            default_plan_passes() if passes is None else passes,
            tracer=tracer, shape=plan_shape, kind="plan-pass",
            validate=partial(assert_plan_valid, phase="the pass"))

    def run(self, plan: Plan) -> tuple[Plan, dict[str, dict[str, int]]]:
        return super().run(plan), self.stats
