"""Plan-level optimization passes.

These run *after* codegen, on the lowest-level IR — the layer the
AST-level pipeline (offset arrays, communication unioning, fusion)
cannot see.  Codegen can re-introduce redundancy the statement passes
already eliminated once (e.g. an ``OverlapShiftOp`` subsumed by an
earlier one in the same straight-line block after fusion regrouping),
and only the plan knows the final alloc/free placement and the loop
structure of iterative solvers.

All passes are built on the recursive region framework
(:func:`repro.plan.ops.map_regions`): every rewrite sees each block
together with its structural context (top level, ``DO`` body,
``DO WHILE`` body, conditional arm, overlapped-communication block), so
the same pass logic fires inside loop and conditional bodies as at the
top level, and loop-aware passes can reason across region boundaries.

Five passes ship, run in this order by :func:`default_plan_passes`:

``schedule``
    Stable topological list scheduling within every region: hoists
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
    Removes an ``OverlapShiftOp`` whose effect is subsumed by an
    earlier shift: same array/dimension/direction/fill, at least the
    depth, an effective RSD that contains the later one, and no
    intervening write to the array.  A non-trivial RSD is only
    coalesced against the *immediately preceding* shift of that array —
    orthogonal pickup depends on the array's residency at execution
    time, which other interleaved shifts of the same array change.
    Subsumption state threads *across* region boundaries: into
    overlapped-communication blocks, and from a loop preheader into the
    loop body for arrays the body never writes — so a body shift
    subsumed by a preheader shift (e.g. one the hoist pass just moved)
    is removed.
``dead-alloc``
    Deletes alloc/free pairs (and the declarations) of arrays nothing
    reads or writes, a situation AST-level passes cannot create or see
    because temporaries are only named during codegen.

Every pass is verified by :mod:`repro.plan.verify` after it runs (the
:class:`PlanPassManager` — the shared pass manager, configured for
plans — enforces this unconditionally), so a miscompiling pass fails
loudly at compile time instead of corrupting results.  The loop-aware
passes never change observable arrays (``plan.outputs``), scalars, or
the cross-backend equivalence contract — they only reduce modelled
communication and copying (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from repro.ir.nodes import OffsetRef, ScalarRef
from repro.ir.rsd import RSD
from repro.plan.ops import (
    AllocOp, CondOp, FreeOp, FullShiftOp, LoopNestOp, NestStmt,
    OverlappedOp, OverlapShiftOp, Plan, PlanOp, Region, ScalarAssignOp,
    SeqLoopOp, SwapOp, WhileOp, map_regions, walk,
)
from repro.passes.pass_manager import Pass as PlanPass, PassManager
from repro.plan.verify import assert_plan_valid


# ---------------------------------------------------------------------------
# effect sets (shared by scheduling and coalescing)
# ---------------------------------------------------------------------------

@dataclass
class _Effects:
    reads: set[str]
    writes: set[str]
    sreads: set[str]
    swrites: set[str]


def _expr_refs(expr) -> tuple[set[str], set[str]]:
    arrays, scalars = set(), set()
    for node in expr.walk():
        if isinstance(node, OffsetRef):
            arrays.add(node.name)
        elif isinstance(node, ScalarRef):
            scalars.add(node.name)
    return arrays, scalars


def _op_effects(op: PlanOp) -> _Effects:
    """What one op (including everything nested inside it) reads and
    writes.  Overlap shifts both read and write their array; frees are
    modelled as writes so uses order before them and reallocations
    after."""
    eff = _Effects(set(), set(), set(), set())

    def leaf(o: PlanOp) -> None:
        if isinstance(o, OverlapShiftOp):
            eff.reads.add(o.array)
            eff.writes.add(o.array)
        elif isinstance(o, FullShiftOp):
            eff.reads.add(o.src)
            eff.writes.add(o.dst)
        elif isinstance(o, (AllocOp, FreeOp)):
            if isinstance(o, FreeOp):
                eff.reads.update(o.names)
            eff.writes.update(o.names)
        elif isinstance(o, LoopNestOp):
            for stmt in o.statements:
                eff.writes.add(stmt.lhs)
                for e in ([stmt.rhs] +
                          ([stmt.mask] if stmt.mask is not None else [])):
                    a, s = _expr_refs(e)
                    eff.reads.update(a)
                    eff.sreads.update(s)
            for lo, hi in o.space:
                eff.sreads.update(lo.symbols())
                eff.sreads.update(hi.symbols())
        elif isinstance(o, ScalarAssignOp):
            a, s = _expr_refs(o.rhs)
            eff.reads.update(a)
            eff.sreads.update(s)
            eff.swrites.add(o.name)
        elif isinstance(o, SeqLoopOp):
            eff.swrites.add(o.var)
            eff.sreads.update(o.lo.symbols())
            eff.sreads.update(o.hi.symbols())
        elif isinstance(o, SwapOp):
            eff.reads.update((o.a, o.b))
            eff.writes.update((o.a, o.b))
        elif isinstance(o, (WhileOp, CondOp)):
            a, s = _expr_refs(o.cond)
            eff.reads.update(a)
            eff.sreads.update(s)

    for inner in walk([op]):
        leaf(inner)
    return eff


def _owned_writes(ops: list[PlanOp]) -> set[str]:
    """Arrays whose *owned* cells some op in ``ops`` (recursively) may
    assign.  Overlap shifts are excluded: they only write halo cells,
    which is exactly why shifts of an otherwise-unwritten array are
    loop-invariant."""
    written: set[str] = set()
    for op in walk(ops):
        if isinstance(op, LoopNestOp):
            written.update(s.lhs for s in op.statements)
        elif isinstance(op, FullShiftOp):
            written.add(op.dst)
        elif isinstance(op, SwapOp):
            written.update((op.a, op.b))
        elif isinstance(op, (AllocOp, FreeOp)):
            written.update(op.names)
    return written


def _conflicts(a: _Effects, b: _Effects) -> bool:
    return bool((a.writes & (b.reads | b.writes))
                or (a.reads & b.writes)
                or (a.swrites & (b.sreads | b.swrites))
                or (a.sreads & b.swrites))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

class SchedulePass(PlanPass):
    """Stable topological list scheduling of every block."""

    name = "schedule"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        moved = 0

        def rank(op: PlanOp) -> int:
            if isinstance(op, (OverlapShiftOp, OverlappedOp)):
                return 0
            if isinstance(op, FreeOp):
                return 2
            return 1

        def schedule(block: list[PlanOp],
                     region: Region) -> list[PlanOp]:
            nonlocal moved
            n = len(block)
            if n < 2:
                return block
            effects = [_op_effects(op) for op in block]
            succs: list[list[int]] = [[] for _ in range(n)]
            npreds = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if _conflicts(effects[i], effects[j]):
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

        new_ops = map_regions(plan.ops, schedule)
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
    execute every iteration); shifts inside overlapped-communication
    blocks at the body's top level are hoisted and the
    ``OverlappedOp`` degrades to its bare nest when its communication
    block empties.  Bottom-up application cascades invariant shifts out
    of nested loop towers in one run.
    """

    name = "hoist-invariant-shifts"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        hoisted = 0

        def trip_at_least_one(op: SeqLoopOp) -> bool:
            try:
                lo = op.lo.evaluate(dict(plan.params))
                hi = op.hi.evaluate(dict(plan.params))
            except Exception:
                return False  # bounds depend on runtime scalars
            return hi >= lo

        def split_body(body: list[PlanOp], invariant: set[str]
                       ) -> tuple[list[PlanOp], list[PlanOp]]:
            """Partition a loop body into (hoisted shifts, rest)."""
            nonlocal hoisted
            pre: list[PlanOp] = []
            rest: list[PlanOp] = []
            for op in body:
                if isinstance(op, OverlapShiftOp) and \
                        op.array in invariant:
                    pre.append(op)
                    hoisted += 1
                elif isinstance(op, OverlappedOp):
                    keep = [c for c in op.comm_ops
                            if not (isinstance(c, OverlapShiftOp)
                                    and c.array in invariant)]
                    moved = [c for c in op.comm_ops
                             if isinstance(c, OverlapShiftOp)
                             and c.array in invariant]
                    pre.extend(moved)
                    hoisted += len(moved)
                    if not keep:
                        rest.append(op.nest)
                    elif len(keep) != len(op.comm_ops):
                        rest.append(replace(op, comm_ops=keep))
                    else:
                        rest.append(op)
                else:
                    rest.append(op)
            return pre, rest

        def rewrite(block: list[PlanOp],
                    region: Region) -> list[PlanOp]:
            out: list[PlanOp] = []
            for op in block:
                if isinstance(op, SeqLoopOp) and trip_at_least_one(op):
                    shifted = {c.array for c in op.body
                               if isinstance(c, OverlapShiftOp)}
                    shifted |= {c.array for o in op.body
                                if isinstance(o, OverlappedOp)
                                for c in o.comm_ops
                                if isinstance(c, OverlapShiftOp)}
                    invariant = shifted - _owned_writes(op.body)
                    if invariant:
                        pre, body = split_body(op.body, invariant)
                        out.extend(pre)
                        out.append(op.rebuild(body))
                        continue
                out.append(op)
            return out

        new_ops = map_regions(plan.ops, rewrite)
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
                if isinstance(op, (AllocOp, FreeOp)):
                    continue
                if isinstance(op, (SeqLoopOp, WhileOp, CondOp,
                                   OverlappedOp)):
                    # container control exprs never reference arrays'
                    # owned cells except through _expr_refs below
                    eff_exprs = []
                    if isinstance(op, (WhileOp, CondOp)):
                        eff_exprs.append(op.cond)
                    if any(scratch in _expr_refs(e)[0]
                           for e in eff_exprs):
                        return True
                    continue
                eff = _op_effects(op)
                if scratch not in (eff.reads | eff.writes):
                    continue
                if op is copy_nest:
                    continue  # the sanctioned read
                if isinstance(op, LoopNestOp) and id(op) in body_ids:
                    # writes via lhs are the producer statements; any
                    # *read* of the scratch elsewhere in the body
                    # disqualifies
                    if any(scratch in _expr_refs(s.rhs)[0]
                           or (s.mask is not None and
                               scratch in _expr_refs(s.mask)[0])
                           for s in op.statements):
                        return True
                    continue
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
                if kept in _owned_writes(others):
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
                    if isinstance(o, OverlappedOp):
                        o = o.nest
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

        def rewrite(block: list[PlanOp],
                    region: Region) -> list[PlanOp]:
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

        new_ops = map_regions(plan.ops, rewrite)
        return (replace(plan, ops=new_ops, arrays=arrays),
                {"pingpong_swaps": swaps})


# ---------------------------------------------------------------------------
# coalesce shifts
# ---------------------------------------------------------------------------

class CoalesceShiftsPass(PlanPass):
    """Remove overlap shifts subsumed by earlier ones.

    Subsumption state threads across region boundaries (the loop-aware
    refactor): into ``OverlappedOp`` communication blocks, which execute
    inline, and from a loop preheader into ``DO``/``DO WHILE`` bodies
    for arrays the body never writes — a shift already performed before
    the loop proves every re-send of an unwritten array's halo
    redundant, in every iteration.  Conditional arms inherit the entry
    state but contribute nothing back (either arm may not execute).
    """

    name = "coalesce-shifts"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        removed = 0

        def subsumes(a: OverlapShiftOp, b: OverlapShiftOp,
                     rank: int) -> bool:
            if a.dim != b.dim or a.boundary != b.boundary:
                return False
            if (a.shift > 0) != (b.shift > 0):
                return False
            if abs(a.shift) < abs(b.shift):
                return False
            try:
                return RSD.slab(a.rsd, a.base_offsets, rank, a.dim - 1) \
                    .contains(RSD.slab(b.rsd, b.base_offsets, rank,
                                       b.dim - 1))
            except ValueError:
                return False

        Active = dict[str, list[OverlapShiftOp]]

        def kill_writes(op: PlanOp, active: Active) -> None:
            for name in _op_effects(op).writes:
                active.pop(name, None)

        def coalesce(block: list[PlanOp], active: Active) -> list[PlanOp]:
            nonlocal removed
            out: list[PlanOp] = []
            # active: per-array shifts valid at this point (program
            # order, so [-1] is the most recent); inherited from the
            # enclosing region where sound
            for op in block:
                if isinstance(op, OverlapShiftOp):
                    decl = plan.arrays.get(op.array)
                    if decl is None:
                        out.append(op)
                        continue
                    rank = len(decl.shape)
                    prior = active.setdefault(op.array, [])
                    trivial = RSD.slab(op.rsd, op.base_offsets, rank,
                                       op.dim - 1).is_trivial
                    # a trivial transfer picks up nothing orthogonal,
                    # so any prior subsumer proves redundancy; a
                    # non-trivial one reads the array's own residency,
                    # which only the immediately preceding shift of
                    # this array leaves unchanged
                    candidates = prior if trivial else prior[-1:]
                    if any(subsumes(a, op, rank) for a in candidates):
                        removed += 1
                        continue
                    prior.append(op)
                    out.append(op)
                elif isinstance(op, OverlappedOp):
                    # the comm block executes inline at this point
                    comm = coalesce(list(op.comm_ops), active)
                    kill_writes(op.nest, active)
                    out.append(replace(op, comm_ops=comm))
                elif isinstance(op, (SeqLoopOp, WhileOp)):
                    # loop entry state = meet of preheader and back
                    # edge: only arrays whose owned cells the body never
                    # assigns keep their preheader shifts (body shifts
                    # of such arrays rewrite bitwise-identical halos,
                    # so they do not invalidate the inherited state)
                    owned = _owned_writes(op.body)
                    inner = {k: list(v) for k, v in active.items()
                             if k not in owned}
                    body = coalesce(list(op.body), inner)
                    out.append(op.rebuild(body))
                    # after the loop (trip count may be zero), any
                    # array the body touched — written or re-shifted —
                    # has unreliable residency history
                    for name in _op_effects(op).writes:
                        active.pop(name, None)
                elif isinstance(op, CondOp):
                    then_ops = coalesce(
                        list(op.then_ops),
                        {k: list(v) for k, v in active.items()})
                    else_ops = coalesce(
                        list(op.else_ops),
                        {k: list(v) for k, v in active.items()})
                    out.append(op.rebuild(then_ops, else_ops))
                    kill_writes(op, active)
                else:
                    kill_writes(op, active)
                    out.append(op)
            return out

        new_ops = coalesce(list(plan.ops), {})
        return replace(plan, ops=new_ops), {"coalesced_shifts": removed}


# ---------------------------------------------------------------------------
# dead alloc elimination
# ---------------------------------------------------------------------------

class DeadAllocElimPass(PlanPass):
    """Delete alloc/free of arrays no op ever reads or writes."""

    name = "dead-alloc"

    def run(self, plan: Plan) -> tuple[Plan, dict[str, int]]:
        live: set[str] = set(plan.entry_arrays)
        live |= set(plan.outputs or ())
        for op in walk(plan.ops):
            if isinstance(op, (AllocOp, FreeOp)):
                continue
            eff = _op_effects(op)
            live |= eff.reads | eff.writes
        removed_allocs = 0

        def prune(block: list[PlanOp], region: Region) -> list[PlanOp]:
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

        new_ops = map_regions(plan.ops, prune)
        dead_decls = sorted(n for n in plan.arrays if n not in live)
        arrays = {n: d for n, d in plan.arrays.items() if n in live}
        return (replace(plan, ops=new_ops, arrays=arrays),
                {"dead_allocs": removed_allocs,
                 "dead_decls": len(dead_decls)})


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
