"""Offset-array optimization (paper section 3.1).

Eliminates the *intraprocessor* component of shift data movement.  For
every normal-form shift statement ``DST = CSHIFT(SRC, s, d)`` (or
``EOSHIFT`` — the generalization the paper states in section 2.1) whose
safety criteria hold, the pass:

1. replaces the statement with ``CALL OVERLAP_SHIFT(SRC, s, d)`` — only
   the off-processor slab moves, into SRC's overlap area;
2. rewrites reached uses of ``DST`` into annotated offset references of
   the (ultimate) source, ``SRC<+s...>``;
3. when some use cannot be rewritten — or ``DST`` is live out of the
   routine — inserts a compensating copy ``DST = SRC<...>`` that performs
   exactly the intraprocessor movement that was avoided, preserving the
   original semantics (the paper's criterion-violation repair).

Shifts of offset arrays compose: ``TMP = CSHIFT(RIP, -1, 2)`` with
``RIP -> U<+1,0>`` becomes ``OVERLAP_SHIFT(U<+1,0>, -1, 2)`` and uses of
``TMP`` become ``U<+1,-1>`` — the multi-offset arrays of Figure 13.

The propagation is optimistic in the paper's sense: the relationship
``DST = base<offsets>`` is tracked through control flow with a forward
must-analysis (:class:`repro.ir.program.Flow`: intersection at joins,
invalidation around loop back edges, and at a loop's exit unless it
provably runs) and every use where the relationship still holds is
rewritten; everything else falls back to the compensating copy, which
stays wherever its destination is read afterwards — in a condition
too.

Fill-kind discipline
--------------------
An overlap region physically holds one set of values, but CSHIFT wants
wrapped data and EOSHIFT boundary-filled data.  The pass therefore
tracks the *fill kind* established for each (base, dimension, direction)
region since the base was last redefined; converting a shift whose fill
conflicts with the region's established kind would corrupt earlier
readers, so such shifts keep their full data movement.  Multi-offset
chains must be fill-homogeneous for the same reason.  This invariant is
also what keeps the dependence relaxation of
:mod:`repro.ir.dependence` (idempotent halo rewrites) sound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, BinOp, Compare, CShift, Deallocate,
    EOShift, Expr, Intrinsic, OffsetRef, OverlapShift, Reduction,
    ScalarAssign, Stmt, UnaryOp, section_offsets,
)
from repro.ir.program import Flow, Program, map_runs, reads, walk_flow
from repro.passes.pass_manager import Pass

# fill kind: None = circular (CSHIFT), float = end-off boundary (EOSHIFT)
Fill = float | None

# tracked relationship: name -> (base array, accumulated offsets, fill)
Entry = tuple[str, tuple[int, ...], Fill]


@dataclass
class _State(Flow):
    """Flow state: tracked offset relationships plus per-region fills."""

    off: dict[str, Entry] = field(default_factory=dict)
    fills: dict[tuple[str, int, int], Fill] = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(dict(self.off), dict(self.fills))

    def meet(self, other: "_State") -> None:
        self.off = {k: v for k, v in self.off.items()
                    if other.off.get(k) == v}
        self.fills = {k: v for k, v in self.fills.items()
                      if k in other.fills and other.fills[k] == v}

    def kill(self, *names: str) -> None:
        self.off = {k: v for k, v in self.off.items()
                    if k not in names and v[0] not in names}
        self.fills = {k: v for k, v in self.fills.items()
                      if k[0] not in names}


@dataclass
class OffsetArrayStats:
    """What the pass did — consumed by tests and the experiment reports."""

    shifts_converted: int = 0
    shifts_kept: int = 0
    uses_rewritten: int = 0
    copies_inserted: int = 0
    copies_elided: int = 0
    dead_defs_removed: int = 0
    fill_conflicts: int = 0
    dead_arrays: list[str] = field(default_factory=list)


class OffsetArrayPass(Pass):
    """SSA-flavoured offset-array conversion with copy repair."""

    name = "offset-arrays"

    def __init__(self, max_offset: int = 4,
                 outputs: set[str] | None = None,
                 convert_eoshift: bool = True) -> None:
        """``max_offset`` bounds the per-dimension offset magnitude (the
        paper's "small constant" criterion — it becomes the overlap-area
        width).  ``outputs`` names the arrays whose final values are live
        out of the routine; ``None`` means every user-declared array.
        ``convert_eoshift`` enables the EOSHIFT generalization."""
        self.max_offset = max_offset
        self.outputs = outputs
        self.convert_eoshift = convert_eoshift
        self.stats = OffsetArrayStats()

    # -- driver ------------------------------------------------------------
    def run(self, program: Program) -> None:
        self.stats = OffsetArrayStats()
        self._program = program
        self._tentative: list[tuple[ArrayAssign, str]] = []
        program.body = walk_flow(program.body, _State(), self._visit,
                                 program.symbols.params)
        self._resolve_copies(program)
        self._remove_dead_defs(program)
        self.stats.dead_arrays = program.prune_dead_arrays()

    # -- leaf transfer -------------------------------------------------------
    def _visit(self, state: _State, stmt: Stmt) -> list[Stmt] | None:
        if isinstance(stmt, ArrayAssign):
            return self._visit_assign(stmt, state)
        if isinstance(stmt, (Allocate, Deallocate)):
            state.kill(*stmt.names)
        elif isinstance(stmt, ScalarAssign):
            stmt.rhs = self._rewrite_expr(stmt.rhs, None, state)
        return None

    # -- per-statement transformation ---------------------------------------------
    def _visit_assign(self, stmt: ArrayAssign,
                      state: _State) -> list[Stmt]:
        rhs = stmt.rhs
        is_shift = isinstance(rhs, (CShift, EOShift)) and \
            stmt.lhs.section is None and \
            isinstance(rhs.array, ArrayRef) and rhs.array.section is None
        if is_shift and (isinstance(rhs, CShift) or self.convert_eoshift):
            converted = self._try_convert_shift(stmt, rhs, state)
            if converted is not None:
                return converted
        # ordinary statement: rewrite reached uses, then apply kills
        stmt.rhs = self._rewrite_expr(stmt.rhs, stmt, state)
        if stmt.mask is not None:
            stmt.mask = self._rewrite_expr(stmt.mask, stmt, state)
        state.kill(stmt.lhs.name)
        return [stmt]

    def _try_convert_shift(self, stmt: ArrayAssign,
                           rhs: "CShift | EOShift",
                           state: _State) -> list[Stmt] | None:
        symbols = self._program.symbols
        dst = stmt.lhs.name
        src = rhs.array.name
        fill: Fill = rhs.boundary if isinstance(rhs, EOShift) else None
        entry = state.off.get(src)
        if entry is not None:
            base, boffs, src_fill = entry
            # multi-offset chains must be fill-homogeneous
            if src_fill != fill and any(boffs):
                self.stats.fill_conflicts += 1
                self.stats.shifts_kept += 1
                state.kill(dst)
                return None
        else:
            base = src
            boffs = tuple(0 for _ in range(
                symbols.array(src).type.rank))
        dst_sym = symbols.array(dst)
        base_sym = symbols.array(base)
        new_offs = list(boffs)
        d = rhs.dim - 1
        if d >= len(new_offs):
            return None
        new_offs[d] += rhs.shift
        # along ``d`` the call fills to the composed offset's depth: an
        # OVERLAP_SHIFT reads its base offsets in the other dims only
        amount = new_offs[d]
        sign = 1 if amount > 0 else -1
        region = (base, d, sign)
        established = state.fills.get(region, fill)
        criteria_ok = (
            dst_sym.type == base_sym.type
            and dst_sym.distribution == base_sym.distribution
            and dst != base
            and all(abs(o) <= self.max_offset for o in new_offs)
            and established == fill
        )
        if not criteria_ok:
            if established != fill:
                self.stats.fill_conflicts += 1
            self.stats.shifts_kept += 1
            state.kill(dst)
            return None
        offsets = tuple(new_offs)
        ortho = tuple(0 if k == d else o for k, o in enumerate(boffs))
        copy = ArrayAssign(ArrayRef(dst), OffsetRef(base, offsets, fill))
        self._tentative.append((copy, dst))
        state.kill(dst)
        state.off[dst] = (base, offsets, fill)
        self.stats.shifts_converted += 1
        if not amount:      # shifted back onto the base: nothing to fill
            return [copy]
        state.fills[region] = fill
        ovl = OverlapShift(base, amount, rhs.dim,
                           base_offsets=ortho if any(ortho) else None,
                           boundary=fill)
        return [ovl, copy]

    # -- use rewriting -----------------------------------------------------------
    def _rewrite_expr(self, expr: Expr, stmt: ArrayAssign,
                      state: _State) -> Expr:
        if isinstance(expr, ArrayRef) and expr.name in state.off:
            base, offs, fill = state.off[expr.name]
            delta = self._ref_delta(expr, stmt)
            if delta is not None:
                # a nonzero delta composes a circular displacement on top
                # of the tracked one; only sound when fills agree
                if any(delta) and fill is not None:
                    return expr
                total = tuple(o + d for o, d in zip(offs, delta))
                if all(abs(o) <= self.max_offset for o in total):
                    self.stats.uses_rewritten += 1
                    return OffsetRef(base, total, fill)
            return expr
        if isinstance(expr, BinOp):
            return BinOp(expr.op,
                         self._rewrite_expr(expr.left, stmt, state),
                         self._rewrite_expr(expr.right, stmt, state))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op,
                           self._rewrite_expr(expr.operand, stmt, state))
        if isinstance(expr, Intrinsic):
            return Intrinsic(expr.name, tuple(
                self._rewrite_expr(a, stmt, state) for a in expr.args))
        if isinstance(expr, Reduction):
            return Reduction(expr.op,
                             self._rewrite_expr(expr.arg, None, state))
        if isinstance(expr, Compare):
            return Compare(expr.op,
                           self._rewrite_expr(expr.left, stmt, state),
                           self._rewrite_expr(expr.right, stmt, state))
        # shifts are non-normal-form residue: left untouched (kept full
        # shifts), like constants and scalars
        return expr

    def _ref_delta(self, ref: ArrayRef,
                   stmt: "ArrayAssign | None") -> tuple[int, ...] | None:
        rank = self._program.symbols.array(ref.name).type.rank
        if ref.section is None:
            return tuple(0 for _ in range(rank))
        if stmt is None or stmt.lhs.section is None:
            return None
        return section_offsets(ref.section, stmt.lhs.section)

    def _live_out(self, program: Program) -> set[str]:
        if self.outputs is None:
            return {name for name, sym in program.symbols.arrays.items()
                    if not sym.is_temporary}
        return {n.upper() for n in self.outputs}

    # -- copy repair ------------------------------------------------------------
    def _resolve_copies(self, program: Program) -> None:
        """Drop tentative compensating copies whose destination is never
        read afterwards and is not live out of the routine."""
        live = _collect_reads(program) | self._live_out(program)
        elided = {copy.sid for copy, dst in self._tentative
                  if dst not in live}
        self.stats.copies_inserted += len(self._tentative) - len(elided)
        self.stats.copies_elided += len(elided)
        program.body = map_runs(program.body, lambda run: [
            s for s in run if s.sid not in elided])

    # -- dead definition cleanup --------------------------------------------------
    def _remove_dead_defs(self, program: Program) -> None:
        """Remove assignments to temporaries that are never read and not
        live-out (Figure 13: the TMP/RIP/RIN defs disappear)."""
        outputs = self._live_out(program)
        changed = True
        while changed:
            changed = False
            read = _collect_reads(program)
            for stmt in list(program.body):
                if isinstance(stmt, ArrayAssign) and \
                        stmt.lhs.name not in read and \
                        stmt.lhs.name not in outputs:
                    program.body.remove(stmt)
                    self.stats.dead_defs_removed += 1
                    changed = True


def _collect_reads(program: Program) -> set[str]:
    """Every array some statement reads, conditions included."""
    return {name for stmt in program.walk() for name in reads(stmt)}
