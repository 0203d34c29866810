"""Code generation: optimized IR -> executable plan.

This stage performs the paper's scalarization and loop fusion (sections
3.2/4.5): every computation statement is converted into a subgrid loop
nest over its iteration space; adjacent congruent statements whose
dependences are all aligned are fused into one nest (context
partitioning has already placed them next to each other); the memory
optimizer's analysis annotates each nest with its per-point memory
profile.  SPMD loop-bounds reduction happens at execution time, when
each PE intersects the nest's global iteration box with its owned block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PipelineError
from repro.compiler.options import CompilerOptions
from repro.plan import (
    AllocOp, ArrayDecl, Box, CondOp, FreeOp, FullShiftOp, LoopNestOp,
    NestStmt, OverlapShiftOp, Plan, PlanOp, ScalarAssignOp, SeqLoopOp,
    WhileOp, effects, walk,
)
from repro.ir.dependence import build_ddg
from repro.ir.linexpr import LinExpr
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, BinOp, Compare, Const, CShift,
    Deallocate, DoLoop, EOShift, Expr, If, Intrinsic, OffsetRef,
    OverlapShift, Reduction, ScalarAssign, ScalarRef, Stmt, UnaryOp,
    section_offsets,
)
from repro.ir.nodes import DoWhile
from repro.ir.program import Program
from repro.passes.context_partition import congruence_class
from repro.passes.memopt import analyze_nest


@dataclass
class _HaloNeeds:
    """Accumulates per-array, per-dimension overlap-area requirements."""

    needs: dict[str, list[list[int]]] = field(default_factory=dict)

    def _entry(self, name: str, rank: int) -> list[list[int]]:
        return self.needs.setdefault(name, [[0, 0] for _ in range(rank)])

    def offsets(self, name: str, rank: int, offs: tuple[int, ...]) -> None:
        e = self._entry(name, rank)
        for d, o in enumerate(offs):
            if o < 0:
                e[d][0] = max(e[d][0], -o)
            elif o > 0:
                e[d][1] = max(e[d][1], o)

    def shift(self, name: str, rank: int, shift: int, dim: int) -> None:
        e = self._entry(name, rank)
        d = dim - 1
        if shift > 0:
            e[d][1] = max(e[d][1], shift)
        else:
            e[d][0] = max(e[d][0], -shift)

    def rsd(self, name: str, rank: int, rsd) -> None:
        e = self._entry(name, rank)
        for d, rd in enumerate(rsd.dims):
            if rd is None:
                continue
            e[d][0] = max(e[d][0], rd.lo)
            e[d][1] = max(e[d][1], rd.hi)

    def halo_of(self, name: str, rank: int) -> tuple[tuple[int, int], ...]:
        e = self.needs.get(name)
        if e is None:
            return tuple((0, 0) for _ in range(rank))
        return tuple((lo, hi) for lo, hi in e)


class CodeGenerator:
    """Lowers one optimized program into a :class:`Plan`."""

    def __init__(self, program: Program, options: CompilerOptions) -> None:
        self.program = program
        self.options = options
        self.halo = _HaloNeeds()
        self.fused_statements = 0
        self.loop_nests = 0

    # -- public -----------------------------------------------------------
    def generate(self) -> Plan:
        ops = self._lower_block(self.program.body)
        arrays = {}
        allocated_later: set[str] = set()
        for op in walk(ops):
            if isinstance(op, AllocOp):
                allocated_later.update(op.names)
        eff = effects(*ops)
        live = set(eff.reads | eff.writes)
        if self.options.outputs is not None:
            live |= set(self.options.outputs)
        else:
            live |= {name for name, sym in
                     self.program.symbols.arrays.items()
                     if not sym.is_temporary}
        for name, sym in self.program.symbols.arrays.items():
            if name not in live:
                # paper section 4.2: arrays with no remaining uses need
                # not be allocated at all (RIP/RIN after offset arrays)
                continue
            arrays[name] = ArrayDecl(
                name=name,
                shape=sym.type.shape,
                distribution=sym.distribution,
                dtype=np.dtype(sym.type.dtype),
                halo=self.halo.halo_of(name, sym.type.rank),
                is_temporary=sym.is_temporary,
            )
        entry = tuple(name for name in arrays if name not in allocated_later)
        scalar_names = tuple(self.program.symbols.scalars)
        outputs = None
        if self.options.outputs is not None:
            outputs = tuple(sorted(n for n in self.options.outputs
                                   if n in arrays))
        return Plan(arrays=arrays, params=dict(self.program.symbols.params),
                    scalar_names=scalar_names, ops=ops, entry_arrays=entry,
                    processors=self.program.processors, outputs=outputs)

    # -- lowering -----------------------------------------------------------
    def _lower_block(self, body: list[Stmt]) -> list[PlanOp]:
        ops: list[PlanOp] = []
        run: list[ArrayAssign] = []

        def flush() -> None:
            if run:
                ops.extend(self._lower_compute_run(list(run)))
                run.clear()

        for stmt in body:
            if isinstance(stmt, ArrayAssign):
                rhs = stmt.rhs
                if isinstance(rhs, (CShift, EOShift)):
                    flush()
                    ops.append(self._lower_full_shift(stmt, rhs))
                else:
                    run.append(stmt)
                continue
            flush()
            if isinstance(stmt, OverlapShift):
                ops.append(self._lower_overlap(stmt))
            elif isinstance(stmt, ScalarAssign):
                ops.append(ScalarAssignOp(
                    stmt.name, self._scalarize_reductions(stmt.rhs)))
            elif isinstance(stmt, Allocate):
                ops.append(AllocOp(stmt.names))
            elif isinstance(stmt, Deallocate):
                ops.append(FreeOp(stmt.names))
            elif isinstance(stmt, If):
                ops.append(CondOp(self._scalarize_reductions(stmt.cond),
                                  self._lower_block(stmt.then_body),
                                  self._lower_block(stmt.else_body)))
            elif isinstance(stmt, DoLoop):
                ops.append(SeqLoopOp(stmt.var, stmt.lo, stmt.hi,
                                     self._lower_block(stmt.body)))
            elif isinstance(stmt, DoWhile):
                ops.append(WhileOp(
                    self._scalarize_reductions(stmt.cond),
                    self._lower_block(stmt.body)))
            else:
                raise PipelineError(
                    f"codegen cannot lower {type(stmt).__name__}")
        flush()
        return ops

    def _lower_full_shift(self, stmt: ArrayAssign, rhs) -> FullShiftOp:
        if stmt.lhs.section is not None or not \
                isinstance(rhs.array, ArrayRef) or rhs.array.section is not None:
            raise PipelineError(
                f"s{stmt.sid}: shift statement not in normal form")
        src = rhs.array.name
        # no overlap area needed on src: the runtime full shift goes
        # through a private communication buffer
        boundary = rhs.boundary if isinstance(rhs, EOShift) else None
        return FullShiftOp(stmt.lhs.name, src, rhs.shift, rhs.dim,
                           boundary=boundary)

    def _lower_overlap(self, stmt: OverlapShift) -> OverlapShiftOp:
        rank = self.program.symbols.array(stmt.array).type.rank
        self.halo.shift(stmt.array, rank, stmt.shift, stmt.dim)
        if stmt.rsd is not None:
            self.halo.rsd(stmt.array, rank, stmt.rsd)
        if stmt.base_offsets:
            self.halo.offsets(stmt.array, rank, stmt.base_offsets)
        return OverlapShiftOp(stmt.array, stmt.shift, stmt.dim,
                              rsd=stmt.rsd, base_offsets=stmt.base_offsets,
                              boundary=stmt.boundary)

    # -- computation runs ----------------------------------------------------
    def _lower_compute_run(self, run: list[ArrayAssign]) -> list[PlanOp]:
        if not self.options.level.fuse_loops or len(run) == 1:
            return [self._make_nest([s]) for s in run]
        groups = self._fusible_groups(run)
        return [self._make_nest(g) for g in groups]

    def _fusible_groups(self,
                        run: list[ArrayAssign]) -> list[list[ArrayAssign]]:
        """Greedy maximal fusion of an adjacent run: extend the current
        group while spaces match, no dependence into the group is fusion
        preventing, and the over-fusion limit is respected."""
        edges = build_ddg(list(run), self.program)
        bad_pairs = {(e.src, e.dst) for e in edges if e.fusion_preventing}
        classes = [congruence_class(s, self.program) for s in run]
        limit = self.options.fusion_limit or len(run)
        groups: list[list[int]] = []
        current: list[int] = []
        for i in range(len(run)):
            ok = bool(current)
            if ok and classes[i] != classes[current[0]]:
                ok = False
            if ok and len(current) >= limit:
                ok = False
            if ok and any((j, i) in bad_pairs for j in current):
                ok = False
            if ok:
                current.append(i)
            else:
                if current:
                    groups.append(current)
                current = [i]
        if current:
            groups.append(current)
        return [[run[i] for i in g] for g in groups]

    def _make_nest(self, stmts: list[ArrayAssign]) -> LoopNestOp:
        space = self._space_of(stmts[0])
        nest_stmts = [NestStmt(s.lhs.name,
                               self._scalarize_expr(s.rhs, s),
                               mask=None if s.mask is None else
                               self._scalarize_expr(s.mask, s))
                      for s in stmts]
        rank_of = lambda name: self.program.symbols.array(name).type.rank
        stats = analyze_nest(nest_stmts, rank_of,
                             memopt=self.options.level.memopt,
                             unroll_jam=self.options.unroll_jam)
        self.loop_nests += 1
        if len(stmts) > 1:
            self.fused_statements += len(stmts)
        return LoopNestOp(
            statements=nest_stmts,
            space=space,
            stats=stats,
            fused=len(stmts) > 1,
            memopt=self.options.level.memopt,
            unroll_jam=self.options.unroll_jam
            if self.options.level.memopt else 1,
            # per-compilation ordinal, not the global statement sid:
            # plan documents must be byte-stable across process history
            label=f"nest@{self.loop_nests}:{stmts[0].lhs.name}",
        )

    def _scalarize_reductions(self, expr: Expr) -> Expr:
        """Scalarize reduction operands in a scalar expression: whole
        array references become offset-0 references iterated over the
        owned subgrid at run time."""
        if isinstance(expr, Reduction):
            return Reduction(expr.op, self._scalarize_whole(expr.arg))
        if isinstance(expr, BinOp):
            return BinOp(expr.op, self._scalarize_reductions(expr.left),
                         self._scalarize_reductions(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op,
                           self._scalarize_reductions(expr.operand))
        if isinstance(expr, Intrinsic):
            return Intrinsic(expr.name, tuple(
                self._scalarize_reductions(a) for a in expr.args))
        if isinstance(expr, Compare):
            return Compare(expr.op,
                           self._scalarize_reductions(expr.left),
                           self._scalarize_reductions(expr.right))
        return expr

    def _scalarize_whole(self, expr: Expr) -> Expr:
        """Scalarize a whole-array elementwise expression (a reduction
        operand)."""
        if isinstance(expr, ArrayRef):
            if expr.section is not None:
                raise PipelineError(
                    "sectioned reduction operands escaped normalization")
            rank = self.program.symbols.array(expr.name).type.rank
            self.halo.offsets(expr.name, rank,
                              tuple(0 for _ in range(rank)))
            return OffsetRef(expr.name, tuple(0 for _ in range(rank)))
        if isinstance(expr, OffsetRef):
            rank = self.program.symbols.array(expr.name).type.rank
            self.halo.offsets(expr.name, rank, expr.offsets)
            return expr
        if isinstance(expr, BinOp):
            return BinOp(expr.op, self._scalarize_whole(expr.left),
                         self._scalarize_whole(expr.right))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self._scalarize_whole(expr.operand))
        if isinstance(expr, Intrinsic):
            return Intrinsic(expr.name, tuple(
                self._scalarize_whole(a) for a in expr.args))
        if isinstance(expr, Compare):
            return Compare(expr.op, self._scalarize_whole(expr.left),
                           self._scalarize_whole(expr.right))
        if isinstance(expr, (Const, ScalarRef)):
            return expr
        raise PipelineError(
            f"{type(expr).__name__} in a reduction operand escaped "
            f"normalization")

    def _space_of(self, stmt: ArrayAssign) -> Box:
        sym = self.program.symbols.array(stmt.lhs.name)
        if stmt.lhs.section is None:
            return tuple((LinExpr(1), LinExpr(n)) for n in sym.type.shape)
        return tuple((t.lo, t.hi) for t in stmt.lhs.section)

    def _scalarize_expr(self, expr: Expr, stmt: ArrayAssign) -> Expr:
        """Replace aligned section references by offset-0 references; the
        iteration point supplies the indexing."""
        if isinstance(expr, (Const, ScalarRef, OffsetRef)):
            if isinstance(expr, OffsetRef):
                rank = self.program.symbols.array(expr.name).type.rank
                self.halo.offsets(expr.name, rank, expr.offsets)
            return expr
        if isinstance(expr, ArrayRef):
            rank = self.program.symbols.array(expr.name).type.rank
            if expr.section is None:
                return OffsetRef(expr.name, tuple(0 for _ in range(rank)))
            if stmt.lhs.section is None:
                raise PipelineError(
                    f"s{stmt.sid}: sectioned operand in whole-array "
                    f"statement escaped normalization")
            offs = section_offsets(expr.section, stmt.lhs.section)
            if offs is None:
                raise PipelineError(
                    f"s{stmt.sid}: unaligned operand {expr} escaped "
                    f"normalization")
            self.halo.offsets(expr.name, rank, offs)
            return OffsetRef(expr.name, offs)
        if isinstance(expr, BinOp):
            return BinOp(expr.op,
                         self._scalarize_expr(expr.left, stmt),
                         self._scalarize_expr(expr.right, stmt))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op,
                           self._scalarize_expr(expr.operand, stmt))
        if isinstance(expr, Intrinsic):
            return Intrinsic(expr.name, tuple(
                self._scalarize_expr(a, stmt) for a in expr.args))
        if isinstance(expr, Compare):
            return Compare(expr.op,
                           self._scalarize_expr(expr.left, stmt),
                           self._scalarize_expr(expr.right, stmt))
        raise PipelineError(
            f"s{stmt.sid}: {type(expr).__name__} escaped normalization")
