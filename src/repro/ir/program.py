"""The :class:`Program` container plus validation and CFG flattening.

A program is a structured statement list over a symbol table.  Analyses
that want a flat view (SSA, dependence) work on the control-flow graph
produced by :func:`build_cfg`; straight-line kernels — the common stencil
case — flatten to a single basic block, which is exactly the situation the
paper's context-partitioning phase requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PipelineError
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, Deallocate, DoLoop, DoWhile, Expr,
    If, OffsetRef, OverlapShift, ScalarAssign, Stmt, array_names,
)
from repro.ir.symbols import SymbolTable


@dataclass
class Program:
    """An HPF kernel: symbols plus a structured statement list."""

    symbols: SymbolTable
    body: list[Stmt] = field(default_factory=list)
    name: str = "MAIN"
    #: abstract processor arrangement from !HPF$ PROCESSORS, if declared
    processors: tuple[int, ...] | None = None

    def leaf_statements(self) -> list[Stmt]:
        """All non-compound statements, in textual order."""
        out: list[Stmt] = []
        for stmt in self.body:
            for s in stmt.walk():
                if not isinstance(s, (If, DoLoop, DoWhile)):
                    out.append(s)
        return out

    def validate(self) -> None:
        """Check internal consistency; raises :class:`PipelineError`.

        Run between passes to catch IR corruption early (every pass in
        :mod:`repro.passes.pass_manager` validates its output).
        """
        for stmt in self.leaf_statements():
            self._validate_stmt(stmt)

    def _validate_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, ArrayAssign):
            sym = self.symbols.array(stmt.lhs.name)
            if stmt.lhs.section is not None and \
                    len(stmt.lhs.section) != sym.type.rank:
                raise PipelineError(
                    f"s{stmt.sid}: section rank mismatch on {stmt.lhs.name}")
            self._validate_expr(stmt.rhs, stmt)
            if stmt.mask is not None:
                self._validate_expr(stmt.mask, stmt)
        elif isinstance(stmt, OverlapShift):
            sym = self.symbols.array(stmt.array)
            if not (1 <= stmt.dim <= sym.type.rank):
                raise PipelineError(
                    f"s{stmt.sid}: OVERLAP_SHIFT dim {stmt.dim} out of range "
                    f"for {stmt.array} (rank {sym.type.rank})")
            if stmt.base_offsets is not None and \
                    len(stmt.base_offsets) != sym.type.rank:
                raise PipelineError(
                    f"s{stmt.sid}: base_offsets rank mismatch on {stmt.array}")
            if stmt.rsd is not None and stmt.rsd.rank != sym.type.rank:
                raise PipelineError(
                    f"s{stmt.sid}: RSD rank mismatch on {stmt.array}")
        elif isinstance(stmt, (Allocate, Deallocate)):
            for name in stmt.names:
                self.symbols.array(name)
        elif isinstance(stmt, ScalarAssign):
            self._validate_expr(stmt.rhs, stmt)

    def _validate_expr(self, expr: Expr, stmt: Stmt) -> None:
        for node in expr.walk():
            if isinstance(node, ArrayRef):
                sym = self.symbols.array(node.name)
                if node.section is not None and \
                        len(node.section) != sym.type.rank:
                    raise PipelineError(
                        f"s{stmt.sid}: section rank mismatch on {node.name}")
            elif isinstance(node, OffsetRef):
                sym = self.symbols.array(node.name)
                if len(node.offsets) != sym.type.rank:
                    raise PipelineError(
                        f"s{stmt.sid}: offset rank mismatch on {node.name}")

    # -- convenience -------------------------------------------------------
    def referenced_arrays(self) -> set[str]:
        names: set[str] = set()
        for stmt in self.leaf_statements():
            if isinstance(stmt, ArrayAssign):
                names.add(stmt.lhs.name)
                names |= array_names(stmt.rhs)
                if stmt.mask is not None:
                    names |= array_names(stmt.mask)
            elif isinstance(stmt, OverlapShift):
                names.add(stmt.array)
            elif isinstance(stmt, ScalarAssign):
                names |= array_names(stmt.rhs)
        return names

    def prune_dead_arrays(self) -> list[str]:
        """Drop temporaries never referenced by any remaining statement and
        the ALLOCATE/DEALLOCATE statements that managed them.

        Returns the removed names (paper 4.2: the TMP/RIP/RIN arrays "need
        not be allocated" once offset arrays remove their uses).
        """
        live = self.referenced_arrays()
        dead = [name for name, sym in list(self.symbols.arrays.items())
                if sym.is_temporary and name not in live]
        for name in dead:
            self.symbols.drop_array(name)
        if dead:
            self._prune_alloc_stmts(self.body, set(dead))
        return dead

    def _prune_alloc_stmts(self, body: list[Stmt], dead: set[str]) -> None:
        kept: list[Stmt] = []
        for stmt in body:
            if isinstance(stmt, (Allocate, Deallocate)):
                names = tuple(n for n in stmt.names if n not in dead)
                if not names:
                    continue
                stmt.names = names
            elif isinstance(stmt, If):
                self._prune_alloc_stmts(stmt.then_body, dead)
                self._prune_alloc_stmts(stmt.else_body, dead)
            elif isinstance(stmt, (DoLoop, DoWhile)):
                self._prune_alloc_stmts(stmt.body, dead)
            kept.append(stmt)
        body[:] = kept


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of leaf statements."""

    index: int
    statements: list[Stmt] = field(default_factory=list)
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def __str__(self) -> str:
        return f"B{self.index}({len(self.statements)} stmts)"


@dataclass
class CFG:
    """Control-flow graph with dedicated entry/exit blocks."""

    blocks: list[BasicBlock]
    entry: int = 0
    exit: int = 1

    def block(self, i: int) -> BasicBlock:
        return self.blocks[i]


class _CFGBuilder:
    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = [BasicBlock(0), BasicBlock(1)]
        self.current = 0

    def new_block(self) -> int:
        b = BasicBlock(len(self.blocks))
        self.blocks.append(b)
        return b.index

    def link(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].successors:
            self.blocks[src].successors.append(dst)
            self.blocks[dst].predecessors.append(src)

    def emit(self, stmt: Stmt) -> None:
        self.blocks[self.current].statements.append(stmt)

    def build(self, body: list[Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, If):
                self._build_if(stmt)
            elif isinstance(stmt, (DoLoop, DoWhile)):
                self._build_loop(stmt)
            else:
                self.emit(stmt)

    def _build_if(self, stmt: If) -> None:
        head = self.current
        then_b = self.new_block()
        join = self.new_block()
        self.link(head, then_b)
        self.current = then_b
        self.build(stmt.then_body)
        self.link(self.current, join)
        if stmt.else_body:
            else_b = self.new_block()
            self.link(head, else_b)
            self.current = else_b
            self.build(stmt.else_body)
            self.link(self.current, join)
        else:
            self.link(head, join)
        self.current = join

    def _build_loop(self, stmt: "DoLoop | DoWhile") -> None:
        head = self.new_block()
        body_b = self.new_block()
        after = self.new_block()
        self.link(self.current, head)
        self.link(head, body_b)
        self.link(head, after)
        self.current = body_b
        self.build(stmt.body)
        self.link(self.current, head)
        self.current = after


def build_cfg(program: Program) -> CFG:
    """Flatten the structured body into a CFG.

    Straight-line programs produce ``entry -> B2 -> exit`` with all
    statements in B2.
    """
    builder = _CFGBuilder()
    first = builder.new_block()
    builder.link(0, first)
    builder.current = first
    builder.build(program.body)
    builder.link(builder.current, 1)
    return CFG(builder.blocks)


def single_block(program: Program) -> list[Stmt] | None:
    """Return the statement list if the program is straight-line, else None.

    Context partitioning (paper 3.2) applies "to a set of statements within
    a basic block"; callers use this to find that block.
    """
    if any(isinstance(s, (If, DoLoop, DoWhile)) for s in program.body):
        return None
    return list(program.body)
