"""The :class:`Program` container and the one structured walk of the
statement IR.

A program is a structured statement list over a symbol table.  Every
pass over it uses the walks here rather than its own recursion into
``IF``/``DO`` bodies: :func:`map_runs` rewrites each maximal run of leaf
statements (the paper's basic blocks: context partitioning applies "to a
set of statements within a basic block"), and :func:`walk_flow` carries
a forward must-analysis (:class:`Flow`) through branches and loops with
the one loop-exit and branch-join rule.  :func:`reads` says which arrays
one statement reads, conditions included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from repro.errors import PipelineError, SemanticError
from repro.ir.linexpr import LinExpr
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, Deallocate, Expr, If, OffsetRef,
    OverlapShift, Stmt, array_names,
)
from repro.ir.symbols import SymbolTable

T = TypeVar("T")
F = TypeVar("F", bound="Flow")


@dataclass
class Program:
    """An HPF kernel: symbols plus a structured statement list."""

    symbols: SymbolTable
    body: list[Stmt] = field(default_factory=list)
    name: str = "MAIN"
    #: abstract processor arrangement from !HPF$ PROCESSORS, if declared
    processors: tuple[int, ...] | None = None

    def walk(self) -> Iterator[Stmt]:
        """Every statement, compound ones included, in textual order."""
        for stmt in self.body:
            yield from stmt.walk()

    def leaf_statements(self) -> list[Stmt]:
        """All non-compound statements, in textual order."""
        return [s for s in self.walk() if not s.BLOCKS]

    def validate(self) -> None:
        """Check internal consistency; raises :class:`PipelineError`.

        Run between passes to catch IR corruption early (every pass in
        :mod:`repro.passes.pass_manager` validates its output).
        """
        for stmt in self.walk():
            self._validate_stmt(stmt)
            for expr in read_exprs(stmt):
                self._validate_expr(expr, stmt)

    def _validate_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, ArrayAssign):
            sym = self.symbols.array(stmt.lhs.name)
            if stmt.lhs.section is not None and \
                    len(stmt.lhs.section) != sym.type.rank:
                raise PipelineError(
                    f"s{stmt.sid}: section rank mismatch on {stmt.lhs.name}")
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
        for stmt in self.walk():
            names |= reads(stmt)
            if isinstance(stmt, ArrayAssign):
                names.add(stmt.lhs.name)
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
            gone = set(dead)

            def prune(run: list[Stmt]) -> list[Stmt]:
                kept = []
                for stmt in run:
                    if isinstance(stmt, (Allocate, Deallocate)):
                        stmt.names = tuple(n for n in stmt.names
                                           if n not in gone)
                        if not stmt.names:
                            continue
                    kept.append(stmt)
                return kept

            self.body = map_runs(self.body, prune)
        return dead


# ---------------------------------------------------------------------------
# The structured walk
# ---------------------------------------------------------------------------


def read_exprs(stmt: Stmt) -> list[Expr]:
    """The expressions ``stmt`` itself evaluates: an assignment's
    right-hand side and WHERE mask, an IF or DO WHILE condition."""
    return [expr for expr in (getattr(stmt, attr, None)
                              for attr in ("rhs", "mask", "cond"))
            if expr is not None]


def reads(stmt: Stmt) -> set[str]:
    """The arrays ``stmt`` itself reads (a compound statement: its
    condition, not its blocks)."""
    names = {stmt.array} if isinstance(stmt, OverlapShift) else set()
    for expr in read_exprs(stmt):
        names |= array_names(expr)
    return names


def redefined_in(body: list[Stmt]) -> set[str]:
    """The arrays any statement of ``body``, at any depth, assigns,
    allocates or frees."""
    names: set[str] = set()
    for stmt in body:
        for s in stmt.walk():
            if isinstance(s, ArrayAssign):
                names.add(s.lhs.name)
            elif isinstance(s, (Allocate, Deallocate)):
                names.update(s.names)
    return names


def runs_at_least_once(loop: object, params: Mapping[str, int]) -> bool:
    """Does ``loop`` provably execute its body at least once?

    True for a counted loop (a ``DO`` statement, or the plan's
    ``SeqLoopOp``) whose bounds, evaluated over the size ``params``,
    give ``hi >= lo``; False when they depend on run-time scalars and
    for any loop on a condition (``DO WHILE``).
    """
    if not isinstance(getattr(loop, "lo", None), LinExpr):
        return False
    try:
        return loop.hi.evaluate(params) >= loop.lo.evaluate(params)
    except SemanticError:
        return False


def map_runs(body: list[Stmt],
             fn: Callable[[list[Stmt]], Iterable[Stmt]]) -> list[Stmt]:
    """``body`` with each maximal run of leaf statements, at every depth
    and in textual order, replaced by ``fn(run)``.

    Nested blocks are rewritten in place; the returned list replaces
    ``body``.  ``fn`` is never called on an empty run.
    """
    out: list[Stmt] = []
    run: list[Stmt] = []
    for stmt in body:
        if not stmt.BLOCKS:
            run.append(stmt)
            continue
        if run:
            out.extend(fn(run))
            run = []
        for block in stmt.BLOCKS:
            setattr(stmt, block, map_runs(getattr(stmt, block), fn))
        out.append(stmt)
    if run:
        out.extend(fn(run))
    return out


class Flow:
    """The state of a forward must-analysis at one program point.

    A subclass says how to :meth:`copy` itself, :meth:`meet` another
    state in place (a join point keeps what both paths hold) and
    :meth:`kill` what a redefinition invalidates.  The loop-exit and
    branch-join rules are written here, once, for every walker: the
    statement IR's (:func:`walk_flow`) and the plan's.
    """

    def copy(self: F) -> F:
        raise NotImplementedError

    def meet(self: F, other: F) -> None:
        raise NotImplementedError

    def kill(self, *names: str) -> None:
        raise NotImplementedError

    def loop(self: F, defines: Iterable[str], once: bool,
             body: Callable[[F], T]) -> T:
        """A loop whose body redefines ``defines``: ``body`` walks it
        once from the entry state and its result is returned.

        Around the back edge nothing the body redefines holds on entry
        to any iteration; at exit the state is the body's, met with the
        state before the loop unless the loop provably runs (``once``) —
        a zero-trip loop established nothing.
        """
        before = self.copy()
        self.kill(*defines)
        result = body(self)
        if not once:
            self.meet(before)
        return result

    def branch(self: F, *arms: Callable[[F], T]) -> list[T]:
        """A branch: each arm walks from the entry state, the state after
        is their meet; returns the arms' results."""
        states = [self] + [self.copy() for _ in arms[1:]]
        results = [arm(state) for arm, state in zip(arms, states)]
        for state in states[1:]:
            self.meet(state)
        return results


def walk_flow(body: list[Stmt], state: F,
              leaf: Callable[[F, Stmt], "Iterable[Stmt] | None"],
              params: Mapping[str, int],
              cond: "Callable[[F, Stmt], object] | None" = None
              ) -> list[Stmt]:
    """Carry ``state`` forward through ``body``.

    ``leaf(state, stmt)`` transfers the state over one leaf statement
    and returns the statements replacing it (None keeps it).  An IF
    walks its arms through :meth:`Flow.branch`, a DO its body through
    :meth:`Flow.loop` (``params`` decide whether it provably runs);
    ``cond(state, stmt)``, if given, first sees each compound statement
    in its entry state, where its condition is evaluated.  Nested blocks
    are rewritten in place; the returned list replaces ``body``.
    """
    def arm(stmt: Stmt, block: str) -> Callable[[F], None]:
        return lambda s: setattr(stmt, block, walk_flow(
            getattr(stmt, block), s, leaf, params, cond))

    out: list[Stmt] = []
    for stmt in body:
        if not stmt.BLOCKS:
            new = leaf(state, stmt)
            out.extend([stmt] if new is None else new)
            continue
        if cond is not None:
            cond(state, stmt)
        if isinstance(stmt, If):
            state.branch(*(arm(stmt, b) for b in stmt.BLOCKS))
        else:
            state.loop(redefined_in(stmt.body),
                       runs_at_least_once(stmt, params), arm(stmt, "body"))
        out.append(stmt)
    return out
