"""Static verification of overlap-area coverage on the statement IR.

Every offset reference ``U<o>`` must be preceded — on *every*
control-flow path, with no intervening redefinition of ``U`` — by
``OVERLAP_SHIFT`` calls that make all the overlap cells ``o`` touches
resident, with the matching fill kind (circular vs. EOSHIFT boundary),
corner cells included.  What a shift makes resident, what a loop or a
branch leaves resident, and whether a read is covered is decided by
:class:`repro.plan.verify.Coverage`, the one model of that rule; this
module is its walker over the statement IR, as :mod:`repro.plan.verify`
is its walker over the plan.

The compiler runs this after its pass pipeline as a safety net; the test
suite also aims it at hand-mutilated programs to prove it catches real
coverage bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.nodes import (
    Allocate, ArrayAssign, Deallocate, DoLoop, DoWhile, Expr, If,
    OffsetRef, OverlapShift, ScalarAssign, Stmt,
)
from repro.ir.program import Program
from repro.plan.ops import runs_at_least_once
from repro.plan.verify import Coverage


@dataclass
class CoverageProblem:
    stmt: Stmt
    ref: OffsetRef
    reason: str

    def __str__(self) -> str:
        return f"s{self.stmt.sid}: {self.ref}: {self.reason}"


def verify_offset_coverage(program: Program) -> list[CoverageProblem]:
    """Check every offset reference's overlap coverage; returns the
    (empty when sound) problem list."""
    problems: list[CoverageProblem] = []

    def check(cov: Coverage, stmt: Stmt, expr: Expr) -> None:
        for node in expr.walk():
            if isinstance(node, OffsetRef):
                problems.extend(CoverageProblem(stmt, node, reason)
                                for reason in cov.problems(node))

    def walk(body: list[Stmt], cov: Coverage) -> None:
        for stmt in body:
            if isinstance(stmt, OverlapShift):
                cov.shift(stmt,
                          program.symbols.array(stmt.array).type.rank)
            elif isinstance(stmt, ArrayAssign):
                check(cov, stmt, stmt.rhs)
                if stmt.mask is not None:
                    check(cov, stmt, stmt.mask)
                cov.kill(stmt.lhs.name)
            elif isinstance(stmt, ScalarAssign):
                check(cov, stmt, stmt.rhs)
            elif isinstance(stmt, (Allocate, Deallocate)):
                cov.kill(*stmt.names)
            elif isinstance(stmt, If):
                check(cov, stmt, stmt.cond)
                cov.branch(lambda c: walk(stmt.then_body, c),
                           lambda c: walk(stmt.else_body, c))
            elif isinstance(stmt, (DoLoop, DoWhile)):
                if isinstance(stmt, DoWhile):
                    check(cov, stmt, stmt.cond)
                cov.loop(_redefined_in(stmt.body),
                         runs_at_least_once(stmt, program.symbols.params),
                         lambda c: walk(stmt.body, c))

    walk(program.body, Coverage())
    return problems


def _redefined_in(body: list[Stmt]) -> set[str]:
    killed: set[str] = set()
    for stmt in body:
        for s in stmt.walk():
            if isinstance(s, ArrayAssign):
                killed.add(s.lhs.name)
            elif isinstance(s, (Allocate, Deallocate)):
                killed.update(s.names)
    return killed
