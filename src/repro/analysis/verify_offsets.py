"""Static verification of overlap-area coverage on the statement IR.

Every offset reference ``U<o>`` must be preceded — on *every*
control-flow path, with no intervening redefinition of ``U`` — by
``OVERLAP_SHIFT`` calls that make all the overlap cells ``o`` touches
resident, with the matching fill kind (circular vs. EOSHIFT boundary),
corner cells included.  What a shift makes resident, what a loop or a
branch leaves resident, and whether a read is covered is decided by
:class:`repro.plan.verify.Coverage`, the one model of that rule; this
module is its transfer over one statement of the IR, carried through
branches and loops by :func:`repro.ir.program.walk_flow`, as
:mod:`repro.plan.verify` is its walker over the plan.

The compiler runs this after its pass pipeline as a safety net; the test
suite also aims it at hand-mutilated programs to prove it catches real
coverage bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.nodes import (
    Allocate, ArrayAssign, Deallocate, OffsetRef, OverlapShift, Stmt,
)
from repro.ir.program import Program, read_exprs, walk_flow
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

    def visit(cov: Coverage, stmt: Stmt) -> None:
        if isinstance(stmt, OverlapShift):
            cov.shift(stmt, program.symbols.array(stmt.array).type.rank)
            return
        for expr in read_exprs(stmt):
            for node in expr.walk():
                if isinstance(node, OffsetRef):
                    problems.extend(CoverageProblem(stmt, node, reason)
                                    for reason in cov.problems(node))
        if isinstance(stmt, ArrayAssign):
            cov.kill(stmt.lhs.name)
        elif isinstance(stmt, (Allocate, Deallocate)):
            cov.kill(*stmt.names)

    # a condition is read in the state its statement is entered with
    walk_flow(program.body, Coverage(), visit, program.symbols.params,
              cond=visit)
    return problems
