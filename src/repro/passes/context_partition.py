"""Context partitioning (paper section 3.2).

Partitions the statements of a basic block into groups of *congruent*
array statements, communication operations, and scalar statements, using
the Kennedy-McKinley typed-fusion algorithm over the (acyclic) data
dependence graph.  The reordered program places each group contiguously:

* congruent computation statements become adjacent, so scalarization can
  fuse them into a single subgrid loop nest without over-fusing;
* communication operations become adjacent, handing communication
  unioning a whole group to minimise at once.

Two array statements are congruent when they operate on identically
distributed arrays and cover the same iteration space (the paper's
definition, footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.ir.dependence import DepEdge, build_ddg, predecessors
from repro.ir.nodes import (
    Allocate, ArrayAssign, ArrayRef, Deallocate, OffsetRef, OverlapShift,
    ScalarAssign, Stmt,
)
from repro.ir.program import Program, map_runs
from repro.passes.pass_manager import Pass


def congruence_class(stmt: Stmt, program: Program) -> Hashable:
    """The 'type' of a statement for typed fusion.

    Computation statements are keyed by iteration space and operand
    distributions; all communication calls share one class; scalar and
    memory-management statements get their own classes.
    """
    if isinstance(stmt, OverlapShift):
        return ("comm",)
    if isinstance(stmt, ScalarAssign):
        return ("scalar",)
    if isinstance(stmt, (Allocate, Deallocate)):
        return ("mem",)
    if isinstance(stmt, ArrayAssign):
        sym = program.symbols.array(stmt.lhs.name)
        if stmt.lhs.section is None:
            space: Hashable = ("whole", sym.type.shape)
        else:
            space = tuple(str(t) for t in stmt.lhs.section)
        dists = {str(sym.distribution)}
        exprs = [stmt.rhs] + ([stmt.mask] if stmt.mask is not None else [])
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, (ArrayRef, OffsetRef)):
                    dists.add(
                        str(program.symbols.array(node.name).distribution))
        return ("compute", space, tuple(sorted(dists)))
    return ("other", type(stmt).__name__)


@dataclass
class TypedFusionResult:
    """Groups in execution order; each group lists statement indices of
    the original block, in original textual order."""

    groups: list[list[int]]
    group_class: list[Hashable]
    edges: list[DepEdge] = field(default_factory=list)


def typed_fusion(statements: list[Stmt], program: Program,
                 edges: list[DepEdge] | None = None) -> TypedFusionResult:
    """Greedy typed fusion with a total order on groups.

    Processing statements in (topological = textual) order, a statement
    may join an existing group ``g`` of its own class provided every
    dependence predecessor sits in a group placed no later than ``g`` —
    strictly earlier when the edge crosses classes or is fusion
    preventing.  The total order makes bad-path transitivity automatic:
    a bad edge into a later group position blocks fusion with any
    earlier same-class group beyond it.
    """
    if edges is None:
        edges = build_ddg(statements, program)
    preds = predecessors(edges, len(statements))
    classes = [congruence_class(s, program) for s in statements]

    groups: list[list[int]] = []
    group_class: list[Hashable] = []
    placement: list[int] = []

    for i, stmt in enumerate(statements):
        minpos = 0
        for e in preds[i]:
            p_pos = placement[e.src]
            same = classes[e.src] == classes[i]
            if same and not e.fusion_preventing:
                minpos = max(minpos, p_pos)
            else:
                minpos = max(minpos, p_pos + 1)
        chosen = None
        for g in range(minpos, len(groups)):
            if group_class[g] == classes[i]:
                chosen = g
                break
        if chosen is None:
            groups.append([])
            group_class.append(classes[i])
            chosen = len(groups) - 1
        groups[chosen].append(i)
        placement.append(chosen)

    return TypedFusionResult(groups, group_class, edges)


class ContextPartitionPass(Pass):
    """Reorder straight-line regions into contiguous congruence groups."""

    name = "context-partition"

    def __init__(self) -> None:
        self.last_result: TypedFusionResult | None = None

    def run(self, program: Program) -> None:
        program.body = map_runs(program.body,
                                lambda run: self._reorder(run, program))

    def _reorder(self, statements: list[Stmt],
                 program: Program) -> list[Stmt]:
        result = typed_fusion(statements, program)
        self.last_result = result
        ordered: list[Stmt] = []
        for members in result.groups:
            for i in members:
                ordered.append(statements[i])
        return ordered
