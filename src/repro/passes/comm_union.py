"""Communication unioning (paper section 3.3).

Operates on each contiguous group of ``OVERLAP_SHIFT`` calls produced by
context partitioning and minimises the interprocessor data movement:

1. *Canonicalization by commutativity* — every multi-offset requirement
   is realised by shifting ascending dimensions in order, so a shift of
   dimension ``k`` may pick up the overlap cells already filled for
   dimensions ``< k``.
2. *Subsumption* — within one dimension and direction, the largest shift
   amount subsumes all smaller ones (``|j| >= |i|`` and same sign).
3. *RSD widening* — a shift whose source is a multi-offset array extends
   the transferred slab by the lower-dimension components of its offsets
   (the corner pickup of Figures 9/10); larger RSDs subsume smaller.

The result is a single ``OVERLAP_SHIFT`` per (array, dimension,
direction) actually required — e.g. the 9-point stencil's twelve CSHIFTs
collapse to the four calls of Figure 6.

The pass is requirement-driven rather than pattern-driven, exactly as
the paper advertises: it reconstructs, from the group's shift calls, the
set of total-offset vectors that must be resident in overlap areas, and
then emits the canonical minimal call set that covers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from repro.ir.nodes import OverlapShift, Stmt
from repro.ir.program import Program, map_runs
from repro.ir.rsd import RSD
from repro.passes.pass_manager import Pass


@dataclass
class CommUnionStats:
    """Before/after message-operation counts per unioned group."""

    groups: int = 0
    shifts_before: int = 0
    shifts_after: int = 0
    rsds_emitted: int = 0
    requirements: list[tuple[str, tuple[int, ...]]] = field(
        default_factory=list)


def requirement_of(stmt: OverlapShift,
                   rank: int) -> tuple[str, tuple[int, ...],
                                       "float | None"]:
    """Total offset vector (and fill kind) a shift call makes resident.

    ``OVERLAP_SHIFT(U<b>, s, d)`` guarantees the overlap cells for the
    offset ``b + s*e_d`` of array ``U``; the fill kind is circular for
    CSHIFT-derived calls and the boundary value for EOSHIFT-derived ones.
    ``rank`` is the declared rank of ``stmt.array`` (from the symbol
    table): the returned vector always has exactly ``rank`` components,
    so trailing-dimension base offsets are never truncated.
    """
    base = stmt.base_offsets or ()
    if len(base) > rank or stmt.dim > rank:
        raise ValueError(
            f"shift of {stmt.array} exceeds its declared rank {rank}: "
            f"dim {stmt.dim}, base offsets {base}")
    offs = list(base) + [0] * (rank - len(base))
    offs[stmt.dim - 1] += stmt.shift
    return stmt.array, tuple(offs), stmt.boundary


def union_requirements(array: str, rank: int,
                       offsets: list[tuple[int, ...]],
                       boundary: "float | None" = None) -> list[OverlapShift]:
    """Emit the canonical minimal shift set covering ``offsets``.

    For each dimension in ascending order and each direction, one call
    with the maximum amount; its RSD is the union of the lower-dimension
    extensions of every covered offset (trivial RSDs are omitted).  All
    requirements must share one fill kind — the offset-array pass's
    fill discipline guarantees this per group.
    """
    calls: list[OverlapShift] = []
    for d in range(rank):
        for sign in (-1, +1):
            need = [o for o in offsets
                    if o[d] != 0 and (1 if o[d] > 0 else -1) == sign]
            if not need:
                continue
            amount = max(abs(o[d]) for o in need)
            rsd = RSD.trivial(rank, d)
            for o in need:
                lower = tuple(o[k] if k < d else 0 for k in range(rank))
                rsd = rsd.union(RSD.from_offsets(lower, d))
            calls.append(OverlapShift(
                array, sign * amount, d + 1,
                rsd=None if rsd.is_trivial else rsd,
                boundary=boundary))
    return calls


class CommUnionPass(Pass):
    """Union each contiguous group of OVERLAP_SHIFT statements."""

    name = "comm-union"

    def __init__(self) -> None:
        self.stats = CommUnionStats()

    def run(self, program: Program) -> None:
        self.stats = CommUnionStats()
        program.body = map_runs(program.body,
                                lambda run: self._union_run(run, program))

    def _union_run(self, run: list[Stmt], program: Program) -> list[Stmt]:
        out: list[Stmt] = []
        for is_shift, stmts in groupby(
                run, lambda s: isinstance(s, OverlapShift)):
            out.extend(self._union_group(list(stmts), program)
                       if is_shift else stmts)
        return out

    def _union_group(self, group: list[OverlapShift],
                     program: Program) -> list[Stmt]:
        self.stats.groups += 1
        self.stats.shifts_before += len(group)
        # requirements are unioned per (array, fill kind): CSHIFT wants
        # wrapped overlap data, EOSHIFT boundary-filled data, and regions
        # of different kinds never mix (offset pass invariant)
        by_key: dict[tuple, list[tuple[int, ...]]] = {}
        order: list[tuple] = []
        for stmt in group:
            rank = program.symbols.array(stmt.array).type.rank
            array, offs, fill = requirement_of(stmt, rank)
            self.stats.requirements.append((array, offs))
            key = (array, fill)
            if key not in by_key:
                by_key[key] = []
                order.append(key)
            by_key[key].append(offs)
        out: list[Stmt] = []
        for key in order:
            array, fill = key
            rank = program.symbols.array(array).type.rank
            calls = union_requirements(array, rank, by_key[key],
                                       boundary=fill)
            self.stats.shifts_after += len(calls)
            self.stats.rsds_emitted += sum(
                1 for c in calls if c.rsd is not None)
            out.extend(calls)
        return out
