"""The plan verifier and the one overlap-residency model.

:class:`Coverage` is the §3.1/§3.3 model of what earlier
``OVERLAP_SHIFT``\\ s made resident and whether an offset read is
covered by it (Figures 9/10 corners included).  Its transfer rules are
written once, here: a shift adds, a write, allocation or free kills, a
swap moves residency with the buffer; loops and branches take the one
rule of :class:`repro.ir.program.Flow`.  Three clients walk it: this
module's verifier over a :class:`~repro.plan.ops.Plan` (the
lowest-level IR) after codegen and after every plan pass,
:mod:`repro.analysis.verify_offsets` over the statement IR after the
AST passes, and the ``coalesce-shifts`` plan pass, which drops a shift
exactly when :meth:`Coverage.shift` says it adds nothing.  The plan
walker also checks what only exists after lowering — allocation
lifetimes, declared halo widths, RSD extents, and op-structure
well-formedness.

Checks, grouped by the ``check`` code on each problem:

``structure``
    Declared-array references, dimension numbers in range, RSD/offset
    rank agreement, ``OverlappedOp`` bodies holding only overlap shifts,
    scalar references resolvable.
``alloc``
    Alloc-before-use, no double allocation, no free of unallocated
    arrays, no use-after-free; conditional branches must agree on the
    allocation state and loop bodies must preserve it.
``halo``
    Every ``OverlapShiftOp`` depth, RSD extension, and base offset fits
    inside the ``ArrayDecl`` halo, and every offset read stays within
    the declared overlap area.
``coverage``
    Every offset read is covered by prior overlap shifts of sufficient
    depth with the matching fill kind, including corner pickup through
    residency-clamped orthogonal extensions (Figures 9/10): whatever
    :meth:`Coverage.problems` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from repro.errors import PlanVerificationError
from repro.ir.nodes import Expr, OffsetRef, OverlapShift, ScalarRef
from repro.ir.program import Flow
from repro.ir.rsd import RSD
from repro.plan.ops import (
    AllocOp, ArrayDecl, CondOp, FreeOp, FullShiftOp, LoopNestOp,
    OverlappedOp, OverlapShiftOp, Plan, PlanOp, ScalarAssignOp,
    SeqLoopOp, SwapOp, WhileOp, effects, runs_at_least_once,
)

Fill = float | None


@dataclass(frozen=True)
class RegionCover:
    """The cells one shift made resident in an (array, dim, sign)
    overlap region: a box ``amount`` deep along the shifted dim and
    ``ortho`` = (lo, hi) wide into every other dim's overlap."""

    amount: int
    ortho: tuple[tuple[int, int], ...]
    fill: Fill

    def within(self, other: "RegionCover") -> bool:
        """Are all of this cover's cells ``other``'s, with its fill?"""
        return self.fill == other.fill and self.amount <= other.amount \
            and all(a[0] <= b[0] and a[1] <= b[1]
                    for a, b in zip(self.ortho, other.ortho))

    def meet(self, other: "RegionCover") -> "RegionCover":
        """The cells both covers hold (same fill)."""
        return RegionCover(
            min(self.amount, other.amount),
            tuple((min(a[0], b[0]), min(a[1], b[1]))
                  for a, b in zip(self.ortho, other.ortho)), self.fill)


Covers = tuple[RegionCover, ...]


def _frontier(covers) -> Covers:
    """``covers`` without the ones another of them holds."""
    covers = tuple(dict.fromkeys(covers))
    return tuple(c for c in covers
                 if not any(d != c and c.within(d) for d in covers))


class Coverage(Flow):
    """Which overlap cells are resident at one program point: the one
    residency model, its transfer rules written once.

    Each ``(array, 0-based dim, sign)`` region keeps its non-dominated
    :class:`RegionCover`\\ s, all of one fill: refills of different
    depths and orthogonal widths stay separate boxes, so a corner is
    resident only when a single shift carried it.  A walker applies each
    ``OVERLAP_SHIFT`` with :meth:`shift` (which says whether it made
    anything resident), each redefinition with :meth:`kill`, each buffer
    swap with :meth:`swap`, each loop with :meth:`~Flow.loop` and each
    branch with :meth:`~Flow.branch`, and asks :meth:`problems` about
    every offset read.
    """

    def __init__(self, regions: dict | None = None) -> None:
        self.regions: dict[tuple[str, int, int], Covers] = \
            dict(regions or {})

    def copy(self) -> "Coverage":
        return Coverage(self.regions)

    def _depth(self, name: str, dim: int, sign: int) -> int:
        return max((c.amount for c in self.regions.get((name, dim, sign),
                                                       ())), default=0)

    def shift(self, op: OverlapShiftOp | OverlapShift, rank: int) -> bool:
        """Apply one ``OVERLAP_SHIFT`` of a rank-``rank`` array; False
        when it adds nothing to what is already resident."""
        d = op.dim - 1
        try:
            slab = RSD.slab(op.rsd, op.base_offsets, rank, d)
        except ValueError:  # malformed: the plan's structure check says so
            slab = RSD.trivial(rank, d)
        # the widened slab is read from the sender's dim-k overlap area,
        # so the pickup is only as deep as what was resident there when
        # this shift executed (Figures 9/10)
        ortho = tuple(
            (0, 0) if ext is None else
            (min(ext.lo, self._depth(op.array, k, -1)),
             min(ext.hi, self._depth(op.array, k, +1)))
            for k, ext in enumerate(slab.dims))
        key = (op.array, d, 1 if op.shift > 0 else -1)
        cover = RegionCover(abs(op.shift), ortho, op.boundary)
        # a refill of another fill kind overwrites the region
        prev = tuple(c for c in self.regions.get(key, ())
                     if c.fill == cover.fill)
        if any(cover.within(c) for c in prev):
            return False
        self.regions[key] = _frontier(prev + (cover,))
        return True

    def kill(self, *names: str) -> None:
        """The arrays ``names`` were redefined: nothing of theirs is
        resident."""
        for key in [key for key in self.regions if key[0] in names]:
            del self.regions[key]

    def swap(self, a: str, b: str) -> None:
        """Residency travels with the buffers of a pointer swap."""
        self.regions = {((b if n == a else a if n == b else n), d, s): c
                        for (n, d, s), c in self.regions.items()}

    def meet(self, other: "Coverage") -> None:
        """Join point: keep only what both paths made resident."""
        met = {}
        for key in self.regions.keys() & other.regions.keys():
            mine, theirs = self.regions[key], other.regions[key]
            if mine[0].fill == theirs[0].fill:
                met[key] = _frontier(a.meet(b) for a in mine
                                     for b in theirs)
        self.regions = met

    def problems(self, ref: OffsetRef) -> list[str]:
        """Why the overlap cells ``ref`` reads are not all resident
        (empty when they are)."""
        offs, reasons = ref.offsets, []
        deep: dict[int, Covers] = {}
        for k, o in enumerate(offs):
            if o == 0:
                continue
            sign = 1 if o > 0 else -1
            covers = self.regions.get((ref.name, k, sign))
            if not covers:
                reasons.append(f"no prior overlap_shift fills dim {k + 1} "
                               f"direction {'+' if sign > 0 else '-'}")
            elif covers[0].fill != ref.boundary:
                reasons.append(f"fill kind mismatch on dim {k + 1}: "
                               f"region holds {covers[0].fill}, "
                               f"reference needs {ref.boundary}")
            else:
                deep[k] = tuple(c for c in covers if c.amount >= abs(o))
                if not deep[k]:
                    reasons.append(
                        f"overlap depth {max(c.amount for c in covers)} "
                        f"< |{o}| on dim {k + 1}")
        if not reasons and len(deep) > 1 and \
                not self._corner_carried(offs, deep):
            carried = ", ".join(
                f"dim {k + 1} fill extends "
                + " or ".join(str(c.ortho) for c in covers)
                for k, covers in deep.items())
            reasons.append(f"corner cells not carried: no shift order "
                           f"covers offset {offs} ({carried})")
        return reasons

    @staticmethod
    def _corner_carried(offs: tuple[int, ...],
                        deep: dict[int, Covers]) -> bool:
        """Is the corner cell at ``offs`` resident in some overlap area?

        It is when the nonzero dimensions admit an ordering in which
        each dimension has one cover, deep enough, whose orthogonal
        extension covers all components shifted before it — that shift
        then carried the earlier corner data from its sender's overlap
        area, in any dimension order.  Ortho extents are already
        residency-clamped, so this accepts exactly the chains the
        runtime delivers.
        """
        def carries(k: int, earlier: tuple[int, ...]) -> bool:
            # ortho[j] is (lo, hi): index 1 serves a positive offset
            return any(all(c.ortho[j][offs[j] > 0] >= abs(offs[j])
                           for j in earlier) for c in deep[k])

        return any(all(carries(k, perm[:i]) for i, k in enumerate(perm))
                   for perm in permutations(deep))


@dataclass
class PlanProblem:
    """One verifier finding, with enough context to act on it."""

    check: str      # "structure" | "alloc" | "halo" | "coverage"
    where: str      # op description, e.g. "overlap_shift A +1 dim 1"
    reason: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.where}: {self.reason}"


def _describe(op: PlanOp) -> str:
    if isinstance(op, OverlapShiftOp):
        return f"overlap_shift {op.array} {op.shift:+d} dim {op.dim}"
    if isinstance(op, FullShiftOp):
        return f"full_shift {op.dst} <- {op.src} {op.shift:+d} dim {op.dim}"
    if isinstance(op, LoopNestOp):
        return f"loop_nest [{'; '.join(str(s) for s in op.statements)}]"
    if isinstance(op, AllocOp):
        return f"alloc {', '.join(op.names)}"
    if isinstance(op, FreeOp):
        return f"free {', '.join(op.names)}"
    if isinstance(op, ScalarAssignOp):
        return f"scalar {op.name} = ..."
    if isinstance(op, SwapOp):
        return f"swap {op.a} <-> {op.b}"
    return type(op).__name__.removesuffix("Op").lower()


@dataclass
class _PlanVerifier:
    plan: Plan
    problems: list[PlanProblem] = field(default_factory=list)

    def _add(self, check: str, op: PlanOp | None, reason: str) -> None:
        where = _describe(op) if op is not None else "plan"
        self.problems.append(PlanProblem(check, where, reason))

    # -- declarations --------------------------------------------------------
    def _decl(self, op: PlanOp, name: str) -> ArrayDecl | None:
        decl = self.plan.arrays.get(name)
        if decl is None:
            self._add("structure", op,
                      f"references undeclared array {name}")
        return decl

    def _check_entry(self) -> None:
        for name in self.plan.entry_arrays:
            if name not in self.plan.arrays:
                self._add("structure", None,
                          f"entry array {name} has no ArrayDecl")
        for name in self.plan.outputs or ():
            if name not in self.plan.arrays:
                self._add("structure", None,
                          f"output array {name} has no ArrayDecl")

    # -- allocation state ----------------------------------------------------
    def _use(self, op: PlanOp, name: str, allocated: set[str],
             ever: set[str]) -> None:
        if name in allocated:
            return
        if name in ever:
            self._add("alloc", op, f"array {name} used after free")
        else:
            self._add("alloc", op,
                      f"array {name} used before allocation")

    # -- halo / bounds -------------------------------------------------------
    def _check_shift_bounds(self, op: OverlapShiftOp,
                            decl: ArrayDecl) -> None:
        rank = len(decl.shape)
        if not 1 <= op.dim <= rank:
            self._add("structure", op,
                      f"dim {op.dim} out of range for rank-{rank} "
                      f"array {op.array}")
            return
        if op.shift == 0:
            self._add("structure", op, "zero shift moves no data")
            return
        d = op.dim - 1
        side = 1 if op.shift > 0 else 0
        if abs(op.shift) > decl.halo[d][side]:
            self._add("halo", op,
                      f"shift depth {abs(op.shift)} exceeds declared "
                      f"halo {decl.halo[d]} of {op.array} on dim "
                      f"{op.dim}; widen the overlap area or shrink "
                      f"the shift")
        try:
            slab = RSD.slab(op.rsd, op.base_offsets, rank, d)
        except ValueError as exc:
            self._add("structure", op, str(exc))
            return
        for k, ext in enumerate(slab.dims):
            if ext is not None and (ext.lo > decl.halo[k][0]
                                    or ext.hi > decl.halo[k][1]):
                self._add("halo", op,
                          f"RSD extension ({ext.lo},{ext.hi}) on dim "
                          f"{k + 1} exceeds declared halo "
                          f"{decl.halo[k]} of {op.array}")

    def _check_offset_halo(self, op: PlanOp, ref: OffsetRef) -> None:
        decl = self._decl(op, ref.name)
        if decl is None:
            return
        rank = len(decl.shape)
        if len(ref.offsets) != rank:
            self._add("structure", op,
                      f"offset reference {ref} has {len(ref.offsets)} "
                      f"offsets for rank-{rank} array")
            return
        for k, o in enumerate(ref.offsets):
            if o == 0:
                continue
            side = 1 if o > 0 else 0
            if abs(o) > decl.halo[k][side]:
                self._add("halo", op,
                          f"offset {o:+d} on dim {k + 1} reads outside "
                          f"the declared halo {decl.halo[k]} of "
                          f"{ref.name}")

    # -- expression references ----------------------------------------------
    def _check_expr(self, op: PlanOp, expr: Expr, state: Coverage,
                    allocated: set[str], ever: set[str],
                    scalars: set[str]) -> None:
        for node in expr.walk():
            if isinstance(node, OffsetRef):
                self._use(op, node.name, allocated, ever)
                self._check_offset_halo(op, node)
                if node.name in allocated:
                    for reason in state.problems(node):
                        self._add("coverage", op, f"{node}: {reason}")
            elif isinstance(node, ScalarRef):
                if node.name not in scalars and \
                        node.name not in self.plan.params:
                    self._add("structure", op,
                              f"unbound scalar {node.name}")

    # -- structured walk -----------------------------------------------------
    def _walk(self, ops: list[PlanOp], state: Coverage,
              allocated: set[str], ever: set[str],
              scalars: set[str]) -> None:
        for op in ops:
            if isinstance(op, AllocOp):
                for name in op.names:
                    if self._decl(op, name) is None:
                        continue
                    if name in allocated:
                        self._add("alloc", op,
                                  f"array {name} allocated while "
                                  f"already live (missing free?)")
                    allocated.add(name)
                    ever.add(name)
                    state.kill(name)
            elif isinstance(op, FreeOp):
                for name in op.names:
                    if name not in allocated:
                        self._add("alloc", op,
                                  f"free of unallocated array {name} "
                                  f"(alloc/free mismatch)")
                    allocated.discard(name)
                    ever.add(name)
                    state.kill(name)
            elif isinstance(op, OverlapShiftOp):
                decl = self._decl(op, op.array)
                self._use(op, op.array, allocated, ever)
                if decl is not None:
                    self._check_shift_bounds(op, decl)
                    if 1 <= op.dim <= len(decl.shape) and op.shift:
                        state.shift(op, len(decl.shape))
            elif isinstance(op, FullShiftOp):
                src = self._decl(op, op.src)
                dst = self._decl(op, op.dst)
                self._use(op, op.src, allocated, ever)
                self._use(op, op.dst, allocated, ever)
                if src is not None and dst is not None and \
                        src.shape != dst.shape:
                    self._add("structure", op,
                              f"shape mismatch: {op.src}{src.shape} -> "
                              f"{op.dst}{dst.shape}")
                state.kill(op.dst)
            elif isinstance(op, LoopNestOp):
                if not op.statements:
                    self._add("structure", op, "empty loop nest")
                    continue
                for stmt in op.statements:
                    decl = self._decl(op, stmt.lhs)
                    self._use(op, stmt.lhs, allocated, ever)
                    if decl is not None and \
                            len(op.space) != len(decl.shape):
                        self._add("structure", op,
                                  f"iteration space rank "
                                  f"{len(op.space)} != rank of "
                                  f"{stmt.lhs}")
                    self._check_expr(op, stmt.rhs, state, allocated,
                                     ever, scalars)
                    if stmt.mask is not None:
                        self._check_expr(op, stmt.mask, state,
                                         allocated, ever, scalars)
                    state.kill(stmt.lhs)
            elif isinstance(op, SwapOp):
                da = self._decl(op, op.a)
                db = self._decl(op, op.b)
                self._use(op, op.a, allocated, ever)
                self._use(op, op.b, allocated, ever)
                if op.a == op.b:
                    self._add("structure", op,
                              "swap of an array with itself")
                elif da is not None and db is not None:
                    if da.shape != db.shape or da.dtype != db.dtype \
                            or da.distribution != db.distribution \
                            or da.halo != db.halo:
                        self._add(
                            "structure", op,
                            f"swapped arrays must agree on shape/"
                            f"dtype/distribution/halo: "
                            f"{op.a}({da.shape},{da.dtype},{da.halo}) "
                            f"vs {op.b}({db.shape},{db.dtype},"
                            f"{db.halo})")
                    state.swap(op.a, op.b)
            elif isinstance(op, ScalarAssignOp):
                self._check_expr(op, op.rhs, state, allocated, ever,
                                 scalars)
                scalars.add(op.name)
            elif isinstance(op, SeqLoopOp):
                scalars.add(op.var)
                self._enter_loop(op, state, allocated, ever, scalars)
            elif isinstance(op, WhileOp):
                self._check_expr(op, op.cond, state, allocated, ever,
                                 scalars)
                self._enter_loop(op, state, allocated, ever, scalars)
            elif isinstance(op, CondOp):
                self._check_expr(op, op.cond, state, allocated, ever,
                                 scalars)
                a_then, a_else = set(allocated), set(allocated)
                state.branch(
                    lambda cov: self._walk(op.then_ops, cov, a_then, ever,
                                           scalars),
                    lambda cov: self._walk(op.else_ops, cov, a_else, ever,
                                           scalars))
                if a_then != a_else:
                    self._add("alloc", op,
                              f"branches disagree on allocation state: "
                              f"then={sorted(a_then)} "
                              f"else={sorted(a_else)}")
                allocated.clear()
                allocated.update(a_then & a_else)
            elif isinstance(op, OverlappedOp):
                for comm in op.comm_ops:
                    if not isinstance(comm, OverlapShiftOp):
                        self._add("structure", op,
                                  f"comm block holds "
                                  f"{type(comm).__name__}, only "
                                  f"OverlapShiftOp may overlap")
                self._walk(list(op.comm_ops), state, allocated, ever,
                           scalars)
                self._walk([op.nest], state, allocated, ever, scalars)
            else:
                self._add("structure", op,
                          f"unknown plan op {type(op).__name__}")

    def _enter_loop(self, op: SeqLoopOp | WhileOp, state: Coverage,
                    allocated: set[str], ever: set[str],
                    scalars: set[str]) -> None:
        entry = set(allocated)
        state.loop(effects(*op.body).defines,
                   runs_at_least_once(op, self.plan.params),
                   lambda cov: self._walk(op.body, cov, allocated, ever,
                                          scalars))
        if allocated != entry:
            gained = sorted(allocated - entry)
            lost = sorted(entry - allocated)
            detail = "; ".join(
                p for p in (f"leaks {gained}" if gained else "",
                            f"frees {lost}" if lost else "") if p)
            self._add("alloc", op,
                      f"loop body changes allocation state across "
                      f"iterations: {detail}")

    def run(self) -> list[PlanProblem]:
        self._check_entry()
        allocated = {n for n in self.plan.entry_arrays
                     if n in self.plan.arrays}
        self._walk(self.plan.ops, Coverage(), allocated, set(allocated),
                   set(self.plan.scalar_names))
        return self.problems


def verify_plan(plan: Plan) -> list[PlanProblem]:
    """Check every plan invariant; returns the (empty when sound)
    problem list."""
    return _PlanVerifier(plan).run()


def assert_plan_valid(plan: Plan, phase: str = "codegen") -> None:
    """Raise :class:`PlanVerificationError` if the plan is invalid."""
    problems = verify_plan(plan)
    if problems:
        shown = "\n  ".join(str(p) for p in problems[:8])
        more = len(problems) - 8
        tail = f"\n  ... and {more} more" if more > 0 else ""
        raise PlanVerificationError(
            f"invalid plan after {phase}: {len(problems)} problem(s)\n"
            f"  {shown}{tail}")
