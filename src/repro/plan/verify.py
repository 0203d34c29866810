"""The plan verifier and the one overlap-coverage model.

:class:`Coverage` is the §3.1/§3.3 model of what earlier
``OVERLAP_SHIFT``\\ s made resident and whether an offset read is covered
by it (Figures 9/10 corners included).  Two walkers drive it: this
module's, over a :class:`~repro.plan.ops.Plan` (the lowest-level IR)
after codegen and after every plan pass, and
:mod:`repro.analysis.verify_offsets`', over the statement IR after the
AST passes.  The plan walker also checks what only exists after
lowering — allocation lifetimes, declared halo widths, RSD extents, and
op-structure well-formedness.

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
from repro.ir.rsd import RSD
from repro.plan.ops import (
    AllocOp, ArrayDecl, CondOp, FreeOp, FullShiftOp, LoopNestOp,
    OverlappedOp, OverlapShiftOp, Plan, PlanOp, ScalarAssignOp,
    SeqLoopOp, SwapOp, WhileOp, walk,
)

Fill = float | None


@dataclass(frozen=True)
class RegionCover:
    """What one (array, dim, sign) overlap region currently holds."""

    amount: int                    # filled depth along the shifted dim
    ortho: tuple[tuple[int, int], ...]  # (lo, hi) coverage per other dim
    fill: Fill

    def meet(self, other: "RegionCover") -> "RegionCover | None":
        if self.fill != other.fill:
            return None
        ortho = tuple((min(a[0], b[0]), min(a[1], b[1]))
                      for a, b in zip(self.ortho, other.ortho))
        return RegionCover(min(self.amount, other.amount), ortho,
                           self.fill)


class Coverage:
    """Which overlap cells are resident at one program point.

    One :class:`RegionCover` per ``(array, 0-based dim, sign)`` region.
    A walker applies each ``OVERLAP_SHIFT`` with :meth:`shift`, each
    redefinition with :meth:`kill`, each buffer swap with :meth:`swap`,
    meets the arms of a branch with :meth:`meet`, and asks
    :meth:`problems` about every offset read.
    """

    def __init__(self, regions: dict | None = None) -> None:
        self.regions: dict[tuple[str, int, int], RegionCover] = \
            dict(regions or {})

    def copy(self) -> "Coverage":
        return Coverage(self.regions)

    def _depth(self, name: str, dim: int, sign: int) -> int:
        cover = self.regions.get((name, dim, sign))
        return 0 if cover is None else cover.amount

    def shift(self, op: OverlapShiftOp | OverlapShift, rank: int) -> None:
        """Apply one ``OVERLAP_SHIFT`` of a rank-``rank`` array."""
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
        prev = self.regions.get(key)
        if prev is not None and prev.fill == cover.fill:
            # refills accumulate coverage (larger subsumes smaller)
            cover = RegionCover(
                max(prev.amount, cover.amount),
                tuple((max(a[0], b[0]), max(a[1], b[1]))
                      for a, b in zip(prev.ortho, cover.ortho)),
                cover.fill)
        self.regions[key] = cover

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
        self.regions = {
            key: met for key in self.regions.keys() & other.regions.keys()
            if (met := self.regions[key].meet(other.regions[key]))
            is not None}

    def problems(self, ref: OffsetRef) -> list[str]:
        """Why the overlap cells ``ref`` reads are not all resident
        (empty when they are)."""
        offs, reasons = ref.offsets, []
        covers: dict[int, RegionCover] = {}
        for k, o in enumerate(offs):
            if o == 0:
                continue
            sign = 1 if o > 0 else -1
            cover = self.regions.get((ref.name, k, sign))
            if cover is None:
                reasons.append(f"no prior overlap_shift fills dim {k + 1} "
                               f"direction {'+' if sign > 0 else '-'}")
            elif cover.fill != ref.boundary:
                reasons.append(f"fill kind mismatch on dim {k + 1}: "
                               f"region holds {cover.fill}, reference "
                               f"needs {ref.boundary}")
            elif cover.amount < abs(o):
                reasons.append(f"overlap depth {cover.amount} < |{o}| on "
                               f"dim {k + 1}")
            else:
                covers[k] = cover
        if not reasons and len(covers) > 1 and \
                not self._corner_carried(offs, covers):
            carried = ", ".join(f"dim {k + 1} fill extends {c.ortho}"
                                for k, c in covers.items())
            reasons.append(f"corner cells not carried: no shift order "
                           f"covers offset {offs} ({carried})")
        return reasons

    @staticmethod
    def _corner_carried(offs: tuple[int, ...],
                        covers: dict[int, RegionCover]) -> bool:
        """Is the corner cell at ``offs`` resident in some overlap area?

        It is when the nonzero dimensions admit an ordering in which
        every shift's orthogonal extension covers all components shifted
        before it — the later shift then carries the earlier corner data
        from its sender's overlap area, in any dimension order.  Ortho
        extents are already residency-clamped, so this accepts exactly
        the chains the runtime delivers.
        """
        def carries(k: int, earlier: tuple[int, ...]) -> bool:
            # ortho[j] is (lo, hi): index 1 serves a positive offset
            return all(covers[k].ortho[j][offs[j] > 0] >= abs(offs[j])
                       for j in earlier)

        return any(all(carries(k, perm[:i]) for i, k in enumerate(perm))
                   for perm in permutations(covers))


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

    def _written_in(self, ops: list[PlanOp]) -> set[str]:
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
                self._enter_loop(op, op.body, state, allocated, ever,
                                 scalars)
            elif isinstance(op, WhileOp):
                self._check_expr(op, op.cond, state, allocated, ever,
                                 scalars)
                self._enter_loop(op, op.body, state, allocated, ever,
                                 scalars)
            elif isinstance(op, CondOp):
                self._check_expr(op, op.cond, state, allocated, ever,
                                 scalars)
                s_else = state.copy()
                a_then, a_else = set(allocated), set(allocated)
                self._walk(op.then_ops, state, a_then, ever, scalars)
                self._walk(op.else_ops, s_else, a_else, ever, scalars)
                if a_then != a_else:
                    self._add("alloc", op,
                              f"branches disagree on allocation state: "
                              f"then={sorted(a_then)} "
                              f"else={sorted(a_else)}")
                allocated.clear()
                allocated.update(a_then & a_else)
                state.meet(s_else)
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

    def _enter_loop(self, op: PlanOp, body: list[PlanOp],
                    state: Coverage,
                    allocated: set[str], ever: set[str],
                    scalars: set[str]) -> None:
        # conservative around the back edge: residency of anything the
        # body redefines is unavailable on entry to any iteration
        state.kill(*self._written_in(body))
        entry = set(allocated)
        self._walk(body, state, allocated, ever, scalars)
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
