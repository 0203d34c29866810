"""The Plan IR: typed executable ops, the compiler's lowest-level output.

A :class:`Plan` is an ordered list of plan operations over named
distributed arrays — communication calls, full shifts, and subgrid loop
nests (already scalarized, fused, and annotated with the per-point
memory profile the cost model prices).  The
:mod:`repro.runtime.executor` runs plans on a
:class:`~repro.machine.Machine`.

Every op exposes a uniform structural interface: :meth:`PlanOp.children`
returns the op's nested blocks (tuples of op lists) and
:meth:`PlanOp.rebuild` reconstructs the op with replacement blocks.
Generic traversals (:func:`walk`) and bottom-up rewrites
(:func:`map_blocks`) are built on this pair, so the verifier, the plan
passes, the printer, the serializer, and both execution backends never
need per-op-kind recursion of their own.  What ops read and write is
answered once too, by :func:`effects`; whether a loop provably runs is
:func:`runs_at_least_once`, the statement IR's
:func:`repro.ir.program.runs_at_least_once` re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import PipelineError
from repro.ir.linexpr import LinExpr
from repro.ir.nodes import Expr, OffsetRef, ScalarRef
from repro.ir.program import runs_at_least_once
from repro.ir.rsd import RSD
from repro.ir.types import Distribution
from repro.machine.cost_model import LoopStats

#: Symbolic iteration box: per-dimension 1-based inclusive bounds.
Box = tuple[tuple[LinExpr, LinExpr], ...]

#: The nested blocks of one op, as returned by :meth:`PlanOp.children`.
Blocks = tuple[list["PlanOp"], ...]


class PlanOp:
    """Base class of plan operations.

    Subclasses with nested op blocks override :meth:`children` and
    :meth:`rebuild`; leaf ops inherit the empty defaults.
    """

    def children(self) -> Blocks:
        """Nested blocks of this op, outermost-first.

        The default (leaf) implementation returns no blocks.  Container
        ops return one tuple entry per block; the same order must be
        accepted by :meth:`rebuild`.
        """
        return ()

    def rebuild(self, *blocks: list["PlanOp"]) -> "PlanOp":
        """A copy of this op with its nested blocks replaced.

        ``blocks`` must match :meth:`children` in arity.  Leaf ops accept
        zero blocks and return themselves (they are immutable in
        practice, so sharing is safe).
        """
        if blocks:
            raise PipelineError(
                f"{type(self).__name__} has no nested blocks "
                f"(got {len(blocks)})")
        return self


@dataclass
class ArrayDecl:
    """Declaration of one distributed array materialised at run time."""

    name: str
    shape: tuple[int, ...]
    distribution: Distribution
    dtype: np.dtype
    halo: tuple[tuple[int, int], ...]
    is_temporary: bool = False


@dataclass
class AllocOp(PlanOp):
    """Materialise arrays (ALLOCATE); charges per-PE memory."""

    names: tuple[str, ...]


@dataclass
class FreeOp(PlanOp):
    """Release arrays (DEALLOCATE)."""

    names: tuple[str, ...]


@dataclass
class OverlapShiftOp(PlanOp):
    """Interprocessor slab exchange into an overlap area."""

    array: str
    shift: int
    dim: int  # 1-based
    rsd: RSD | None = None
    base_offsets: tuple[int, ...] | None = None
    boundary: float | None = None


@dataclass
class SwapOp(PlanOp):
    """Exchange the buffers bound to two array names (pointer swap).

    The plan-level residue of the double-buffer idiom: after
    ``A(full) = expr(B); B(full) = A(full)`` is recognized by the
    ping-pong elimination pass, the whole-array copy becomes this op.
    Executors swap their name→storage bindings only — the underlying
    buffers keep their birth identity (memory-accounting keys and
    message tags stay keyed by the buffer's birth name, identically in
    every backend).  A swap moves
    no data and is modelled as free.

    Both names must be declared with identical shape, dtype,
    distribution, and halo (the ping-pong pass max-merges the halos to
    guarantee this).
    """

    a: str
    b: str


@dataclass
class FullShiftOp(PlanOp):
    """Complete CSHIFT/EOSHIFT: slab exchange plus whole-subgrid copy.

    The naive (O0 / xlhpf-like) translation of every shift intrinsic.
    """

    dst: str
    src: str
    shift: int
    dim: int
    boundary: float | None = None  # None = circular


@dataclass
class NestStmt:
    """One scalarized assignment inside a loop nest.

    ``rhs`` references arrays only through aligned/offset references;
    evaluation context supplies the iteration point.  ``mask`` makes the
    store elementwise-conditional (WHERE body statement).
    """

    lhs: str
    rhs: Expr
    mask: Expr | None = None

    def __str__(self) -> str:
        if self.mask is not None:
            return f"WHERE ({self.mask}) {self.lhs} = {self.rhs}"
        return f"{self.lhs} = {self.rhs}"


@dataclass
class LoopNestOp(PlanOp):
    """A fused subgrid loop nest over a global iteration box.

    ``space`` bounds are 1-based inclusive, symbolic over size params.
    ``stats`` is the per-point memory profile after the (optional)
    memory-optimization analysis; ``stats_per_statement`` carries the
    unfused equivalents for reporting.
    """

    statements: list[NestStmt]
    space: Box
    stats: LoopStats
    fused: bool = False
    memopt: bool = False
    unroll_jam: int = 1
    label: str = ""


@dataclass
class ScalarAssignOp(PlanOp):
    """Replicated scalar assignment."""

    name: str
    rhs: Expr


@dataclass
class SeqLoopOp(PlanOp):
    """Serial host DO loop (time stepping)."""

    var: str
    lo: LinExpr
    hi: LinExpr
    body: list[PlanOp]

    def children(self) -> Blocks:
        return (self.body,)

    def rebuild(self, *blocks: list[PlanOp]) -> "SeqLoopOp":
        (body,) = blocks
        return replace(self, body=body)


@dataclass
class WhileOp(PlanOp):
    """Serial host DO WHILE loop on a replicated scalar condition."""

    cond: Expr
    body: list[PlanOp]

    def children(self) -> Blocks:
        return (self.body,)

    def rebuild(self, *blocks: list[PlanOp]) -> "WhileOp":
        (body,) = blocks
        return replace(self, body=body)


@dataclass
class OverlappedOp(PlanOp):
    """Communication overlapped with interior computation.

    The classic successor optimization to the paper's pipeline: while
    the overlap-shift messages are in flight, each PE computes the
    *interior* of its block — the points whose stencil reads touch no
    overlap cell — and only the boundary strips wait for the halos.
    Modelled time becomes ``max(comm, interior) + boundary`` instead of
    ``comm + interior + boundary``.

    The executor still moves data before computing (the simulator is
    sequential); the saving is applied to the per-PE timeline, which is
    exactly what the cost model represents.
    """

    comm_ops: list[PlanOp]   # OverlapShiftOps
    nest: "LoopNestOp"

    def children(self) -> Blocks:
        return (self.comm_ops, [self.nest])

    def rebuild(self, *blocks: list[PlanOp]) -> "OverlappedOp":
        comm_ops, nest_block = blocks
        if len(nest_block) != 1 or \
                not isinstance(nest_block[0], LoopNestOp):
            raise PipelineError(
                "OverlappedOp.rebuild needs exactly one LoopNestOp in "
                "its nest block")
        return replace(self, comm_ops=comm_ops, nest=nest_block[0])


@dataclass
class CondOp(PlanOp):
    """Host IF on a replicated scalar condition."""

    cond: Expr
    then_ops: list[PlanOp]
    else_ops: list[PlanOp]

    def children(self) -> Blocks:
        return (self.then_ops, self.else_ops)

    def rebuild(self, *blocks: list[PlanOp]) -> "CondOp":
        then_ops, else_ops = blocks
        return replace(self, then_ops=then_ops, else_ops=else_ops)


def walk(ops: Iterable[PlanOp]) -> Iterator[PlanOp]:
    """Every op in ``ops``, pre-order, through all nested blocks."""
    for op in ops:
        yield op
        for block in op.children():
            yield from walk(block)


def map_blocks(ops: list[PlanOp],
               fn: Callable[[list[PlanOp]], list[PlanOp]]) -> list[PlanOp]:
    """Bottom-up block rewrite: apply ``fn`` to every nested block (in
    post-order), then to the top-level list; returns the new list."""
    out: list[PlanOp] = []
    for op in ops:
        blocks = op.children()
        if blocks:
            op = op.rebuild(*(map_blocks(list(b), fn) for b in blocks))
        out.append(op)
    return fn(out)


@dataclass(frozen=True)
class Effects:
    """What some ops read and write, their nested blocks included.

    ``writes`` holds every array an op may store into, an overlap
    shift's halo fill and a free (so that uses order before it)
    included; ``defines`` is the part whose *owned* cells may change,
    which is what ends an array's halo residency.  ``sreads`` and
    ``swrites`` are the replicated scalars read and assigned.
    """

    reads: frozenset[str]
    writes: frozenset[str]
    defines: frozenset[str]
    sreads: frozenset[str]
    swrites: frozenset[str]

    def conflicts(self, later: "Effects") -> bool:
        """Must these ops stay ordered before ``later``'s?"""
        return bool(self.writes & (later.reads | later.writes)
                    or self.reads & later.writes
                    or self.swrites & (later.sreads | later.swrites)
                    or self.sreads & later.swrites)


def effects(*ops: PlanOp, nested: bool = True) -> Effects:
    """The :class:`Effects` of ``ops``; with ``nested=False`` only the
    ops' own (a container's condition and bounds), not their blocks'."""
    reads, defines, shifted, sreads, swrites = (set() for _ in range(5))

    def expr(e: Expr) -> None:
        for node in e.walk():
            if isinstance(node, OffsetRef):
                reads.add(node.name)
            elif isinstance(node, ScalarRef):
                sreads.add(node.name)

    for op in walk(ops) if nested else ops:
        if isinstance(op, OverlapShiftOp):
            reads.add(op.array)
            shifted.add(op.array)
        elif isinstance(op, FullShiftOp):
            reads.add(op.src)
            defines.add(op.dst)
        elif isinstance(op, (AllocOp, FreeOp)):
            if isinstance(op, FreeOp):
                reads.update(op.names)
            defines.update(op.names)
        elif isinstance(op, LoopNestOp):
            for stmt in op.statements:
                defines.add(stmt.lhs)
                expr(stmt.rhs)
                if stmt.mask is not None:
                    expr(stmt.mask)
            for bounds in op.space:
                for bound in bounds:
                    sreads.update(bound.symbols())
        elif isinstance(op, ScalarAssignOp):
            expr(op.rhs)
            swrites.add(op.name)
        elif isinstance(op, SeqLoopOp):
            swrites.add(op.var)
            sreads.update(op.lo.symbols() | op.hi.symbols())
        elif isinstance(op, SwapOp):
            reads.update((op.a, op.b))
            defines.update((op.a, op.b))
        elif isinstance(op, (WhileOp, CondOp)):
            expr(op.cond)
    return Effects(frozenset(reads), frozenset(defines | shifted),
                   frozenset(defines), frozenset(sreads),
                   frozenset(swrites))


def op_label(op: PlanOp) -> tuple[str, dict[str, object]]:
    """Span name and attributes for one plan op (tracer/profiler key)."""
    if isinstance(op, OverlapShiftOp):
        return "overlap_shift", {"array": op.array, "shift": op.shift,
                                 "dim": op.dim}
    if isinstance(op, FullShiftOp):
        kind = "eoshift" if op.boundary is not None else "cshift"
        return f"full_{kind}", {"dst": op.dst, "src": op.src,
                                "shift": op.shift, "dim": op.dim}
    if isinstance(op, SwapOp):
        return "swap", {"a": op.a, "b": op.b}
    if isinstance(op, LoopNestOp):
        return "loop_nest", {"statements": len(op.statements),
                             "fused": op.fused}
    if isinstance(op, AllocOp):
        return "alloc", {"names": list(op.names)}
    if isinstance(op, FreeOp):
        return "free", {"names": list(op.names)}
    if isinstance(op, ScalarAssignOp):
        return "scalar_assign", {"name": op.name}
    if isinstance(op, SeqLoopOp):
        return "seq_loop", {"var": op.var}
    if isinstance(op, WhileOp):
        return "while", {}
    if isinstance(op, CondOp):
        return "cond", {}
    if isinstance(op, OverlappedOp):
        return "overlapped", {}
    return type(op).__name__, {}


@dataclass
class Plan:
    """The full executable program."""

    arrays: dict[str, ArrayDecl]
    params: dict[str, int]
    scalar_names: tuple[str, ...]
    ops: list[PlanOp]
    entry_arrays: tuple[str, ...] = ()  # materialised before op 0
    #: declared !HPF$ PROCESSORS arrangement, if any
    processors: tuple[int, ...] | None = None
    #: arrays observable after execution (sorted).  ``None`` means the
    #: caller declared no output set, so every non-temporary array is
    #: conservatively observable; loop passes that sacrifice a scratch
    #: array (ping-pong elimination) only fire on named non-outputs.
    outputs: tuple[str, ...] | None = None
    #: what the runtime prepared from this plan (its nests' tapes and
    #: loaded kernels), kept here so it is built once and dies with the
    #: plan; not part of the plan's value: never compared, serialized
    #: or carried over by ``dataclasses.replace``
    tapes: object | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def walk_ops(self) -> Iterator[PlanOp]:
        yield from walk(self.ops)

    def count_ops(self, kind: type) -> int:
        return sum(1 for op in self.walk_ops() if isinstance(op, kind))


@dataclass
class CompileReport:
    """Static facts about the compiled plan, for experiments/tests."""

    level: str
    shift_statements: int = 0
    overlap_shifts: int = 0
    full_shifts: int = 0
    loop_nests: int = 0
    fused_statements: int = 0
    temporaries: int = 0
    temp_bytes_global: int = 0
    copies_inserted: int = 0
    pass_stats: dict[str, object] = field(default_factory=dict)


@dataclass
class CompiledProgram:
    """Plan plus metadata; the object returned by ``compile_hpf``."""

    plan: Plan
    report: CompileReport
    source_name: str = "MAIN"
    trace: object | None = None  # PassTrace when requested

    def run(self, machine, inputs=None, scalars=None, iterations: int = 1,
            tracer=None, backend: str = "perpe", profile: bool = False,
            workers: int | None = None):
        """Execute on a machine; see :func:`repro.runtime.executor.execute`."""
        from repro.runtime.executor import execute
        return execute(self.plan, machine, inputs=inputs, scalars=scalars,
                       iterations=iterations,
                       hpf_overhead=self.report.pass_stats.get(
                           "hpf_overhead", False),
                       tracer=tracer, backend=backend, profile=profile,
                       workers=workers)

    def emit_fortran(self, name: str = "NODE_PROGRAM") -> str:
        """Render the plan as a Fortran77+MPI node-program listing (the
        code shape the paper's backend emitted)."""
        from repro.compiler.femit import emit_fortran
        return emit_fortran(self.plan, name)
