"""Plan executor: runs compiled programs on the simulated machine.

The executor performs real data movement (NumPy) so results are exact,
and charges every operation to the machine's cost model so the modelled
execution time reflects the paper's cost structure.  SPMD loop-bounds
reduction happens here: each PE executes only the intersection of a
nest's global iteration box with its owned block.  As the paper's
compiler emits each PE's bounds and messages once, an op's walk runs
once per machine geometry and is kept with the plan's tapes as a
*schedule* (``PlanTapes.schedule``); every run evaluates its regions
— a native nest's as rows of the schedule's region table — and replays
its charges.  On either storage a run hands each *segment* (a run of
nests, ``OVERLAP_SHIFT``\\ s, swaps, SUMs and scalar assignments, a whole
``DO`` included) to the plan's native driver as one call and replays one
merged recording per trip — traced, it files each op's span from the
driver's stamps; a segment's steps, and each op list's partition into
ops and segments, are schedules like any op's.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from functools import partial
from math import prod
from types import SimpleNamespace
from typing import TYPE_CHECKING, Mapping, NamedTuple

import numpy as np

from repro.errors import ExecutionError
from repro.plan import (
    AllocOp, CondOp, FreeOp, FullShiftOp, LoopNestOp, OverlappedOp,
    OverlapShiftOp, Plan, PlanOp, ScalarAssignOp, SeqLoopOp, SwapOp,
    WhileOp, op_label,
)
from repro.ir.nodes import (
    BinOp, Compare, Const, Expr, Intrinsic, OffsetRef, Reduction,
    ScalarRef, UnaryOp,
)
from repro.runtime.reference import apply_intrinsic, real_pow
from repro.machine.cost_model import CostReport
from repro.machine.machine import Machine
from repro.machine.network import Charges, allreduce_tag
from repro.passes.memopt import analyze_reduction, scaled_to_points
from repro.runtime.cshift import FullShift
from repro.runtime.backends import get_backend
from repro.runtime.darray import DArray
from repro.runtime.distribution import cached_layout
from repro.runtime.nest_tape import (
    NestTape, plan_tapes, prepare,
)
from repro.runtime.overlap import OverlapShift

if TYPE_CHECKING:
    from repro.obs.profile import CommProfile


@dataclass
class ExecutionResult:
    """Final array values plus the accumulated cost report."""

    arrays: dict[str, np.ndarray]
    scalars: dict[str, float]
    report: CostReport
    peak_memory_per_pe: int
    modelled_time: float
    profile: "CommProfile | None" = None

    def summary(self) -> dict[str, float]:
        out = self.report.summary()
        out["peak_memory_per_pe"] = float(self.peak_memory_per_pe)
        return out


#: a reduction's ufunc: it reduces each block and folds the partials
_REDUCE = {"SUM": np.add, "MAXVAL": np.maximum, "MINVAL": np.minimum}


class _Schedule(NamedTuple):
    """A nest's or reduction's walk (see :meth:`_Exec._bindings`)."""
    regions: list           # (pe, box)
    charges: Charges
    credits: list           # (pe, interior loop time), overlapped nests
    slices: dict            # see _Exec._kept -> reference slices per region
    tables: dict            # see _Exec._kept -> native region table | reason
    stack: tuple = ()       # a reduction's: see :func:`_stack_layout`


def _stack_layout(shapes: list) -> tuple:
    """Where blocks of ``shapes`` lie in a reduction's stack, one shape's
    adjacent: ``(size, [(start, shape)], [(blocks, start, points)])``."""
    by_shape: dict = {}
    for i, shape in enumerate(shapes):
        by_shape.setdefault(shape, []).append(i)
    slots, spans, size = [None] * len(shapes), [], 0
    for shape, at in by_shape.items():
        points = prod(shape)
        spans.append((at, size, points))
        for i in at:
            slots[i] = (size, shape)
            size += points
    return size, slots, spans


def _partials(stack: np.ndarray, spans: list, ufunc) -> list[float]:
    """Each block's partial, ``ufunc.reduce`` over its values in C order:
    every block of one shape in one call on its rows of the stack."""
    partials = [0.0] * sum(len(at) for at, _, _ in spans)
    for at, start, points in spans:
        rows = stack[start:start + len(at) * points].reshape(len(at), points)
        for i, part in zip(at, ufunc.reduce(rows, axis=1).tolist()):
            partials[i] = part
    return partials


class _Refused(Exception):
    """Why an op or a segment runs per op (``args[0]``)."""


#: a program step's opcodes (0 is a copy, 5 unary minus)
_OPCODE = {"+": 1, "-": 2, "*": 3, "/": 4, operator.add: 1,
           operator.sub: 2, operator.mul: 3, operator.truediv: 4,
           operator.neg: 5}


class _Program:
    """A segment's step table and scalar file (a ``double`` per scalar,
    constant, temporary and kernel argument; ``init`` before a run) and
    its next program step's code, ``(opcode, dst, a, b)`` over slots.
    What the driver cannot compute as Python does raises
    :class:`_Refused`: ``**``, intrinsics, comparisons, MAXVAL/MINVAL,
    a SUM off the native kernels, integer-only arithmetic."""

    def __init__(self) -> None:
        self.init: list[float] = []
        self.names: dict[str, int] = {}
        #: names read before any store, and names stored, in order
        self.inputs: dict[str, int] = {}
        self.stored: dict[str, int] = {}
        self.ints: set[int] = set()     # slots holding a Python int
        self.code: list[int] = []
        self.steps: list[int] = []
        self.stops: dict[int, int] = {}     # each step's position -> op

    def emit(self, at: int, step: list) -> None:
        """Op ``at``'s pending program step, then ``step``."""
        if self.code:
            self.stops[len(self.steps)] = at
            self.steps += [3, len(self.code) // 4, *self.code]
            self.code = []
        if step:
            self.stops[len(self.steps)] = at
        self.steps += step

    def slot(self, value: float = 0.0) -> int:
        self.init.append(value)
        return len(self.init) - 1

    def name(self, name: str, store: bool = False) -> int:
        """``name``'s slot, read or (``store``) stored."""
        at = self.names.get(name)
        if at is None:
            at = self.names[name] = self.slot()
        if store:
            self.stored[name] = at
        elif name not in self.stored:
            self.inputs.setdefault(name, at)
        return at

    def const(self, value) -> int:
        if value.__class__ is not float:    # a Python int
            if abs(value) > 1 << 53:
                raise _Refused("integer")
            self.ints.add(len(self.init))
        return self.slot(float(value))

    def op(self, opcode: int, args: list) -> int:
        """One instruction into a fresh slot; its slot."""
        if opcode and all(a in self.ints for a in args):
            raise _Refused("integer")
        self.code += [opcode, self.slot(), *args, *[0] * (2 - len(args))]
        return len(self.init) - 1

    def expr(self, e: Expr, sums) -> int:
        """Code for ``e``, Python's evaluation order; its slot.
        ``sums(node)`` emits a SUM's step and returns its slot."""
        if isinstance(e, Const):
            return self.const(e.value)
        if isinstance(e, ScalarRef):
            return self.name(e.name)
        if isinstance(e, Reduction):
            if e.op != "SUM":
                raise _Refused(e.op.lower())
            return sums(e)
        if isinstance(e, UnaryOp):
            return self.op(5, [self.expr(e.operand, sums)])
        if isinstance(e, BinOp) and e.op in _OPCODE:
            return self.op(_OPCODE[e.op], [self.expr(e.left, sums),
                                           self.expr(e.right, sums)])
        raise _Refused("pow" if isinstance(e, BinOp)
                       else type(e).__name__.lower())

    def store(self, name: str, value: int) -> None:
        """Assign ``value``'s slot to ``name``."""
        if value in self.ints:
            raise _Refused("integer")
        self.code += [0, self.name(name, True), value, 0]

    def args(self, tape: NestTape) -> int:
        """Code storing the scalar arguments of ``tape``'s kernel (its
        scalar code, as :meth:`Kernel.values` runs it) in consecutive
        slots; the first."""
        kernel = tape.kernel
        vals = [None] * len(tape.refs) + [
            self.name(ref.name) for ref in tape.scalars] + [
            v if v is None else self.const(v) for v in kernel.tail]
        for fn, args, dst in kernel.scalar_code:
            if fn not in _OPCODE:
                raise _Refused("pow" if fn is real_pow else "intrinsic"
                               if isinstance(fn, partial) else "compare")
            vals[dst] = self.op(_OPCODE[fn], [vals[a] for a in args])
        first = len(self.init)
        for slot in kernel.scalar_slots:
            self.op(0, [vals[slot]])
        return first

    def summed(self, tapes, node: Reduction) -> int:
        """A SUM operand's arguments; its slot, when a native SUM."""
        tape = tapes.reduction(node)
        if tape.kernel is None:
            raise _Refused("tape")
        self.args(tape)
        return self.slot()


def _refusal(op: PlanOp, tapes, bounds: set) -> "str | None":
    """Why ``op`` cannot be a native segment's member (``""``: it never
    is, and is not counted), or ``None``.  ``bounds``: the symbols of the
    op list's nest bounds, which a segment evaluates before it runs."""
    if isinstance(op, (OverlapShiftOp, SwapOp)):
        return None
    try:
        if isinstance(op, LoopNestOp):
            if tapes.nest(op).kernel is not None:
                _Program().args(tapes.nest(op))
        elif not isinstance(op, ScalarAssignOp):
            return ""
        elif op.name in bounds:
            return "bounds"
        else:
            prog = _Program()
            sums = partial(prog.summed, tapes)
            prog.store(op.name, prog.expr(op.rhs, sums))
    except _Refused as exc:
        return exc.args[0]
    return None


class _Segment(list):
    """Ops a run hands to the plan's native driver as one call; its
    schedules are :class:`_Steps` or why it runs per op."""

    def __init__(self, ops: list, tapes, bounds: set) -> None:
        super().__init__(ops)
        self.nests = [op for op in ops if isinstance(op, LoopNestOp)]
        self.tapes = [tapes.nest(op) for op in self.nests]
        rhs = [n for op in ops if isinstance(op, ScalarAssignOp)
               for n in op.rhs.walk()]
        sums = [tapes.reduction(n) for n in rhs if isinstance(n, Reduction)]
        self.names = list(dict.fromkeys(
            [name for tape in self.tapes + sums for name, _ in tape.refs]
            + [name for op in ops for name in (
                (op.array,) if isinstance(op, OverlapShiftOp)
                else (op.a, op.b) if isinstance(op, SwapOp) else ())]))
        #: scalars it reads, ``bounds`` (its op list's nest bounds')
        #: included: a ``DO`` on one runs trip by trip
        self.reads = {ref.name for tape in self.tapes + sums
                      for ref in tape.scalars} | {
            n.name for n in rhs if isinstance(n, ScalarRef)} | bounds


def _partition(ops: list, tapes) -> list:
    """``ops``, each maximal run of two or more segment members (or all
    of ``ops``) one :class:`_Segment`; the ops refused are counted."""
    from repro.runtime.native import _count
    bounds = {name for op in ops if isinstance(op, LoopNestOp)
              for pair in op.space for bound in pair
              for name in bound.symbols()}
    items, run = [], []
    for op in [*ops, None]:
        why = _refusal(op, tapes, bounds)
        if why is None:
            run.append(op)
            continue
        if why:
            _count(1, status="per-op", reason=why)
        if len(run) > 1 or (run and len(run) == len(ops)):
            items.append(_Segment(run, tapes, bounds))
        else:
            items += run
        run = []
        if op is not None:
            items.append(op)
    return items


def _move_step(slot: int, da: DArray, shift: OverlapShift) -> tuple:
    """``da.fill_overlap(shift)`` as a move step on buffer ``slot`` — ``[1,
    slot, item size, n, dst, src, n edge, edge, the fill value's bytes]``
    over its arena indices — and those indices, which the step points
    into."""
    dst, src, edge = moves = da.moves(shift)
    fill = np.zeros(1, np.int64)
    fill.view(da.dtype)[0] = 0.0 if shift.boundary is None else shift.boundary
    return [1, slot, da.dtype.itemsize, dst.size, dst.ctypes.data,
            src.ctypes.data, edge.size, edge.ctypes.data, int(fill[0])], moves


class _Steps(NamedTuple):
    """A segment built for one key: its step table and :class:`_Program`;
    each nest and SUM step's ``(kernel, region table)`` and each move
    step's arena indices (held: the step points into them, and their
    schedule may leave the LRU first); per trip until the swaps restore
    the bindings, each op's ``(index, Charges, what it files)``, and all
    merged; the SUMs' scratch elements."""
    steps: np.ndarray
    program: _Program
    nests: list
    moves: list
    members: list
    period: Charges
    scratch: int


class _Exec:
    #: the backend's name in error messages; overridden by every
    #: registered backend class
    backend_label = "perpe"
    #: the placement: each array's arena a cell per PE, or the slab (see
    #: :class:`DArray`).  What every op costs is the skeleton's and the
    #: shift routines' business and is the same for both, and both take
    #: native segments.
    slab = False
    #: ``parallel`` only: what its workers did (``vectorized._WorkerLog``)
    _log = None

    def __init__(self, plan: Plan, machine: Machine,
                 scalars: Mapping[str, float] | None,
                 hpf_overhead: bool, tracer=None,
                 workers: int | None = None) -> None:
        from repro.obs.tracer import coalesce
        self.tracer = coalesce(tracer)
        # ``workers``: only the ``parallel`` backend acts on it, but it is
        # part of the shared constructor contract so ``execute`` can pass
        # it to any registered backend.
        self.plan = plan
        self.machine = machine
        self.darrays: dict[str, DArray] = {}
        #: the plan's tapes (shared, immutable) and this executor's
        #: registers for them (see :meth:`NestTape.run`)
        self._tapes = plan_tapes(plan)
        self._bound: dict = {}
        self.scalars: dict[str, float] = {n: 0.0 for n in plan.scalar_names}
        for k, v in (scalars or {}).items():
            self.scalars[k.upper()] = float(v)
        self.overhead = (machine.cost_model.hpf_overhead_factor
                         if hpf_overhead else 1.0)
        #: the plan's bounds that mention no scalar, evaluated once per
        #: plan, and the entry arrays' cells its first ops overwrite
        #: unread — unless this run's scalars shadow a size parameter
        shadowed = self.scalars.keys() & plan.params.keys()
        self._static = {} if shadowed else self._tapes.static_bounds(plan)
        self._dead = {} if shadowed else self._tapes.dead_on_entry(plan)
        #: a schedule is keyed on this and its arrays' keys
        self._geometry = self._tapes.intern(
            (machine.cost_model, self.overhead))

    # -- array lifecycle -----------------------------------------------------
    def materialize(self, name: str,
                    initial: np.ndarray | None = None) -> None:
        decl = self.plan.arrays[name]
        layout = cached_layout(decl.shape, decl.distribution,
                               self.machine.topology)
        da = DArray.create(self.machine, name, layout, decl.dtype,
                           decl.halo, self.slab,
                           None if initial is None else np.asarray(initial),
                           self._dead.get(name))
        # its layout (which carries the grid), halo, dtype and birth name
        da.key = self._tapes.intern((layout, da.halo, da.dtype, name))
        self.darrays[name] = da

    def release(self, name: str) -> None:
        da = self.darrays.pop(name, None)
        if da is None:
            raise ExecutionError(f"DEALLOCATE of unallocated {name}")
        da.free(self.machine)

    def close(self) -> "list[dict] | None":
        """End of the run, error or not (``execute`` calls it in a
        ``finally``): a backend with per-run state reports it here, and
        returns its measured worker tracks (see
        :meth:`repro.obs.profile.CommProfile.from_run`), if it has any."""

    def darray(self, name: str) -> DArray:
        try:
            return self.darrays[name]
        except KeyError:
            raise ExecutionError(
                f"array {name} used before allocation") from None

    # -- scalar evaluation --------------------------------------------------
    def scalar(self, expr: Expr) -> float:
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, ScalarRef):
            if expr.name in self.scalars:
                return self.scalars[expr.name]
            if expr.name in self.plan.params:
                return float(self.plan.params[expr.name])
            raise ExecutionError(f"unbound scalar {expr.name}")
        if isinstance(expr, BinOp):
            lv, rv = self.scalar(expr.left), self.scalar(expr.right)
            if expr.op == "+":
                return lv + rv
            if expr.op == "-":
                return lv - rv
            if expr.op == "*":
                return lv * rv
            if expr.op == "/":
                return lv / rv
            return real_pow(lv, rv)
        if isinstance(expr, Intrinsic):
            return float(apply_intrinsic(
                expr.name, [self.scalar(a) for a in expr.args]))
        if isinstance(expr, UnaryOp):
            return -self.scalar(expr.operand)
        if isinstance(expr, Compare):
            lv, rv = self.scalar(expr.left), self.scalar(expr.right)
            return float({"<": lv < rv, ">": lv > rv, "<=": lv <= rv,
                          ">=": lv >= rv, "==": lv == rv,
                          "/=": lv != rv}[expr.op])
        if isinstance(expr, Reduction):
            return self._reduce(expr)
        raise ExecutionError(
            f"cannot evaluate scalar {type(expr).__name__}")

    def _reduce(self, expr: Reduction) -> float:
        """Distributed reduction: each PE reduces its owned subgrid of
        the operand, then the partials combine via a logarithmic
        exchange and the result replicates (the HPF lowering of
        SUM/MAXVAL/MINVAL).  Charges the per-PE reduction loop and the
        butterfly allreduce messages (tagged ``allreduce:<op>`` in the
        message log).  Every backend computes the same partials
        (:meth:`_block_partials`) and folds them in rank order, which is
        what keeps the result bitwise."""
        refs = [n for n in expr.arg.walk() if isinstance(n, OffsetRef)]
        if not refs:
            raise ExecutionError(
                f"reduction {expr} references no arrays")
        ufunc = _REDUCE[expr.op]
        tape = self._tapes.tape(expr, [(None, expr.arg, None)],
                                len(refs[0].offsets))
        arrays = self._ref_arrays(tape)
        sched = self._reduction(expr, arrays)
        scalars = [self.scalar(ref) for ref in tape.scalars]
        total, *rest = self._block_partials(sched, tape, arrays, scalars,
                                            ufunc)
        if ufunc is np.add:     # float64 additions, as np.add's
            for part in rest:
                total += part
        else:                   # the ufunc's NaN and signed-zero rules
            for part in rest:
                total = float(ufunc(total, part))
        self.machine.network.replay(sched.charges)
        return total

    def _reduction(self, expr: Reduction, arrays: list) -> _Schedule:
        """``expr``'s schedule over its operand's ``arrays``."""
        return self._schedule(expr, arrays, None,
                              lambda: self._walk_reduction(expr, arrays[0]))

    def _block_partials(self, sched: _Schedule, tape: NestTape,
                        arrays: list, scalars: list, ufunc) -> list:
        """Each PE block's partial, in rank order: :func:`_partials` over
        the operand on every PE's owned block, laid out as
        ``sched.stack`` says — written by one native call, else by the
        tape.  A native SUM operand's come from that call instead: each
        block evaluated into one block-sized scratch and summed in C in
        NumPy's pairwise order."""
        size, slots, spans = sched.stack
        kernel = tape.kernel
        if kernel is not None:
            sums = kernel.sums
            data = np.empty(max(n for *_, n in spans) if sums else size,
                            kernel.dtype)
            parts = np.empty(len(slots), kernel.dtype) if sums else None
            stacked, table = self._stack_table(sched, tape, arrays, data)
            values = kernel.arguments(table, scalars)
            if values is not None:
                kernel.run_table(table, stacked, values, out=parts)
                return parts.tolist() if sums else \
                    _partials(data, spans, ufunc)
        data = None
        for (at, shape), value in zip(
                slots, self._blocks(sched, tape, arrays, scalars)):
            if data is None:
                data = np.empty(size, value.dtype)
            data[at:at + value.size].reshape(shape)[...] = value
        return _partials(data, spans, ufunc)

    def _stack_table(self, sched: _Schedule, tape: NestTape, arrays: list,
                     data: np.ndarray) -> tuple:
        """The operand's arrays, its stack ``data`` (a SUM's: a block's
        scratch) last, and their table over the PE blocks, or a reason."""
        stacked = [*arrays, SimpleNamespace(
            arena=(data.ctypes.data, data.nbytes))]
        sums = tape.kernel.sums
        return stacked, self._kept(
            sched.tables, sched, sched.regions, lambda: tape.kernel.table([
                self._views(arrays, pe, self._slices(tape, pe, box))
                + [data[0 if sums else start:][:prod(shape)].reshape(shape)]
                for (pe, box), (start, shape) in zip(sched.regions,
                                                     sched.stack[1])],
                stacked))

    def _blocks(self, sched: _Schedule, tape: NestTape, arrays: list,
                scalars: list):
        """The tape's value of a reduction operand on each PE's owned
        block, PE by PE (each taken before the next reuses registers)."""
        for pe, slices in self._bindings(sched, tape, sched.regions):
            yield tape.run(self._views(arrays, pe, slices), scalars,
                           self._bound)[tape.result]

    def _walk_reduction(self, expr: Reduction, first) -> _Schedule:
        """Each PE's owned block, its loop and its butterfly share."""
        per_point = analyze_reduction(expr.arg, lambda n: self.darray(n).rank)
        charges = Charges(self.machine.cost_model)
        npes, tag = self.machine.npes, allreduce_tag(expr.op)
        regions = []
        for pe in self.machine.topology.ranks():
            box = list(first.owned_box(pe))
            charges.charge_loop(pe, scaled_to_points(
                per_point, prod(hi - lo + 1 for lo, hi in box)), self.overhead)
            charges.allreduce(pe, npes, 8, tag)
            regions.append((pe, box))
        return _Schedule(regions, charges, [], {}, {}, _stack_layout(
            [tuple(hi - lo + 1 for lo, hi in box) for _, box in regions]))

    def bound(self, e) -> int:
        value = self._static.get(e)
        if value is not None:
            return value
        binding = dict(self.plan.params)
        for k, v in self.scalars.items():
            if float(v).is_integer():
                binding[k] = int(v)
        return e.evaluate(binding)

    # -- op dispatch -----------------------------------------------------------
    def run_ops(self, ops: list[PlanOp]) -> None:
        for item in self._items(ops) if self._segments() else ops:
            if item.__class__ is not _Segment:
                self._each((item,))
            elif not self._run_segment(item):
                self._each(item)

    def _each(self, ops) -> None:
        """``ops`` one by one, each in its ``op`` span when traced."""
        for op in ops:
            if self.tracer.enabled:
                name, attrs = op_label(op)
                with self.tracer.span(name, kind="op", **attrs):
                    self._dispatch(op)
            else:
                self._dispatch(op)

    def do_overlap_shift(self, op: OverlapShiftOp) -> None:
        da = self.darray(op.array)
        self._shift(op, da).apply(self.machine, da)

    def _shift(self, op: OverlapShiftOp, da) -> OverlapShift:
        """``op``'s schedule for the buffer ``da``."""
        return self._schedule(op, (da,), None, lambda: OverlapShift(
            da.name, da.layout, da.dtype, da.halo, op.shift, op.dim,
            Charges(self.machine.cost_model), op.rsd, op.base_offsets,
            op.boundary))

    def do_full_shift(self, op: FullShiftOp) -> None:
        dst, src = self.darray(op.dst), self.darray(op.src)
        self._schedule(op, (dst, src), None, lambda: FullShift(
            dst, src, op.shift, op.dim, op.boundary,
            Charges(self.machine.cost_model))).apply(self.machine, dst, src)

    def do_swap(self, op: SwapOp) -> None:
        """Exchange the name→buffer bindings of two arrays.

        A pointer swap: no data moves, nothing is charged to the cost
        model, and the buffers keep their birth identity (memory
        accounting and message tags stay keyed by the name each buffer
        was created under — identically in every backend, which is what
        keeps the equivalence contract bitwise).
        """
        a = self.darray(op.a)
        b = self.darray(op.b)
        self.darrays[op.a], self.darrays[op.b] = b, a

    def _dispatch(self, op: PlanOp) -> None:
        if isinstance(op, LoopNestOp):
            self.run_nest(op)
        elif isinstance(op, OverlapShiftOp):
            self.do_overlap_shift(op)
        elif isinstance(op, FullShiftOp):
            self.do_full_shift(op)
        elif isinstance(op, SwapOp):
            self.do_swap(op)
        elif isinstance(op, AllocOp):
            for name in op.names:
                self.materialize(name)
        elif isinstance(op, FreeOp):
            for name in op.names:
                self.release(name)
        elif isinstance(op, ScalarAssignOp):
            self.scalars[op.name] = self.scalar(op.rhs)
        elif isinstance(op, SeqLoopOp):
            lo, hi = self.bound(op.lo), self.bound(op.hi)
            done = self.run_trips(op.body, hi - lo + 1, op.var)
            if done:
                self.scalars[op.var] = float(lo + done - 1)
            for k in range(lo + done, hi + 1):
                self.scalars[op.var] = float(k)
                self.run_ops(op.body)
        elif isinstance(op, WhileOp):
            guard = 0
            while self.scalar(op.cond):
                self.run_ops(op.body)
                guard += 1
                if guard > 1_000_000:
                    raise ExecutionError(
                        "DO WHILE exceeded 1e6 iterations; "
                        "non-converging loop?")
        elif isinstance(op, CondOp):
            branch = op.then_ops if self.scalar(op.cond) else op.else_ops
            self.run_ops(branch)
        elif isinstance(op, OverlappedOp):
            self.run_overlapped(op)
        else:
            raise ExecutionError(
                f"unknown plan op {type(op).__name__}")

    # -- schedules and loop nests -------------------------------------------
    def _schedule(self, node, arrays, space, build):
        """``node``'s schedule on this geometry, ``arrays`` and ``space``,
        ``build()`` on a miss."""
        return self._tapes.schedule(
            node, (self._geometry, space, *[da.key for da in arrays]),
            build)

    def _ref_arrays(self, tape: NestTape) -> list:
        return [self.darray(name) for name, _ in tape.refs]

    def _kept(self, kept: dict, sched: _Schedule, regions, make):
        """``make()`` kept in ``kept`` — ``sched.slices``, or
        ``sched.tables``: native region tables or why they were refused —
        under this storage and the region list itself: ``None`` for the
        schedule's own, a tuple for a slab's cut of its space, so no cut
        reuses another's."""
        key = self.slab, None if regions is sched.regions else regions
        found = kept.get(key)
        if found is None:
            found = kept[key] = make()
        return found

    def _bindings(self, sched: _Schedule, tape: NestTape,
                  regions) -> list:
        """``sched``'s data half for ``regions``: ``(pe, slices)``."""
        return self._kept(sched.slices, sched, regions, lambda: [
            (pe, self._slices(tape, pe, box)) for pe, box in regions])

    def _space(self, op: LoopNestOp) -> tuple[tuple[int, int], ...]:
        return tuple((self.bound(lo), self.bound(hi))
                     for lo, hi in op.space)

    def _boxes(self, op: LoopNestOp, space) -> list[tuple[int, list]]:
        """SPMD loop-bounds reduction: ``(pe, box)`` for every PE whose
        owned block meets the nest's iteration space."""
        first = self.darray(op.statements[0].lhs)
        boxes = []
        for pe in self.machine.topology.ranks():
            box = [(max(slo, olo), min(shi, ohi)) for (slo, shi), (olo, ohi)
                   in zip(space, first.owned_box(pe))]
            if all(lo <= hi for lo, hi in box):
                boxes.append((pe, box))
        return boxes

    def _eval_nest(self, op: LoopNestOp, space, sched: _Schedule) -> None:
        """Compute the nest over each PE's box: one native call over the
        schedule's region table, else box by box on the tape."""
        tape = self._nest_tape(op)
        bindings, arrays, scalars, call = self._rows(tape, sched,
                                                     sched.regions)
        if call is not None:
            tape.kernel.run_table(call[0], arrays, call[1])
            return
        for pe, slices in bindings:
            tape.run(self._views(arrays, pe, slices), scalars, self._bound)

    def _rows(self, tape: NestTape, sched: _Schedule, regions) -> tuple:
        """``regions`` of ``tape``'s nest bound for this run: their
        ``(pe, slices)``, the arrays, the scalars and ``(table, values)``
        of a native call over them — ``None`` without a kernel, or when
        the table or a scalar is refused: the tape runs them."""
        bindings = self._bindings(sched, tape, regions)
        arrays = self._ref_arrays(tape)
        scalars = [self.scalar(ref) for ref in tape.scalars]
        kernel, call = tape.kernel, None
        if kernel is not None and bindings:
            table = self._table(tape, sched, regions, arrays)
            values = kernel.arguments(table, scalars)
            call = None if values is None else (table, values)
        return bindings, arrays, scalars, call

    def _table(self, tape: NestTape, sched: _Schedule, regions,
               arrays: list) -> "tuple | str":
        """The native region table of ``tape``'s kernel over ``regions``
        of ``sched`` for buffers of ``arrays``' geometry, or why it was
        refused; one per region list, the per-op path's and segments'."""
        return self._kept(sched.tables, sched, regions, lambda: (
            tape.kernel.table([self._views(arrays, pe, slices) for pe, slices
                               in self._bindings(sched, tape, regions)],
                              arrays)))

    # -- native segments ----------------------------------------------------
    def _segments(self) -> bool:
        """``cc`` built the plan's driver."""
        return self._tapes.driver is not None

    def _items(self, ops: list) -> list:
        """``ops`` as ops and segments, partitioned once per list."""
        return self._tapes.schedule(
            ops, (), lambda: _partition(ops, self._tapes))

    def run_trips(self, ops: list, trips: int, var=None) -> int:
        """``trips`` runs of ``ops`` in one driver call when they are one
        segment that does not read ``var`` (a ``DO``'s variable); how
        many ran (0: none — run them per op)."""
        if trips < 1 or not self._segments():
            return 0
        items = self._items(ops)
        if len(items) != 1 or items[0].__class__ is not _Segment:
            return 0
        if var in items[0].reads:
            from repro.runtime.native import _count
            _count(1, status="per-op", reason="loop-variant")
            return 0
        return self._run_segment(items[0], trips)

    def _run_segment(self, seg: _Segment, trips: int = 1) -> int:
        """``trips`` runs of ``seg`` in one driver call, leaving the
        bindings, scalars and charges the per-op path leaves; how many
        ran — 0, run it per op, when refused (counted).  A division by
        zero stops the driver before its op, which then runs per op, as
        does the rest of that trip."""
        from repro.runtime.native import _count
        arrays = [self.darrays.get(name) for name in seg.names]
        if None in arrays:
            return 0            # the op that names it raises
        spaces = tuple(self._space(op) for op in seg.nests)
        cuts = tuple(self._cut(tape, space)
                     for tape, space in zip(seg.tapes, spaces))
        built = self._tapes.schedule(
            seg, (self._geometry, spaces, cuts, *[da.key for da in arrays]),
            lambda: self._build_segment(seg, spaces, cuts))
        if built.__class__ is not str:
            file = np.array(built.program.init)
            for name, at in built.program.inputs.items():
                value = self.scalars.get(name)
                if value is None and name in self.plan.params:
                    value = float(self.plan.params[name])
                if value.__class__ is not float:
                    built = "unbound" if value is None else "strong-scalar"
                    break
                file[at] = value
        if built.__class__ is str:
            _count(1, status="per-op", reason=built)
            return 0
        # per run, never on the shared steps: threads run one segment
        scratch, parts = np.empty(built.scratch), np.empty(self.machine.npes)
        bufs = np.array([da.arena[0] for da in arrays] + [
            scratch.ctypes.data, parts.ctypes.data], np.int64)
        size = built.steps.size
        stamps = np.empty(1 + trips * len(built.program.stops)) \
            if self.tracer.enabled else None
        stop = self._tapes.driver(
            trips, size, built.steps.ctypes.data, bufs.ctypes.data,
            file.ctypes.data, None if stamps is None else stamps.ctypes.data)
        done, at = (trips, 0) if stop < 0 else (
            stop // size, built.program.stops[stop % size])
        buffer = {da.arena[0]: da for da in arrays}
        self.darrays.update(zip(seg.names, map(buffer.get, bufs.tolist())))
        values = file.tolist()
        for name, slot in built.program.stored.items():
            self.scalars[name] = values[slot]
        if self.machine.network.observer is None:   # else: in op spans
            repeats, rest = divmod(done, len(built.members))
            if repeats:
                self.machine.network.replay(built.period, repeats)
            for t, trip in enumerate(built.members[:rest + 1]):
                for op, charges, _ in trip:
                    if t < rest or op < at:
                        self.machine.network.replay(charges)
        if stamps is not None:
            self._observe(seg, built, stamps, done, at)
        self._file([how for op, _, how in built.members[0] if how
                    for _ in range(done + (op < at))])
        _count(1, status="segment")
        if stop < 0:
            return trips
        self._each(seg[at:])
        return done + 1

    def _observe(self, seg: _Segment, built: _Steps, stamps: np.ndarray,
                 done: int, at: int) -> None:
        """The ``op`` spans the per-op path opens for ``done`` trips of
        ``seg`` and the next trip's ops before ``at``, each timed by its
        steps' ``stamps`` moved onto the tracer's clock.  A profiled run
        replays each op's own charges in its span, and ``parallel`` files
        its nests on worker 0's track, as the per-op path does."""
        # the driver's clock onto the tracer's and the worker log's
        now = time.clock_gettime(time.CLOCK_MONOTONIC)
        times = (stamps + (self.tracer._clock() - now)).tolist()
        pc = (stamps + (time.perf_counter() - now)).tolist()
        owners, log = list(built.program.stops.values()), self._log
        profiled = self.machine.network.observer is not None
        edges = np.searchsorted(owners, np.arange(len(seg) + 1)).tolist()
        for t in range(done + 1):
            trip = iter(built.members[t % len(built.members)])
            member, base = next(trip, None), t * len(owners)
            for i in range(len(seg) if t < done else at):
                first, last = base + edges[i], base + edges[i + 1]
                name, attrs = op_label(seg[i])
                with self.tracer.span(name, kind="op", **attrs) as span:
                    while member is not None and member[0] == i:
                        if profiled:
                            self.machine.network.replay(member[1])
                            if log is not None and member[2] is not None \
                                    and isinstance(seg[i], LoopNestOp):
                                log.file([(pc[first], pc[last])], 0.0, span)
                        member = next(trip, None)
                span.t_start, span.t_end = times[first], times[last]

    def _build_segment(self, seg: _Segment, spaces: tuple, cuts: tuple):
        """``seg``'s :class:`_Steps` from its members' schedules (built
        as the per-op path builds them), trip by trip until the swaps
        restore the bindings; or why it runs per op.  ``cuts``: each
        nest's row stripes, or why it runs whole."""
        names = seg.names
        slot = {name: i for i, name in enumerate(names)}
        start = [self.darrays[name] for name in names]
        bind = dict(zip(names, start))
        prog, nests, moves, members, scratch = _Program(), [], [], [], [1]

        def call(kind: int, tape: NestTape, table: tuple, groups: list,
                 extra: tuple = ()) -> list:
            """A nest (0) or SUM (4) step over ``groups``' slots."""
            nests.append((tape.kernel, table))
            bases = [slot[tape.refs[refs[0][0]][0]] for refs in groups]
            return [kind, tape.kernel.entry, *table[:3], prog.args(tape),
                    len(bases) + len(extra), *bases, *extra]

        def summed(at: int, trip: list, node: Reduction):
            tape = self._tapes.reduction(node)
            arrays = [bind[name] for name, _ in tape.refs]
            sched = self._reduction(node, arrays)
            trip.append((at, sched.charges, "reduction"))
            if members:
                return None     # a later trip: its charges only
            points = max(n for *_, n in sched.stack[2])
            scratch[0] = max(scratch[0], points)
            _, table = self._stack_table(sched, tape, arrays, np.empty(
                points, tape.kernel.dtype))
            if table.__class__ is str:
                raise _Refused(table)
            step = call(4, tape, table, tape.kernel.groups[:-1],
                        (len(names), len(names) + 1))
            total = prog.slot()
            prog.emit(at, step + [total, tape.kernel.dtype.itemsize])
            return total

        try:
            while not members or any(bind[n] is not da
                                     for n, da in zip(names, start)):
                if len(members) == 4:
                    return "period"
                trip, space_of = [], iter(zip(spaces, cuts))
                for at, op in enumerate(seg):
                    step = []
                    if isinstance(op, SwapOp):
                        a, b = bind[op.a], bind[op.b]
                        if (a.layout, a.halo, a.dtype) != \
                                (b.layout, b.halo, b.dtype):
                            return "geometry"
                        bind[op.a], bind[op.b] = b, a
                        step = [2, slot[op.a], slot[op.b]]
                    elif isinstance(op, OverlapShiftOp):
                        da = bind[op.array]
                        shift = self._shift(op, da)
                        trip.append((at, shift.charges, None))
                        step, held = _move_step(slot[op.array], da, shift)
                        moves.append(held)
                    elif isinstance(op, ScalarAssignOp):
                        sums = partial(summed, at, trip)
                        if not members:
                            prog.store(op.name, prog.expr(op.rhs, sums))
                        for node in op.rhs.walk() if members else ():
                            if isinstance(node, Reduction):
                                sums(node)
                    else:
                        tape, (space, cut) = self._nest_tape(op), \
                            next(space_of)
                        arrays = [bind[name] for name, _ in tape.refs]
                        sched = self._schedule(op, arrays, space, lambda: (
                            self._walk_nest(op, space, False)))
                        empty = any(lo > hi for lo, hi in space)
                        trip.append((at, sched.charges, None if empty
                                     else cut))
                        if members or empty:
                            continue
                        kernel = tape.kernel
                        if kernel is None or cut.__class__ is not str:
                            return "tape" if kernel is None else "striped"
                        # the slab's whole space, else each PE's box
                        table = self._table(tape, sched, ((0, space),)
                                            if self.slab else sched.regions,
                                            arrays)
                        if table.__class__ is str:
                            return table
                        step = call(0, tape, table, kernel.groups)
                    if not members:
                        prog.emit(at, step)
                members.append(trip)
        except _Refused as exc:
            return exc.args[0]
        return _Steps(np.array(prog.steps, np.int64), prog, nests, moves,
                      members, Charges.merged(self.machine.cost_model, [
                          c for trip in members for _, c, _ in trip]),
                      scratch[0])

    def _cut(self, tape: NestTape, space) -> "tuple | str":
        """The row stripes a nest is cut into, or why it runs whole."""
        return self.backend_label

    def _file(self, cuts: list) -> None:
        """Nests evaluated, one :meth:`_cut` each (``parallel`` counts)."""

    def run_nest(self, op: LoopNestOp) -> None:
        self._run_nest(op, op, split=False)

    def run_overlapped(self, op) -> None:
        """Communication overlapped with interior computation: execute
        comm then the nest split into interior/boundary, and credit each
        PE with min(comm, interior) — the time hidden behind the
        messages.  The credit is replayed like every other charge, but
        recorded per run: the comm time is read off the report."""
        report = self.machine.report
        before = list(report.pe_times)
        self.run_ops(op.comm_ops)
        comm_delta = [t1 - t0 for t0, t1 in zip(before, report.pe_times)]
        credit = Charges(self.machine.cost_model)
        for pe, t_interior in self._run_nest(op, op.nest, True).credits:
            credit.credit(pe, min(comm_delta[pe], t_interior))
        self.machine.network.replay(credit)

    def _run_nest(self, node, nest: LoopNestOp, split: bool) -> _Schedule:
        """Evaluate ``nest`` and replay its charges: ``node``'s schedule."""
        space = self._space(nest)
        sched = self._schedule(
            node, self._ref_arrays(self._nest_tape(nest)), space,
            lambda: self._walk_nest(nest, space, split))
        self._eval_nest(nest, space, sched)
        self.machine.network.replay(sched.charges)
        return sched

    def _walk_nest(self, nest: LoopNestOp, space, split: bool) -> _Schedule:
        """Each PE's box (``split``: into interior and boundary strips)
        and region loop charges; the credit is the interior's time."""
        loop_time = self.machine.cost_model.loop_time
        charges = Charges(self.machine.cost_model)
        shrink = self._nest_reach(nest) if split else None
        regions, credits = [], []
        for pe, box in self._boxes(nest, space):
            interior, strips = self._split_interior(box, pe, nest, shrink) \
                if split else (None, [box])
            t_interior = 0.0
            for region in ([interior] if interior else []) + strips:
                stats = scaled_to_points(
                    nest.stats, prod(hi - lo + 1 for lo, hi in region))
                if region is interior:
                    t_interior = loop_time(stats, self.overhead)
                charges.charge_loop(pe, stats, self.overhead)
                regions.append((pe, region))
            credits.append((pe, t_interior))
        return _Schedule(regions, charges, credits, {}, {})

    def _nest_reach(self, nest: LoopNestOp) -> list[tuple[int, int]]:
        """Per-dimension (lo, hi) stencil reach of a nest's references."""
        rank = len(nest.space)
        reach = [[0, 0] for _ in range(rank)]
        for stmt in nest.statements:
            exprs = [stmt.rhs] + ([stmt.mask]
                                  if stmt.mask is not None else [])
            for expr in exprs:
                for node in expr.walk():
                    if isinstance(node, OffsetRef):
                        for d, o in enumerate(node.offsets):
                            if o < 0:
                                reach[d][0] = max(reach[d][0], -o)
                            elif o > 0:
                                reach[d][1] = max(reach[d][1], o)
        return [tuple(r) for r in reach]

    def _split_interior(self, box, pe, nest, shrink):
        """Split a compute box into the interior (no overlap-cell reads)
        and disjoint boundary strips."""
        first = self.darray(nest.statements[0].lhs)
        owned = first.owned_box(pe)
        interior = []
        for (lo, hi), (olo, ohi), (rlo, rhi) in zip(box, owned, shrink):
            ilo = max(lo, olo + rlo)
            ihi = min(hi, ohi - rhi)
            if ilo > ihi:
                return None, [box]
            interior.append((ilo, ihi))
        strips = []
        current = list(box)
        for d in range(len(box)):
            lo, hi = current[d]
            ilo, ihi = interior[d]
            if ilo > lo:
                strip = list(current)
                strip[d] = (lo, ilo - 1)
                strips.append(strip)
            if ihi < hi:
                strip = list(current)
                strip[d] = (ihi + 1, hi)
                strips.append(strip)
            current[d] = interior[d]
        return interior, strips

    def _nest_tape(self, op: LoopNestOp) -> NestTape:
        """The nest's tape, built on first use."""
        return self._tapes.nest(op)

    def _slices(self, tape: NestTape, pe: int, box) -> list:
        """The tape's references as bounds-checked slices of ``box``."""
        return [self._local_slices(self.darray(name), pe, box, offsets)
                for name, offsets in tape.refs]

    @staticmethod
    def _views(arrays: list, pe: int, slices: list) -> list:
        return [da.padded(pe)[sl] for da, sl in zip(arrays, slices)]

    def _local_slices(self, da: DArray, pe: int,
                      box: list[tuple[int, int]] | tuple,
                      offsets: tuple[int, ...]) -> tuple[slice, ...]:
        shape = da.padded(pe).shape
        slices = []
        for d, ((lo, hi), olo, off) in enumerate(
                zip(box, da.origin(pe), offsets)):
            halo_lo = da.halo[d][0]
            start = halo_lo + (lo - olo) + off
            stop = start + (hi - lo + 1)
            if start < 0 or stop > shape[d]:
                raise ExecutionError(
                    f"{da.name}: offset {off} along dim {d + 1} escapes "
                    f"the overlap area (halo={da.halo[d]})")
            slices.append(slice(start, stop))
        return tuple(slices)


def execute(plan: Plan, machine: Machine,
            inputs: Mapping[str, np.ndarray] | None = None,
            scalars: Mapping[str, float] | None = None,
            iterations: int = 1,
            hpf_overhead: bool = False,
            tracer=None,
            backend: str = "perpe",
            profile: bool = False,
            workers: int | None = None) -> ExecutionResult:
    """Run a compiled plan.

    ``inputs`` seeds entry arrays (by name, case-insensitive); arrays not
    provided start zeroed.  Input cells the plan overwrites before any
    read (:meth:`~repro.runtime.nest_tape.PlanTapes.dead_on_entry`) are
    never copied in.  The result's arrays are fresh on ``perpe``; on the
    slab backends each is a view of its arena's interior, which is not
    C-contiguous when the array has overlap planes.  ``iterations``
    repeats the whole op sequence, modelling an iterative solver driving
    the kernel.  ``hpf_overhead`` applies the cost model's
    interpretive-node-code factor to loop time (the xlhpf-like
    baseline).  ``tracer`` (a :class:`repro.obs.Tracer`)
    records an ``execute`` span with one timed child span per executed
    plan op, every iteration's side by side (a segment's are timed from
    the driver's stamps).  ``backend`` selects the executor: ``perpe``
    keeps a cell per PE and evaluates each nest per PE box (reference
    semantics); ``vectorized`` keeps each array as one cell, the global
    slab, and evaluates a nest once over its whole space; ``parallel``
    is ``vectorized`` with big nests cut into row stripes on threads.
    All three hand segments of ops to the native driver and charge the
    cost model identically.
    ``profile`` runs under ``tracer`` (a private one when none is
    given), whose op spans are the run's op stack, and attaches a
    :class:`repro.obs.profile.ProfileCollector` to the network
    (requires ``keep_message_log=True`` on the machine), which credits
    every replayed recording to the op that replayed it; the condensed
    :class:`~repro.obs.profile.CommProfile` comes back on the result.
    ``workers`` caps the worker threads of the ``parallel`` backend —
    how many row stripes a nest may be cut into (default:
    ``os.cpu_count()``); other backends ignore it.
    """
    from repro.obs import metrics as _metrics
    from repro.obs.tracer import Tracer, coalesce
    tracer = coalesce(tracer)
    if profile and not tracer.enabled:
        tracer = Tracer()
    machine.reset()
    if plan.processors is not None and \
            tuple(machine.grid) != tuple(plan.processors):
        raise ExecutionError(
            f"program declares !HPF$ PROCESSORS {plan.processors} but "
            f"the machine grid is {tuple(machine.grid)}")
    ex = get_backend(backend)(plan, machine, scalars, hpf_overhead,
                              tracer=tracer, workers=workers)
    collector = None
    if profile:
        from repro.obs.profile import CommProfile, ProfileCollector
        collector = machine.network.observer = ProfileCollector(machine,
                                                                tracer)
    try:
        with tracer.span("execute", kind="execute",
                         grid="x".join(map(str, machine.grid)),
                         iterations=iterations, backend=backend) as run:
            # before any nest runs
            prepare(plan, tracer)
            inputs_up = {k.upper(): v for k, v in (inputs or {}).items()}
            with tracer.span("materialize-inputs", kind="runtime"):
                for name in plan.entry_arrays:
                    ex.materialize(name, inputs_up.get(name))
            done = ex.run_trips(plan.ops, iterations) if iterations > 1 \
                else 0
            for _ in range(done, iterations):
                ex.run_ops(plan.ops)
            with tracer.span("gather-results", kind="runtime"):
                arrays = {name: da.gather()
                          for name, da in ex.darrays.items()}
                for name in list(ex.darrays):
                    ex.release(name)
    finally:
        machine.network.observer = None
        worker_tracks = ex.close()
    _metrics.get_registry().counter(
        "repro_exec_runs_total",
        help="Completed execute() calls by backend.",
    ).inc(backend=backend)
    return ExecutionResult(
        arrays=arrays,
        scalars=dict(ex.scalars),
        report=machine.report,
        peak_memory_per_pe=machine.memory.peak_per_pe,
        modelled_time=machine.report.modelled_time,
        profile=None if collector is None else CommProfile.from_run(
            machine, collector, run, worker_tracks, backend=backend),
    )
