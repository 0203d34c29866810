"""Loop nests as strip-mined, buffer-reusing ufunc tapes.

The compiler fuses array statements into one subgrid loop nest so that
operands are reused in cache instead of streaming through whole-array
temporaries (paper sections 3.2 and 3.4).  This module is the one place
the runtime honours that: a :class:`NestTape` compiles the statements of
a ``LoopNestOp`` (or the operand of a ``Reduction``) once into a
postorder list of instructions over *slots* — array-reference views,
scalars, constants and temporaries — and :meth:`NestTape.run` walks the
iteration box in strips along dim 1, executing every statement of the
nest per strip with ``out=`` into a small pool of strip-sized registers.
Every backend evaluates nests through it; they differ only in how they
bind a box to views.  A tape is immutable once built: the tapes of a
plan are built once and kept with it (:func:`prepare`), the registers
an executor binds to them are the executor's own, and a nest that
:mod:`repro.runtime.native` could prove bitwise carries a compiled
``kernel``, which the executor runs over a region table instead of
calling :meth:`NestTape.run`.

Strip legality
--------------
Running ``s1; s2`` strip by strip instead of box by box is only the same
program when no strip reads what another strip writes.  Rows are the
strip axis, so the one-time static rule is: *no array assigned in the
nest is read at a nonzero dim-1 offset anywhere in it* (flow or anti
direction, in any statement, mask included).  A nest that breaks it — and
every reduction operand, whose value over the whole box is what the
per-PE partials reduce — runs as a single whole-box strip, i.e. with
statement-at-a-time semantics.

Why bitwise
-----------
A strip applies the same ufunc to the same operand dtypes as the
whole-box NumPy expression would, and elementwise ufuncs compute each
element independently of how the array is cut.  Register dtypes are
never derived here: the first strip runs each instruction without
``out=`` and NumPy's own result becomes (or is copied into a dead
register of exactly that dtype as) the instruction's register, so
NumPy 1.x/2.x promotion of Python versus ``np.float64`` scalars stays
NumPy's business.  ``**``, comparisons, intrinsics and scalar-only
subtrees always produce fresh results through the same Python operators
and :func:`~repro.runtime.reference.apply_intrinsic` calls a tree walk
would make (``ndarray.__pow__`` has fast paths ``np.power`` lacks).
"""

from __future__ import annotations

import operator
import threading
from contextlib import suppress
from functools import partial
from math import prod
from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import ExecutionError
from repro.ir.nodes import (
    BinOp, Compare, Const, Expr, Intrinsic, OffsetRef, Reduction,
    ScalarRef, UnaryOp,
)
from repro.plan import LoopNestOp, Plan, ScalarAssignOp, SeqLoopOp, effects
from repro.runtime.reference import apply_intrinsic, real_pow

#: Bytes one register may hold; a strip is as many dim-1 rows of the box
#: as fit.  Fixed: a few registers plus the rows they are computed from
#: stay cache-resident, and nothing selects another value.
STRIP_BYTES = 256 * 1024

#: NumPy 1.x promotes by scalar *value* (``float32 * 1e39`` is float64),
#: so there a register set is reused only for identical scalars; NumPy 2
#: promotes by scalar type alone.
_VALUE_BASED_PROMOTION = int(np.__version__.split(".")[0]) < 2

_UFUNC = {"+": np.add, "-": np.subtract, "*": np.multiply,
          "/": np.true_divide}
_SCALAR_OP = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_COMPARE = {"<": operator.lt, ">": operator.gt, "<=": operator.le,
            ">=": operator.ge, "==": operator.eq, "/=": operator.ne}


def _intrinsic(name: str, *args):
    return apply_intrinsic(name, list(args))


class _Instr(NamedTuple):
    fn: object
    args: tuple[int, ...]
    dst: int
    #: an arithmetic ufunc with an array operand: its result may live in
    #: a register (``out=``); everything else is computed fresh
    reuse: bool


class _Stmt(NamedTuple):
    code: tuple[_Instr, ...]
    #: slot of the right-hand side's value
    value: int
    #: slot of the mask's value, or ``None``
    mask: int | None
    #: slot of the destination view, or ``None`` for a reduction operand
    dst: int | None
    #: the last instruction may write the destination itself: unmasked,
    #: a binary arithmetic ufunc, and the statement reads its own
    #: destination array at no nonzero offset (``A = A<+1,0> + B`` must
    #: not)
    direct: bool


class NestTape:
    """The statements of one nest compiled to a flat instruction tape.

    ``statements`` is a sequence of ``(lhs, rhs, mask)``; ``lhs`` is
    ``None`` for a value-only tape (a reduction operand).  Slots are
    laid out ``[refs | scalars | constants and temporaries]``; callers
    bind ``refs`` (``(array name, offsets)``, destinations included at
    zero offset) to a list of equally shaped views and ``scalars``
    (:class:`ScalarRef` nodes) to a list of numbers, in order, per call.
    """

    def __init__(self, statements: Sequence[tuple], rank: int) -> None:
        # each expression is walked once: per statement, the nodes of its
        # right-hand side and those of its mask
        walks = [(list(rhs.walk()),
                  list(mask.walk()) if mask is not None else [])
                 for _, rhs, mask in statements]
        nodes = [n for walk in walks for part in walk for n in part]
        offset_refs = [n for n in nodes if isinstance(n, OffsetRef)]
        assigned = {lhs for lhs, _, _ in statements}
        #: every statement stores, and no assigned array is read at a
        #: nonzero dim-1 offset: rows of different strips are independent
        self.strip_ok = None not in assigned and not any(
            n.name in assigned and any(n.offsets[:1]) for n in offset_refs)
        #: first reference that reads, at a nonzero offset, an array an
        #: earlier statement of the nest assigned.  Per-PE storage serves
        #: that read from a stale overlap area while one global array
        #: sees the fresh value, so the slab backends refuse such nests.
        self.stale_read: OffsetRef | None = None
        written: set[str] = set()
        for (lhs, _, _), (rhs_nodes, mask_nodes) in zip(statements, walks):
            if self.stale_read is None:
                self.stale_read = next(
                    (n for n in rhs_nodes + mask_nodes
                     if isinstance(n, OffsetRef)
                     and n.name in written and any(n.offsets)), None)
            written.add(lhs)

        zero = (0,) * rank
        #: leaf -> slot: ``(name, offsets)`` for an array reference, the
        #: name for a scalar
        slots: dict = {}
        for key in [(n.name, n.offsets) for n in offset_refs] + \
                [(lhs, zero) for lhs, _, _ in statements if lhs is not None]:
            slots.setdefault(key, len(slots))
        self.refs = list(slots)
        self.scalars: list[ScalarRef] = []
        for n in nodes:
            if isinstance(n, ScalarRef) and n.name not in slots:
                slots[n.name] = len(slots)
                self.scalars.append(n)
        #: constants and one ``None`` per temporary; appended to the
        #: bound views and scalars it completes a strip's slot list
        self.tail: list = []
        self.stmts: list[_Stmt] = []
        for (lhs, rhs, mask), (rhs_nodes, _) in zip(statements, walks):
            code: list[_Instr] = []
            value, _ = self._emit(rhs, code, slots)
            # binary ufuncs only: NumPy 2.4's negative miscomputes some
            # strided-input, non-contiguous-output pairs (registers are
            # contiguous, destination views are not)
            direct = (lhs is not None and mask is None and bool(code)
                      and code[-1].fn in _UFUNC.values() and not any(
                          n.name == lhs and any(n.offsets)
                          for n in rhs_nodes if isinstance(n, OffsetRef)))
            mask_slot = self._emit(mask, code, slots)[0] \
                if mask is not None else None
            self.stmts.append(_Stmt(
                tuple(code), value, mask_slot,
                slots[lhs, zero] if lhs is not None else None, direct))
        #: slot of the last statement's value in the list ``run`` returns
        self.result = self.stmts[-1].value
        #: the nest as one compiled loop (:class:`repro.runtime.native.
        #: Kernel`), attached by :func:`prepare` when it is provably
        #: bitwise; ``None``: only the ufuncs run it
        self.kernel = None

    def _emit(self, e: Expr, code: list[_Instr],
              slots: dict) -> tuple[int, bool]:
        """Append ``e``'s instructions to ``code``; returns its slot and
        whether the value is an array (the subtree holds an array
        reference).  Constants and results take the next free slot after
        the leaves."""
        if isinstance(e, ScalarRef):
            return slots[e.name], False
        if isinstance(e, OffsetRef):
            return slots[e.name, e.offsets], True
        if isinstance(e, Const):
            self.tail.append(e.value)
            return len(slots) + len(self.tail) - 1, False
        if not isinstance(e, (BinOp, Compare, UnaryOp, Intrinsic)):
            raise ExecutionError(
                f"cannot evaluate {type(e).__name__} in a nest")
        operands = [self._emit(child, code, slots)
                    for child in e.children()]
        array = any(is_array for _, is_array in operands)
        reuse = False
        if isinstance(e, Compare):
            fn = _COMPARE[e.op]
        elif isinstance(e, Intrinsic):
            fn = partial(_intrinsic, e.name)
        elif isinstance(e, UnaryOp):
            fn, reuse = (np.negative, True) if array \
                else (operator.neg, False)
        elif e.op == "**":
            fn = real_pow
        else:
            fn, reuse = (_UFUNC[e.op], True) if array \
                else (_SCALAR_OP[e.op], False)
        dst = len(slots) + len(self.tail)
        self.tail.append(None)
        code.append(_Instr(fn, tuple(s for s, _ in operands), dst, reuse))
        return dst, array

    # -- execution ---------------------------------------------------------
    def run(self, views: list, scalars: list, bound: dict) -> list:
        """Execute the nest over the box the equally shaped ``views``
        cover on the ufuncs; returns the slot list of the last strip (a
        value-only tape runs one strip, so ``[self.result]`` is its value).

        ``bound`` is the caller's: ``(tape, box shape) -> (signature,
        strip rows, bound program)``.  Registers and ``out=`` targets
        survive across calls there, so a one-strip call on a small box
        allocates nothing, and two executors never share a register."""
        shape = views[0].shape
        signature = [v.dtype for v in views] + (
            scalars if _VALUE_BASED_PROMOTION else [type(s) for s in scalars])
        found = bound.get((self, shape))
        if found is not None and found[0] == signature:
            _, rows, program = found
            done = 0
        else:
            rows = shape[0]
            if self.strip_ok:
                row_bytes = prod(shape[1:]) * max(v.itemsize for v in views)
                rows = min(rows, STRIP_BYTES // max(1, row_bytes))
            rows = done = max(1, rows)
            vals = [v[:rows] for v in views] + scalars + self.tail
            program = self._first_strip(vals)
            bound[self, shape] = (signature, rows, program)
        nrows = shape[0]
        if rows >= nrows:
            if not done:
                vals = views + scalars + self.tail
                _strip(program, vals, None)
            return vals
        for r0 in range(done, nrows, rows):
            vals = [v[r0:r0 + rows] for v in views] + scalars + self.tail
            _strip(program, vals, nrows - r0 if r0 + rows > nrows else None)
        return vals

    def _first_strip(self, vals: list) -> list:
        """Run one strip with NumPy allocating every result, and build
        the program later strips and calls replay: per statement, its
        instructions with their ``out=`` target — ``None`` (fresh), a
        register, or the destination's slot — and whether the last of
        them stores the destination itself."""
        pool: list[np.ndarray] = []          # registers holding dead values
        held: dict[int, np.ndarray] = {}     # temporary slot -> its register

        def release(slot) -> None:
            reg = held.pop(slot, None)
            if reg is not None:
                pool.append(reg)

        program = []
        for stmt in self.stmts:
            code = []
            stored = False
            for fn, args, dst, reuse in stmt.code:
                res = fn(*[vals[a] for a in args])
                for a in args:
                    release(a)
                out = None
                if reuse and dst == stmt.value and stmt.direct \
                        and res.dtype == vals[stmt.dst].dtype:
                    out, stored = stmt.dst, True
                elif reuse:
                    out = res
                    for i, reg in enumerate(pool):
                        if reg.dtype == res.dtype:
                            out = pool.pop(i)
                            out[...] = res
                            break
                    held[dst] = res = out
                vals[dst] = res
                code.append((fn, args, dst, out))
            _store(stmt, vals)
            release(stmt.value)
            release(stmt.mask)
            program.append((code, stmt, stored))
        return program


def _strip(program: list, vals: list, short: int | None) -> None:
    """Replay a bound program on one strip's slots; ``short`` is the row
    count of a last strip lower than the registers."""
    for code, stmt, stored in program:
        for fn, args, dst, out in code:
            if out is None:
                vals[dst] = fn(*[vals[a] for a in args])
                continue
            if out.__class__ is int:
                out = vals[out]
            elif short is not None:
                out = out[:short]
            # a binary ufunc or np.negative; ``out`` goes positionally
            if len(args) == 2:
                a, b = args
                vals[dst] = fn(vals[a], vals[b], out)
            else:
                vals[dst] = fn(vals[args[0]], out)
        if not stored:
            _store(stmt, vals)


def _store(stmt: _Stmt, vals: list) -> None:
    if stmt.dst is None:
        return
    if stmt.mask is None:
        vals[stmt.dst][...] = vals[stmt.value]
    else:
        np.copyto(vals[stmt.dst], vals[stmt.value], casting="unsafe",
                  where=np.asarray(vals[stmt.mask], dtype=bool))


#: Schedules kept per plan op, least recently used out first: room for
#: the grids a service cycles a plan through, and the bound on a nest
#: whose space moves with a loop variable.  Both fixed.
SCHEDULES_PER_OP = 16
#: Interned key values per plan before the table starts afresh.
INTERNED_KEYS = 1024


class PlanTapes:
    """The tapes and schedules of one plan, shared by its executors."""

    def __init__(self) -> None:
        #: id(nest op | reduction) -> (that node, its tape); the node is
        #: held so a recycled id can never hit another's tape
        self._tapes: dict[int, tuple[object, NestTape]] = {}
        #: :func:`prepare` has run (kernels attached where eligible);
        #: service threads run one cached plan concurrently
        self.prepared = False
        self.lock = threading.Lock()
        #: id(node) -> (that node, key -> its schedule), least recently
        #: used first
        self._schedules: dict[int, tuple[object, dict]] = {}
        self._interned: dict = {}
        self._schedule_lock = threading.Lock()
        self.builds = 0     # schedules walked so far
        self._bounds: "dict | None" = None     # see static_bounds
        self._dead: "dict | None" = None       # see dead_on_entry
        #: the plan's segment driver (``native.build``'s), once its
        #: kernels are built
        self.driver = None

    def tape(self, node, statements: Sequence[tuple], rank: int) -> NestTape:
        """``node``'s tape, built on first use."""
        entry = self._tapes.get(id(node))
        if entry is None or entry[0] is not node:
            entry = self._tapes[id(node)] = (
                node, NestTape(statements, rank))
        return entry[1]

    def nest(self, op: LoopNestOp) -> NestTape:
        return self.tape(
            op, [(s.lhs, s.rhs, s.mask) for s in op.statements],
            len(op.space))

    def reduction(self, node: Reduction) -> NestTape:
        """``node``'s operand tape, of its first reference's rank."""
        rank = next((len(n.offsets) for n in node.arg.walk()
                     if isinstance(n, OffsetRef)), 0)
        return self.tape(node, [(None, node.arg, None)], rank)

    def intern(self, value) -> object:
        """A token for ``value``, shared by equal values: it hashes by
        identity, so a key of tokens never rehashes a ``Layout``."""
        if len(self._interned) >= INTERNED_KEYS:
            self._interned.clear()
        return self._interned.setdefault(value, object())

    def schedule(self, node, key: tuple, build):
        """``node``'s schedule for ``key`` — a plan op's or reduction's
        walk, an op list's partition, a segment's steps — ``build()`` on
        a miss (two threads may both build: it is immutable data)."""
        with self._schedule_lock:
            entry = self._schedules.get(id(node))
            if entry is None or entry[0] is not node:
                entry = self._schedules[id(node)] = (node, {})
            held = entry[1]
            found = held.pop(key, None)
            if found is not None:
                held[key] = found       # now the most recently used
                return found
        found = build()
        with self._schedule_lock:
            self.builds += 1
            held[key] = found
            if len(held) > SCHEDULES_PER_OP:
                del held[next(iter(held))]
        return found

    def static_bounds(self, plan: Plan) -> dict:
        """``LinExpr -> value`` for every loop bound of ``plan`` that
        names size parameters only — no declared scalar, ``DO`` variable
        or assigned scalar — evaluated once per plan."""
        if self._bounds is None:
            ops = list(plan.walk_ops())
            loops = [op for op in ops if isinstance(op, SeqLoopOp)]
            params = plan.params.keys() - set(plan.scalar_names) - {
                op.var for op in loops} - {
                op.name for op in ops if isinstance(op, ScalarAssignOp)}
            self._bounds = {b: b.evaluate(plan.params) for b in [
                *(b for op in loops for b in (op.lo, op.hi)),
                *(b for op in ops if isinstance(op, LoopNestOp)
                  for pair in op.space for b in pair)]
                if b.symbols() <= params}
        return self._bounds

    def dead_on_entry(self, plan: Plan) -> dict:
        """``name -> box`` (0-based ``(start, stop)`` per dim) for each
        entry array whose first toucher among ``plan``'s top-level ops is
        an unmasked nest with static bounds that stores it over that box
        before it reads it, and then reads it only at the point stored:
        cells no op reads before one writes them.  Any other first use —
        a read, a shift, a swap, a loop, branch or overlapped region that
        mentions it — keeps the array whole.  Once per plan."""
        if self._dead is None:
            bounds = self.static_bounds(plan)
            touched = [(op, effects(op)) for op in plan.ops]
            dead = {}
            for name in plan.entry_arrays:
                op = next((op for op, eff in touched
                           if name in eff.reads | eff.writes), None)
                if not isinstance(op, LoopNestOp) \
                        or not _stores_first(op, name) \
                        or any(b not in bounds
                               for pair in op.space for b in pair):
                    continue
                decl = plan.arrays[name]
                first = plan.arrays[op.statements[0].lhs]
                # the nest's boxes are cut from its first array's blocks
                if (decl.shape, decl.distribution) != \
                        (first.shape, first.distribution):
                    continue
                box = tuple((max(bounds[lo], 1) - 1, min(bounds[hi], n))
                            for (lo, hi), n in zip(op.space, decl.shape))
                if all(lo < hi for lo, hi in box):
                    dead[name] = box
            self._dead = dead
        return self._dead

    def __reduce__(self):
        # a pickled or copied plan starts unprepared: kernel handles
        # belong to the process that loaded them
        return PlanTapes, ()


def _stores_first(nest: LoopNestOp, name: str) -> bool:
    """Whether the unmasked ``nest`` stores ``name`` before any of its
    statements reads it, and reads it afterwards at offset zero only: at
    each point, what the store put there."""
    stored = False
    for stmt in nest.statements:
        if stmt.mask is not None or any(
                isinstance(n, OffsetRef) and n.name == name
                and (not stored or any(n.offsets)) for n in stmt.rhs.walk()):
            return False
        stored = stored or stmt.lhs == name
    return stored


_ATTACH_LOCK = threading.Lock()


def plan_tapes(plan: Plan) -> PlanTapes:
    """The tapes kept with ``plan`` for its lifetime."""
    if plan.tapes is None:
        with _ATTACH_LOCK:
            if plan.tapes is None:
                plan.tapes = PlanTapes()
    return plan.tapes


def _reductions(plan: Plan, tapes: PlanTapes) -> list:
    """``(operand tape, array shape, is a SUM)`` of every reduction in
    ``plan``'s scalar expressions (one no tape takes fails where it
    runs)."""
    exprs = [e for op in plan.walk_ops() for e in (
        getattr(op, "rhs", None), getattr(op, "cond", None)) if e]
    found = []
    for node in (n for e in exprs for n in e.walk()
                 if isinstance(n, Reduction)):
        first = next((n.name for n in node.arg.walk()
                      if isinstance(n, OffsetRef)), None)
        with suppress(KeyError, ExecutionError):
            shape = plan.arrays[first].shape
            found.append((tapes.reduction(node), shape, node.op == "SUM"))
    return found


def prepare(plan: Plan, tracer=None, kernels: bool = True) -> PlanTapes:
    """Build every nest's and reduction operand's tape and — unless
    ``kernels`` is false, which keeps the plan on the ufuncs for good —
    attach the compiled kernels :func:`repro.runtime.native.attach` can
    offer.  Once per plan: the first caller does the work, before any
    nest runs; every thread that evaluates the plan's nests then calls
    the same kernels."""
    tapes = plan_tapes(plan)
    with tapes.lock:
        if not tapes.prepared:
            nests = [(op, tapes.nest(op)) for op in plan.walk_ops()
                     if isinstance(op, LoopNestOp)]
            if kernels:
                # imported by the first run, not with the package: the
                # CLI's import time does not pay for the kernel store
                from repro.runtime import native
                tapes.driver = native.attach(
                    plan, nests, _reductions(plan, tapes), tracer)
            tapes.prepared = True
    return tapes
