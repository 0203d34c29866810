"""Plan executor: runs compiled programs on the simulated machine.

The executor performs real data movement (NumPy) so results are exact,
and charges every operation to the machine's cost model so the modelled
execution time reflects the paper's cost structure.  SPMD loop-bounds
reduction happens here: each PE executes only the intersection of a
nest's global iteration box with its owned block.  As the paper's
compiler emits each PE's bounds and messages once, an op's walk runs
once per machine geometry and is kept with the plan's tapes as a
*schedule* (``PlanTapes.schedule``); every run evaluates its regions
and replays its charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
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
from repro.runtime.nest_tape import NestTape, plan_tapes, prepare
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


class _Schedule(NamedTuple):
    """A nest's or reduction's walk (see :meth:`_Exec._bindings`)."""
    regions: list           # (pe, box)
    charges: Charges
    credits: list           # (pe, interior loop time), overlapped nests
    slices: dict            # placement type -> reference slices per region


class _Exec:
    #: the backend's name in error messages; overridden by every
    #: registered backend class
    backend_label = "perpe"
    #: the placement: how a distributed array is stored and how its data
    #: moves (``fill_overlap`` / ``assign_interior`` / ``origin``).  What
    #: every op costs is the skeleton's and the shift routines' business
    #: and is the same for every placement.
    array_type = DArray

    def __init__(self, plan: Plan, machine: Machine,
                 scalars: Mapping[str, float] | None,
                 hpf_overhead: bool, tracer=None,
                 workers: int | None = None) -> None:
        from repro.obs.tracer import coalesce
        self.tracer = coalesce(tracer)
        # ``workers``: only the ``parallel`` backend acts on it, but it is
        # part of the shared constructor contract so ``execute`` can pass
        # it to any registered backend.
        #: Optional :class:`repro.obs.profile.ProfileCollector`.  Lives
        #: on the shared dispatch loop so both backends attribute ops
        #: identically — part of the backend-equivalence contract.
        self.profiler = None
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
        #: plan — unless this run's scalars shadow a size parameter
        self._static = {} if self.scalars.keys() & plan.params.keys() \
            else self._tapes.static_bounds(plan)
        #: a schedule is keyed on this and its arrays' keys
        self._geometry = self._tapes.intern(
            (machine.cost_model, self.overhead))

    # -- array lifecycle -----------------------------------------------------
    def materialize(self, name: str,
                    initial: np.ndarray | None = None) -> None:
        decl = self.plan.arrays[name]
        layout = cached_layout(decl.shape, decl.distribution,
                               self.machine.topology)
        da = self.array_type.create(self.machine, name, layout,
                                    decl.dtype, decl.halo)
        if initial is not None:
            da.scatter(np.asarray(initial))
        # its layout (which carries the grid), halo, dtype and birth name
        da.key = self._tapes.intern((layout, da.halo, da.dtype, name))
        self.darrays[name] = da

    def release(self, name: str) -> None:
        da = self.darrays.pop(name, None)
        if da is None:
            raise ExecutionError(f"DEALLOCATE of unallocated {name}")
        da.free(self.machine)

    def close(self) -> None:
        """End of the run, error or not (``execute`` calls it in a
        ``finally``): a backend with per-run state reports it here."""

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
        message log); the partials fold in rank order on every
        backend, which is what keeps the result bitwise."""
        refs = [n for n in expr.arg.walk() if isinstance(n, OffsetRef)]
        if not refs:
            raise ExecutionError(
                f"reduction {expr} references no arrays")
        first = self.darray(refs[0].name)
        combine = {"SUM": np.sum, "MAXVAL": np.max,
                   "MINVAL": np.min}[expr.op]
        fold = {"SUM": np.add, "MAXVAL": np.maximum,
                "MINVAL": np.minimum}[expr.op]
        tape = self._tapes.tape(expr, [(None, expr.arg, None)], first.rank)
        arrays = self._ref_arrays(tape)
        sched = self._schedule(expr, arrays, None,
                               lambda: self._walk_reduction(expr, first))
        scalars = [self.scalar(ref) for ref in tape.scalars]
        total: float | None = None
        for pe, slices in self._bindings(sched, tape, sched.regions):
            local = tape.run(self._views(arrays, pe, slices), scalars,
                             self._bound)[tape.result]
            part = float(combine(local))
            total = part if total is None else float(fold(total, part))
        self.machine.network.replay(sched.charges)
        assert total is not None
        return total

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
        return _Schedule(regions, charges, [], {})

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
        tracing = self.tracer.enabled
        profiler = self.profiler
        if not tracing and profiler is None:
            for op in ops:
                self._dispatch(op)
            return
        for op in ops:
            name, attrs = op_label(op)
            sample = profiler.begin(name, attrs) \
                if profiler is not None else None
            try:
                with self.tracer.span(name, kind="op", **attrs):
                    self._dispatch(op)
            finally:
                if sample is not None:
                    profiler.end(sample)

    def do_overlap_shift(self, op: OverlapShiftOp) -> None:
        da = self.darray(op.array)
        self._schedule(op, (da,), None, lambda: OverlapShift(
            da.name, da.layout, da.dtype, da.halo, op.shift, op.dim,
            Charges(self.machine.cost_model), op.rsd, op.base_offsets,
            op.boundary)).apply(self.machine, da)

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
            for k in range(lo, hi + 1):
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
        """``node``'s schedule on this geometry, ``arrays`` and ``space``."""
        return self._tapes.schedule(
            node, (self._geometry, space, *[da.key for da in arrays]),
            build)

    def _ref_arrays(self, tape: NestTape) -> list:
        return [self.darray(name) for name, _ in tape.refs]

    def _bindings(self, sched: _Schedule, tape: NestTape,
                  regions) -> list:
        """``sched``'s data half, per placement: ``(pe, slices)``."""
        found = sched.slices.get(self.array_type)
        if found is None:
            found = sched.slices[self.array_type] = [
                (pe, self._slices(tape, pe, box)) for pe, box in regions]
        return found

    def _space(self, op: LoopNestOp) -> tuple[tuple[int, int], ...]:
        return tuple((self.bound(lo), self.bound(hi))
                     for lo, hi in op.space)

    def _boxes(self, op: LoopNestOp, space) -> list[tuple[int, list]]:
        """SPMD loop-bounds reduction: ``(pe, box)`` for every PE whose
        owned block meets the nest's iteration space."""
        boxes = []
        for pe in self.machine.topology.ranks():
            box = self._nest_box(op, space, pe)
            if box is not None:
                boxes.append((pe, box))
        return boxes

    def _eval_nest(self, op: LoopNestOp, space, sched: _Schedule) -> None:
        """Compute the nest: region by region here; a placement that
        holds the whole array evaluates ``space`` in one go instead."""
        tape = self._nest_tape(op)
        bindings = self._bindings(sched, tape, sched.regions)
        if bindings:
            arrays = self._ref_arrays(tape)
            scalars = [self.scalar(ref) for ref in tape.scalars]
            for pe, slices in bindings:
                tape.run(self._views(arrays, pe, slices), scalars,
                         self._bound)

    def run_nest(self, op: LoopNestOp) -> None:
        self._run_nest(op, op, split=False)

    def run_overlapped(self, op) -> None:
        """Communication overlapped with interior computation: execute
        comm then the nest split into interior/boundary, and credit each
        PE with min(comm, interior) — the time hidden behind the
        messages.  The credit skips :meth:`Network.replay`, so a profiled
        run hands it to the overlapped op's sample here."""
        report = self.machine.report
        before = list(report.pe_times)
        self.run_ops(op.comm_ops)
        comm_delta = [t1 - t0 for t0, t1 in zip(before, report.pe_times)]
        own = self.profiler.current.pe_time \
            if self.profiler is not None else None
        for pe, t_interior in self._run_nest(op, op.nest, True).credits:
            hidden = min(comm_delta[pe], t_interior)
            report.pe_times[pe] -= hidden
            if own is not None:
                own[pe] -= hidden

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
        return _Schedule(regions, charges, credits, {})

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

    def _nest_box(self, nest: LoopNestOp, space, pe):
        first = self.darray(nest.statements[0].lhs)
        owned = first.owned_box(pe)
        box = []
        for (slo, shi), (olo, ohi) in zip(space, owned):
            lo, hi = max(slo, olo), min(shi, ohi)
            if lo > hi:
                return None
            box.append((lo, hi))
        return box

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
            reset_machine: bool = True,
            tracer=None,
            backend: str = "perpe",
            profile: bool = False,
            workers: int | None = None) -> ExecutionResult:
    """Run a compiled plan.

    ``inputs`` seeds entry arrays (by name, case-insensitive); arrays not
    provided start zeroed.  ``iterations`` repeats the whole op sequence,
    modelling an iterative solver driving the kernel.  ``hpf_overhead``
    applies the cost model's interpretive-node-code factor to loop time
    (the xlhpf-like baseline).  ``tracer`` (a :class:`repro.obs.Tracer`)
    records an ``execute`` span with one timed child span per executed
    plan op.  ``backend`` selects the executor: ``perpe`` loops over PEs
    in Python per op (reference semantics), ``vectorized`` executes each
    op as whole-array NumPy slab operations while charging the cost
    model identically.
    ``profile`` attaches a :class:`repro.obs.profile.ProfileCollector`
    (requires ``keep_message_log=True`` on the machine), which credits
    every replayed recording to the op that replayed it, and returns the
    condensed :class:`~repro.obs.profile.CommProfile` on the result.
    ``workers`` caps the worker threads of the ``parallel`` backend —
    how many row stripes a nest may be cut into (default:
    ``os.cpu_count()``); other backends ignore it.
    """
    from repro.obs import metrics as _metrics
    from repro.obs.tracer import coalesce
    tracer = coalesce(tracer)
    if reset_machine:
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
        collector = ProfileCollector(machine)
        ex.profiler = machine.network.observer = collector
    try:
        with tracer.span("execute", kind="execute",
                         grid="x".join(map(str, machine.grid)),
                         iterations=iterations, backend=backend):
            # before any nest runs
            prepare(plan, tracer)
            inputs_up = {k.upper(): v for k, v in (inputs or {}).items()}
            with tracer.span("materialize-inputs", kind="runtime"):
                for name in plan.entry_arrays:
                    ex.materialize(name, inputs_up.get(name))
            for i in range(iterations):
                if iterations > 1 and tracer.enabled:
                    with tracer.span("iteration", kind="runtime", i=i):
                        ex.run_ops(plan.ops)
                else:
                    ex.run_ops(plan.ops)
            with tracer.span("gather-results", kind="runtime"):
                arrays = {name: da.gather()
                          for name, da in ex.darrays.items()}
                for name in list(ex.darrays):
                    ex.release(name)
    finally:
        machine.network.observer = None
        ex.close()
    _metrics.get_registry().counter(
        "repro_exec_runs_total",
        help="Completed execute() calls by backend.",
    ).inc(backend=backend)
    comm_profile = None
    if collector is not None:
        comm_profile = CommProfile.from_run(machine, collector,
                                            backend=backend)
    return ExecutionResult(
        arrays=arrays,
        scalars=dict(ex.scalars),
        report=machine.report,
        peak_memory_per_pe=machine.memory.peak_per_pe,
        modelled_time=machine.report.modelled_time,
        profile=comm_profile,
    )
