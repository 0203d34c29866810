"""SPMD schedules: each op's walk is built once per plan and machine
geometry, kept on ``plan.tapes`` and replayed by every later run.

The reference for a run is the same run of a freshly compiled plan with
every op walked afresh (:func:`walked_every_time`: the store remembers
nothing, which is how the executor behaved before schedules existed).
A schedule key that is missing therefore shows up as a difference —
across runs (another backend, grid, cost model, overhead, declaration)
or within one (a swapped buffer's birth name, an iteration space that
moves with a ``DO`` variable).
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.ir.linexpr import LinExpr
from repro.ir.nodes import BinOp, Const, OffsetRef, Reduction, ScalarRef
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.machine.cost_model import SP2_COST_MODEL, LoopStats
from repro.plan import (
    AllocOp, LoopNestOp, NestStmt, OverlapShiftOp, ScalarAssignOp,
    SeqLoopOp,
)
from repro.runtime import nest_tape
from repro.runtime.distribution import Layout
from repro.runtime.executor import execute
from repro.runtime.nest_tape import PlanTapes
from repro.testing import forced_stripes

from tests.plan.helpers import decl, simple_plan

BACKENDS = ("perpe", "vectorized", "parallel")


@contextmanager
def walked_every_time():
    """Every op walked on every run: the store forgets each schedule."""
    saved = PlanTapes.schedule
    PlanTapes.schedule = lambda self, node, key, build: build()
    try:
        yield
    finally:
        PlanTapes.schedule = saved


def seeded(plan, seed=3):
    rng = np.random.default_rng(seed)
    return {name: rng.standard_normal(d.shape).astype(d.dtype)
            for name, d in plan.arrays.items() if name in plan.entry_arrays}


def observe(plan, inputs, scalars=None, backend="perpe", grid=(2, 2),
            cost_model=SP2_COST_MODEL, hpf_overhead=False):
    """Everything a run leaves: arrays, scalars, report, tagged log,
    peak memory and the comm profile's matrices and timelines."""
    machine = Machine(grid=grid, cost_model=cost_model)
    # ``parallel`` stripes every nest it legally can (a module constant:
    # the threads of the concurrency test run the other two backends)
    with forced_stripes() if backend == "parallel" else nullcontext():
        result = execute(plan, machine, inputs=inputs, scalars=scalars,
                         hpf_overhead=hpf_overhead, backend=backend,
                         profile=True, workers=2)
    return ({k: v.tobytes() for k, v in result.arrays.items()},
            result.scalars, result.report,
            [(m.src, m.dst, m.nbytes, m.tag) for m in machine.network.log],
            result.peak_memory_per_pe, result.profile.matrix,
            result.profile.timeline)


def assert_runs_match_fresh_walks(make_plan, runs, scalars=None,
                                  edit=lambda plan, i: None):
    """``runs`` (``observe`` keywords; ``scalars`` is the default) in
    sequence on one plan, each bitwise equal to that run on a fresh plan
    walked every time; ``edit(plan, i)`` may change a plan in place
    before run ``i``."""
    plan = make_plan()
    inputs = seeded(plan)
    for i, kwargs in enumerate(runs):
        kwargs = {"scalars": scalars, **kwargs}
        edit(plan, i)
        got = observe(plan, inputs, **kwargs)
        fresh = make_plan()
        edit(fresh, i)
        with walked_every_time():
            want = observe(fresh, inputs, **kwargs)
        for part, a, b in zip(("arrays", "scalars", "report", "log",
                               "peak", "matrix", "timeline"), got, want):
            assert a == b, f"run {i} ({kwargs}): {part} differs"


def kernel(name, level=None, **bindings):
    spec = KERNELS[name]
    return (lambda: compile_kernel(name, bindings=bindings,
                                   level=level).plan,
            dict(spec.default_scalars))


# -- key isolation ------------------------------------------------------------

def test_one_plan_across_placements_grids_cost_models_and_overhead():
    """Placement type (the data half), layout (grid), cost model and
    ``hpf_overhead`` each select their own schedule."""
    make, scalars = kernel("cg", N=16, NITER=3)
    other_model = dataclasses.replace(SP2_COST_MODEL, alpha=1e-5,
                                      mem_load=31e-9, copy_elem=7e-9)
    assert_runs_match_fresh_walks(make, [
        dict(backend="perpe"), dict(backend="vectorized"),
        dict(backend="parallel"), dict(backend="perpe"),
        dict(backend="perpe", grid=(4, 4)),
        dict(backend="vectorized", grid=(4, 2)),
        dict(backend="perpe", cost_model=other_model),
        dict(backend="vectorized", hpf_overhead=True),
        dict(backend="perpe", hpf_overhead=True)], scalars)


def test_swapped_buffers_keep_their_birth_names():
    """``jacobi`` at the default level swaps ``U`` and ``UNEW`` every
    iteration: the same layout, halo and dtype, but the shifts of the
    buffer born ``UNEW`` are tagged ``UNEW``."""
    make, scalars = kernel("jacobi", N=16, NITER=4)
    plan = make()
    assert any(type(op).__name__ == "SwapOp" for op in plan.walk_ops())
    assert_runs_match_fresh_walks(make, [
        dict(backend=b) for b in ("perpe", "vectorized", "parallel",
                                  "perpe")], scalars)


def test_a_declaration_edited_in_place():
    """Halo and dtype are read by the walks: widening an array's
    overlap area or changing its element type between runs of one plan
    takes a new schedule (O0 and O4: full shifts and overlap shifts)."""
    for level in ("O0", "O4"):
        make, scalars = kernel("nine_point", level=level, N=16)
        declared = {name: (d.halo, d.dtype)
                    for name, d in make().arrays.items()}

        def edit(plan, i):
            for name, d in plan.arrays.items():
                halo, dtype = declared[name]
                d.halo = ((3, 3), (3, 3)) if i % 3 >= 1 else halo
                d.dtype = np.dtype(np.float64) if i % 3 == 2 else dtype

        assert_runs_match_fresh_walks(make, [
            dict(backend="perpe")] * 3 + [dict(backend="vectorized")] * 3,
            scalars, edit=edit)


# -- bounds that move ---------------------------------------------------------

N = 24
TRIPS = nest_tape.SCHEDULES_PER_OP + 4


def moving_plan():
    """``DO K = 1, TRIPS``: ``V(K:N, :) = V + 0.5 * U<+1,0>`` and
    ``S = S + SUM(V)``; then ``V(1:M, :) = 2 * V`` for a run-time
    scalar ``M``."""
    one, k, n = LinExpr(1), LinExpr.of("K"), LinExpr.of("N")
    step = LoopNestOp(
        statements=[NestStmt("V", BinOp("+", OffsetRef("V", (0, 0)),
                                        BinOp("*", Const(0.5),
                                              OffsetRef("U", (1, 0)))))],
        space=((k, n), (one, n)),
        stats=LoopStats(points=1, mem_loads=2.0, stores=1.0, flops=2.0))
    head = LoopNestOp(
        statements=[NestStmt("V", BinOp("*", Const(2.0),
                                        OffsetRef("V", (0, 0))))],
        space=((one, LinExpr.of("M")), (one, n)),
        stats=LoopStats(points=1, mem_loads=1.0, stores=1.0, flops=1.0))
    total = ScalarAssignOp("S", BinOp("+", ScalarRef("S"), Reduction(
        "SUM", OffsetRef("V", (0, 0)))))
    return simple_plan([
        AllocOp(names=("V",)),
        OverlapShiftOp(array="U", shift=1, dim=1),
        SeqLoopOp(var="K", lo=one, hi=LinExpr(TRIPS),
                  body=[step, total]),
        head,
    ], arrays={"U": decl("U", N), "V": decl("V", N, temporary=True)},
        n=N, scalars=("S", "M"))


def moving_reference(u, m, n=N):
    """``V`` as ``moving_plan`` computes it (bounds at ``N = n``), in
    serial NumPy."""
    v = np.zeros_like(u)
    shifted = np.roll(u, -1, axis=0)
    for k in range(1, TRIPS + 1):
        v[k - 1:n, :n] = v[k - 1:n, :n] + 0.5 * shifted[k - 1:n, :n]
    v[:m, :n] = 2.0 * v[:m, :n]
    return v


@pytest.mark.parametrize("backend", BACKENDS)
def test_spaces_that_move_stay_reference_correct(backend):
    plan = moving_plan()
    inputs = seeded(plan)
    for m in (5, 9, 5):
        result = execute(plan, Machine(grid=(2, 2)), inputs=inputs,
                         scalars={"M": m}, backend=backend, workers=2)
        np.testing.assert_array_equal(result.arrays["V"],
                                      moving_reference(inputs["U"], m))
    assert_runs_match_fresh_walks(
        moving_plan, [dict(backend=backend)] * 2, {"M": 7})


def test_a_scalar_that_shadows_a_parameter_is_honoured():
    """A run-time scalar named like a size parameter wins in bounds, as
    it always did: the plan's once-evaluated bounds step aside."""
    plan = moving_plan()
    inputs = seeded(plan)
    for n in (N, 16, N):
        result = execute(plan, Machine(grid=(2, 2)), inputs=inputs,
                         scalars={"M": 3, **({"N": n} if n != N else {})})
        np.testing.assert_array_equal(
            result.arrays["V"], moving_reference(inputs["U"], 3, n))


def test_schedules_per_op_are_capped_least_recently_used_first():
    plan = moving_plan()
    execute(plan, Machine(grid=(2, 2)), inputs=seeded(plan),
            scalars={"M": 4})
    step = plan.ops[2].body[0]
    node, held = plan.tapes._schedules[id(step)]
    assert node is step
    assert len(held) == nest_tape.SCHEDULES_PER_OP
    # the most recent spaces are the ones kept: K = 5 .. TRIPS
    assert sorted(key[1][0][0] for key in held) == list(
        range(TRIPS - nest_tape.SCHEDULES_PER_OP + 1, TRIPS + 1))


def test_bounds_without_scalars_are_evaluated_once_per_plan(monkeypatch):
    plan = moving_plan()
    inputs = seeded(plan)
    execute(plan, Machine(grid=(2, 2)), inputs=inputs, scalars={"M": 4})
    calls = []
    real = LinExpr.evaluate
    monkeypatch.setattr(LinExpr, "evaluate",
                        lambda self, binding: calls.append(self)
                        or real(self, binding))
    execute(plan, Machine(grid=(2, 2)), inputs=inputs, scalars={"M": 4})
    # only the bounds naming K or M: one per trip, and the head's M
    assert {str(e) for e in calls} == {"K", "M"}
    assert len(calls) == TRIPS + 1


# -- the second run walks nothing --------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,level", [("cg", None), ("jacobi", None),
                                        ("nine_point", "O0"),
                                        ("purdue9", "O4")])
def test_the_second_run_walks_nothing(name, level, backend, monkeypatch):
    """On a *new* machine of equal grid and cost model — the service
    builds one per request — a second run builds no schedule and asks
    no layout for a PE's box."""
    spec = KERNELS[name]
    compiled = compile_kernel(name, bindings={"N": 16}, level=level)
    inputs = seeded(compiled.plan)
    scalars = dict(spec.default_scalars)

    def run():
        return compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                            scalars=scalars, backend=backend, workers=2)

    first = run()
    builds = compiled.plan.tapes.builds
    assert builds > 0
    boxes = []
    real = Layout.owned_box
    monkeypatch.setattr(Layout, "owned_box",
                        lambda self, rank: boxes.append(rank)
                        or real(self, rank))
    second = run()
    assert compiled.plan.tapes.builds == builds
    assert boxes == []
    assert second.report == first.report
    for array, value in first.arrays.items():
        np.testing.assert_array_equal(second.arrays[array], value)


# -- concurrency --------------------------------------------------------------

def test_threads_running_one_cached_plan_match_serial_runs():
    """The service's shape: job threads (more than cores) run one cached
    plan at once, building and replaying the same schedules."""
    make, scalars = kernel("cg", N=16, NITER=3)
    inputs = seeded(make())
    want = {b: observe(make(), inputs, scalars, backend=b)
            for b in ("perpe", "vectorized")}
    shared = make()
    start = threading.Barrier(4)
    got: dict = {}

    def job(i, backend):
        start.wait()
        got[i] = [observe(shared, inputs, scalars, backend=backend)
                  for _ in range(3)]

    threads = [threading.Thread(target=job, args=(i, b)) for i, b in
               enumerate(("perpe", "vectorized") * 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, backend in enumerate(("perpe", "vectorized") * 2):
        assert got[i] == [want[backend]] * 3
