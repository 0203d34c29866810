"""Entry arrays cost only their live bytes.

``PlanTapes.dead_on_entry`` names, once per plan, the box of each entry
array that the plan's first toucher of it overwrites unread; ``execute``
copies the rest of the input in and leaves that box as the allocator
gave it.  The analysis is conservative: every first use but an unmasked
nest that stores the array before it reads it keeps the array whole.

The poison sweeps set every dead-on-entry input cell to NaN and demand
bit-identical results, once as the executor runs (the NaNs never reach
an arena) and once copying every cell in (:func:`copying_dead_cells`:
the NaNs sit in the arenas, and a read of one would leak it).
"""

import numpy as np
import pytest

from repro.compiler import compile_hpf
from repro.ir.linexpr import LinExpr
from repro.ir.nodes import Reduction
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.plan import (
    CondOp, FullShiftOp, LoopNestOp, NestStmt, OverlappedOp,
    OverlapShiftOp, ScalarAssignOp, SeqLoopOp, SwapOp, WhileOp,
)
from repro.runtime.darray import DArray
from repro.runtime.nest_tape import plan_tapes
from repro.testing import (
    GeneratedProgram, assert_bitwise, copying_dead_cells, differential_check,
    poisoned,
)
from tests.plan.helpers import (
    Compare, Const, OffsetRef, box, copy_nest, decl, nest,
    scalar_true, simple_plan,
)

LEVELS = ("O0", "O1", "O2", "O3", "O4", "O5")


def dead(plan) -> dict:
    return plan_tapes(plan).dead_on_entry(plan)


def entry_plan(*ops, scalars=()):
    """U and V are entry arrays; W a temporary."""
    return simple_plan(list(ops), arrays={
        "U": decl("U"), "V": decl("V"), "W": decl("W", temporary=True)},
        entry=("U", "V"), scalars=scalars)


WHOLE = ((0, 8), (0, 8))


# -- the analysis -------------------------------------------------------------

@pytest.mark.parametrize("kernel, level, expected", [
    ("nine_point", "O0", {"DST": ((1, 63), (1, 63))}),
    ("nine_point", "O5", {"DST": ((1, 63), (1, 63))}),
    ("twentyfive_point", "O4", {"DST": ((2, 62), (2, 62))}),
    ("purdue9", "O4", {"T": ((0, 64), (0, 64))}),
    ("jacobi", "O4", {}),
    ("jacobi", "O5", {"UNEW": ((0, 64), (0, 64))}),
    ("red_black", "O5", {}),
    ("cg", "O5", {name: ((0, 64), (0, 64)) for name in "XRP"}),
])
def test_registry_dead_boxes(kernel, level, expected):
    assert dead(compile_kernel(kernel, level=level).plan) == expected


def test_a_store_before_any_read_is_dead_and_later_ops_do_not_matter():
    plan = entry_plan(copy_nest("W", "V"), copy_nest("U", "W"),
                      copy_nest("V", "U", (1, 0)))
    assert dead(plan) == {"U": WHOLE}


def test_a_zero_offset_read_after_the_nest_stores_it_is_dead():
    stmts = [NestStmt("U", OffsetRef("W", (0, 0))),
             NestStmt("W", OffsetRef("U", (0, 0)))]
    plan = entry_plan(LoopNestOp(stmts, box(), nest("U", Const(1.0)).stats))
    assert dead(plan) == {"U": WHOLE}


def test_a_static_section_is_the_dead_box():
    one, top = LinExpr.of(2), LinExpr.of("N") - 1
    op = LoopNestOp([NestStmt("U", OffsetRef("V", (0, 0)))],
                    ((one, top), (LinExpr.of(1), LinExpr.of("N"))),
                    nest("U", Const(1.0)).stats)
    assert dead(entry_plan(op)) == {"U": ((1, 7), (0, 8))}


def masked(lhs):
    stmt = NestStmt(lhs, Const(1.0),
                    mask=Compare(">", OffsetRef("W", (0, 0)), Const(0.0)))
    return LoopNestOp([stmt], box(), nest(lhs, Const(1.0)).stats)


def read_after_store(offsets):
    stmts = [NestStmt("U", Const(1.0)),
             NestStmt("W", OffsetRef("U", offsets))]
    return LoopNestOp(stmts, box(), nest("U", Const(1.0)).stats)


def assigned_bound():
    m = LinExpr.of("M")
    return LoopNestOp([NestStmt("U", Const(1.0))],
                      ((m, LinExpr.of("N")), (m, LinExpr.of("N"))),
                      nest("U", Const(1.0)).stats)


SUM_U = Reduction("SUM", OffsetRef("U", (0, 0)))

#: every conservative stop: U's first toucher is not a plain store of it
LIVE = {
    "read in the nest": [nest("U", OffsetRef("U", (0, 0)))],
    "read before the store": [LoopNestOp(
        [NestStmt("W", OffsetRef("U", (0, 0))), NestStmt("U", Const(1.0))],
        box(), nest("U", Const(1.0)).stats)],
    "offset read after the store": [read_after_store((1, 0))],
    "masked store": [masked("U")],
    "SUM operand": [ScalarAssignOp("S", SUM_U), nest("U", Const(1.0))],
    "overlap shift": [OverlapShiftOp("U", 1, 1), nest("U", Const(1.0))],
    "full shift": [FullShiftOp("U", "V", 1, 1)],
    "swap": [SwapOp("U", "W"), nest("U", Const(1.0))],
    "DO": [SeqLoopOp("K", LinExpr.of(1), LinExpr.of(2),
                     [nest("U", Const(1.0))])],
    "zero-trip DO": [SeqLoopOp("K", LinExpr.of(1), LinExpr.of(0),
                               [nest("U", Const(1.0))]),
                     nest("U", Const(2.0))],
    "DO WHILE": [WhileOp(scalar_true(), [nest("U", Const(1.0))])],
    "IF": [CondOp(scalar_true(), [nest("U", Const(1.0))], [])],
    "IF condition": [CondOp(Compare(">", SUM_U, Const(0.0)), [], []),
                     nest("U", Const(1.0))],
    "overlapped region": [OverlappedOp([OverlapShiftOp("W", 1, 1)],
                                       nest("U", OffsetRef("W", (1, 0))))],
    "bound assigned before the nest": [
        ScalarAssignOp("M", Const(2.0)), assigned_bound()],
    "bound of a scalar": [assigned_bound()],
}


@pytest.mark.parametrize("ops", LIVE.values(), ids=LIVE.keys())
def test_every_other_first_use_keeps_the_array_whole(ops):
    plan = entry_plan(*ops, scalars=("S", "K", "M"))
    assert "U" not in dead(plan)


def test_an_unrelated_nest_first_keeps_looking():
    plan = entry_plan(nest("W", Const(1.0)), masked("V"),
                      nest("U", OffsetRef("W", (0, 0))))
    assert dead(plan) == {"U": WHOLE}


def test_computed_once_per_plan():
    plan = compile_kernel("nine_point").plan
    assert dead(plan) is dead(plan)


# -- runs ---------------------------------------------------------------------

def seeded(compiled):
    """Entry arrays drawn as ``RunJob.inputs`` draws them."""
    rng = np.random.default_rng(5)
    return {name: rng.standard_normal(decl.shape).astype(decl.dtype)
            for name, decl in compiled.plan.arrays.items()
            if name in compiled.plan.entry_arrays}


def run(compiled, inputs, grid, backend, iterations=1, scalars=None):
    return compiled.run(Machine(grid=grid, keep_message_log=False),
                        inputs=inputs, scalars=scalars,
                        iterations=iterations, backend=backend)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_poisoned_dead_cells_change_no_bit(kernel):
    """Every registry kernel at O0-O5 on both storages, grids 2x2 and 4x4
    (N=18: ragged 5,5,5,3 blocks), one and two iterations."""
    bindings = {"N": 18}
    for level in LEVELS:
        compiled = compile_kernel(kernel, bindings=bindings, level=level)
        inputs = seeded(compiled)
        bad = poisoned(compiled.plan, inputs)
        scalars = KERNELS[kernel].default_scalars
        for grid in ((2, 2), (4, 4)):
            for iterations in (1, 2):
                clean = run(compiled, inputs, grid, "perpe", iterations,
                            scalars)
                for backend in ("perpe", "vectorized"):
                    got = run(compiled, bad, grid, backend, iterations,
                              scalars)
                    with copying_dead_cells():
                        copied = run(compiled, bad, grid, backend,
                                     iterations, scalars)
                    where = f"{kernel} {level} {grid} x{iterations} {backend}"
                    assert_bitwise(clean, got, where)
                    assert_bitwise(clean, copied, where + ", copied")


def test_copying_dead_cells_puts_the_poison_in_the_arena():
    """The sweep's copied runs really hold NaNs where the analysis says
    no op reads, so a wrong analysis would show."""
    compiled = compile_kernel("nine_point", bindings={"N": 18})
    bad = poisoned(compiled.plan, seeded(compiled))
    assert np.isnan(bad["DST"][1:-1, 1:-1]).all()
    assert not np.isnan(bad["DST"][0]).any()
    seen = []
    real = DArray.create

    def create(*args, **kwargs):
        da = real(*args, **kwargs)
        if args[1] == "DST":
            seen.append(np.isnan(da.data).any())
        return da

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DArray, "create", staticmethod(create))
        with copying_dead_cells():
            run(compiled, bad, (2, 2), "vectorized")
    assert seen == [True]


HEAD = """      REAL, DIMENSION(N,N) :: A, B, C
!HPF$ DISTRIBUTE A(BLOCK,BLOCK)
!HPF$ ALIGN B WITH A
!HPF$ ALIGN C WITH A
"""

#: hand-written programs, one per conservative stop an HPF source can
#: reach (a section bound must be static), each checked by
#: ``differential_check(poison=True)``
PROGRAMS = {
    "zero-trip DO": "      DO K = 1, 0\n        A = B + 1.0\n      END DO\n"
                    "      C = A\n",
    "static section": "      A(2:N-1,:) = B(2:N-1,:) + 1.0\n",
    "WHERE": "      WHERE (B > 0.5) A = B\n",
    "read first": "      A = A + B\n",
    "SUM first": "      S = SUM(A)\n      A = B * S\n",
    "IF first": "      IF (SUM(B) > 0.0) THEN\n        A = B\n      END IF\n"
                "      C = A\n",
    "full shift": "      A = CSHIFT(B, 1, 1)\n      C = CSHIFT(A, -1, 2)\n",
    "offset read after the store": "      A = B\n"
                                   "      C = A + CSHIFT(A, 1, 1)\n",
}


@pytest.mark.parametrize("body", PROGRAMS.values(), ids=PROGRAMS.keys())
def test_hand_written_programs_poisoned(body):
    prog = GeneratedProgram(source=HEAD + body, bindings={"N": 8},
                            arrays=["A", "B", "C"], scalars={})
    rng = np.random.default_rng(3)
    inputs = {n: rng.uniform(0.1, 1.0, (8, 8)) for n in "ABC"}
    differential_check(prog, inputs, grids=((2, 2), (4, 2)), poison=True)


def test_a_scalar_shadowing_a_size_parameter_keeps_every_cell():
    """At N=6 the nest stores rows 2..6 only: rows 7 and 8 keep their
    input, which the static dead box (rows 2..8) would have skipped."""
    compiled = compile_hpf(HEAD + "      A(2:N,:) = B(2:N,:) + 1.0\n",
                           bindings={"N": 8}, outputs={"A"})
    assert dead(compiled.plan) == {"A": ((1, 8), (0, 8))}
    inputs = {n: np.full((8, 8), 7.0, np.float32) for n in "ABC"}
    bad = poisoned(compiled.plan, inputs)
    for backend in ("perpe", "vectorized"):
        got = run(compiled, bad, (2, 2), backend, scalars={"N": 6})
        a = got.arrays["A"]
        assert (a[1:6] == 8.0).all() and (a[0] == 7.0).all()
        assert np.isnan(a[6:]).all()    # copied in, never overwritten
