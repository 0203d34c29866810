"""Halo-coverage verification: one model, two walkers.

The statement-IR walker (:mod:`repro.analysis.verify_offsets`) must
accept every pipeline output (implicitly covered by the whole suite,
since the compiler runs it on every compile) and reject hand-broken
programs.  Every program here is also lowered and handed to the plan
walker (:mod:`repro.plan.verify`): the two must report the same
findings — same array, same offset, same reason — on every input,
including a Hypothesis generator of mutilated registry kernels and
random programs.
"""

from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.analysis.verify_offsets import verify_offset_coverage
from repro.compiler import CompilerOptions, HpfCompiler
from repro.compiler.codegen import CodeGenerator
from repro.frontend import parse_program
from repro.ir.nodes import (
    ArrayAssign, ArrayRef, BinOp, DoLoop, DoWhile, If, OffsetRef,
    OverlapShift,
)
from repro.passes.comm_union import CommUnionPass
from repro.passes.context_partition import ContextPartitionPass
from repro.passes.normalize import NormalizePass
from repro.passes.offset_arrays import OffsetArrayPass
from repro.passes.pass_manager import PassManager
from repro.plan import verify_plan
from repro.testing import GeneratorConfig, random_program


def verdicts(p, options=CompilerOptions()):
    """The statement-IR findings on ``p``, after checking that the plan
    walker reports exactly the same ones on ``p``'s lowering."""
    problems = verify_offset_coverage(p)
    plan = CodeGenerator(p, options).generate()
    lowered = {x.reason for x in verify_plan(plan) if x.check == "coverage"}
    assert {f"{x.ref}: {x.reason}" for x in problems} == lowered
    return problems


def optimized_p9():
    p = parse_program(kernels.PURDUE_PROBLEM9, bindings={"N": 16})
    NormalizePass().run(p)
    OffsetArrayPass(outputs={"T"}).run(p)
    ContextPartitionPass().run(p)
    CommUnionPass().run(p)
    return p


def shifts_of(p):
    return [s for s in p.body if isinstance(s, OverlapShift)]


class TestAcceptsSoundPrograms:
    def test_problem9_pipeline(self):
        assert verdicts(optimized_p9()) == []

    def test_pre_union_form(self):
        p = parse_program(kernels.PURDUE_PROBLEM9, bindings={"N": 16})
        NormalizePass().run(p)
        OffsetArrayPass(outputs={"T"}).run(p)
        assert verdicts(p) == []

    def test_zero_offsets_need_nothing(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B + 1")
        p.body[0].rhs = OffsetRef("B", (0, 0))
        assert verdicts(p) == []


class TestCatchesBrokenPrograms:
    def test_missing_shift(self):
        p = optimized_p9()
        # delete one direction's shift: its offsets lose coverage
        victim = next(s for s in shifts_of(p)
                      if s.dim == 1 and s.shift == 1)
        p.body.remove(victim)
        problems = verdicts(p)
        assert problems
        assert any("no prior overlap_shift fills" in str(x) for x in problems)

    def test_insufficient_depth(self):
        p = optimized_p9()
        use = next(s for s in p.body if isinstance(s, ArrayAssign))
        # deepen a reference beyond the 1-cell fills
        deep = OffsetRef("U", (2, 0))
        use.rhs = BinOp("+", use.rhs, deep)
        problems = verdicts(p)
        assert any("overlap depth" in str(x) for x in problems)

    def test_corner_without_rsd(self):
        p = optimized_p9()
        for s in shifts_of(p):
            s.rsd = None  # strip the corner pickup
        problems = verdicts(p)
        assert any("corner cells" in str(x) for x in problems)

    def test_redefinition_invalidates(self):
        p = optimized_p9()
        # redefine U between the shifts and the uses
        first_use = next(i for i, s in enumerate(p.body)
                         if isinstance(s, ArrayAssign))
        from repro.ir.nodes import Const
        p.body.insert(first_use, ArrayAssign(ArrayRef("U"), Const(0.0)))
        problems = verdicts(p)
        assert problems

    def test_fill_kind_mismatch(self):
        p = optimized_p9()
        for s in shifts_of(p):
            s.boundary = 0.0  # pretend the fills were EOSHIFT
        problems = verdicts(p)
        assert any("fill kind mismatch" in str(x) for x in problems)

    def test_use_in_mask_checked(self):
        p = parse_program("REAL A(8,8), B(8,8)\nA = B + 1")
        stmt = p.body[0]
        stmt.mask = Compare_safe()
        problems = verdicts(p)
        assert problems


def Compare_safe():
    from repro.ir.nodes import Compare, Const
    return Compare(">", OffsetRef("B", (1, 0)), Const(0.0))


class TestOrderIndependentCorners:
    """Corner pickup is credited in any shift order that actually
    carries the data — and only when the carried region was resident."""

    DESC = """
    REAL T(16,16), U(16,16)
    T = CSHIFT(CSHIFT(U,SHIFT=1,DIM=2),SHIFT=1,DIM=1)
    """

    def desc_program(self):
        p = parse_program(self.DESC)
        NormalizePass().run(p)
        OffsetArrayPass(outputs={"T"}).run(p)
        return p

    def test_descending_chain_accepted(self):
        # dim-2 shift first, then a dim-1 shift whose base offsets carry
        # the dim-2 component: sound, but rejected by the old
        # ascending-only corner rule
        p = self.desc_program()
        shifts = shifts_of(p)
        assert [s.dim for s in shifts] == [2, 1]
        assert verdicts(p) == []

    def test_stale_pickup_rejected(self):
        # re-ordered so the carrying shift runs *before* the region it
        # claims to pick up is filled: the carried corner bytes would be
        # stale, and residency clamping must reject it
        p = self.desc_program()
        shifts = shifts_of(p)
        i, j = (p.body.index(shifts[0]), p.body.index(shifts[1]))
        p.body[i], p.body[j] = p.body[j], p.body[i]
        problems = verdicts(p)
        assert any("corner cells" in str(x) for x in problems)


class TestControlFlowConservatism:
    def test_branch_local_fill_not_available_after_join(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        IF (X < 1) THEN
          B = CSHIFT(A,SHIFT=1,DIM=1)
        ENDIF
        C = B + 0
        """
        p = parse_program(src)
        NormalizePass().run(p)
        OffsetArrayPass(outputs={"C"}).run(p)
        # the pass itself must have produced a coverage-sound program
        assert verdicts(p) == []

    def _after_loop(self, lo, hi):
        """``DO K = lo, hi: OVERLAP_SHIFT(A, +1, 1)`` then ``B = A<1,0>``."""
        from repro.ir.linexpr import LinExpr
        p = parse_program("REAL A(16,16), B(16,16)\nB = A + 1")
        read = p.body[0]
        read.rhs = OffsetRef("A", (1, 0))
        p.body = [DoLoop("K", LinExpr.of(lo), LinExpr.of(hi),
                         [OverlapShift("A", 1, 1)]), read]
        return p

    def test_shift_of_a_zero_trip_loop_not_available_after_it(self):
        problems = verdicts(self._after_loop(1, 0))
        assert [x.reason for x in problems] == [
            "no prior overlap_shift fills dim 1 direction +"]
        # bounds over run-time values may give zero trips as well
        assert verdicts(self._after_loop(1, "M"))
        assert verdicts(self._after_loop(1, 2)) == []

    def test_loop_killed_base(self):
        src = """
        REAL A(16,16), B(16,16), C(16,16)
        B = CSHIFT(A,SHIFT=1,DIM=1)
        DO K = 1, 3
          C = C + B
          A = A + 1
        ENDDO
        """
        p = parse_program(src)
        NormalizePass().run(p)
        OffsetArrayPass(outputs={"C"}).run(p)
        assert verdicts(p) == []


# ---------------------------------------------------------------------------
# differential: mutilated compiler output, both walkers
# ---------------------------------------------------------------------------

MUTATIONS = ("drop", "shorten", "strip-rsd", "swap", "flip-fill")


def _bodies(body):
    yield body
    for s in body:
        if isinstance(s, If):
            yield from _bodies(s.then_body)
            yield from _bodies(s.else_body)
        elif isinstance(s, (DoLoop, DoWhile)):
            yield from _bodies(s.body)


def _sites(program, kind):
    """``(body, index)`` of every shift ``kind`` can mutilate."""
    sites = [(body, i) for body in _bodies(program.body)
             for i, s in enumerate(body) if isinstance(s, OverlapShift)]
    if kind == "shorten":
        return [(b, i) for b, i in sites if abs(b[i].shift) > 1]
    if kind == "strip-rsd":
        return [(b, i) for b, i in sites if b[i].rsd is not None]
    if kind == "swap":
        return [(b, i) for b, i in sites
                if i + 1 < len(b) and isinstance(b[i + 1], OverlapShift)]
    return sites


def _mutilate(body, i, kind):
    shift = body[i]
    if kind == "drop":
        del body[i]
    elif kind == "shorten":
        shift.shift -= 1 if shift.shift > 0 else -1
    elif kind == "strip-rsd":
        shift.rsd = None
    elif kind == "swap":
        body[i], body[i + 1] = body[i + 1], body[i]
    else:
        shift.boundary = 0.5 if shift.boundary is None else None


@st.composite
def compiled_programs(draw):
    """A registry kernel or a 2-D/3-D random program after the AST
    passes of a level that emits overlap shifts."""
    if draw(st.booleans()):
        spec = kernels.KERNELS[draw(st.sampled_from(sorted(kernels.KERNELS)))]
        source, outputs = spec.source, set(spec.outputs)
        bindings = {**spec.default_bindings, "N": 16}
    else:
        cfg = GeneratorConfig(n=8, ndim=draw(st.sampled_from((2, 3))))
        generated = random_program(draw(st.integers(0, 2**16)), cfg)
        source, outputs = generated.source, set(generated.arrays)
        bindings = generated.bindings
    options = CompilerOptions.make(
        draw(st.sampled_from(("O1", "O2", "O3", "O5"))), outputs)
    program = parse_program(source, bindings=bindings)
    PassManager(HpfCompiler(options).build_passes()).run(program)
    return program, options


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_walkers_agree_on_mutilated_programs(data):
    program, options = data.draw(compiled_programs())
    kind = data.draw(st.sampled_from(MUTATIONS))
    sites = _sites(program, kind)
    if sites:
        _mutilate(*data.draw(st.sampled_from(sites)), kind)
    verdicts(program, options)
