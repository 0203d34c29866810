"""The strip-mined ufunc tape against a recursive NumPy oracle.

The contract is bitwise: whatever the strip height, and whether a bound
program is being built (first strip, NumPy allocates) or replayed
(``out=`` into registers or the destination), a nest leaves exactly the
bytes the statement-at-a-time whole-box evaluation leaves.
"""

from __future__ import annotations

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.nodes import (
    BinOp, Compare, Const, Intrinsic, OffsetRef, ScalarRef, UnaryOp,
)
from repro.runtime import nest_tape
from repro.runtime.nest_tape import NestTape
from repro.runtime.reference import apply_intrinsic

#: array name -> dtype; every array carries one halo plane per side
DTYPES = {"A": np.float32, "B": np.float64, "C": np.float32,
          "D": np.float32, "E": np.float64}
SCALARS = {"S": 1.25, "T": -0.5}
HALO = 1
#: the registers of this module's tapes (an executor's ``_bound``); every
#: test starts with none
BOUND: dict = {}


@pytest.fixture(autouse=True)
def fresh_registers():
    BOUND.clear()


# -- oracle: what _Exec._eval / _exec_nest_box did ---------------------------
def view(arrays, name, box, offsets):
    return arrays[name][tuple(slice(HALO + lo + o, HALO + hi + 1 + o)
                              for (lo, hi), o in zip(box, offsets))]


def evaluate(e, arrays, box):
    if isinstance(e, Const):
        return e.value
    if isinstance(e, ScalarRef):
        return SCALARS[e.name]
    if isinstance(e, OffsetRef):
        return view(arrays, e.name, box, e.offsets)
    if isinstance(e, UnaryOp):
        return -evaluate(e.operand, arrays, box)
    if isinstance(e, Intrinsic):
        return apply_intrinsic(
            e.name, [evaluate(a, arrays, box) for a in e.args])
    lv, rv = evaluate(e.left, arrays, box), evaluate(e.right, arrays, box)
    return {"+": lambda: lv + rv, "-": lambda: lv - rv,
            "*": lambda: lv * rv, "/": lambda: lv / rv,
            "**": lambda: real(lv ** rv), "<": lambda: lv < rv,
            ">": lambda: lv > rv, "<=": lambda: lv <= rv,
            ">=": lambda: lv >= rv, "==": lambda: lv == rv,
            "/=": lambda: lv != rv}[e.op]()


def real(power):
    """Real ``**`` stays real: Python's ``float.__pow__`` answers a
    negative base to a fractional exponent with a complex; NumPy's real
    ``power`` — and every backend — answers NaN."""
    return float("nan") if isinstance(power, complex) else power


def oracle(statements, arrays, box):
    for lhs, rhs, mask in statements:
        value = evaluate(rhs, arrays, box)
        dst = view(arrays, lhs, box, (0,) * len(box))
        if mask is None:
            dst[...] = value
        else:
            dst[...] = np.where(
                np.asarray(evaluate(mask, arrays, box), dtype=bool),
                value, dst)


# -- harness -----------------------------------------------------------------
def make_arrays(shape, seed, dtypes=DTYPES):
    rng = np.random.default_rng(seed)
    padded = tuple(n + 2 * HALO for n in shape)
    return {name: rng.standard_normal(padded).astype(dtype)
            for name, dtype in dtypes.items()}


def run_tape(tape, arrays, box, rows, monkeypatch):
    """Run ``tape`` over ``box`` with strips ``rows`` high (``None``: the
    whole box)."""
    views = [view(arrays, name, box, offsets)
             for name, offsets in tape.refs]
    row_bytes = prod(views[0].shape[1:]) * max(v.itemsize for v in views)
    monkeypatch.setattr(nest_tape, "STRIP_BYTES",
                        1 << 40 if rows is None else rows * row_bytes)
    tape.run(views, [SCALARS[ref.name] for ref in tape.scalars], BOUND)


def outcome(run, arrays):
    """The bytes ``run`` leaves in a copy of ``arrays``, or the type of
    the exception it raises (a nest that fails half-way leaves a state
    nothing relies on)."""
    arrays = {k: v.copy() for k, v in arrays.items()}
    try:
        with np.errstate(all="ignore"):
            run(arrays)
    except (TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        # ValueError: NumPy refuses a negative integer power of an
        # integer (a comparison's) array
        return type(exc)
    return {k: v.tobytes() for k, v in arrays.items()}


def check(statements, shape, box, rows, monkeypatch, seed=0,
          dtypes=DTYPES, tape=None):
    arrays = make_arrays(shape, seed, dtypes)
    tape = tape or NestTape(statements, len(shape))
    expected = outcome(lambda a: oracle(statements, a, box), arrays)
    for height in (None, rows):
        BOUND.clear()     # the strip height is fixed when bound
        # twice: the second call replays the program the first one built
        # (on a one-strip box only a replay writes a destination direct)
        for call in ("build", "replay"):
            got = outcome(lambda a: run_tape(tape, a, box, height,
                                             monkeypatch), arrays)
            assert got == expected, f"strip rows {height}, {call}"
    return tape


def ref(name, *offsets):
    return OffsetRef(name, offsets)


def add(a, b):
    return BinOp("+", a, b)


# -- property ----------------------------------------------------------------
def expressions(rank, readable):
    leaves = st.one_of(
        st.builds(OffsetRef, st.sampled_from(readable),
                  st.tuples(*[st.integers(-1, 1)] * rank)),
        st.sampled_from([ScalarRef("S"), ScalarRef("T")]),
        st.builds(Const, st.one_of(
            st.sampled_from([2, 0.5, 1e39, -3.0]),
            st.sampled_from([2.0, 0.1]).map(np.float64))))

    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "**"]),
                      children, children),
            st.builds(UnaryOp, st.just("-"), children),
            st.builds(Compare, st.sampled_from(sorted(Compare._OPS)),
                      children, children),
            st.builds(Intrinsic, st.sampled_from(["SQRT", "EXP", "ABS"]),
                      st.tuples(children)),
            st.builds(Intrinsic, st.sampled_from(["MIN", "MAX"]),
                      st.lists(children, min_size=2, max_size=3)
                      .map(tuple)))

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def nests(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(rank))
    box = []
    for n in shape:
        lo = draw(st.integers(0, n - 1))
        box.append((lo, draw(st.integers(lo, n - 1))))
    # destinations are read at any offset too: some nests are not
    # strip-legal and must fall back to one strip
    exprs = expressions(rank, sorted(DTYPES))
    statements = draw(st.lists(
        st.tuples(st.sampled_from(["C", "D", "E"]), exprs,
                  st.none() | exprs),
        min_size=1, max_size=4))
    return shape, box, statements, draw(st.integers(1, 3)), \
        draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(nests())
def test_strips_registers_and_whole_box_agree_bitwise(nest):
    shape, box, statements, rows, seed = nest
    with pytest.MonkeyPatch.context() as monkeypatch:
        check(statements, shape, box, rows, monkeypatch, seed)


@settings(max_examples=60, deadline=None)
@given(nests())
def test_strip_legal_nests_agree_bitwise(nest):
    """The same property with destinations read only in place, so every
    example really is cut into strips."""
    shape, box, statements, rows, seed = nest
    zero = (0,) * len(shape)

    def in_place(e):
        if isinstance(e, OffsetRef) and e.name in "CDE":
            return OffsetRef(e.name, zero)
        if isinstance(e, (BinOp, Compare)):
            return type(e)(e.op, in_place(e.left), in_place(e.right))
        if isinstance(e, UnaryOp):
            return UnaryOp("-", in_place(e.operand))
        if isinstance(e, Intrinsic):
            return Intrinsic(e.name, tuple(map(in_place, e.args)))
        return e

    statements = [(lhs, in_place(rhs), mask and in_place(mask))
                  for lhs, rhs, mask in statements]
    with pytest.MonkeyPatch.context() as monkeypatch:
        tape = check(statements, shape, box, rows, monkeypatch, seed)
    assert tape.strip_ok


# -- directed ----------------------------------------------------------------
BOX7 = [(0, 6), (0, 4)]


@pytest.mark.parametrize("statements", [
    # flow: the second statement reads rows the first one wrote
    [("C", BinOp("*", ref("A", 0, 0), Const(2.0)), None),
     ("D", add(ref("C", -1, 0), ref("C", +1, 0)), None)],
    # anti: the second statement overwrites rows the first one reads
    [("D", add(ref("C", +1, 0), ref("C", -1, 0)), None),
     ("C", ref("A", 0, 0), None)],
    # one statement reading its own destination a row away
    [("C", add(ref("C", -1, 0), ref("A", 0, 0)), None)],
], ids=["flow", "anti", "self"])
def test_dim1_offset_read_of_an_assigned_array_runs_one_strip(
        statements, monkeypatch):
    tape = check(statements, (7, 5), BOX7, 1, monkeypatch)
    assert not tape.strip_ok
    assert {bound[1] for bound in BOUND.values()} == {7}
    # the rule is what keeps it right: cut into strips it differs
    arrays = make_arrays((7, 5), 0)
    tape.strip_ok = True
    BOUND.clear()
    assert outcome(lambda a: run_tape(tape, a, BOX7, 1, monkeypatch),
                   arrays) != \
        outcome(lambda a: oracle(statements, a, BOX7), arrays)


def test_dim2_offset_read_of_an_assigned_array_is_strip_legal(monkeypatch):
    statements = [("C", ref("A", 0, 0), None),
                  ("D", add(ref("C", 0, +1), ref("C", 0, -1)), None)]
    tape = check(statements, (7, 5), BOX7, 2, monkeypatch)
    assert tape.strip_ok
    assert tape.stale_read == ref("C", 0, +1)


def stored_flags(tape):
    return [stored for _, _, program in BOUND.values()
            for _, _, stored in program]


def test_shifted_read_of_the_destination_is_not_written_in_place(
        monkeypatch):
    statements = [("C", add(ref("C", +1, 0), ref("A", 0, 0)), None)]
    tape = check(statements, (7, 5), BOX7, 3, monkeypatch)
    assert not tape.stmts[0].direct
    assert stored_flags(tape) == [False]
    statements = [("C", add(ref("C", 0, +1), ref("A", 0, 0)), None)]
    tape = check(statements, (7, 5), BOX7, 3, monkeypatch)
    assert not tape.stmts[0].direct


def test_last_instruction_writes_the_destination_when_dtypes_match(
        monkeypatch):
    in_place = [("C", add(ref("C", 0, 0), ref("A", 0, +1)), None)]
    tape = check(in_place, (7, 5), BOX7, 3, monkeypatch)
    assert stored_flags(tape) == [True]
    # float32 + float64 is float64: it goes through a register and the
    # store casts, as the whole-array assignment did
    widened = [("C", add(ref("A", 0, 0), ref("B", 0, 0)), None)]
    tape = check(widened, (7, 5), BOX7, 3, monkeypatch)
    assert stored_flags(tape) == [False]
    masked = [("C", add(ref("A", 0, 0), ref("D", 0, 0)),
               Compare(">", ref("A", 0, 0), Const(0.0)))]
    tape = check(masked, (7, 5), BOX7, 3, monkeypatch)
    assert stored_flags(tape) == [False]


def test_negation_never_writes_a_strided_destination(monkeypatch):
    """NumPy 2.4.6: ``np.negative(a[::4], out=c[::4])`` on float32 reads
    the input as contiguous.  A one-wide box in a padded row of four is
    that pair of strides; the value goes through a register."""
    statements = [("C", UnaryOp("-", ref("A", 0, 0, 0)), None)]
    tape = check(statements, (1, 2, 2), [(0, 0), (0, 1), (1, 1)], 1,
                 monkeypatch)
    assert stored_flags(tape) == [False]


def test_last_short_strip(monkeypatch):
    statements = [("D", add(BinOp("*", ScalarRef("S"), ref("A", -1, 0)),
                            BinOp("*", ScalarRef("T"), ref("A", +1, 0))),
                   None)]
    tape = check(statements, (7, 5), BOX7, 3, monkeypatch)   # 3 + 3 + 1
    assert {bound[1] for bound in BOUND.values()} == {3}
    check(statements, (7, 5), BOX7, 6, monkeypatch)          # 6 + 1
    check(statements, (7, 5), BOX7, 7, monkeypatch)          # exactly one


@pytest.mark.parametrize("shape, box", [
    ((9,), [(1, 7)]),
    ((5, 4, 3), [(0, 4), (1, 3), (0, 2)]),
], ids=["1d", "3d"])
def test_other_ranks(shape, box, monkeypatch):
    rank = len(shape)
    lo, hi = (-1,) + (0,) * (rank - 1), (0,) * (rank - 1) + (1,)
    statements = [
        ("D", add(OffsetRef("A", lo), BinOp("/", OffsetRef("B", hi),
                                            Const(3))), None),
        ("E", Intrinsic("MAX", (OffsetRef("D", (0,) * rank),
                                ScalarRef("T"))),
         Compare("<", OffsetRef("A", hi), OffsetRef("B", lo)))]
    tape = check(statements, shape, box, 2, monkeypatch)
    assert tape.strip_ok


def test_empty_box(monkeypatch):
    statements = [("C", add(ref("A", 0, 0), ref("B", 0, 0)), None)]
    tape = NestTape(statements, 2)
    arrays = make_arrays((4, 4), 0)
    before = {k: v.tobytes() for k, v in arrays.items()}
    for empty in ([(2, 1), (0, 3)], [(0, 3), (2, 1)]):
        run_tape(tape, arrays, empty, 1, monkeypatch)
    assert {k: v.tobytes() for k, v in arrays.items()} == before


def test_nine_point_needs_two_registers(monkeypatch):
    terms = [BinOp("*", ScalarRef("S"), ref("A", di, dj))
             for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    rhs = terms[0]
    for term in terms[1:]:
        rhs = add(rhs, term)
    tape = check([("C", rhs, None)], (7, 5), BOX7, 2, monkeypatch)
    for _, _, program in BOUND.values():
        registers = {id(out) for code, _, _ in program
                     for _, _, _, out in code
                     if isinstance(out, np.ndarray)}
        assert len(registers) == 2


def test_registers_follow_the_operand_dtypes(monkeypatch):
    """A bound program is reused only for the dtypes it was built on: the
    same nest over float64 storage must not round through the float32
    registers of an earlier call."""
    statements = [("C", add(BinOp("*", ref("A", 0, 0), ref("A", 0, +1)),
                            ref("D", 0, 0)), None)]
    tape = check(statements, (7, 5), BOX7, 2, monkeypatch)
    check(statements, (7, 5), BOX7, 2, monkeypatch, tape=tape,
          dtypes=dict.fromkeys(DTYPES, np.float64))
    check(statements, (7, 5), BOX7, 2, monkeypatch, tape=tape)


def test_value_only_tape_is_one_whole_box_strip(monkeypatch):
    """A reduction operand: no destination, the value of the whole box
    in one piece whatever the budget."""
    arg = BinOp("*", ref("A", 0, 0), ref("B", 0, 0))
    tape = NestTape([(None, arg, None)], 2)
    assert not tape.strip_ok
    arrays = make_arrays((7, 5), 3)
    monkeypatch.setattr(nest_tape, "STRIP_BYTES", 1)
    views = [view(arrays, name, BOX7, offsets)
             for name, offsets in tape.refs]
    for _ in range(2):
        value = tape.run(views, [], BOUND)[tape.result]
        assert value.tobytes() == evaluate(arg, arrays, BOX7).tobytes()


def test_value_based_promotion_rebinds_on_a_new_scalar(monkeypatch):
    """Under NumPy 1.x a scalar's *value* can change a result dtype, so a
    bound program is replayed only for identical scalars there; under
    NumPy 2 the scalar's type decides and the program is kept."""
    tape = NestTape([("C", BinOp("*", ScalarRef("S"), ref("A", 0, 0)),
                      None)], 2)
    arrays = make_arrays((7, 5), 0)
    views = [view(arrays, name, BOX7, offsets)
             for name, offsets in tape.refs]

    def program_after(scalar):
        tape.run(views, [scalar], BOUND)
        (_, _, program), = BOUND.values()
        return program

    monkeypatch.setattr(nest_tape, "_VALUE_BASED_PROMOTION", False)
    assert program_after(2.0) is program_after(3.0)
    assert program_after(3.0) is not program_after(np.float64(3.0))
    monkeypatch.setattr(nest_tape, "_VALUE_BASED_PROMOTION", True)
    first = program_after(2.0)
    assert program_after(2.0) is first
    assert program_after(3.0) is not first


def test_negative_scalar_base_to_a_fractional_power_is_nan(monkeypatch):
    """``A + S**T`` with ``S=-2.0, T=0.5``: the scalar-only subtree used
    to go through Python's ``float.__pow__``, which answers with a
    complex — stored with a ``ComplexWarning`` and a wrong real part."""
    monkeypatch.setitem(SCALARS, "S", -2.0)
    monkeypatch.setitem(SCALARS, "T", 0.5)
    statements = [("C", add(ref("A", 0, 0),
                            BinOp("**", ScalarRef("S"), ScalarRef("T"))),
                   None)]
    arrays = make_arrays((7, 5), 0)
    tape = check(statements, (7, 5), BOX7, 2, monkeypatch)
    run_tape(tape, arrays, BOX7, 2, monkeypatch)
    assert np.isnan(view(arrays, "C", BOX7, (0, 0))).all()
