"""A schedule applied in one call per op.

(a) A ``perpe`` nest with a native kernel is one foreign call over the
schedule's region table (:meth:`repro.runtime.native.Kernel.table`):
its results equal the ufunc tape's, under uneven blocks and across a
``SwapOp`` (a table keeps offsets, and each run adds the addresses of
the buffers the names are bound to then); a table with one ineligible
region runs every region on the tape, counted once per run.

(b) A reduction's partials (:func:`repro.runtime.executor._partials`):
one ``ufunc.reduce`` per block shape on a ``(blocks, points)`` stack
equals each block's own reduce over a C-contiguous copy, so the result
does not depend on how a placement lays a block out — which is what
makes a plain-reference ``SUM`` bitwise across backends.

(c) A reduction operand with a native kernel is one foreign call over
every PE's owned block on every backend — a SUM's returns each block's
partial, summed in C in NumPy's pairwise order, a MAXVAL's or MINVAL's
writes that stack; partials and folded scalar equal the ufunc tape's
by ``float.hex``, and a strong scalar sends it to the tape, counted.
The pairwise order is pinned for every block size up to 5,000, and the
rank-order fold of Python floats is ``np.add``'s.
"""

from __future__ import annotations

import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_hpf
from repro.ir.nodes import OffsetRef, ScalarRef
from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.obs import MetricsRegistry, use_registry
from repro.plan import LoopNestOp
from repro.runtime import executor, native
from repro.runtime.darray import DArray
from repro.runtime.executor import _partials, _stack_layout
from repro.runtime.nest_tape import NestTape, plan_tapes, prepare
from repro.runtime.vectorized import VectorizedExec
from repro.testing import GeneratedProgram, backend_equivalence_check

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no cc on the path")


def native_run(name, bindings, grid, monkeypatch, kernels=True):
    """One per-op ``perpe`` run (the plan's driver taken away) of a fresh
    compile whose nests run natively — without ``kernels``, on the ufunc
    tape for good; ``(result, counted fallbacks, nreg of every foreign
    call)``."""
    monkeypatch.setattr(native, "_BROKEN", set())
    compiled = compile_kernel(name, bindings=bindings)
    plan = compiled.plan
    prepare(plan, kernels=kernels).driver = None
    found = [plan_tapes(plan).nest(op).kernel for op in plan.walk_ops()
             if isinstance(op, LoopNestOp)]
    assert any(found) == kernels, "no nest of the plan runs natively"
    calls = []
    for kernel in filter(None, found):
        monkeypatch.setattr(kernel, "fn", lambda n, *args, real=kernel.fn:
                            (calls.append(n), real(n, *args))[1])
    rng = np.random.default_rng(7)
    inputs = {a: rng.standard_normal(d.shape).astype(d.dtype)
              for a, d in plan.arrays.items() if a in plan.entry_arrays}
    registry = MetricsRegistry()
    with use_registry(registry):
        result = compiled.run(Machine(grid=grid), inputs=inputs,
                              scalars=dict(KERNELS[name].default_scalars))
    metric = registry.get("repro_native_kernels_total")
    fallbacks = {} if metric is None else {
        dict(labels).get("reason"): value
        for labels, value in metric.samples()}
    monkeypatch.undo()
    return result, fallbacks, calls


def observed(result):
    return ({k: v.tobytes() for k, v in result.arrays.items()},
            result.scalars, result.report, result.report.rows.tobytes(),
            result.peak_memory_per_pe)


@needs_cc
@pytest.mark.parametrize("name, bindings", [
    ("nine_point", {"N": 259}),                 # 87/87/85 by 130/129 rows
    ("jacobi", {"N": 259, "NITER": 3}),         # U and UNEW swap each trip
])
def test_one_call_per_nest_equals_the_tape(name, bindings, monkeypatch):
    grid = (3, 2)
    table, counted, calls = native_run(name, bindings, grid, monkeypatch)
    tape, counted_too, none = native_run(name, bindings, grid, monkeypatch,
                                         kernels=False)
    assert counted == counted_too == {}
    assert observed(table) == observed(tape)
    assert calls and set(calls) == {6}
    assert none == []


def beyond(row):
    """The row with its addresses past any buffer of the run."""
    return [a + (1 << 40) for a in row[0]], *row[1:]


@needs_cc
@pytest.mark.parametrize("refuse", [
    lambda row: "stride",
    # a box outside the array's buffer: no table may hold an offset to it
    beyond,
], ids=["strided", "foreign-buffer"])
def test_a_table_with_one_ineligible_region_falls_back_whole(
        refuse, monkeypatch):
    """``Kernel._row`` refuses PE 3's region of the output, or places it
    outside the buffer: the table is refused, every region of the nest
    runs on the tape, and the refusal counts once per run."""
    real_create, real_row = DArray.create, native.Kernel._row
    cell = []       # PE 3's cell of the output's arena: (address, bytes)

    def create(machine, name, *args, **kwargs):
        da = real_create(machine, name, *args, **kwargs)
        if name == "DST":
            pe3 = da.data[da.layout.grid.coords(3)]
            cell[:] = [pe3.ctypes.data, pe3.nbytes]
        return da

    def row(self, views):
        found = real_row(self, views)
        start, size = cell
        if any(start <= v.ctypes.data < start + size for v in views):
            return refuse(found)
        return found

    bindings = {"N": 258}
    expected, _, _ = native_run("nine_point", bindings, (2, 2), monkeypatch)
    monkeypatch.setattr(DArray, "create", staticmethod(create))
    monkeypatch.setattr(native.Kernel, "_row", row)
    result, counted, made = native_run("nine_point", bindings, (2, 2),
                                       monkeypatch)
    assert observed(result) == observed(expected)
    assert (counted, made) == ({"stride": 1.0}, [])


UFUNCS = [np.add, np.maximum, np.minimum]


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.sampled_from(
           [(7, 9), (3, 13), (64, 64), (67, 100), (91, 101), (1, 8193),
            (2, 8191), (130, 129), (97,), (9000,)]), min_size=1, max_size=6),
       dtype=st.sampled_from([np.float32, np.float64]),
       ufunc=st.sampled_from(UFUNCS), seed=st.integers(0, 2**16),
       strided=st.booleans())
def test_stacked_partials_equal_each_blocks_own_reduce(shapes, dtype, ufunc,
                                                       seed, strided):
    """Row lengths that are not a multiple of 8, blocks above 8,192
    points, several shapes in one call, blocks given as strided views."""
    rng = np.random.default_rng(seed)
    blocks = []
    for shape in shapes:
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -4, 6, shape)
        block = values.astype(dtype)
        if strided:     # the same values inside a padded buffer
            padded = np.zeros(tuple(n + 2 for n in shape), dtype)
            padded[tuple(slice(1, n + 1) for n in shape)] = block
            block = padded[tuple(slice(1, n + 1) for n in shape)]
        blocks.append(block)
    want = [float(ufunc.reduce(np.ascontiguousarray(b).ravel()))
            for b in blocks]
    size, slots, spans = _stack_layout([b.shape for b in blocks])
    stack = np.empty(size, dtype)
    for block, (at, shape) in zip(blocks, slots):
        stack[at:at + block.size].reshape(shape)[...] = block
    assert [v.hex() for v in _partials(stack, spans, ufunc)] == \
        [v.hex() for v in want]


PLAIN = """\
      REAL, DIMENSION(N,N) :: A, B
!HPF$ DISTRIBUTE A(BLOCK,BLOCK)
!HPF$ ALIGN B WITH A
      S = SUM(A)
      T = MAXVAL(A)
      B = {rhs}
"""


@pytest.mark.parametrize("rhs", [
    "A + S * 0.0",                                       # no overlap area
    "CSHIFT(A,SHIFT=1,DIM=1) + CSHIFT(A,SHIFT=-1,DIM=2)",  # A has one
], ids=["no-halo", "halo"])
def test_a_reduction_of_a_plain_reference_is_bitwise(rhs):
    """``SUM(A)`` reads ``A``'s blocks in place: contiguous per PE
    without an overlap area, strided in a slab.  Found by this case
    (float32, N=200, 2x2): ``perpe`` gave 9277.46875 where the slab
    backends gave 9277.48828125 — the sum's pairwise order followed the
    memory layout.  These inputs split the same way (22044.35693359375
    against 22044.357421875) at every level on 2x2."""
    program = GeneratedProgram(PLAIN.format(rhs=rhs), ["A", "B"],
                               bindings={"N": 200})
    rng = np.random.default_rng(0)
    inputs = {"A": rng.uniform(0.1, 1.0, (200, 200)).astype(np.float32),
              "B": np.zeros((200, 200), np.float32)}
    backend_equivalence_check(program, inputs, grids=((2, 2), (3, 2)))


OPERANDS = ["A", "R * R", "P - Q", "-A", "W * A"]
REDUCTIONS = """\
      {kind}, DIMENSION(N,N) :: A, P, Q, R
!HPF$ DISTRIBUTE A(BLOCK,BLOCK)
!HPF$ ALIGN P WITH A
!HPF$ ALIGN Q WITH A
!HPF$ ALIGN R WITH A
""" + "".join(f"      {op[:2]}{i} = {op}({arg})\n"
              for op in ("SUM", "MAXVAL", "MINVAL")
              for i, arg in enumerate(OPERANDS))
KINDS = {np.float32: "REAL", np.float64: "DOUBLE PRECISION"}
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


def reduce_run(dtype, grid, backend, kernels, monkeypatch, segments=False):
    """One run of a fresh compile of the 15 reductions (N=256: at the
    size constant), natively or on the tape alone: ``(every reduction's
    partials and the scalars by float.hex, counted kernel samples, nreg
    of each native reduction call, tape evaluations of an operand)``.
    Without ``segments`` the plan's driver is taken away, so every
    reduction runs per op."""
    compiled = compile_hpf(REDUCTIONS.format(kind=KINDS[dtype]),
                           bindings={"N": 256})
    rng = np.random.default_rng(11)
    inputs = {a: (rng.standard_normal((256, 256)) * 10.0 ** rng.integers(
        -3, 4, (256, 256))).astype(dtype) for a in "APQR"}
    for values in inputs.values():  # a few signed zeros, infinities, NaNs
        sown = rng.random(values.shape) < 2e-5
        values[sown] = rng.choice(SPECIAL, int(sown.sum()))
    partials, calls, evaluated = [], [], []
    real_partials, real_run_table = executor._Exec._block_partials, \
        native.Kernel.run_table
    monkeypatch.setattr(executor._Exec, "_block_partials",
                        lambda self, *args: (partials.append(
                            real_partials(self, *args)), partials[-1])[1])

    def run_table(self, table, arrays, values, *rows, out=None):
        calls.append(table[0])      # the program has no nest
        return real_run_table(self, table, arrays, values, *rows, out=out)

    monkeypatch.setattr(native.Kernel, "run_table", run_table)
    for cls in (executor._Exec, VectorizedExec):
        real_blocks = cls._blocks
        monkeypatch.setattr(cls, "_blocks", lambda self, *args, f=real_blocks:
                            (evaluated.append(1), f(self, *args))[1])
    registry = MetricsRegistry()
    with use_registry(registry):
        tapes = prepare(compiled.plan, kernels=kernels)
        if not segments:
            tapes.driver = None
        result = compiled.run(Machine(grid=grid), inputs=inputs,
                              scalars={"W": 0.75}, backend=backend,
                              workers=2)
    metric = registry.get("repro_native_kernels_total")
    counted = {} if metric is None else {
        (dict(labels)["status"], dict(labels).get("reason")): value
        for labels, value in metric.samples()}
    monkeypatch.undo()
    return ([[p.hex() for p in ps] for ps in partials],
            {k: v.hex() for k, v in result.scalars.items()}), \
        counted, calls, len(evaluated)


@needs_cc
@pytest.mark.parametrize("grid", [(3, 2), (4, 4), (16, 16)],
                         ids=["3x2-ragged", "4x4", "16x16"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
def test_native_reductions_equal_the_tape(dtype, grid, monkeypatch):
    """SUM, MAXVAL and MINVAL of a plain reference, ``R*R``, ``P-Q``,
    ``-A`` and a weak scalar times ``A``: on every backend each is one
    call over every PE's block, and its partials and result equal the
    ufunc tape's."""
    npes = grid[0] * grid[1]
    expected, counted, calls, evaluated = reduce_run(
        dtype, grid, "perpe", False, monkeypatch)
    assert len(expected[0]) == 15 and len(expected[0][0]) == npes
    for backend in ("perpe", "vectorized", "parallel"):
        tape, _, calls, evaluated = reduce_run(
            dtype, grid, backend, False, monkeypatch)
        assert tape == expected, backend
        assert (calls, evaluated) == ([], 15), backend
        got, counted, calls, evaluated = reduce_run(
            dtype, grid, backend, True, monkeypatch)
        assert got == expected, backend
        assert (calls, evaluated) == ([npes] * 15, 0), backend
        assert set(counted) <= {("built", None), ("loaded", None)}
        # the five SUMs as one native segment on either storage: same
        # scalars
        got, counted, calls, _ = reduce_run(
            dtype, grid, backend, True, monkeypatch, segments=True)
        assert got[1] == expected[1], backend
        assert (("segment", None) in counted, len(calls)) == (True, 10), \
            backend


@needs_cc
def test_a_strong_scalar_sends_a_reduction_to_the_tape_counted(monkeypatch):
    """``np.float64(W) * A`` on float32 arrays promotes: the kernel
    refuses the call, counted, and the tape computes the same value."""
    real = executor._Exec.scalar

    def strong(self, expr):
        value = real(self, expr)
        return np.float64(value) if expr == ScalarRef("W") else value

    results = []
    for kernels in (False, True):
        monkeypatch.setattr(executor._Exec, "scalar", strong)
        results.append(reduce_run(np.float32, (3, 2), "perpe", kernels,
                                  monkeypatch))
    (expected, *_), (got, counted, calls, evaluated) = results
    assert got == expected
    assert counted[("fallback", "strong-scalar")] == 3.0
    assert (calls, evaluated) == ([6] * 12, 3)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit for bit but for the sign and payload of a NaN (see
    ``test_native_kernels.assert_same_bits``)."""
    nan = np.isnan(got) & np.isnan(want)
    return np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()


@needs_cc
@settings(max_examples=12, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16),
       sown=st.sampled_from([0.0, 0.001, 0.05, "-0.0"]))
def test_native_sum_partials_are_numpys_pairwise_order(dtype, seed, sown):
    """A SUM operand's C partial of a block of every size 1...5000 (every
    8 and 128 boundary, splits above 128) equals
    ``np.add.reduce(rows, axis=1)``, signed zeros, infinities and NaNs
    sown in; a block of -0.0 sums to NumPy's +0.0."""
    tape = NestTape([(None, OffsetRef("A", (0,)), None)], 1)
    native.build([(tape, 1, True)], {"A": np.dtype(dtype)})
    kernel = tape.kernel
    assert kernel.sums
    rng = np.random.default_rng(seed)
    if sown == "-0.0":
        data = np.full(5000, -0.0, dtype)
    else:
        data = (rng.standard_normal(5000) * 10.0 ** rng.integers(
            -3, 4, 5000)).astype(dtype)
        special = rng.random(5000) < sown
        data[special] = rng.choice(SPECIAL, int(special.sum()))
    sizes = range(1, 5001)
    scratch, parts = np.empty(5000, dtype), np.empty(5000, dtype)
    arrays = [SimpleNamespace(arena=(a.ctypes.data, a.nbytes))
              for a in (data, scratch)]
    table = kernel.table([[data[:n], scratch[:n]] for n in sizes], arrays)
    kernel.run_table(table, arrays, kernel.arguments(table, []), out=parts)
    with np.errstate(all="ignore"):
        want = np.concatenate([np.add.reduce(data[None, :n], axis=1)
                               for n in sizes])
    assert same_bits(parts, want)


@given(parts=st.lists(st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])),
    min_size=1, max_size=20))
def test_a_python_float_fold_is_the_ufunc_fold(parts):
    """``total += part`` over a SUM's partials in rank order gives
    ``float(np.add(total, part))``'s bits: both are IEEE float64
    additions."""
    total, *rest = parts
    for part in rest:
        total += part
    folded, *rest = parts
    with np.errstate(all="ignore"):
        for part in rest:
            folded = float(np.add(folded, part))
    assert total.hex() == folded.hex()
