"""A schedule applied in one call per op.

(a) A ``perpe`` nest with a native kernel is one foreign call over the
schedule's region table (:meth:`repro.runtime.native.Kernel.table`):
its results equal one call per region, under uneven blocks and across a
``SwapOp`` (a table keeps offsets, and each run adds the addresses of
the buffers the names are bound to then); a table with one ineligible
region sends the whole nest down the per-region path, counted.

(b) A reduction's partials (:func:`repro.runtime.executor._partials`):
one ``ufunc.reduce`` per block shape on a ``(blocks, points)`` stack
equals each block's own reduce over a C-contiguous copy, so the result
does not depend on how a placement lays a block out — which is what
makes a plain-reference ``SUM`` bitwise across backends.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KERNELS, compile_kernel
from repro.machine import Machine
from repro.obs import MetricsRegistry, use_registry
from repro.plan import LoopNestOp
from repro.runtime import native
from repro.runtime.darray import DArray
from repro.runtime.executor import _partials
from repro.runtime.nest_tape import plan_tapes, prepare
from repro.testing import GeneratedProgram, backend_equivalence_check

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no cc on the path")


def native_run(name, bindings, grid, monkeypatch, per_region=False):
    """One ``perpe`` run of a fresh compile whose nests run natively;
    ``(result, counted fallbacks, nreg of every foreign call)``.
    ``per_region``: every schedule's table is refused, so each region is
    its own call (the path a table falls back to)."""
    monkeypatch.setattr(native, "_BROKEN", set())
    compiled = compile_kernel(name, bindings=bindings)
    plan = compiled.plan
    prepare(plan)
    kernels = [plan_tapes(plan).nest(op).kernel for op in plan.walk_ops()
               if isinstance(op, LoopNestOp)]
    assert any(kernels), "no nest of the plan runs natively"
    calls = []
    for kernel in filter(None, kernels):
        monkeypatch.setattr(kernel, "fn", lambda n, *args, real=kernel.fn:
                            (calls.append(n), real(n, *args))[1])
    if per_region:
        monkeypatch.setattr(native.Kernel, "table",
                            lambda self, boxes, arrays: "refused")
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
def test_one_call_per_nest_equals_one_call_per_region(name, bindings,
                                                      monkeypatch):
    grid = (3, 2)
    table, counted, calls = native_run(name, bindings, grid, monkeypatch)
    regions, counted_too, region_calls = native_run(
        name, bindings, grid, monkeypatch, per_region=True)
    assert counted == counted_too == {}
    assert observed(table) == observed(regions)
    assert calls and set(calls) == {6}
    assert region_calls == [1] * (6 * len(calls))


def strided(block):
    """The block's values in a view with a non-unit inner stride."""
    wide = np.zeros((block.shape[0], 2 * block.shape[1]), block.dtype)
    wide[:, ::2] = block
    return wide[:, ::2]


@needs_cc
@pytest.mark.parametrize("replace, fallbacks, calls", [
    # the refused region is counted and runs on the ufunc tape
    (strided, {"stride": 1.0}, [1, 1, 1]),
    # a block outside the array's buffer: no table may hold an offset to
    # it, but as its own one-row call it is fine
    (np.copy, {}, [1, 1, 1, 1]),
], ids=["strided", "foreign-buffer"])
def test_a_table_with_one_ineligible_region_falls_back_whole(
        replace, fallbacks, calls, monkeypatch):
    """PE 3's block of the output is replaced after allocation: the
    table is refused, and every run of the nest takes one call per
    region."""
    real = DArray.create

    def create(machine, name, *args, **kwargs):
        da = real(machine, name, *args, **kwargs)
        if name == "DST":
            da.locals[3] = replace(da.locals[3])
        return da

    bindings = {"N": 258}
    expected, _, _ = native_run("nine_point", bindings, (2, 2), monkeypatch)
    monkeypatch.setattr(DArray, "create", staticmethod(create))
    result, counted, made = native_run("nine_point", bindings, (2, 2),
                                       monkeypatch)
    assert observed(result) == observed(expected)
    assert (counted, made) == (fallbacks, calls)


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
    assert [v.hex() for v in _partials(blocks, ufunc)] == \
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
