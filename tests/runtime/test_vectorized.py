"""Differential tests: the vectorized backend vs the per-PE executor.

The vectorized backend's contract is strict equivalence — bitwise-equal
arrays and scalars AND an identical cost report (message/byte/copy
counts, per-PE modelled times, peak memory) on every valid plan.  These
tests enforce it over the named paper kernels and random programs from
the differential generator, including collapsed dimensions
((BLOCK,BLOCK,*) 3-D kernels) and EOSHIFT boundary fills, at every
optimization level, against the O0 baseline and the serial reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import OptLevel, compile_hpf
from repro.plan import LoopNestOp, NestStmt
from repro.errors import ExecutionError
from repro.ir.nodes import OffsetRef
from repro.kernels import KERNELS, run_kernel
from repro.machine import Machine
from repro.machine.cost_model import LoopStats
from repro.runtime.backends import get_backend
from repro.testing import (
    GeneratorConfig, backend_equivalence_check, random_inputs,
    random_program,
)

DEFAULT = OptLevel.DEFAULT.name

SMALL_N = {"five_point": 12, "nine_point_cshift": 12, "nine_point": 12,
           "purdue9": 12, "twentyfive_point": 16, "seven_point_3d": 8,
           "box27_3d": 8, "jacobi": 12, "red_black": 12, "cg": 12}


def _results(name: str, level: str, grid: tuple[int, ...]):
    out = {}
    for backend in ("perpe", "vectorized"):
        machine = Machine(grid=grid, keep_message_log=False)
        out[backend] = run_kernel(
            name, bindings={"N": SMALL_N[name]}, level=level,
            backend=backend, machine=machine, iterations=2, seed=1)
    return out["perpe"], out["vectorized"]


class TestNamedKernels:
    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4"])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_bitwise_and_cost_identical(self, name, level):
        a, b = _results(name, level, (2, 2))
        assert set(a.arrays) == set(b.arrays)
        for arr in a.arrays:
            np.testing.assert_array_equal(a.arrays[arr], b.arrays[arr],
                                          err_msg=f"{name} {level} {arr}")
        assert a.scalars == b.scalars
        assert a.report.summary() == b.report.summary()
        assert a.report.pe_times == b.report.pe_times
        assert a.peak_memory_per_pe == b.peak_memory_per_pe

    @pytest.mark.parametrize("grid", [(4, 1), (1, 4), (3, 2)])
    def test_asymmetric_grids(self, grid):
        for name in ("nine_point", "purdue9", "seven_point_3d"):
            a, b = _results(name, "O4", grid)
            for arr in a.arrays:
                np.testing.assert_array_equal(a.arrays[arr], b.arrays[arr])
            assert a.report.summary() == b.report.summary()


class TestRandomPrograms:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_default_generator(self, seed):
        prog = random_program(seed)
        backend_equivalence_check(prog, random_inputs(seed, prog))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_collapsed_dim_3d(self, seed):
        cfg = GeneratorConfig(ndim=3, n=8, n_statements=3,
                              allow_where=False)
        prog = random_program(seed, cfg)
        backend_equivalence_check(prog, random_inputs(seed, prog, cfg),
                                  levels=("O0", DEFAULT))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_eoshift_boundaries_wide_offsets(self, seed):
        cfg = GeneratorConfig(n=16, max_offset=3, n_statements=5,
                              eoshift_boundary=-1.25)
        prog = random_program(seed, cfg)
        backend_equivalence_check(prog, random_inputs(seed, prog, cfg),
                                  levels=("O1", "O3"),
                                  grids=((2, 2), (4, 1)))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_multi_iteration_runs(self, seed):
        prog = random_program(seed)
        backend_equivalence_check(prog, random_inputs(seed, prog),
                                  levels=(DEFAULT,), iterations=3)


class TestReferenceAgreement:
    """Both backends must also agree with the serial NumPy reference
    (ties the backend equivalence to ground truth, not just to each
    other)."""

    @pytest.mark.parametrize("backend", ["perpe", "vectorized"])
    def test_against_reference(self, backend):
        from repro.frontend import parse_program
        from repro.runtime.reference import evaluate

        prog = random_program(77)
        inputs = random_inputs(77, prog)
        parsed = parse_program(prog.source, bindings=prog.bindings)
        ref = evaluate(parsed, inputs=inputs, scalars=prog.scalars)
        compiled = compile_hpf(prog.source, bindings=prog.bindings,
                               level="O4", outputs=set(prog.arrays))
        res = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                           scalars=prog.scalars, backend=backend)
        for name in prog.arrays:
            np.testing.assert_allclose(res.arrays[name], ref[name],
                                       rtol=1e-6, atol=1e-12)


class TestGuards:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ExecutionError, match="unknown execution "
                                                 "backend"):
            get_backend("simd")

    def test_in_nest_offset_read_after_assign_rejected(self):
        """The vectorized backend refuses nests that read an array at a
        nonzero offset after assigning it in the same nest — the one
        plan shape where global-array semantics and per-PE semantics
        could diverge.  The compiler never emits it; hand-built plans
        must fall back to the per-PE backend."""
        spec = KERNELS["five_point"]
        compiled = compile_hpf(spec.source, bindings={"N": 8},
                               level="O0", outputs=set(spec.outputs))
        ex = get_backend("vectorized")(
            compiled.plan, Machine(grid=(2, 2)), None, False)
        bad = LoopNestOp(
            statements=[
                NestStmt("A", OffsetRef("B", (0, 0))),
                NestStmt("C", OffsetRef("A", (1, 0))),
            ],
            space=(), stats=LoopStats(points=1))
        with pytest.raises(ExecutionError, match="reads .* after "
                                                 "assigning"):
            ex._nest_tape(bad)

    def test_in_nest_zero_offset_read_allowed(self):
        spec = KERNELS["five_point"]
        compiled = compile_hpf(spec.source, bindings={"N": 8},
                               level="O0", outputs=set(spec.outputs))
        ex = get_backend("vectorized")(
            compiled.plan, Machine(grid=(2, 2)), None, False)
        ok = LoopNestOp(
            statements=[
                NestStmt("A", OffsetRef("B", (0, 0))),
                NestStmt("C", OffsetRef("A", (0, 0))),
            ],
            space=(), stats=LoopStats(points=1))
        ex._nest_tape(ok)  # must not raise
