"""Differential fuzzing: random subset programs, all levels, all grids.

The ultimate semantics-preservation test — any divergence between an
optimization level and the serial reference, or between the ``perpe``
and ``vectorized`` backends in any bit, fails with the offending
program attached.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import OptLevel
from repro.testing import (
    GeneratorConfig, differential_check, random_inputs, random_program,
)

DEFAULT = OptLevel.DEFAULT.name


class TestGenerator:
    def test_deterministic(self):
        assert random_program(7).source == random_program(7).source

    def test_parses(self):
        from repro.frontend import parse_program
        for seed in range(20):
            prog = random_program(seed)
            parse_program(prog.source, bindings=prog.bindings)

    def test_inputs_cover_arrays(self):
        prog = random_program(3)
        inputs = random_inputs(3, prog)
        assert set(inputs) == set(prog.arrays)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_differential_default(seed):
    prog = random_program(seed)
    differential_check(prog, random_inputs(seed, prog),
                       levels=("O0", "O2", DEFAULT))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_differential_all_levels_multiple_grids(seed):
    cfg = GeneratorConfig(n=12, n_statements=4)
    prog = random_program(seed, cfg)
    differential_check(prog, random_inputs(seed, prog, cfg),
                       grids=((1, 1), (2, 2), (4, 2)))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_differential_3d(seed):
    cfg = GeneratorConfig(ndim=3, n=8, n_statements=3)
    prog = random_program(seed, cfg)
    differential_check(prog, random_inputs(seed, prog, cfg),
                       levels=("O0", DEFAULT))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_differential_wide_offsets(seed):
    cfg = GeneratorConfig(n=16, max_offset=3, n_statements=5)
    prog = random_program(seed, cfg)
    differential_check(prog, random_inputs(seed, prog, cfg),
                       levels=("O0", "O3"))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_differential_poisoned(seed):
    """Input cells a program overwrites before it reads them, set to
    NaN, change no bit of any run: skipped on entry, or copied in and
    never read (``differential_check(poison=True)``)."""
    prog = random_program(seed)
    differential_check(prog, random_inputs(seed, prog),
                       levels=("O0", "O2", DEFAULT), grids=((2, 2), (4, 2)),
                       poison=True)


def test_known_hard_seeds():
    """Seeds that historically exercised corner paths stay covered."""
    for seed in (0, 1, 2, 42, 1234, 9999):
        prog = random_program(seed)
        differential_check(prog, random_inputs(seed, prog))


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_differential_extension_options(seed):
    """The comm/comp-overlap ablation field must also preserve
    semantics on random programs, over the paper's top level and over
    the default one."""
    import numpy as np
    from repro.compiler import compile_hpf
    from repro.frontend import parse_program
    from repro.machine import Machine
    from repro.runtime.reference import evaluate

    prog = random_program(seed)
    inputs = random_inputs(seed, prog)
    parsed = parse_program(prog.source, bindings=prog.bindings)
    ref = evaluate(parsed, inputs=inputs)
    for opts in ({"level": "O4", "overlap_comm": True},
                 {"level": DEFAULT, "overlap_comm": True}):
        compiled = compile_hpf(prog.source, bindings=prog.bindings,
                               outputs=set(prog.arrays), **opts)
        res = compiled.run(Machine(grid=(2, 2), keep_message_log=False),
                           inputs=inputs)
        for name in prog.arrays:
            np.testing.assert_allclose(
                res.arrays[name], ref[name], rtol=1e-6, atol=1e-12,
                err_msg=f"{opts} on\n{prog.source}")
