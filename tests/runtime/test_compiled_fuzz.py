"""Differential fuzzing of the compiled backend's code generator.

Hypothesis drives random programs from the full generator subset —
CSHIFT/EOSHIFT chains, WHERE masks, reductions feeding later scalars,
accumulation chains, intrinsics — through
:func:`repro.testing.backend_equivalence_check` with the compiled
backend in the sweep, across random tile and unroll-and-jam factors.
Every example demands bitwise arrays/scalars, an identical modelled
cost report, an identical tagged message log, and an identical
communication profile against the per-PE baseline; programs whose
nests cannot be lowered bitwise-safely exercise the per-nest slab
fallback inside the same check.

Settings mirror the ``ci`` hypothesis profile: ``deadline=None`` and
``derandomize=True`` so CI failures replay identically.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen import codegen_options
from repro.compiler import OptLevel
from repro.testing import (
    GeneratorConfig, backend_equivalence_check,
    random_inputs, random_program,
)

DEFAULT = OptLevel.DEFAULT.name

pytestmark = pytest.mark.compiled

FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

COMPILED_SWEEP = (("perpe", {}), ("compiled", {}))

tile_st = st.sampled_from((0, 3, 8))
unroll_st = st.sampled_from((0, 2, 4))


@settings(max_examples=10, parent=FUZZ)
@given(seed=st.integers(0, 10_000), tile=tile_st, unroll=unroll_st)
def test_random_programs_any_factors(seed, tile, unroll):
    prog = random_program(seed)
    with codegen_options(jit="python", tile=tile,
                         unroll=unroll):
        backend_equivalence_check(prog, random_inputs(seed, prog),
                                  levels=("O0", DEFAULT),
                                  backends=COMPILED_SWEEP)


@settings(max_examples=6, parent=FUZZ)
@given(seed=st.integers(0, 10_000), tile=tile_st)
def test_collapsed_dim_3d(seed, tile):
    cfg = GeneratorConfig(ndim=3, n=8, n_statements=3,
                          allow_where=False)
    prog = random_program(seed, cfg)
    with codegen_options(jit="python", tile=tile,
                         unroll=2):
        backend_equivalence_check(prog, random_inputs(seed, prog, cfg),
                                  levels=(DEFAULT,),
                                  backends=COMPILED_SWEEP)


@settings(max_examples=6, parent=FUZZ)
@given(seed=st.integers(0, 10_000), unroll=unroll_st)
def test_eoshift_boundaries(seed, unroll):
    cfg = GeneratorConfig(n=16, max_offset=3, n_statements=5,
                          eoshift_boundary=-1.25)
    prog = random_program(seed, cfg)
    with codegen_options(jit="python", unroll=unroll):
        backend_equivalence_check(prog, random_inputs(seed, prog, cfg),
                                  levels=("O1", "O3"),
                                  backends=COMPILED_SWEEP)


@settings(max_examples=5, parent=FUZZ)
@given(seed=st.integers(0, 10_000))
def test_multi_iteration_runs(seed):
    prog = random_program(seed)
    with codegen_options(jit="python", tile=5, unroll=3):
        backend_equivalence_check(prog, random_inputs(seed, prog),
                                  levels=(DEFAULT,), iterations=3,
                                  backends=COMPILED_SWEEP)
