"""Differential fuzzing of the ``parallel`` backend's stripe counts.

Hypothesis drives random kernel programs — shift offsets, reductions
feeding later statements, WHERE masks, DO WHILE loops with data-derived
bounds — through :func:`repro.testing.backend_equivalence_check` across
worker counts (1, 2, 3, and the auto default) and asymmetric processor
grids; the check patches ``MIN_STRIPE_POINTS`` down so these tiny
programs stripe every legal nest.  Every example demands the full
three-backend contract: bitwise arrays/scalars, identical modelled cost
report, identical tagged message log, identical communication profile.

Settings mirror the ``ci`` hypothesis profile (tests/conftest.py):
``deadline=None`` and ``derandomize=True`` so CI failures replay
identically; on a red run CI uploads the ``.hypothesis`` example
database as an artifact.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compiler import OptLevel
from repro.testing import (
    GeneratedProgram, GeneratorConfig, backend_equivalence_check,
    equivalence_backends, random_inputs, random_program,
)

DEFAULT = OptLevel.DEFAULT.name

FUZZ = settings(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

#: Worker counts the stripe cut must be invariant under: everything on
#: the calling thread, an even cut, an uneven cut of 12 rows with two
#: stripes queued on the pool, and the backend's ``os.cpu_count()``
#: default.
WORKER_COUNTS = (1, 2, 3, None)

workers_st = st.sampled_from(WORKER_COUNTS)


@settings(max_examples=8, parent=FUZZ)
@given(seed=st.integers(0, 10_000), workers=workers_st)
def test_random_programs_any_worker_count(seed, workers):
    prog = random_program(seed)
    backend_equivalence_check(prog, random_inputs(seed, prog),
                              levels=("O0", DEFAULT),
                              backends=equivalence_backends((workers,)))


@settings(max_examples=6, parent=FUZZ)
@given(seed=st.integers(0, 10_000),
       max_offset=st.integers(1, 3),
       workers=workers_st)
def test_offset_heavy_programs(seed, max_offset, workers):
    """Wider shift offsets widen halos and change the message schedule;
    the stripe cut must not perturb any of it."""
    cfg = GeneratorConfig(max_offset=max_offset, allow_where=False,
                          n_statements=4)
    prog = random_program(seed, cfg)
    backend_equivalence_check(prog, random_inputs(seed, prog, cfg),
                              levels=("O2",),
                              backends=equivalence_backends((workers,)))


@settings(max_examples=6, parent=FUZZ)
@given(seed=st.integers(0, 10_000), workers=workers_st)
def test_reduction_heavy_programs(seed, workers):
    """Reductions stay on the calling thread between striped nests:
    partials fold in PE order, the scalar feeds the next stripes, every
    backend logs the same allreduce butterfly messages."""
    cfg = GeneratorConfig(n_statements=8, allow_eoshift=False,
                          allow_do_loop=False)
    prog = random_program(seed, cfg)
    backend_equivalence_check(prog, random_inputs(seed, prog, cfg),
                              levels=("O0", DEFAULT),
                              backends=equivalence_backends((workers,)))


@settings(max_examples=6, parent=FUZZ)
@given(seed=st.integers(0, 10_000),
       grid=st.sampled_from([(4, 1), (1, 4), (3, 2), (2, 3)]),
       workers=workers_st)
def test_asymmetric_grids(seed, grid, workers):
    """Non-square grids: stripes cut the global rows wherever the PE
    block boundaries fall (3 stripes over 4x1 blocks, 2 over 3x2)."""
    prog = random_program(seed)
    backend_equivalence_check(prog, random_inputs(seed, prog),
                              levels=("O2",), grids=(grid,),
                              backends=equivalence_backends((workers,)))


def _do_while_program(decay: float, threshold: float,
                      shift: int) -> GeneratedProgram:
    """A DO WHILE whose trip count depends on reduced data: the
    condition is reduced from slabs the stripes of the previous trip
    wrote, so a stripe still running at the join would change it.  ``random_program`` never emits DO WHILE, so the loop
    shapes are enumerated here."""
    source = (
        "      REAL, DIMENSION(N,N) :: A, B\n"
        "!HPF$ DISTRIBUTE A(BLOCK,BLOCK)\n"
        "!HPF$ ALIGN B WITH A\n"
        "      S = SUM(A)\n"
        f"      DO WHILE (S > {threshold!r})\n"
        f"        A = {decay!r} * A + "
        f"0.05 * CSHIFT(B, SHIFT={shift}, DIM=1)\n"
        "        T = MAXVAL(A)\n"
        f"        B = {decay!r} * B + T * 0.001\n"
        "        S = SUM(A)\n"
        "      ENDDO\n"
        "      B = B + S\n")
    return GeneratedProgram(source=source, arrays=["A", "B"],
                            bindings={"N": 12})


@settings(max_examples=6, parent=FUZZ)
@given(seed=st.integers(0, 1_000),
       decay=st.sampled_from([0.25, 0.5, 0.7]),
       threshold=st.sampled_from([1.0, 10.0, 200.0]),
       shift=st.sampled_from([-2, -1, 1, 2]),
       workers=workers_st)
def test_do_while_bounds(seed, decay, threshold, shift, workers):
    prog = _do_while_program(decay, threshold, shift)
    rng = np.random.default_rng(seed)
    inputs = {name: rng.uniform(0.1, 1.0, (12, 12))
              for name in prog.arrays}
    backend_equivalence_check(prog, inputs, levels=("O0", DEFAULT),
                              backends=equivalence_backends((workers,)))
