"""Four-backend equivalence for loop-optimized plans, and what the
default level buys over the paper's ``O4`` on the solver kernels.

Plans rewritten by the loop-aware passes — preheader-hoisted halo
exchanges and ping-pong ``SwapOp`` buffer rotation — must execute
bitwise-identically on every registered backend (perpe, vectorized,
parallel, compiled), including across repeated runs of the same
compiled program.  The traffic gates compare an explicit ``level="O4"``
with the default level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compiler import OptLevel, compile_hpf
from repro.kernels import KERNELS, run_kernel
from repro.testing import (
    GeneratedProgram, backend_equivalence_check,
)

DEFAULT = OptLevel.DEFAULT.name

#: Variable-coefficient full-box Jacobi: the coefficient array A is
#: read-only inside the DO loop (its four exchanges hoist to the
#: preheader) and the full-box copy-back of UNEW into U becomes a
#: ``SwapOp`` — both loop passes fire on one plan.
HOIST_AND_SWAP = """
      REAL, DIMENSION(N,N) :: U, UNEW, A
!HPF$ DISTRIBUTE U(BLOCK,BLOCK)
!HPF$ ALIGN UNEW WITH U
!HPF$ ALIGN A WITH U
      DO K = 1, NITER
        UNEW = 0.25 * ( CSHIFT(A,+1,1) * CSHIFT(U,+1,1)
     &                + CSHIFT(A,-1,1) * CSHIFT(U,-1,1)
     &                + CSHIFT(A,+1,2) * CSHIFT(U,+1,2)
     &                + CSHIFT(A,-1,2) * CSHIFT(U,-1,2) )
        U = UNEW
      ENDDO
"""


def _loop_program(source: str, outputs: list[str],
                  bindings: dict) -> tuple[GeneratedProgram, dict]:
    prog = GeneratedProgram(source=source, arrays=outputs,
                            bindings=bindings)
    compiled = compile_hpf(source, bindings=bindings, level="O0",
                           outputs=set(outputs))
    rng = np.random.default_rng(11)
    inputs = {
        arr: rng.standard_normal(d.shape).astype(d.dtype)
        for arr, d in compiled.plan.arrays.items()
        if arr in compiled.plan.entry_arrays}
    return prog, inputs


def test_hoisted_and_swapped_plan_is_backend_equivalent():
    prog, inputs = _loop_program(HOIST_AND_SWAP, ["U"],
                                 {"N": 16, "NITER": 5})
    backend_equivalence_check(
        prog, inputs, levels=("O0", DEFAULT),
        outputs={"U"})


def test_swapped_plan_survives_repeated_runs():
    # iterations > 1 re-runs the same compiled program on the same
    # machine: swapped buffers keep their birth names (memory accounting,
    # message tags) and the stripes of later sweeps bind the swapped
    # slabs
    prog, inputs = _loop_program(HOIST_AND_SWAP, ["U"],
                                 {"N": 16, "NITER": 3})
    backend_equivalence_check(
        prog, inputs, levels=(DEFAULT,), iterations=2,
        outputs={"U"})


@pytest.mark.parametrize("name", ["jacobi", "red_black", "cg"])
def test_solver_kernels_backend_equivalent_under_passes(name):
    spec = KERNELS[name]
    trip_key = next(k for k in spec.default_bindings if k != "N")
    bindings = {"N": 12, trip_key: 4}
    prog, inputs = _loop_program(spec.source, sorted(spec.outputs),
                                 bindings)
    prog = GeneratedProgram(source=prog.source, arrays=prog.arrays,
                            bindings=prog.bindings,
                            scalars=dict(spec.default_scalars))
    backend_equivalence_check(
        prog, inputs, levels=("O0", DEFAULT),
        outputs=set(spec.outputs))


# ---------------------------------------------------------------------------
# what the default level buys over the paper's O4 on the solver kernels
# ---------------------------------------------------------------------------

def _per_iteration_traffic(name: str, trip_key: str,
                           level: str) -> tuple[float, float]:
    """Steady-state (messages, bytes) per solver iteration, measured
    differentially (4-trip minus 2-trip, halved) so one-time preheader
    exchanges are charged to setup rather than to the loop body."""
    totals = {}
    for trips in (2, 4):
        report = run_kernel(name, bindings={"N": 32, trip_key: trips},
                            level=level).report
        totals[trips] = (report.messages, report.message_bytes)
    return ((totals[4][0] - totals[2][0]) / 2,
            (totals[4][1] - totals[2][1]) / 2)


def test_default_level_cuts_jacobi_traffic():
    """Invariant-shift hoisting + ping-pong swap strictly cut the
    variable-coefficient Jacobi solver's per-iteration message count
    AND bytes below the paper pipeline's."""
    paper = _per_iteration_traffic("jacobi", "NITER", "O4")
    default = _per_iteration_traffic("jacobi", "NITER", DEFAULT)
    assert default[0] < paper[0], (paper, default)
    assert default[1] < paper[1], (paper, default)


@pytest.mark.parametrize("name,trip_key", [("red_black", "NSWEEPS"),
                                           ("cg", "NITER")])
def test_default_level_leaves_variant_solvers_alone(name, trip_key):
    """Solvers whose every shifted array is written per iteration have
    nothing to hoist or swap: per-iteration traffic is unchanged."""
    assert _per_iteration_traffic(name, trip_key, DEFAULT) == \
        _per_iteration_traffic(name, trip_key, "O4")


@pytest.mark.parametrize("backend", ["perpe", "vectorized", "parallel",
                                     "parallel-striped"])
def test_default_jacobi_halves_messages_and_keeps_u_bitwise(backend):
    """16 PEs x 4 faces x (20 iterations of U + A once) = 1,344
    messages against the paper pipeline's 16 x 8 x 20 = 2,560, with the
    observable array bitwise identical and equal to the reference
    (``parallel`` runs these nests whole at N=64; ``-striped`` cuts
    each in two)."""
    from contextlib import nullcontext

    from repro.frontend import parse_program
    from repro.job import CompileJob, MachineSpec, RunJob
    from repro.runtime.reference import evaluate
    from repro.testing import forced_stripes
    backend, _, striped = backend.partition("-")
    results = {}
    for level in ("O4", None):
        job = RunJob(CompileJob.resolve(kernel="jacobi", level=level,
                                        bindings={"N": 64, "NITER": 20}),
                     MachineSpec(grid=(4, 4)), backend=backend, seed=3,
                     workers=2)
        compiled = job.compile.compile()
        with forced_stripes() if striped else nullcontext():
            results[level] = job.execute(compiled, job.machine.build())
    assert results["O4"].report.messages == 2560
    assert results[None].report.messages == 1344
    np.testing.assert_array_equal(results[None].arrays["U"],
                                  results["O4"].arrays["U"])
    ref = evaluate(parse_program(job.compile.source,
                                 bindings=job.compile.bindings),
                   inputs=job.inputs(compiled))["U"]
    np.testing.assert_allclose(results[None].arrays["U"], ref,
                               rtol=1e-6, atol=1e-12)


def test_cg_message_count():
    # initial SUM allreduce (2 rounds x 4 PEs) plus, per iteration,
    # 4 shifts x 4 PEs and two allreduces (PAP, RZNEW)
    niter = 5
    report = run_kernel("cg", bindings={"N": 32, "NITER": niter}).report
    assert report.messages == 8 + niter * (16 + 16)


def test_paper_pipeline_pays_off_on_the_full_solver():
    times = {level: run_kernel(
        "jacobi", bindings={"N": 256, "NITER": 3}, level=level,
        backend="vectorized").modelled_time for level in ("O0", "O4")}
    assert times["O0"] / times["O4"] > 2.0
