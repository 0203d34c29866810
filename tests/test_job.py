"""The one run path: the same job through every front door.

``run_kernel``, ``python -m repro run`` and ``POST /run`` all build a
:class:`repro.job.RunJob` and call its ``execute``; these tests hold
the three doors to identical bytes, and the job's input draw to an
oracle written out longhand (``benchmarks/e2e/harness.seeded_inputs``
re-derives the same draw and must keep matching it).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.job import CompileJob, MachineSpec, RunJob
from repro.kernels import compile_kernel, run_kernel
from tests.service.test_http import ServiceHarness


@pytest.mark.parametrize("backend,workers", [
    ("perpe", None),
    ("vectorized", None),
    pytest.param("parallel", 2, marks=pytest.mark.parallel),
])
def test_three_doors_one_run(backend, workers, tmp_path, capsys):
    """cg: default scalars, reductions and runtime scalars all cross
    the door; non-default level, seed, iterations and bindings."""
    direct = run_kernel("cg", bindings={"N": 16}, level="O3",
                        backend=backend, workers=workers, seed=7,
                        iterations=2)
    checksums = {name: float(np.abs(arr).sum())
                 for name, arr in direct.arrays.items()}

    argv = ["run", "cg", "--bind", "N=16", "--level", "O3",
            "--backend", backend, "--seed", "7", "--iters", "2",
            "--json"]
    if workers:
        argv += ["--workers", str(workers)]
    assert main(argv) == 0
    cli = json.loads(capsys.readouterr().out)
    assert cli.pop("checksums") == checksums
    assert cli == direct.summary()

    harness = ServiceHarness(tmp_path)
    try:
        doc = harness.json("POST", "/run", {
            "kernel": "cg", "bindings": {"N": 16}, "level": "O3",
            "backend": backend, "workers": workers, "seed": 7,
            "iterations": 2, "arrays": "digest"})
    finally:
        harness.close()
    assert doc["summary"] == direct.summary()
    assert doc["scalars"] == {k: float(v) for k, v
                              in direct.scalars.items()}
    assert set(doc["arrays"]) == set(direct.arrays)
    for name, arr in direct.arrays.items():
        assert doc["arrays"][name]["checksum"] == checksums[name]
        assert doc["arrays"][name]["sha256"] == \
            hashlib.sha256(arr.tobytes()).hexdigest()


@pytest.mark.parametrize("kernel", ["cg", "purdue9"])
def test_input_draw_matches_the_longhand_oracle(kernel):
    compiled = compile_kernel(kernel, bindings={"N": 12})
    job = RunJob(compile=CompileJob.resolve(kernel=kernel,
                                            bindings={"N": 12}),
                 machine=MachineSpec(), seed=5)

    rng = np.random.default_rng(5)
    oracle = {name: rng.standard_normal(decl.shape).astype(decl.dtype)
              for name, decl in compiled.plan.arrays.items()
              if name in compiled.plan.entry_arrays}

    drawn = job.inputs(compiled)
    assert len(oracle) > 1  # order of the draws matters
    assert list(drawn) == list(oracle)
    for name, expected in oracle.items():
        assert drawn[name].dtype == expected.dtype
        np.testing.assert_array_equal(drawn[name], expected)


def test_library_runs_zero_iterations_but_not_negative_seeds():
    from repro.errors import UsageError
    result = run_kernel("five_point", bindings={"N": 8}, iterations=0)
    assert result.report.messages == 0
    with pytest.raises(UsageError, match="seed"):
        run_kernel("five_point", bindings={"N": 8}, seed=-1)
