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

from repro.__main__ import _job, build_parser, main
from repro.compiler import (
    CompilerOptions, HpfCompiler, OptLevel, compile_hpf,
)
from repro.job import CompileJob, MachineSpec, RunJob
from repro.kernels import KERNELS, compile_kernel, run_kernel
from repro.plan import plan_to_json
from repro.service import parse_compile_job
from tests.service.test_http import ServiceHarness


@pytest.mark.parametrize("backend,workers", [
    ("perpe", None),
    ("vectorized", None),
    ("parallel", 2),
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
    assert cli.pop("scalars") == {k: float(v).hex()
                                  for k, v in direct.scalars.items()}
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


def test_three_doors_run_jacobi_at_the_default_level(tmp_path, capsys):
    """Naming nothing but the kernel gets the hoisted, swapped plan:
    4 PEs x 4 faces x (10 iterations of U + A once) messages, where the
    paper's O4 sends 4 x 8 x 10."""
    direct = run_kernel("jacobi")
    assert direct.report.messages == 176
    assert run_kernel("jacobi", level="O4").report.messages == 320
    assert main(["run", "jacobi", "--json"]) == 0
    cli = json.loads(capsys.readouterr().out)
    harness = ServiceHarness(tmp_path)
    try:
        doc = harness.json("POST", "/run", {"kernel": "jacobi"})
    finally:
        harness.close()
    assert cli.pop("checksums") is not None
    assert cli.pop("scalars") == {k: float(v).hex()
                                  for k, v in doc["scalars"].items()}
    assert cli == doc["summary"] == direct.summary()
    assert doc["arrays"]["U"]["sha256"] == hashlib.sha256(
        direct.arrays["U"].tobytes()).hexdigest()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_door_compiles_at_the_default_level(kernel):
    """No entry point names a level of its own: asked for none, the
    library calls, the job, the CLI parser and the service's job parser
    all produce the byte-identical default-level plan."""
    spec = KERNELS[kernel]
    args = dict(bindings=dict(spec.default_bindings),
                outputs=set(spec.outputs))
    doors = {
        "compile_hpf": compile_hpf(spec.source, **args),
        "HpfCompiler": HpfCompiler(CompilerOptions(
            outputs=spec.outputs)).compile(
                spec.source, bindings=args["bindings"]),
        "CompileJob": CompileJob.resolve(kernel=kernel).compile(),
        "cli": _job(build_parser().parse_args(
            ["compile", kernel])).compile(),
        "service": parse_compile_job({"kernel": kernel}).compile(),
    }
    plans = {door: plan_to_json(c.plan) for door, c in doors.items()}
    assert len(set(plans.values())) == 1, sorted(plans)
    assert {c.report.level for c in doors.values()} == \
        {OptLevel.DEFAULT.name}
    assert "plan-passes" in doors["cli"].report.pass_stats


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


def test_compiled_and_its_knobs_are_not_a_job():
    """The retired backend and its three fields fail at job
    construction, naming what exists; the variables earlier commits
    read are ignored."""
    import dataclasses

    from repro.errors import UsageError
    compile_job = CompileJob.resolve(kernel="five_point",
                                     bindings={"N": 8})
    with pytest.raises(UsageError,
                       match="one of parallel, perpe, vectorized"):
        RunJob(compile=compile_job, machine=MachineSpec(),
               backend="compiled")
    with pytest.raises(UsageError,
                       match="one of parallel, perpe, vectorized"):
        run_kernel("five_point", bindings={"N": 8}, backend="compiled")
    for knob in ({"jit": "python"}, {"tile": 8}, {"unroll": 2}):
        with pytest.raises(TypeError):
            RunJob(compile=compile_job, machine=MachineSpec(), **knob)
    assert not {"tile", "unroll", "jit"} & {
        f.name for f in dataclasses.fields(RunJob)}
    with pytest.raises(TypeError):
        RunJob(compile=compile_job, machine=MachineSpec()).execute(
            None, None, kernel_cache_dir="kernels")


def test_retired_environment_variables_change_nothing(
        monkeypatch, tmp_path):
    """``REPRO_COMPILED_*`` and ``REPRO_KERNEL_CACHE`` were process-wide
    defaults of the compiled backend; set (garbage included), a run
    gives the same bytes and summary and the cache path is never
    created."""
    def run():
        result = run_kernel("nine_point", bindings={"N": 16},
                            backend="vectorized", seed=2)
        return result.summary(), {
            name: hashlib.sha256(arr.tobytes()).hexdigest()
            for name, arr in result.arrays.items()}

    want = run()
    monkeypatch.setenv("REPRO_COMPILED_JIT", "python")
    monkeypatch.setenv("REPRO_COMPILED_TILE", "lots")
    monkeypatch.setenv("REPRO_COMPILED_UNROLL", "-3")
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "x"))
    assert run() == want
    assert not (tmp_path / "x").exists()


def test_ledger_reads_the_parents_lines_and_appends_level_only(tmp_path):
    """A ledger file earlier commits wrote (``factors`` with ``tile`` /
    ``unroll`` / ``jit`` / ``codegen``) stays readable from the file
    this commit appends to; a new line's factors are the level."""
    from repro.obs.ledger import LEDGER_SCHEMA, RunLedger
    from repro.plan import PLAN_SCHEMA_VERSION
    assert LEDGER_SCHEMA == {"type": "run", "version": 1}
    assert PLAN_SCHEMA_VERSION == 2
    old = {**LEDGER_SCHEMA, "timestamp": 1.0,
           "fingerprint": "grid=2x2;parent", "plan_key": "p" * 64,
           "backend": "compiled",
           "factors": {"level": "O5", "tile": 16, "unroll": 2,
                       "jit": "python", "codegen": "tile=16;unroll=2"},
           "metrics": None, "extra": {"grid": "2x2", "iterations": 1}}
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps(old, sort_keys=True) + "\n")
    job = RunJob(compile=CompileJob.resolve(kernel="five_point",
                                            bindings={"N": 8}),
                 machine=MachineSpec(), backend="vectorized")
    machine = job.machine.build()
    ledger = RunLedger(path)
    new = job.ledger_append(ledger, machine, "k" * 64, None)
    assert new["factors"] == {"level": OptLevel.DEFAULT.name}
    records = ledger.records()
    assert records == [old, new] and ledger.corrupt_lines == 0
    assert ledger.latest("grid=2x2;parent") == old
    assert ledger.latest(machine.fingerprint()) == new
