"""Job-document parsing: strict validation at the service boundary.

Every malformed document must become a :class:`JobError` naming the
offending field (the app maps those to 400s), never an exception from
deeper layers; registry-kernel jobs must resolve defaults exactly as
``run_kernel`` does so service runs stay bitwise-comparable."""

import pytest

from repro.kernels import KERNELS
from repro.service import (
    JobError, parse_compile_job, parse_run_job,
)

FIVE = {"kernel": "five_point", "bindings": {"N": 12}}


class TestCompileJob:
    def test_kernel_resolves_registry_defaults(self):
        job = parse_compile_job({"kernel": "jacobi"})
        spec = KERNELS["jacobi"]
        assert job.source == spec.source
        assert job.bindings == spec.default_bindings
        assert job.outputs == set(spec.outputs)
        assert job.kernel == "jacobi"

    def test_explicit_bindings_override_defaults(self):
        job = parse_compile_job({"kernel": "five_point",
                                 "bindings": {"N": 12}})
        assert job.bindings["N"] == 12

    def test_raw_source_passes_through(self):
        src = KERNELS["five_point"].source
        job = parse_compile_job({"source": src, "bindings": {"N": 8},
                                 "outputs": ["DST"]})
        assert job.source == src
        assert job.outputs == {"DST"}
        assert job.kernel is None

    def test_kernel_and_source_together_rejected(self):
        with pytest.raises(JobError, match="exactly one"):
            parse_compile_job({"kernel": "jacobi", "source": "x"})

    def test_neither_kernel_nor_source_rejected(self):
        with pytest.raises(JobError, match="exactly one"):
            parse_compile_job({"bindings": {"N": 4}})

    def test_unknown_kernel_rejected(self):
        with pytest.raises(JobError, match="no_such"):
            parse_compile_job({"kernel": "no_such"})

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(JobError, match="grid"):
            parse_compile_job({**FIVE, "grid": [2, 2]})

    def test_non_integer_binding_rejected(self):
        with pytest.raises(JobError, match="bindings"):
            parse_compile_job({"kernel": "jacobi",
                               "bindings": {"N": 12.5}})
        with pytest.raises(JobError, match="bindings"):
            parse_compile_job({"kernel": "jacobi",
                               "bindings": {"N": True}})

    def test_non_object_rejected(self):
        with pytest.raises(JobError, match="object"):
            parse_compile_job(["not", "a", "job"])


class TestRunJob:
    def test_defaults(self):
        job = parse_run_job(dict(FIVE))
        assert job.backend == "perpe"
        assert job.iterations == 1
        assert job.seed == 0
        assert job.arrays == "digest"
        assert job.machine.grid == (2, 2)
        assert job.machine.preset == "sp2"

    def test_kernel_default_scalars_merge_under_explicit(self):
        spec = KERNELS["cg"]
        assert spec.default_scalars  # the premise of the merge test
        some_key = next(iter(spec.default_scalars))
        job = parse_run_job({"kernel": "cg",
                             "scalars": {some_key: 99.0}})
        assert job.scalars[some_key] == 99.0
        for name, value in spec.default_scalars.items():
            if name != some_key:
                assert job.scalars[name] == value

    def test_machine_spec_builds(self):
        job = parse_run_job({**FIVE,
                             "machine": {"grid": [4, 1],
                                         "preset": "ethernet",
                                         "memory_mb": 8}})
        machine = job.machine.build()
        assert tuple(machine.grid) == (4, 1)
        assert machine.memory_per_pe == 8 * 1024 * 1024

    def test_bad_backend_rejected(self):
        with pytest.raises(JobError, match="backend"):
            parse_run_job({**FIVE, "backend": "cuda"})

    def test_bad_arrays_mode_rejected(self):
        with pytest.raises(JobError, match="arrays"):
            parse_run_job({**FIVE, "arrays": "everything"})

    def test_bad_grid_rejected(self):
        with pytest.raises(JobError, match="grid"):
            parse_run_job({**FIVE, "machine": {"grid": [0, 2]}})

    def test_bad_iterations_rejected(self):
        with pytest.raises(JobError, match="iterations"):
            parse_run_job({**FIVE, "iterations": 0})

    def test_bad_jit_rejected(self):
        """Every value is bad: the compiled backend's three keys are
        unknown fields now, and its name is not a backend."""
        for key, value in (("jit", "python"), ("tile", 8), ("unroll", 2)):
            with pytest.raises(JobError, match=f"unknown field.*{key}"):
                parse_run_job({**FIVE, key: value})
        with pytest.raises(JobError,
                           match="parallel, perpe, vectorized"):
            parse_run_job({**FIVE, "backend": "compiled"})

    def test_non_numeric_scalar_rejected(self):
        with pytest.raises(JobError, match="scalars"):
            parse_run_job({**FIVE, "scalars": {"eps": "tiny"}})


#: Bad *values* in well-shaped documents: each used to escape the
#: parser and surface as a 500 from deep inside the compiler, numpy or
#: the preset table.  (field named in the diagnostic, document)
BAD_VALUES = [
    ("level", {"level": "O9"}),
    ("level", {"level": None}),
    ("preset", {"machine": {"preset": "cray"}}),
    ("preset", {"machine": {"preset": None}}),
    ("seed", {"seed": -1}),
    ("seed", {"seed": None}),
    ("seed", {"seed": True}),
    ("iterations", {"iterations": None}),
    ("outputs", {"outputs": [1, 2]}),
    ("outputs", {"outputs": [["DST"]]}),
    ("worker", {"workers": 0}),
]


@pytest.mark.parametrize("field,extra", BAD_VALUES,
                         ids=[repr(e) for _, e in BAD_VALUES])
def test_bad_value_is_a_job_error_naming_the_field(field, extra):
    with pytest.raises(JobError, match=field):
        parse_run_job({**FIVE, **extra})
    if set(extra) <= {"level", "outputs"}:  # also /compile fields
        with pytest.raises(JobError, match=field):
            parse_compile_job({**FIVE, **extra})


def test_parsed_jobs_are_the_librarys_own_objects():
    from repro.job import CompileJob, MachineSpec, RunJob
    job = parse_run_job(dict(FIVE))
    assert type(job) is RunJob
    assert type(job.compile) is CompileJob is type(
        parse_compile_job(dict(FIVE)))
    assert type(job.machine) is MachineSpec
